"""Extremal selfadjoint extensions of a symmetric column quasi-contraction.

A symmetric column ``T1 = [T11; T21]`` with ``nu_-(I - T11^2)`` finite
admits selfadjoint extensions ``T`` preserving that negative index exactly
when ``nu_-(I - T11^2) = nu_-(I - T1^T T1)``.  In the solvable case there
are two extreme extensions ``t_min <= T <= t_max`` that characterize the
whole solution set as an operator interval, and the gap
``t_max - t_min = diag(0, 2(I - V J V^T))`` vanishes exactly when the
factor ``V^T`` is J-isometric (the uniqueness criterion).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConsistencyError,
    DimensionMismatch,
    NotAnExtension,
    NotSolvable,
)
from .spectral import (
    SpectralDecomposition,
    _defect_scale,
    _inertia,
    _loewner_leq,
    _mapped_inertias,
    _small,
    as_matrix,
    as_symmetric,
    norm2,
    spectral_decompose,
    symmetrize,
)
from .tolerances import ToleranceProfile, _freeze, resolve

__all__ = [
    "SymmetricColumn",
    "ExtremalPair",
    "split_counts",
    "solvable",
    "extremal_extensions",
    "is_member",
    "uniqueness_gap",
    "krein_uniqueness_criterion",
]


@dataclass(frozen=True)
class SymmetricColumn:
    """Column data ``t11`` (symmetric head) and ``t21`` (coupling block), as read-only copies."""

    t11: np.ndarray
    t21: np.ndarray

    def __post_init__(self):
        for name, arr in (("t11", as_symmetric(self.t11)), ("t21", as_matrix(self.t21))):
            object.__setattr__(self, name, _freeze(np.array(arr)))
        if self.t21.shape[1] != self.t11.shape[0]:
            raise DimensionMismatch(
                f"t21 has {self.t21.shape[1]} columns but t11 has dim {self.t11.shape[0]}"
            )

    @property
    def dim1(self) -> int:
        return self.t11.shape[0]

    @property
    def dim2(self) -> int:
        return self.t21.shape[0]

    def stacked(self) -> np.ndarray:
        return np.vstack([self.t11, self.t21])

    def negated(self) -> "SymmetricColumn":
        return SymmetricColumn(-self.t11, -self.t21)


@dataclass(frozen=True)
class ExtremalPair:
    """Extreme extensions with their construction data.

    ``v`` is the factor with ``t21 = v D`` and kernel containing the defect
    kernel; ``j`` the signature of ``I - t11^2``; ``kappa_minus`` and
    ``kappa_plus`` count eigenvalues of any member below ``-1`` and above
    ``+1``.
    """

    t_min: np.ndarray
    t_max: np.ndarray
    v: np.ndarray
    j: np.ndarray
    kappa: int
    kappa_plus: int
    kappa_minus: int

    @property
    def dim1(self) -> int:
        return self.v.shape[1]

    @property
    def dim2(self) -> int:
        return self.v.shape[0]

    def unique(self, tol: ToleranceProfile | None = None) -> bool:
        """``t_min == t_max``, decided algebraically through ``I - V J V^T = 0``."""
        tol = resolve(tol)
        defect = np.eye(self.dim2) - self.v @ self.j @ self.v.T
        return _small(defect, tol, "residual", self.v, power=2)


# I + T, I - T and I - T^2 on the eigenvalues w of T; 1 - w^2 is formed as
# (1 - w)(1 + w), which does not cancel near |w| = 1
_PLUS_T, _MINUS_T, _DEFECT = (lambda w: 1.0 + w), (lambda w: 1.0 - w), (lambda w: (1.0 - w) * (1.0 + w))


def split_counts(t, tol: ToleranceProfile | None = None) -> tuple[int, int]:
    """Counts ``(nu_-(I + T), nu_-(I - T))`` for symmetric ``T``.

    Both are read off the eigenvalues of ``T`` at the scale ``(1 + |T|)^2``,
    off ``eigh`` when one lies near a threshold.  Their sum, ``nu_-(I - T^2)``
    by spectral mapping, is asserted by ``verify`` and the tests.
    """
    return tuple(c.n_minus for c in _mapped_inertias(t, tol, _defect_scale, (_PLUS_T, _MINUS_T)))


def _column_counts(col: SymmetricColumn, tol: ToleranceProfile):
    """Spectrum of ``T11`` and the two counts of the solvability criterion.

    Returns ``(spectrum, nu_-(I - T11^2), nu_-(I - T1^T T1))``, both counts
    taken at the scale ``(1 + |T1|)^2`` of the whole column.
    """
    t1 = col.stacked()
    floor = _defect_scale(t1)
    spec = spectral_decompose(col.t11, tol)
    full = _inertia(symmetrize(np.eye(col.dim1) - t1.T @ t1), tol, floor).n_minus
    return spec, spec.map(_DEFECT, floor).inertia.n_minus, full


def solvable(col: SymmetricColumn, tol: ToleranceProfile | None = None) -> bool:
    """Minimal-index solvability: ``nu_-(I - T11^2) == nu_-(I - T1^T T1)``."""
    _, head, full = _column_counts(col, resolve(tol))
    return head == full


def _extremal_blocks(t11: np.ndarray, t21: np.ndarray, defect: SpectralDecomposition):
    """Assemble the two extreme extensions from the column data.

    ``defect`` is the spectrum of ``I - t11^2``.
    """
    n1 = t11.shape[0]
    n2 = t21.shape[0]
    eye1 = np.eye(n1)
    d = defect.power(0.5)
    j = defect.sign()
    v = t21 @ defect.pinv_power(0.5)
    coupling = d @ v.T
    eye2 = np.eye(n2)
    corner_min = symmetrize(-eye2 + v @ (eye1 - t11) @ j @ v.T)
    corner_max = symmetrize(eye2 - v @ (eye1 + t11) @ j @ v.T)
    t_min = np.vstack([np.hstack([t11, coupling]), np.hstack([coupling.T, corner_min])])
    t_max = np.vstack([np.hstack([t11, coupling]), np.hstack([coupling.T, corner_max])])
    return symmetrize(t_min), symmetrize(t_max), v, j, coupling


def extremal_extensions(col: SymmetricColumn, tol: ToleranceProfile | None = None) -> ExtremalPair:
    """Construct the extreme extensions ``t_min`` and ``t_max``.

    Raises :class:`NotSolvable`, carrying the two counts, when the index
    criterion fails.  The coupling range inclusion is verified here.  The
    split counts ``(kappa_minus, kappa_plus)`` of both extremes and the
    negation duality ``(-T)_min = -T_max`` (each sign flip in the assembly
    is exact) are asserted by the verifier and the tests, which decompose
    the extremes and the negated column afresh, not here.
    ``T11`` is decomposed once; the index of ``I - T11^2``, its blocks and
    the counts of ``I +- T11`` are read off that spectrum at the scale
    ``(1 + |T11|)^2``.
    """
    tol = resolve(tol)
    spec, head, full = _column_counts(col, tol)
    if head != full:
        raise NotSolvable(
            f"nu_-(I - T11^2) = {head} differs from nu_-(I - T1^T T1) = {full}",
            nu_minus_head=head,
            nu_minus_column=full,
        )
    head_floor = _defect_scale(spec.norm)
    defect = spec.map(_DEFECT, head_floor)
    t_min, t_max, v, j, coupling = _extremal_blocks(col.t11, col.t21, defect)
    # coupling = D V^T = D |I - T11^2|^{[-1/2]} T21^T is the best factor of T21^T
    if not _small(coupling - col.t21.T, tol, "residual", col.t21):
        raise ConsistencyError(
            f"coupling rows leave the defect range (residual {norm2(coupling - col.t21.T):.3e}) "
            "although the index criterion holds"
        )
    kappa = defect.inertia.n_minus
    kappa_minus, kappa_plus = (spec.map(f, head_floor).inertia.n_minus for f in (_PLUS_T, _MINUS_T))
    return ExtremalPair(
        t_min=t_min,
        t_max=t_max,
        v=v,
        j=j,
        kappa=kappa,
        kappa_plus=kappa_plus,
        kappa_minus=kappa_minus,
    )


def is_member(pair: ExtremalPair, t, tol: ToleranceProfile | None = None) -> bool:
    """Order-interval membership ``t_min <= T <= t_max``, decided on the corner.

    ``T`` must be a symmetric extension of the column (its first block column
    must match to ``residual``), otherwise :class:`NotAnExtension` is raised.
    Members share that column, so ``corner_min <= T22 <= corner_max`` decides, by
    two Cholesky factorizations of size ``n2``; the slack ``psd (1 + |A| + |B|)``
    is taken on the corners, whose norms are at most the full ones.
    """
    tol = resolve(tol)
    t_sym = as_symmetric(t, tol)
    n1, n = pair.dim1, pair.dim1 + pair.dim2
    if t_sym.shape[0] != n:
        raise DimensionMismatch(f"T has dim {t_sym.shape[0]}, expected {n}")
    column = pair.t_min[:, :n1]
    gap = t_sym[:, :n1] - column
    if not _small(gap, tol, "residual", column):
        raise NotAnExtension(f"first block column differs by {norm2(gap):.3e}")
    corner = t_sym[n1:, n1:]
    return _loewner_leq(pair.t_min[n1:, n1:], corner, tol) and _loewner_leq(corner, pair.t_max[n1:, n1:], tol)


def uniqueness_gap(pair: ExtremalPair, tol: ToleranceProfile | None = None) -> np.ndarray:
    """Gap ``t_max - t_min``, which equals ``diag(0, 2(I - V J V^T))``.

    The formula, and a zero gap exactly when ``V^T`` is J-isometric, are
    asserted by ``verify`` and the tests; ``tol`` is not read.
    """
    return symmetrize(pair.t_max - pair.t_min)


def krein_uniqueness_criterion(col: SymmetricColumn, tol: ToleranceProfile | None = None) -> bool:
    """Uniqueness of the minimal-index extension: ``t_min == t_max``.

    Decided algebraically through ``I - V J V^T = 0``; the sup-of-ratio
    form of the criterion is exercised in the test suite only.
    """
    return extremal_extensions(col, tol).unique(tol)
