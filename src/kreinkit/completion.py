"""Completion of incomplete symmetric 2x2 blocks with minimal negative index.

Given the data ``(A11, A12)`` with the lower-right corner unknown, the
block admits a symmetric completion whose negative index equals that of
``A11`` exactly when ``ran A12`` lies inside ``ran |A11|^{1/2}``.  In that
case ``S = |A11|^{[-1/2]} A12`` is well defined, ``S^T J S`` (with
``J = sign(A11)``) is the smallest admissible corner, and the solution set
is the semibounded interval ``{S^T J S + Y : Y >= 0}``.  The negative index
of any corner choice splits additively through the generalized Schur
complement.

A block is immutable (it keeps read-only copies of ``a11`` and ``a12``), so
its minimal completion and the factor it is read off are computed once per
block and tolerance profile and kept on the block for as long as it lives.
Each is exactly what a fresh computation returns, with read-only arrays;
:func:`is_solution` and :func:`schur_inertia` then pay only for the
candidate corner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NotCompletable
from .spectral import (
    Inertia,
    SpectralDecomposition,
    _inertia,
    _loewner_leq,
    _small,
    as_matrix,
    as_symmetric,
    norm2,
    spectral_decompose,
    symmetrize,
)
from .tolerances import ToleranceProfile, per_profile, resolve

__all__ = [
    "IncompleteBlock",
    "CompletionSolution",
    "completable",
    "minimal_completion",
    "is_solution",
    "assemble",
    "schur_inertia",
    "reconstruction",
]


@dataclass(frozen=True)
class IncompleteBlock:
    """Upper-left corner ``a11`` and coupling ``a12``; ``a21`` is ``a12^T``.

    Both are held as read-only copies, so a caller's later writes reach
    neither the block nor what is computed from it.
    """

    a11: np.ndarray
    a12: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, arr in (("a11", as_symmetric(self.a11)), ("a12", as_matrix(self.a12))):
            arr = np.array(arr)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.a12.shape[0] != self.a11.shape[0]:
            raise DimensionMismatch(
                f"a12 has {self.a12.shape[0]} rows but a11 has dim {self.a11.shape[0]}"
            )

    @property
    def dim1(self) -> int:
        return self.a11.shape[0]

    @property
    def dim2(self) -> int:
        return self.a12.shape[1]


@dataclass(frozen=True)
class CompletionSolution:
    """Factor ``s``, smallest corner ``a22_min``, index ``kappa``, signature ``j``.

    ``spectrum`` is the decomposition of ``a11`` all of these were read off.
    The signature ``j = sign(a11)`` is composed off it on first read and
    then kept, read-only.
    """

    s: np.ndarray
    a22_min: np.ndarray
    kappa: int
    spectrum: SpectralDecomposition

    @cached_property
    def j(self) -> np.ndarray:
        j = self.spectrum.sign()
        j.flags.writeable = False
        return j


@per_profile
def _factor(blk: IncompleteBlock, tol: ToleranceProfile):
    """Spectrum of ``a11``, ``Y = V^T a12``, ``S = |a11|^{[-1/2]} a12`` and the inclusion verdict.

    The spectrum is floored at its own norm, so ``|a11|^{1/2}`` has its
    kernel zero-classified at the data scale: the fractional power would
    otherwise turn roundoff kernel eigenvalues into square-root-of-roundoff
    singular values.  The floor equals the norm, so the classification is
    exactly the one the inertia of ``a11`` uses.  ``S`` is the thin product
    ``V (|w|^{[-1/2]} Y)``, and the residual ``| |a11|^{1/2} S - a12 |``, the
    kernel part ``V_ker Y_ker`` of ``a12``, decides ``ran a12`` inside
    ``ran |a11|^{1/2}``.
    """
    spec = spectral_decompose(blk.a11, tol)
    spec = spec.with_floor(spec.norm)
    y = spec.eigenvectors.T @ blk.a12
    s = spec._apply(spec._pinv_values(0.5), y)
    leak, _ = spec._kernel_split(y)
    return spec, y, s, _small(leak, tol, "residual", blk.a12)


def completable(blk: IncompleteBlock, tol: ToleranceProfile | None = None) -> bool:
    """Range-inclusion criterion: ``ran a12`` inside ``ran |a11|^{1/2}``."""
    return _factor(blk, tol)[3]


@per_profile
def minimal_completion(blk: IncompleteBlock, tol: ToleranceProfile | None = None) -> CompletionSolution:
    """Smallest corner completing the block at the minimal negative index.

    Raises :class:`NotCompletable` (with the best least-squares residual
    attached) when the range inclusion fails.
    """
    spec, y, s, included = _factor(blk, tol)
    if not included:
        residual = norm2(spec.power(0.5) @ s - blk.a12)
        raise NotCompletable(
            f"ran a12 is not contained in ran |a11|^(1/2); best residual {residual:.3e}",
            residual=residual,
        )
    # S^T J S = Y^T sign(w) |w|^{[-1]} Y
    a22_min = symmetrize(y.T @ ((spec._sign_values() * spec._pinv_values(1.0))[:, None] * y))
    return CompletionSolution(s=s, a22_min=a22_min, kappa=spec.inertia.n_minus, spectrum=spec)


def _corner(blk: IncompleteBlock, a22, tol: ToleranceProfile | None = None) -> np.ndarray:
    """Validate a candidate corner ``a22`` for the block."""
    a22_sym = as_symmetric(a22, tol)
    if a22_sym.shape[0] != blk.dim2:
        raise DimensionMismatch(
            f"a22 has dim {a22_sym.shape[0]} but the block needs {blk.dim2}"
        )
    return a22_sym


def is_solution(blk: IncompleteBlock, a22, tol: ToleranceProfile | None = None) -> bool:
    """Interval membership test: ``a22`` is admissible iff ``a22 >= a22_min``."""
    tol = resolve(tol)
    sol = minimal_completion(blk, tol)
    return _loewner_leq(sol.a22_min, _corner(blk, a22, tol), tol)


def assemble(blk: IncompleteBlock, a22) -> np.ndarray:
    """Assemble the full symmetric block matrix with corner ``a22``."""
    a22_sym = _corner(blk, a22)
    top = np.hstack([blk.a11, blk.a12])
    bottom = np.hstack([blk.a12.T, a22_sym])
    return symmetrize(np.vstack([top, bottom]))


def schur_inertia(blk: IncompleteBlock, a22, tol: ToleranceProfile | None = None) -> Inertia:
    """Inertia of the assembled block through the generalized Schur complement.

    Under the range inclusion, the inertia splits additively between
    ``a11`` and ``a22 - S^T J S``; the multivalued count is zero.
    """
    tol = resolve(tol)
    sol = minimal_completion(blk, tol)
    a22_sym = _corner(blk, a22, tol)
    corner_floor = (lambda na, nm: 1.0 + na + nm, a22_sym, sol.a22_min)
    corner = _inertia(symmetrize(a22_sym - sol.a22_min), tol, corner_floor)
    head = sol.spectrum.inertia
    return Inertia(
        n_plus=head.n_plus + corner.n_plus,
        n_minus=head.n_minus + corner.n_minus,
        n_zero=head.n_zero + corner.n_zero,
        n_inf=0,
    )


def reconstruction(blk: IncompleteBlock, sol: CompletionSolution) -> np.ndarray:
    """Rebuild the minimal completion from its factor: ``L^T J L``.

    ``L = [|a11|^{1/2}, J s]`` row block, with the half power read off the
    spectrum the solution carries (so under the solution's own profile);
    useful as an independent residual check on the factorization.
    """
    half = sol.spectrum.power(0.5)
    left = np.hstack([half, sol.j @ sol.s])
    return symmetrize(left.T @ sol.j @ left)
