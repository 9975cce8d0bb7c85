"""Indefinite factorization suite.

Contains the inertia balance between the two defect forms of an operator
acting between J-spaces, the factorization criterion that characterizes
when the negative index of a generalized Schur complement is minimal, an
indefinite version of the Douglas range-inclusion factorization, and the
bicontraction classification derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DimensionMismatch, HypothesisViolated, InvalidInput
from .spectral import (
    _inertia,
    _nonnegative,
    _small,
    as_matrix,
    as_symmetric,
    loewner_leq,
    rank_of,
    spectral_decompose,
    symmetrize,
)
from .tolerances import ToleranceProfile, _freeze, default_tolerances, resolve

__all__ = [
    "JSpace",
    "JFactorResult",
    "BicontractionCase",
    "inertia_balance",
    "schur_negativity_factor",
    "douglas_factor",
    "bicontraction_classify",
]


@dataclass(frozen=True)
class JSpace:
    """A space of dimension ``dim`` carrying a symmetry ``j = j^T = j^{-1}`` (a read-only copy)."""

    dim: int
    j: np.ndarray

    def __post_init__(self):
        j = _freeze(np.array(as_symmetric(self.j)))
        object.__setattr__(self, "j", j)
        if j.shape[0] != self.dim:
            raise DimensionMismatch(f"symmetry has dim {j.shape[0]}, expected {self.dim}")
        if not _small(j @ j - np.eye(self.dim), default_tolerances(), "residual", j, power=2):
            raise InvalidInput("j is not an involution (j^2 != I)")

    @classmethod
    def identity(cls, n: int) -> "JSpace":
        return cls(n, np.eye(n))

    @classmethod
    def from_matrix(cls, j) -> "JSpace":
        """The space of the symmetry ``j``, validated once, by the constructor."""
        j_arr = np.asarray(j, dtype=float)
        return cls(j_arr.shape[0] if j_arr.ndim else 0, j_arr)

    def negativity(self, tol: ToleranceProfile | None = None) -> int:
        """``nu_-(J) = (dim - tr J) / 2``, exact for an involution; ``tol`` is not read."""
        return round((self.dim - float(np.trace(self.j))) / 2.0)


@dataclass(frozen=True)
class JFactorResult:
    """A factor together with its source-side defect Gram and classification.

    ``classification`` is one of ``contractive``, ``bicontractive``,
    ``isometric``, ``unitary``, ``none``; it is the strongest label the
    defect Grams support within tolerance.
    """

    factor: np.ndarray
    defect_gram: np.ndarray
    classification: str


@dataclass(frozen=True)
class BicontractionCase:
    """Which bicontraction case holds (``i``, ``ii``, or ``neither``)."""

    case: str
    witness: np.ndarray | None


def inertia_balance(t, j1: JSpace, j2: JSpace, tol: ToleranceProfile | None = None):
    """Inertias of the two defect forms ``J1 - T^T J2 T`` and ``J2 - T J1 T^T``.

    They are read off the spectra of :func:`~kreinkit.lifting.defect_data`, which
    decides both counts, so they balance by construction: ``nu_pm(left) +
    nu_pm(J2) = nu_pm(right) + nu_pm(J1)`` and the zero counts agree.
    """
    from .lifting import defect_data  # lifting builds on JSpace

    d = defect_data(t, j1, j2, tol)
    return d.spec_t.inertia, d.spec_tstar.inertia


def _classify(
    factor: np.ndarray,
    source_gram: np.ndarray,
    target_gram: np.ndarray,
    tol: ToleranceProfile,
    source_projector: np.ndarray | None = None,
    surjective: bool | None = None,
) -> str:
    """Strongest label supported by the two defect Grams.

    ``source_projector`` restricts the source-side Gram to the subspace the
    factor actually lives on (the kernel convention signs the complement
    ``+1``, which must not pollute the isometry test).
    """
    p = source_projector
    restricted = source_gram if p is None else symmetrize(p @ source_gram @ p)
    contractive = _nonnegative(source_gram, tol)
    cocontractive = _nonnegative(target_gram, tol)
    isometric = _small(restricted, tol, "residual", factor, power=2)
    if isometric:
        if surjective:
            return "unitary"
        return "isometric"
    if contractive and cocontractive:
        return "bicontractive"
    if contractive:
        return "contractive"
    return "none"


def _operands(a, b, j2: JSpace, tol: ToleranceProfile):
    """Validate symmetric ``A`` and ``B`` into the ``J2``-space; decompose ``A`` once."""
    a_sym = as_symmetric(a, tol)
    b_arr = as_matrix(b)
    if b_arr.shape != (j2.dim, a_sym.shape[0]):
        raise DimensionMismatch(
            f"B has shape {b_arr.shape}, expected ({j2.dim}, {a_sym.shape[0]})"
        )
    return a_sym, b_arr, spectral_decompose(a_sym, tol)


def schur_negativity_factor(
    a, b, j2: JSpace, tol: ToleranceProfile | None = None
) -> JFactorResult | None:
    """Factor ``B^T = |A|^{1/2} K`` when the negative index splits minimally.

    The criterion is the integer equality ``nu_-(A) = nu_-(A - B^T J2 B) +
    nu_-(J2)``, decided by eigenvalue counts.  When it holds, the factor
    ``K`` maps the ``J2``-space into the range of ``A`` and is J-contractive
    with respect to the signature of ``A``; when it fails, ``None`` is
    returned.
    """
    tol = resolve(tol)
    a_sym, b_arr, spec = _operands(a, b, j2, tol)
    schur = symmetrize(a_sym - b_arr.T @ j2.j @ b_arr)
    schur_floor = (lambda nb: 1.0 + spec.norm + nb ** 2, b_arr)
    if spec.inertia.n_minus != _inertia(schur, tol, schur_floor).n_minus + j2.negativity(tol):
        return None
    k = spec.pinv_power(0.5) @ b_arr.T
    j_a = spec.sign()
    defect = symmetrize(j2.j - k.T @ j_a @ k)
    # the source side of K is the full J2-space, so no restriction is needed
    target_gram = symmetrize(j_a - k @ j2.j @ k.T)
    label = _classify(k, defect, target_gram, tol)
    return JFactorResult(factor=k, defect_gram=defect, classification=label)


def douglas_factor(
    a, b, j2: JSpace, mode: str, tol: ToleranceProfile | None = None
) -> JFactorResult | None:
    """Indefinite Douglas factorization ``B = C |A|^{1/2}``.

    Requires the index hypothesis ``nu_-(A) = nu_-(J2)`` (raised as
    :class:`HypothesisViolated` otherwise, to distinguish "theorem does not
    apply" from "criterion fails").

    mode ``"inequality"``
        If ``A >= B^T J2 B`` holds, returns the unique J-bicontractive
        factor ``C`` (both defect Grams verified nonnegative); otherwise
        ``None``.
    mode ``"equality"``
        If ``A = B^T J2 B`` within tolerance, returns the J-isometric
        factor, upgraded to ``unitary`` when ``B`` is surjective; otherwise
        ``None``.
    """
    tol = resolve(tol)
    if mode not in ("inequality", "equality"):
        raise InvalidInput(f"mode must be 'inequality' or 'equality', got {mode!r}")
    a_sym, b_arr, spec = _operands(a, b, j2, tol)
    kappa_a = spec.inertia.n_minus
    kappa_j = j2.negativity(tol)
    if kappa_a != kappa_j:
        raise HypothesisViolated(
            f"nu_-(A) = {kappa_a} differs from nu_-(J2) = {kappa_j}"
        )
    gram = symmetrize(b_arr.T @ j2.j @ b_arr)
    if mode == "inequality":
        if not loewner_leq(gram, a_sym, tol):
            return None
    else:
        if not _small(a_sym - gram, tol, "residual", spec.norm, gram):
            return None
    c = b_arr @ spec.pinv_power(0.5)
    j_a = spec.sign()
    p_range = spec.range_projector()
    source_gram = symmetrize(j_a - c.T @ j2.j @ c)
    target_gram = symmetrize(j2.j - c @ j_a @ c.T)
    surjective = rank_of(b_arr, tol) == j2.dim if mode == "equality" else None
    label = _classify(c, source_gram, target_gram, tol,
                      source_projector=p_range, surjective=surjective)
    if mode == "inequality" and label not in ("bicontractive", "isometric", "unitary"):
        raise ConsistencyError(
            "factor of a dominated operator failed the bicontraction check"
        )
    if mode == "equality" and label not in ("isometric", "unitary"):
        raise ConsistencyError("factor of an exact congruence is not isometric")
    return JFactorResult(factor=c, defect_gram=source_gram, classification=label)


def bicontraction_classify(
    a, b, j2: JSpace, tol: ToleranceProfile | None = None
) -> BicontractionCase:
    """Classify ``(A, B, J2)`` against the two bicontraction cases.

    Case ``ii`` (exact congruence with matching negative indices) is
    strictly stronger than case ``i`` (domination with matching indices);
    the strongest applicable case wins and carries the witness factor.
    """
    tol = resolve(tol)
    a_sym, b_arr, spec = _operands(a, b, j2, tol)
    if spec.inertia.n_minus != j2.negativity(tol):
        return BicontractionCase(case="neither", witness=None)
    gram = symmetrize(b_arr.T @ j2.j @ b_arr)
    witness = b_arr @ spec.pinv_power(0.5)
    if _small(a_sym - gram, tol, "residual", spec.norm, gram):
        return BicontractionCase(case="ii", witness=witness)
    if loewner_leq(gram, a_sym, tol):
        return BicontractionCase(case="i", witness=witness)
    return BicontractionCase(case="neither", witness=None)
