"""Symmetric-matrix spectral machinery.

Everything else in the package is built on the operations here:
eigendecomposition, inertia counting, the signature involution with the
kernel signed ``+1``, fractional moduli ``|A|^p``, Moore-Penrose powers
``|A|^{[-p]}``, range-inclusion factorization, Loewner-order comparison,
and a small kit of orthonormal-subspace helpers.

Each decision ``norm2(R) <= bound(norm2(B), ...)`` goes through
:func:`norm_leq`, which runs the SVDs only when Frobenius bounds straddle it.
Counts read eigenvalues only (one ``eigvalsh``; ``eigh`` only near the
threshold), a rank read off an ``eigh`` or a solve in place of an SVD is kept
only clear of its cutoff (:func:`_mask`, :func:`_solved_graph`), and an internal floor
``(bound, *operands)`` such as ``(1 + |T|)^2`` takes its SVDs only when its
Frobenius bracket is too wide.
An order test ``A <= B`` is settled by Cholesky factorizations of ``B - A``
shifted to either end of its slack; ``eigvalsh`` runs only near the slack.

Each rule scaling a profile field into a threshold is written once, as a
private primitive here: :func:`_cutoff`, :func:`_small`, :func:`_contractive`,
:func:`_nonnegative` and :func:`_defect_scale`.

A symmetric matrix is decomposed once; every spectral quantity is then
read off the one :class:`SpectralDecomposition`::

    spec = kk.spectral_decompose(a, tol, floor)   # one eigh
    spec.inertia                 # Inertia(n_plus, n_minus, n_zero, 0)
    spec.sign()                  # J = sign(A), kernel signed +1
    spec.power(0.5)              # |A|^{1/2}
    spec.pinv_power(0.5)         # |A|^{[-1/2]}
    spec.range_projector()       # projector onto ran A
    spec.with_floor(f).inertia   # counted again under another floor
    spec.map(f, floor)           # f(A) on the same eigenvectors, no new eigh

The free functions (``inertia_of``, ``signature_of``, ``modulus_power``
and the rest) decompose their argument and read one quantity off it.

All functions are pure: they accept plain ``numpy`` arrays (or array
likes), never mutate their arguments, and return fresh arrays.  Matrices
are real; the adjoint is the transpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionMismatch, EigenSolverError, InvalidInput
from .tolerances import ToleranceProfile, resolve

__all__ = [
    "Inertia",
    "SpectralDecomposition",
    "as_matrix",
    "as_symmetric",
    "symmetrize",
    "norm2",
    "norm_leq",
    "spectral_decompose",
    "inertia_of",
    "negativity",
    "signature_of",
    "modulus_power",
    "moore_penrose_power",
    "pinv_symmetric",
    "range_factor",
    "loewner_leq",
    "orthonormal_columns",
    "complement_basis",
    "rank_of",
    "projector",
    "subspace_distance",
    "subspaces_equal",
    "intersect_subspaces",
    "signed_eigenbases",
]


@dataclass(frozen=True)
class Inertia:
    """Counts of positive, negative, and zero eigenvalues.

    ``n_inf`` is the dimension of the multivalued part; it is zero for
    matrices and only nonzero for linear relations.
    """

    n_plus: int
    n_minus: int
    n_zero: int
    n_inf: int = 0


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendecomposition of a symmetric matrix with its zero classification.

    ``eigenvalues`` ascend and ``eigenvectors`` are orthonormal.  An
    eigenvalue classifies as zero when ``|lambda| <= threshold``, where
    ``threshold = zero * dim * max(norm, floor)``; the floor guards
    matrices that are zero up to roundoff at a scale the caller knows but
    the spectrum does not carry.  Every spectral quantity of the matrix is
    read off this one value, so each matrix is decomposed once.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    tol: ToleranceProfile | None = None
    floor: float = 0.0
    threshold: float = field(init=False)

    def __post_init__(self):
        tol = resolve(self.tol)
        object.__setattr__(self, "tol", tol)
        thr = 0.0
        if self.eigenvalues.size:
            thr = _cutoff(tol, self.eigenvalues.size, self.norm, self.floor)
        object.__setattr__(self, "threshold", thr)

    def with_floor(self, floor: float) -> "SpectralDecomposition":
        """The same spectrum re-thresholded under another floor."""
        return replace(self, floor=floor)

    def _meeting(self, n_minus: int, n_zero: int) -> "SpectralDecomposition | None":
        """The same spectrum counting ``n_minus`` negatives and ``n_zero`` zeros, or ``None``.

        The threshold is kept if it already counts ``n_zero`` zeros, and is moved
        otherwise to the middle of the gap between the ``n_zero``-th and the next
        eigenvalue modulus; the kernel, the projectors and the powers follow it.
        """
        if not 0 <= n_zero <= self.eigenvalues.size:
            return None
        lo, hi = np.concatenate([[0.0], np.sort(np.abs(self.eigenvalues)), [math.inf]])[n_zero:n_zero + 2]
        thr = self.threshold
        if not lo <= thr < hi:
            thr = lo if hi == math.inf else (lo + hi) / 2.0
        if not lo <= thr < hi or np.count_nonzero(self.eigenvalues < -thr) != n_minus:
            return None
        if thr == self.threshold:
            return self
        out = replace(self)
        object.__setattr__(out, "threshold", float(thr))
        return out

    def map(self, f, floor) -> "SpectralDecomposition":
        """``f(A)`` on the same eigenvectors (re-sorted ascending), under a float or
        ``(bound, *operands)`` floor."""
        w = f(self.eigenvalues)
        order = np.argsort(w, kind="stable")
        w = w[order]
        return SpectralDecomposition(w, self.eigenvectors[:, order], self.tol, _settle(w, self.tol, floor))

    @property
    def norm(self) -> float:
        """Spectral norm, the largest eigenvalue modulus; zero when empty."""
        w = self.eigenvalues
        return float(np.max(np.abs(w))) if w.size else 0.0

    @property
    def inertia(self) -> Inertia:
        w, thr = self.eigenvalues, self.threshold
        n_minus = int(np.count_nonzero(w < -thr))
        n_plus = int(np.count_nonzero(w > thr))
        return Inertia(n_plus, n_minus, w.size - n_plus - n_minus, 0)

    def _compose(self, values: np.ndarray) -> np.ndarray:
        # bit for bit v @ diag(values), whose other terms are exact zeros
        v = self.eigenvectors
        return symmetrize((v * values) @ v.T)

    def _apply(self, values: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``V diag(values) y``: for the coordinates ``y = V^T X`` of a block, ``f(A) X``
        without composing ``f(A)`` (Higham, Functions of Matrices, 2008, ch. 4)."""
        return self.eigenvectors @ (values[:, None] * y)

    def _kernel_split(self, y: np.ndarray):
        """The kernel part ``V_ker y_ker`` of the block ``V y``, and ``y`` with its kernel rows zeroed."""
        kernel = np.abs(self.eigenvalues) <= self.threshold
        return self.eigenvectors[:, kernel] @ y[kernel], np.where(kernel[:, None], 0.0, y)

    def _sign_values(self) -> np.ndarray:
        return np.where(self.eigenvalues >= -self.threshold, 1.0, -1.0)

    def _power_values(self, p: float) -> np.ndarray:
        if p < 0:
            raise InvalidInput(f"modulus power requires p >= 0, got {p}")
        w = self.eigenvalues
        if self.floor > 0.0:
            w = np.where(np.abs(w) > self.threshold, w, 0.0)
        return np.abs(w) ** p

    def _pinv_values(self, p: float) -> np.ndarray:
        if p <= 0:
            raise InvalidInput(f"Moore-Penrose power requires p > 0, got {p}")
        absw = np.abs(self.eigenvalues)
        keep = absw > self.threshold
        return np.where(keep, np.where(keep, absw, 1.0) ** (-p), 0.0)

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return v @ np.diag(self.eigenvalues) @ v.T

    def sign(self) -> np.ndarray:
        """Signature involution ``J`` with the kernel signed ``+1``."""
        return self._compose(self._sign_values())

    def power(self, p: float) -> np.ndarray:
        """``|A|^p`` for ``p >= 0``.

        With a zero floor the eigenvalues are powered exactly.  A positive
        floor zeroes eigenvalues at or below the threshold first, so a
        matrix that is zero up to roundoff at the caller's scale has an
        exactly vanishing power (fractional powers amplify noise otherwise).
        """
        return self._compose(self._power_values(p))

    def pinv_power(self, p: float) -> np.ndarray:
        """``|A|^{[-p]}``, the Moore-Penrose inverse of ``|A|^p``, for ``p > 0``.

        Eigenvalues at or below the threshold map to zero, so the result
        vanishes on the kernel of ``A`` and maps into its range.
        """
        return self._compose(self._pinv_values(p))

    def pinv(self) -> np.ndarray:
        """Sign-respecting Moore-Penrose inverse ``A^+``."""
        w = self.eigenvalues
        keep = np.abs(w) > self.threshold
        return self._compose(np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0))

    def bases(self):
        """Orthonormal bases of the positive, negative, and zero eigenspaces."""
        w, v, thr = self.eigenvalues, self.eigenvectors, self.threshold
        return v[:, w > thr], v[:, w < -thr], v[:, np.abs(w) <= thr]

    def range_projector(self) -> np.ndarray:
        """Orthogonal projector onto the range (the nonzero eigenspaces)."""
        plus, minus, _ = self.bases()
        return projector(np.hstack([plus, minus]))


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-D float array."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise InvalidInput(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise InvalidInput("matrix has non-finite entries")
    return arr


def as_symmetric(a, tol: ToleranceProfile | None = None) -> np.ndarray:
    """Coerce to a symmetric matrix, symmetrizing within tolerance.

    The asymmetry ``max|A - A^T|`` must not exceed
    ``residual * (1 + max|A|)``; larger defects are rejected rather than
    silently averaged away.  An exactly symmetric float array is returned as
    it is, not copied (averaging would change only the sign of an off-diagonal
    pair of zeros whose signs differ): never write to the result.
    """
    tol = resolve(tol)
    arr = as_matrix(a)
    n, m = arr.shape
    if n != m:
        raise InvalidInput(f"expected a square matrix, got shape {arr.shape}")
    if np.array_equal(arr, arr.T):
        return arr
    gap = float(np.max(np.abs(arr - arr.T)))
    scale = 1.0 + float(np.max(np.abs(arr)))
    if gap > tol.residual * scale:
        raise InvalidInput(f"matrix is not symmetric: max asymmetry {gap:.3e}")
    return (arr + arr.T) / 2.0


def symmetrize(a) -> np.ndarray:
    """Average away roundoff asymmetry without validation."""
    arr = np.asarray(a, dtype=float)
    return (arr + arr.T) / 2.0


def norm2(a) -> float:
    """Spectral norm; zero for empty matrices."""
    arr = np.asarray(a, dtype=float)
    if arr.size == 0:
        return 0.0
    return float(np.linalg.norm(arr, 2))


# |A|_F / sqrt(min(shape)) <= |A|_2 <= |A|_F (Higham, Accuracy and Stability of
# Numerical Algorithms, 2002, §6.2), widened by a relative guard far above the
# rounding of the SVD and of the sum of squares, which may under- or overflow
# outside _SQUARES_SAFE
_GUARD = 1e-10
_SQUARES_SAFE = (1e-140, 1e140)


def _norm_bounds(a) -> tuple[float, float]:
    """``lo <= norm2(a) <= hi`` off the Frobenius norm, with no SVD; a float is exact."""
    if isinstance(a, float):
        return a, a
    arr = np.asarray(a, dtype=float)
    fro = math.sqrt(float(np.vdot(arr, arr)))
    if not _SQUARES_SAFE[0] < fro < _SQUARES_SAFE[1]:
        return (0.0, math.inf) if arr.any() else (0.0, 0.0)
    k = min(arr.shape) if arr.ndim == 2 else 1
    return fro / math.sqrt(k) * (1.0 - _GUARD), fro * (1.0 + _GUARD)


def _bound_span(floor) -> tuple[float, float]:
    """``lo <= floor <= hi``: a float is exact, ``(bound, *operands)`` is bracketed off :func:`_norm_bounds`."""
    if not isinstance(floor, tuple):
        return floor, floor
    bound, *operands = floor
    spans = [_norm_bounds(o) for o in operands]
    return bound(*(s[0] for s in spans)), bound(*(s[1] for s in spans))


def _exact_bound(bound, *operands) -> float:
    """``bound(norm2(o1), ...)`` with the norms taken by SVD; floats are known norms."""
    return bound(*(o if isinstance(o, float) else norm2(o) for o in operands))


def norm_leq(r, bound, *operands) -> bool:
    """``norm2(r) <= bound(norm2(o1), ...)`` for ``bound`` nondecreasing in each norm.

    Settled by :func:`_norm_bounds` unless they straddle the bound; only then
    are the SVDs run, so the verdict is the direct one.  Floats are known norms.
    """
    lo, hi = _norm_bounds(r)
    bound_lo, bound_hi = _bound_span((bound, *operands))
    if hi <= bound_lo:
        return True
    if lo > bound_hi:
        return False
    return bool((r if isinstance(r, float) else norm2(r)) <= _exact_bound(bound, *operands))


# ---------------------------------------------------------------------------
# scale rules: the one place where a profile field is scaled into a threshold


def _cutoff(tol: ToleranceProfile, size: int, norm: float, floor: float = 0.0) -> float:
    """The zero threshold ``zero * size * max(norm, floor)`` of a count or a rank."""
    return tol.zero * size * max(norm, floor)


def _relative(c: float, power: int):
    """The bound ``c (1 + n1^p + n2^p + ...)`` on the norms ``n1, n2, ...``, summed left to right."""

    def bound(*norms: float) -> float:
        scale = 1.0
        for n in norms:
            scale = scale + (n if power == 1 else n ** power)
        return c * scale

    return bound


def _small(r, tol: ToleranceProfile, field: str, *operands, power: int = 1, weight: float = 1.0) -> bool:
    """``norm2(r) <= weight c (1 + |X1|^p + ...)`` for ``c = tol.<field>`` (``weight c`` with no
    operands), by :func:`norm_leq`: floats are known norms, and a float ``r`` is compared as it is."""
    return norm_leq(r, _relative(weight * getattr(tol, field), power), *operands)


def _contractive(g, tol: ToleranceProfile, slack: bool = True) -> bool:
    """``norm2(g) <= 1 + psd``, or ``norm2(g) <= 1`` with no slack."""
    return norm_leq(g, lambda: 1.0 + tol.psd if slack else 1.0)


def _nonnegative(g, tol: ToleranceProfile, slack: bool = True) -> bool:
    """The order ``0 <= G`` within the slack ``psd (1 + |G|)`` of :func:`loewner_leq`; with no
    slack, whether a Cholesky factorization certifies ``G`` positive definite."""
    g = as_symmetric(g, tol)
    if slack:
        return _loewner_leq(np.zeros_like(g), g, resolve(tol))
    return _order_by_cholesky(g, (lambda: 0.0,)) is True


def _defect_scale(t):
    """The natural scale ``(1 + |T|)^2`` of a defect form built from ``T``: a float for a
    float ``T`` (a known norm), otherwise the certified floor ``(_defect_scale, T)``."""
    return (1.0 + t) ** 2 if isinstance(t, float) else (_defect_scale, t)


def spectral_decompose(
    a, tol: ToleranceProfile | None = None, floor: float = 0.0
) -> SpectralDecomposition:
    """Validate a symmetric matrix and decompose it once.

    Eigenvalues with ``|lambda| <= zero * dim * norm`` classify as zero; a
    positive ``floor`` replaces the norm when the matrix itself is smaller.
    Raises :class:`EigenSolverError` if the solver fails to converge.
    """
    return _decompose(a, tol, floor)


def _solve(solver, sym: np.ndarray):
    try:
        return solver(sym)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - pathological input
        raise EigenSolverError(str(exc)) from exc


def _count(w: np.ndarray, tol: ToleranceProfile, lo: float, hi: float) -> Inertia | None:
    """Inertia of eigenvalues ``w`` under every floor in ``[lo, hi]``; ``None`` when some ``|w|``
    is within ``_GUARD * max(norm, lo)`` of a threshold, far above the ``p(n) eps |A|`` by which
    ``eigvalsh`` and ``eigh`` differ (Golub & Van Loan, §8.1), so a count returned is ``eigh``'s."""
    absw = np.abs(w)
    norm = float(np.max(absw, initial=0.0))
    thr, guard = _cutoff(tol, w.size, norm, lo), _GUARD * max(norm, lo)
    if np.any((absw >= thr - guard) & (absw <= _cutoff(tol, w.size, norm, hi) + guard)):
        return None
    n_minus = int(np.count_nonzero(w < -thr))
    n_plus = int(np.count_nonzero(w > thr))
    return Inertia(n_plus, n_minus, w.size - n_plus - n_minus, 0)


def _mask(values: np.ndarray, tol: ToleranceProfile, size: int, floor: float, scale: float) -> np.ndarray | None:
    """The rank mask ``values > _cutoff(tol, size, max(values), floor)`` of singular values in
    ``[0, 1]`` read off an ``eigh`` of a matrix of norm ``scale`` instead of an SVD; ``None`` when
    some value is within ``_GUARD * max(norm, floor) + size (size + 1) u scale`` of the cutoff.
    The first term is :func:`_count`'s guard, which dominates the SVD's own rounding; the second
    dominates the ``p(n) u scale`` that forming and decomposing the matrix add (Golub & Van Loan,
    §8.1), so a mask returned is the SVD's."""
    norm = float(np.max(values, initial=0.0))
    thr = _cutoff(tol, size, norm, floor)
    guard = _GUARD * max(norm, floor) + size * (size + 1) * 2.0 ** -52 * scale
    if np.any(np.abs(values - thr) <= guard):
        return None
    return values > thr


def _mapped_count(w: np.ndarray, f, tol: ToleranceProfile, floor: float) -> Inertia | None:
    """The inertia of ``f(A)`` at ``floor`` off the kept eigenvalues ``w`` of ``A``, certified as
    :func:`_count` certifies it, so the count of ``f(A)``'s own decomposition; or ``None``."""
    return _count(f(w), tol, floor, floor)


def _solved_graph(t: np.ndarray, tol: ToleranceProfile, size: int) -> bool:
    """Whether ``T = Y X^{-1}``, solved from an orthonormal ``size``-dimensional graph basis
    ``[X; Y]``, certifies the rank and the mask that the SVD of ``X`` would decide.  ``Y = T X``
    and ``X^T X + Y^T Y = I`` give ``X X^T = (I + T^T T)^{-1}``, so ``s_min(X) = 1 / sqrt(1 + |T|^2)``,
    with ``|T|`` at most ``|T|_F`` plus the solve's forward error ``3 size u kappa(X) |T|_F``,
    ``kappa(X) <= sqrt(1 + |T|^2)`` (Higham 2002, §9, at partial pivoting's small growth).  That
    error must stay within half of :func:`_mask`'s guard, and ``s_min(X)`` clear of the cutoff by it."""
    fro = math.sqrt(float(np.vdot(t, t)))
    err = 3 * size * 2.0 ** -52 * fro * math.hypot(1.0, fro)
    return err <= _GUARD / 2 and 1.0 / math.hypot(1.0, fro + err) > _cutoff(tol, size, 1.0) + _GUARD


def _settle(w: np.ndarray, tol: ToleranceProfile, floor) -> float:
    """A float floor giving every mask of ``w`` that ``floor`` gives; SVDs only if it must."""
    if not isinstance(floor, tuple):
        return floor
    lo, hi = _bound_span(floor)
    if lo > 0.0 and _count(w, tol, lo, hi) is not None:
        return hi
    return _exact_bound(*floor)


def _decompose(a, tol: ToleranceProfile | None, floor) -> SpectralDecomposition:
    """:func:`spectral_decompose` under a float or ``(bound, *operands)`` floor."""
    tol = resolve(tol)
    w, v = _solve(np.linalg.eigh, as_symmetric(a, tol))
    return SpectralDecomposition(w, v, tol, _settle(w, tol, floor))


def _inertia(a, tol: ToleranceProfile | None, floor) -> Inertia:
    """:func:`inertia_of` under a float or ``(bound, *operands)`` floor, off one ``eigvalsh``."""
    return _mapped_inertias(a, tol, floor, (np.asarray,))[0]


def _mapped_inertias(a, tol: ToleranceProfile | None, floor, maps) -> list[Inertia]:
    """Inertias of ``f(A)`` for each ``f`` of ``maps``, off one ``eigvalsh`` of ``A`` (``eigh``
    only near a threshold), under a float or ``(bound, *operands)`` floor or a function of ``|A|``."""
    tol = resolve(tol)
    sym = as_symmetric(a, tol)
    w = _solve(np.linalg.eigvalsh, sym)
    at = floor(float(np.max(np.abs(w), initial=0.0))) if callable(floor) else floor
    span = _bound_span(at)
    counts = [_count(f(w), tol, *span) for f in maps]
    if None not in counts:
        return counts
    spec = _decompose(sym, tol, 0.0)
    at = floor(spec.norm) if callable(floor) else floor
    return [spec.map(f, at).inertia for f in maps]


def inertia_of(a, tol: ToleranceProfile | None = None, floor: float = 0.0) -> Inertia:
    """Inertia of a symmetric matrix (see :func:`spectral_decompose`)."""
    return _inertia(a, tol, floor)


def negativity(a, tol: ToleranceProfile | None = None, floor: float = 0.0) -> int:
    """Number of negative eigenvalues (the negative index)."""
    return _inertia(a, tol, floor).n_minus


def signature_of(a, tol: ToleranceProfile | None = None, floor: float = 0.0) -> np.ndarray:
    """Signature involution ``J`` with the kernel signed ``+1``.

    ``J`` is orthogonal, ``J^2 = I``, and ``J |A| = A`` up to the zero
    classification threshold.
    """
    return spectral_decompose(a, tol, floor).sign()


def modulus_power(a, p: float, tol: ToleranceProfile | None = None, floor: float = 0.0) -> np.ndarray:
    """Return ``|A|^p``; see :meth:`SpectralDecomposition.power`."""
    return spectral_decompose(a, tol, floor).power(p)


def moore_penrose_power(
    a, p: float, tol: ToleranceProfile | None = None, floor: float = 0.0
) -> np.ndarray:
    """Return ``|A|^{[-p]}``; see :meth:`SpectralDecomposition.pinv_power`."""
    return spectral_decompose(a, tol, floor).pinv_power(p)


def pinv_symmetric(a, tol: ToleranceProfile | None = None, floor: float = 0.0) -> np.ndarray:
    """Sign-respecting Moore-Penrose inverse of a symmetric matrix."""
    return spectral_decompose(a, tol, floor).pinv()


def range_factor(m, b, tol: ToleranceProfile | None = None) -> np.ndarray | None:
    """Solve ``M S = B`` when the columns of ``B`` lie in ``ran M``.

    ``M`` is symmetric (in practice a nonnegative half power).  Returns the
    Moore-Penrose solution ``S`` with ``ran S`` inside ``ran M``, or ``None``
    when the inclusion fails, decided by the least-squares residual
    ``|M S - B| <= residual * (1 + |B|)``.
    """
    tol = resolve(tol)
    m_sym = as_symmetric(m, tol)
    b_arr = as_matrix(b)
    if b_arr.shape[0] != m_sym.shape[0]:
        raise DimensionMismatch(
            f"row count of B ({b_arr.shape[0]}) must equal dim of M ({m_sym.shape[0]})"
        )
    s = pinv_symmetric(m_sym, tol) @ b_arr
    if not _small(m_sym @ s - b_arr, tol, "residual", b_arr):
        return None
    return s


def loewner_leq(a, b, tol: ToleranceProfile | None = None) -> bool:
    """Loewner order test ``A <= B`` with relative slack.

    True iff ``eigvalsh`` puts the minimal eigenvalue of ``B - A`` at least at
    ``-psd * (1 + |A| + |B|)``.  Both operands are validated as symmetric
    matrices of one shape, then :func:`_loewner_leq` decides.
    """
    tol = resolve(tol)
    a_sym = as_symmetric(a, tol)
    b_sym = as_symmetric(b, tol)
    if a_sym.shape != b_sym.shape:
        raise DimensionMismatch(f"shapes {a_sym.shape} and {b_sym.shape} differ")
    return _loewner_leq(a_sym, b_sym, tol)


def _loewner_leq(a_sym: np.ndarray, b_sym: np.ndarray, tol: ToleranceProfile) -> bool:
    """:func:`loewner_leq` on symmetric arrays of one shape that the caller validated or
    built with :func:`symmetrize`.  Cholesky factorizations of ``B - A`` shifted just
    inside and just outside the slack settle it; only between them does ``eigvalsh`` run,
    with the norms (by :func:`norm_leq`) only below ``-psd``."""
    gap = symmetrize(b_sym - a_sym)
    slack = (_relative(tol.psd, 1), a_sym, b_sym)
    verdict = _order_by_cholesky(gap, slack)
    if verdict is not None:
        return verdict
    lowest = float(np.linalg.eigvalsh(gap)[0])
    return lowest >= -tol.psd or norm_leq(-lowest, *slack)


def _order_by_cholesky(d: np.ndarray, slack) -> bool | None:
    """``eigvalsh(d)[0] >= -s`` for a slack ``s = (bound, *operands)``; ``None`` near ``-s``.

    With ``s`` in ``[lo, hi]``, ``F = |d|_F`` and ``u`` the unit roundoff: a
    completed Cholesky factor of ``S = d + c I`` has ``R^T R = S + E``,
    ``|E| <~ n (n + 1) u |S|``; Cholesky is sure to complete once
    ``lambda_min(S) >~ n (n + 1) u max S_ii`` (Demmel's condition; Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, §10.1); ``eigvalsh``
    is off by ``p(n) u |d|`` and forming ``S`` by ``u (F + |c|)``.  The guard
    ``g(x) = (_GUARD + 2 n (n + 1) u) (F + x)`` dominates them all, so factoring
    at ``c = lo - g(lo)`` proves ``eigvalsh(d)[0] >= -lo >= -s``, and failing at
    ``c = hi + g(hi)`` proves it ``< -hi <= -s``.
    """
    lo, hi = _bound_span(slack)
    fro = _norm_bounds(d)[1]
    if not math.isfinite(hi + fro):
        return None
    n = d.shape[0]
    rate = _GUARD + n * (n + 1) * 2.0 ** -52  # u = 2^-53
    if _factors(d, lo - rate * (fro + lo)):
        return True
    if not _factors(d, hi + rate * (fro + hi)):
        return False
    return None


def _factors(d: np.ndarray, shift: float) -> bool:
    """Whether the Cholesky factorization of ``d + shift I`` completes."""
    s = d.copy()
    s.flat[:: d.shape[0] + 1] += shift
    try:
        np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        return False
    return True


# ---------------------------------------------------------------------------
# subspace helpers


def orthonormal_columns(m, tol: ToleranceProfile | None = None, floor: float = 0.0) -> np.ndarray:
    """Orthonormal basis of the column span, via SVD with relative cutoff."""
    tol = resolve(tol)
    arr = as_matrix(m)
    if arr.size == 0:
        return np.zeros((arr.shape[0], 0))
    u, s, _ = np.linalg.svd(arr, full_matrices=False)
    # a zero matrix has s[0] == 0 and keeps no column
    return u[:, s > _cutoff(tol, max(arr.shape), s[0], floor)]


def complement_basis(q, n: int | None = None) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of orthonormal ``q``."""
    arr = as_matrix(q)
    dim = arr.shape[0] if n is None else n
    if arr.shape[1] == 0:
        return np.eye(dim)
    u, _, _ = np.linalg.svd(arr, full_matrices=True)
    return u[:, arr.shape[1]:]


def rank_of(m, tol: ToleranceProfile | None = None) -> int:
    tol = resolve(tol)
    arr = as_matrix(m)
    if arr.size == 0:
        return 0
    s = np.linalg.svd(arr, compute_uv=False)
    return int(np.count_nonzero(s > _cutoff(tol, max(arr.shape), s[0])))


def projector(q) -> np.ndarray:
    """Orthogonal projector onto the span of orthonormal columns."""
    arr = as_matrix(q)
    return arr @ arr.T


def subspace_distance(q1, q2) -> float:
    """Spectral-norm distance between the orthogonal projectors."""
    return norm2(projector(q1) - projector(q2))


def subspaces_equal(q1, q2, tol: ToleranceProfile | None = None) -> bool:
    return _small(projector(q1) - projector(q2), resolve(tol), "subspace")


def intersect_subspaces(q1, q2, tol: ToleranceProfile | None = None) -> np.ndarray:
    """Orthonormal basis of the intersection of two spans.

    Inputs are orthonormal bases; intersection directions are the near-null
    right-singular vectors of ``[Q1, -Q2]``.
    """
    tol = resolve(tol)
    b1 = as_matrix(q1)
    b2 = as_matrix(q2)
    n = b1.shape[0]
    if b1.shape[1] == 0 or b2.shape[1] == 0:
        return np.zeros((n, 0))
    stacked = np.hstack([b1, -b2])
    _, s, vt = np.linalg.svd(stacked, full_matrices=True)
    k = vt.shape[0]
    small = np.zeros(k, dtype=bool)
    small[s.size:] = True
    small[: s.size] = s <= tol.subspace
    coeff = vt.T[:, small]
    if coeff.shape[1] == 0:
        return np.zeros((n, 0))
    return orthonormal_columns(b1 @ coeff[: b1.shape[1], :], tol)


def signed_eigenbases(a, tol: ToleranceProfile | None = None, floor: float = 0.0):
    """Orthonormal bases of the positive, negative, and zero eigenspaces."""
    return spectral_decompose(a, tol, floor).bases()
