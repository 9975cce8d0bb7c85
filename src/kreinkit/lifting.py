"""Defect and link operators, extensions with minimal negative index, liftings.

For an operator ``T`` between two J-spaces the defect operators are
``D_T = |J1 - T^T J2 T|^{1/2}`` and ``D_T* = |J2 - T J1 T^T|^{1/2}`` with
signatures ``J_T``, ``J_T*`` and negative indices ``kappa1``, ``kappa2``.
The link operators replace the classical commutation ``T D_T = D_T* T``:
they are the unique operators with ``D_T* L_T = T J1 D_T`` on ``ran D_T``
and ``D_T L_T* = T^T J2 D_T*`` on ``ran D_T*``, realized here directly by
Moore-Penrose construction.

The 2x2 lifting is parametrized by a triplet ``(Gamma1, Gamma2, Gamma)``
with explicit inverse maps and attains the minimal extended negative indices
exactly for J-contractive parameters; column extensions ``[T; K^T D_T]`` and
row extensions ``[T, D_T* B]`` are the liftings of ``(0, K^T, 0)`` and
``(B, 0, 0)`` with the other exit empty (Arsene, Constantinescu & Gheondea,
Michigan Math. J., 1987).  All three are decided by the triplet through one
gate, and count their indices only where it passes only within its slack.

Operators nominally defined on a defect subspace are stored as full-space
matrices vanishing on the orthogonal complement; that normalization makes
the parametrizations one-to-one and testable.

Every operator here is a function of the two defect forms, so only their
spectra are kept.  Extensions and liftings apply them to exit-sized
parameters as thin products in the eigenbasis, each parameter entering it
once as ``Y = V^T P``; no operator of the defect forms' size is composed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConsistencyError,
    DimensionMismatch,
    IndexMismatch,
    NegativeTargetIndex,
    NotALifting,
    NotJContractive,
    ParameterInvariantViolated,
    RangeInclusionFailed,
)
from .factor import JSpace
from .spectral import (
    SpectralDecomposition,
    _contractive,
    _decompose,
    _defect_scale,
    _inertia,
    _nonnegative,
    _small,
    as_matrix,
    intersect_subspaces,
    moore_penrose_power,
    norm2,
    norm_leq,
    orthonormal_columns,
    projector,
    rank_of,
    subspaces_equal,
    symmetrize,
)
from .tolerances import ToleranceProfile, resolve

__all__ = [
    "JContractionData",
    "LiftParameters",
    "JIsometryReport",
    "defect_data",
    "verify_link_identities",
    "column_extend",
    "extract_column_parameter",
    "row_extend",
    "extract_row_parameter",
    "row_index_formula",
    "lift",
    "extract_lift_parameters",
    "kernel_map_check",
    "range_intersection",
    "j_isometry_test",
]


@dataclass(frozen=True)
class JContractionData:
    """An operator between two J-spaces with its defect machinery.

    ``spec_t``/``spec_tstar`` are the decompositions of the defect forms
    ``J1 - T^T J2 T`` and ``J2 - T J1 T^T`` and ``kappa1``/``kappa2`` their
    negative indices; only :func:`defect_data` builds this value.  The
    defect moduli ``d_t``/``d_tstar``, their signatures ``jt``/``jtstar``
    and the link operators ``l_t``/``l_tstar`` (full-space matrices
    vanishing off the defect subspaces) are composed off the spectra on
    first read and then kept.
    """

    t: np.ndarray
    j1: JSpace
    j2: JSpace
    kappa1: int
    kappa2: int
    spec_t: SpectralDecomposition
    spec_tstar: SpectralDecomposition

    d_t = cached_property(lambda self: self.spec_t.power(0.5))
    d_tstar = cached_property(lambda self: self.spec_tstar.power(0.5))
    jt = cached_property(lambda self: self.spec_t.sign())
    jtstar = cached_property(lambda self: self.spec_tstar.sign())
    l_t = cached_property(lambda self: self.spec_tstar.pinv_power(0.5) @ self.t @ self.j1.j @ self.d_t)
    l_tstar = cached_property(lambda self: self.spec_t.pinv_power(0.5) @ self.t.T @ self.j2.j @ self.d_tstar)

    @property
    def dim1(self) -> int:
        return self.j1.dim

    @property
    def dim2(self) -> int:
        return self.j2.dim


@dataclass(frozen=True)
class LiftParameters:
    """Parameter triplet of a minimal-index 2x2 lifting.

    ``gamma1`` maps the first exit space into the adjoint defect subspace,
    ``gamma2`` maps the defect subspace into the second exit space, and
    ``gamma`` is a Hilbert-space contraction between the parameter defect
    subspaces.
    """

    gamma1: np.ndarray
    gamma2: np.ndarray
    gamma: np.ndarray


@dataclass(frozen=True)
class JIsometryReport:
    """Three equivalent J-isometry tests and their common verdict."""

    gram_residual: bool
    kernel_and_gap: bool
    sup_form: bool

    @property
    def isometric(self) -> bool:
        return self.gram_residual


def _shaped(a, shape: tuple[int, int], what: str) -> np.ndarray:
    """Coerce ``a`` to a matrix and require the given shape."""
    arr = as_matrix(a)
    if arr.shape != shape:
        raise DimensionMismatch(f"{what} has shape {arr.shape}, expected {shape}")
    return arr


def defect_data(t, j1: JSpace, j2: JSpace, tol: ToleranceProfile | None = None) -> JContractionData:
    """Decompose the two defect forms (two ``eigh``, nothing more) and count their indices.

    The operators of :class:`JContractionData` are composed when first read.
    The link operators, by Moore-Penrose pseudo-inversion, are the unique
    operators satisfying the defining relations while vanishing on the
    defect kernels; those relations are asserted by the verifier's link
    check and :func:`verify_link_identities`, not here.
    """
    tol = resolve(tol)
    t_arr = _shaped(t, (j2.dim, j1.dim), "T")
    scale = _defect_scale(t_arr)
    spec1 = _decompose(symmetrize(j1.j - t_arr.T @ j2.j @ t_arr), tol, scale)
    spec2 = _decompose(symmetrize(j2.j - t_arr @ j1.j @ t_arr.T), tol, scale)
    return JContractionData(
        t=t_arr,
        j1=j1,
        j2=j2,
        kappa1=spec1.inertia.n_minus,
        kappa2=spec2.inertia.n_minus,
        spec_t=spec1,
        spec_tstar=spec2,
    )


def verify_link_identities(d: JContractionData, tol: ToleranceProfile | None = None) -> bool:
    """Check the three link identities on the defect subspaces.

    The adjoint intertwining ``L_T^T J_T* = J_T L_T*`` holds as a full
    matrix identity under the vanishing normalization; the two defect Gram
    identities hold after restriction to the respective defect subspaces.
    """
    tol = resolve(tol)
    p1 = d.spec_t.range_projector()
    p2 = d.spec_tstar.range_projector()
    left2 = p1 @ (d.jt - d.d_t @ d.j1.j @ d.d_t) @ p1
    left3 = p2 @ (d.jtstar - d.d_tstar @ d.j2.j @ d.d_tstar) @ p2
    residuals = (
        d.l_t.T @ d.jtstar - d.jt @ d.l_tstar,
        symmetrize(left2) - symmetrize(d.l_t.T @ d.jtstar @ d.l_t),
        symmetrize(left3) - symmetrize(d.l_tstar.T @ d.jt @ d.l_tstar),
    )
    return all(norm_leq(r, lambda nt, n1, n2: tol.residual * ((1.0 + nt) ** 2 * (1.0 + n1 + n2) ** 2),
                        d.t, d.d_t, d.d_tstar) for r in residuals)


def _parameter_side(target: SpectralDecomposition, param: np.ndarray, j_source: np.ndarray):
    """A parameter mapping into a defect subspace, read in the eigenbasis of its defect form.

    ``target`` is that form's spectrum.  Returns the kernel leak
    ``V_ker Y_ker``, the coordinates ``Y = V^T param`` with the kernel rows
    zeroed, and the gram ``J_source - Y^T sign(w) Y`` of the cleaned parameter.
    """
    leak, y = target._kernel_split(target.eigenvectors.T @ param)
    return leak, y, symmetrize(j_source - y.T @ (target._sign_values()[:, None] * y))


def _check_parameter(param: np.ndarray, side, tol: ToleranceProfile, what: str, exc: type) -> np.ndarray:
    """Validate a J-contractive parameter mapping into a defect subspace.

    ``side`` is its :func:`_parameter_side`.  The parameter must vanish against
    the defect kernel (within the subspace tolerance, after which it is
    projected exactly) and its gram must be nonnegative within the order slack.
    """
    leak, _, gram = side
    if not _small(leak, tol, "subspace", param):
        raise ParameterInvariantViolated(
            f"{what} has a component of size {norm2(leak):.3e} against the defect kernel"
        )
    if not _nonnegative(gram, tol):
        raise exc(f"{what} is not J-contractive")
    return param - leak


def column_extend(d: JContractionData, k, j2prime: JSpace, tol: ToleranceProfile | None = None) -> np.ndarray:
    """Extend ``T`` by a row block ``K^T D_T`` below, at minimal index.

    The lifting of ``(0, K^T, 0)`` with an empty first exit: ``K`` maps the exit
    space into the defect subspace of ``T`` and must be J-contractive there
    (:class:`NotJContractive`); the extended index is then ``kappa1 - nu_-(J2')``.
    """
    tol = resolve(tol)
    k_arr = _shaped(k, (d.dim1, j2prime.dim), "K")
    params = LiftParameters(np.zeros((d.dim2, 0)), k_arr.T, np.zeros((j2prime.dim, 0)))
    return _lift(d, params, JSpace.identity(0), j2prime, tol, NotJContractive)


def extract_column_parameter(t_c, d: JContractionData, tol: ToleranceProfile | None = None) -> np.ndarray:
    """Recover the parameter ``K`` from a column extension.

    The lower block ``C`` must satisfy ``ran C^T`` inside ``ran D_T``; a
    violation signals that the extension does not attain the minimal index
    and raises :class:`RangeInclusionFailed`.
    """
    tol = resolve(tol)
    t_c_arr = as_matrix(t_c)
    if t_c_arr.shape[1] != d.dim1 or t_c_arr.shape[0] < d.dim2:
        raise DimensionMismatch(
            f"column extension has shape {t_c_arr.shape}, expected ({d.dim2}+m, {d.dim1})"
        )
    return _defect_solve(d.spec_t, t_c_arr[d.dim2:, :].T, tol, "C^T")


def _defect_solve(spec: SpectralDecomposition, rhs: np.ndarray, tol: ToleranceProfile, what: str) -> np.ndarray:
    """``|M|^{[-1/2]} rhs`` off the spectrum ``spec`` of ``M``, if the residual of
    ``|M|^{1/2} sol = rhs``, the kernel part ``V_ker Y_ker`` of ``rhs``, is small."""
    y = spec.eigenvectors.T @ rhs
    residual, _ = spec._kernel_split(y)
    if not _small(residual, tol, "residual", rhs):
        raise RangeInclusionFailed(
            f"ran {what} is not contained in the defect subspace (residual {norm2(residual):.3e})"
        )
    return spec._apply(spec._pinv_values(0.5), y)


def row_extend(d: JContractionData, b, j1prime: JSpace, tol: ToleranceProfile | None = None) -> np.ndarray:
    """Extend ``T`` by a column block ``D_T* B`` on the right, at minimal index.

    Mirror image of :func:`column_extend`: the lifting of ``(B, 0, 0)`` with an
    empty second exit, at the minimal index ``kappa2 - nu_-(J1')``.
    """
    tol = resolve(tol)
    b_arr = _shaped(b, (d.dim2, j1prime.dim), "B")
    params = LiftParameters(b_arr, np.zeros((0, d.dim1)), np.zeros((0, j1prime.dim)))
    return _lift(d, params, j1prime, JSpace.identity(0), tol, NotJContractive)


def extract_row_parameter(t_r, d: JContractionData, tol: ToleranceProfile | None = None) -> np.ndarray:
    """Recover the parameter ``B`` from a row extension."""
    tol = resolve(tol)
    t_r_arr = as_matrix(t_r)
    if t_r_arr.shape[0] != d.dim2 or t_r_arr.shape[1] < d.dim1:
        raise DimensionMismatch(
            f"row extension has shape {t_r_arr.shape}, expected ({d.dim2}, {d.dim1}+m)"
        )
    r = t_r_arr[:, d.dim1:]
    return _defect_solve(d.spec_tstar, r, tol, "R")


def row_index_formula(d: JContractionData, b, j1prime: JSpace, tol: ToleranceProfile | None = None) -> int:
    """Extended index of the row extension ``[T, D_T* B]`` for an arbitrary parameter ``B``.

    Returns ``kappa1 + nu_-(J1' - B^T J_T* B)``, read off the parameter's gram
    alone; J-contractivity of ``B`` is exactly the case of no increase.
    """
    tol = resolve(tol)
    b_arr = _shaped(b, (d.dim2, j1prime.dim), "B")
    leak, _, gram = _parameter_side(d.spec_tstar, b_arr, j1prime.j)
    return d.kappa1 + _inertia(gram, tol, _defect_scale(b_arr - leak)).n_minus


def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]))
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0]:, a.shape[1]:] = b
    return out


def _parameter_sides(d: JContractionData, p: LiftParameters, j1prime: JSpace, j2prime: JSpace):
    """The :func:`_parameter_side` of ``gamma1`` (in ``ran D_T*``) and of ``gamma2^T`` (in ``ran D_T``)."""
    return (_parameter_side(d.spec_tstar, p.gamma1, j1prime.j),
            _parameter_side(d.spec_t, p.gamma2.T, j2prime.j))


def _parameter_defects(p: LiftParameters, sides, tol: ToleranceProfile):
    """Spectra of the parameter defect forms, the grams of :func:`_parameter_sides`."""
    return (
        _decompose(sides[0][2], tol, _defect_scale(p.gamma1)),
        _decompose(sides[1][2], tol, _defect_scale(p.gamma2)),
    )


def _extended_indices(d: JContractionData, j1prime: JSpace, j2prime: JSpace, tol: ToleranceProfile):
    """Targets ``(kappa1 - nu_-(J2'), kappa2 - nu_-(J1'))`` and the counter of a lifting's two indices."""
    targets = (d.kappa1 - j2prime.negativity(tol), d.kappa2 - j1prime.negativity(tol))
    j1_ext = _block_diag(d.j1.j, j1prime.j)
    j2_ext = _block_diag(d.j2.j, j2prime.j)

    def counts(t_ext: np.ndarray) -> tuple[int, int]:
        floor = _defect_scale(t_ext)
        return (
            _inertia(symmetrize(j1_ext - t_ext.T @ j2_ext @ t_ext), tol, floor).n_minus,
            _inertia(symmetrize(j2_ext - t_ext @ j1_ext @ t_ext.T), tol, floor).n_minus,
        )

    return targets, counts


def _parameter_gate(p: LiftParameters, sides, tol: ToleranceProfile,
                    exc: type = ParameterInvariantViolated) -> tuple[LiftParameters, bool]:
    """The lifting theorem's conditions: ``gamma1``, ``gamma2^T`` J-contractions into
    the defect subspaces and ``|gamma| <= 1``; raises if they fail beyond the order
    slack, ``exc`` for a parameter that is not J-contractive.

    Returns the triplet with ``gamma1``, ``gamma2^T`` projected onto the defect
    subspaces, and whether it meets them with no slack (the parameter defect
    forms certified positive definite): only then are the lifting's indices
    minimal without a count, since inside the slack they can miss by more than
    its zero threshold.
    """
    g1 = _check_parameter(p.gamma1, sides[0], tol, "gamma1", exc)
    g2t = _check_parameter(p.gamma2.T, sides[1], tol, "gamma2^T", exc)
    if not _contractive(p.gamma, tol):
        raise ParameterInvariantViolated(f"gamma has norm {norm2(p.gamma):.6f} > 1")
    exact = _contractive(p.gamma, tol, slack=False) and all(
        _nonnegative(side[2], tol, slack=False) for side in sides
    )
    return LiftParameters(gamma1=g1, gamma2=g2t.T, gamma=p.gamma), exact


def _blocks(d: JContractionData, sides):
    """``D_T* G1``, ``G2 D_T`` and the coupling ``G2 J_T L_T* G1`` of a lifting, off the
    coordinates ``Y1``, ``Y2`` of :func:`_parameter_sides`; the coupling is
    ``Y2^T sign(w) |w|^{[-1/2]} V^T T^T J2 D_T* G1`` in the eigenbasis of ``D_T``."""
    y1, y2 = sides[0][1], sides[1][1]
    spec = d.spec_t
    dstar_g1 = d.spec_tstar._apply(d.spec_tstar._power_values(0.5), y1)
    inner = spec.eigenvectors.T @ (d.t.T @ (d.j2.j @ dstar_g1))
    coupling = y2.T @ ((spec._sign_values() * spec._pinv_values(0.5))[:, None] * inner)
    return dstar_g1, spec._apply(spec._power_values(0.5), y2).T, coupling


def _assemble(d: JContractionData, blocks, gamma: np.ndarray, spec_g1: SpectralDecomposition,
              spec_g2star: SpectralDecomposition) -> np.ndarray:
    """The block ``[[T, D_T* G1], [G2 D_T, -G2 J_T L_T* G1 + D_G2* G D_G1]]`` off :func:`_blocks`."""
    dstar_g1, g2_dt, coupling = blocks
    corner = -coupling + spec_g2star.power(0.5) @ gamma @ spec_g1.power(0.5)
    return np.block([[d.t, dstar_g1], [g2_dt, corner]])


def lift(
    d: JContractionData,
    p: LiftParameters,
    j1prime: JSpace,
    j2prime: JSpace,
    tol: ToleranceProfile | None = None,
) -> np.ndarray:
    """Assemble the 2x2 lifting determined by a parameter triplet.

    The block is ``[[T, D_T* G1], [G2 D_T, -G2 J_T L_T* G1 + D_G2* G D_G1]]``
    and both extended defect forms attain the minimal negative indices
    ``kappa1 - nu_-(J2')`` and ``kappa2 - nu_-(J1')``: by the lifting theorem
    (counted in verify and the tests), or by count here for a triplet that
    meets the gate only within its slack.
    """
    tol = resolve(tol)
    g1 = _shaped(p.gamma1, (d.dim2, j1prime.dim), "gamma1")
    g2 = _shaped(p.gamma2, (j2prime.dim, d.dim1), "gamma2")
    g = _shaped(p.gamma, (j2prime.dim, j1prime.dim), "gamma")
    return _lift(d, LiftParameters(g1, g2, g), j1prime, j2prime, tol)


def _lift(d: JContractionData, p: LiftParameters, j1prime: JSpace, j2prime: JSpace,
          tol: ToleranceProfile, exc: type = ParameterInvariantViolated) -> np.ndarray:
    """:func:`lift` of a shaped triplet, ``exc`` passed to :func:`_parameter_gate`."""
    targets, counts = _extended_indices(d, j1prime, j2prime, tol)
    if min(targets) < 0:
        raise NegativeTargetIndex(f"minimal indices {targets} must be nonnegative")
    sides = _parameter_sides(d, p, j1prime, j2prime)
    gated, exact = _parameter_gate(p, sides, tol, exc)
    t_tilde = _assemble(d, _blocks(d, sides), p.gamma, *_parameter_defects(gated, sides, tol))
    if not exact:
        got = counts(t_tilde)
        if got != targets:
            raise ConsistencyError(f"lifting indices {got} differ from targets {targets}")
    return t_tilde


def extract_lift_parameters(
    t_tilde,
    d: JContractionData,
    j1prime: JSpace,
    j2prime: JSpace,
    tol: ToleranceProfile | None = None,
) -> LiftParameters:
    """Invert the lifting parametrization.

    The candidate must compress to ``T`` on the original spaces and attain
    both minimal indices; the parameters are recovered block by block, the
    contraction from the residual of the lower-right corner.  The indices are
    counted unless the candidate is, within ``zero (1 + |T~|) / 2``, the lifting
    of a triplet meeting :func:`lift`'s gate with no slack; that perturbation
    moves no eigenvalue of an extended defect form by more than the count's
    zero threshold.
    """
    tol = resolve(tol)
    t_arr = as_matrix(t_tilde)
    n2, n1 = d.dim2, d.dim1
    if t_arr.shape[0] < n2 or t_arr.shape[1] < n1:
        raise DimensionMismatch(
            f"lifting has shape {t_arr.shape}, smaller than the base ({n2}, {n1})"
        )
    n1p = t_arr.shape[1] - n1
    n2p = t_arr.shape[0] - n2
    if n1p != j1prime.dim or n2p != j2prime.dim:
        raise DimensionMismatch(
            f"exit dimensions ({n1p}, {n2p}) do not match the exit symmetries"
        )
    compression = t_arr[:n2, :n1]
    if not _small(compression - d.t, tol, "residual", d.t):
        raise NotALifting("the candidate does not compress to the original operator")
    targets, counts = _extended_indices(d, j1prime, j2prime, tol)
    r = t_arr[:n2, n1:]
    c = t_arr[n2:, :n1]
    x = t_arr[n2:, n1:]
    failure = None
    try:
        gamma1 = _defect_solve(d.spec_tstar, r, tol, "the upper-right block")
        gamma2 = _defect_solve(d.spec_t, c.T, tol, "the lower-left block transpose").T
        params0 = LiftParameters(gamma1=gamma1, gamma2=gamma2, gamma=np.zeros((n2p, n1p)))
        sides = _parameter_sides(d, params0, j1prime, j2prime)
        spec_g1, spec_g2star = _parameter_defects(params0, sides, tol)
        blocks = _blocks(d, sides)
        residual = x + blocks[2]
        gamma = spec_g2star.pinv_power(0.5) @ residual @ spec_g1.pinv_power(0.5)
        back = spec_g2star.power(0.5) @ gamma @ spec_g1.power(0.5)
        if not _small(back - residual, tol, "residual", residual):
            raise RangeInclusionFailed(
                "the corner residual does not factor through the parameter defects"
            )
        params = LiftParameters(gamma1=gamma1, gamma2=gamma2, gamma=gamma)
        if _parameter_gate(params, sides, tol)[1] and _small(
            _assemble(d, blocks, gamma, spec_g1, spec_g2star) - t_arr, tol, "zero", t_arr, weight=0.5,
        ):
            return params
    except (RangeInclusionFailed, ParameterInvariantViolated) as exc:
        failure = exc
    got = counts(t_arr)
    if got != targets:
        raise IndexMismatch(f"candidate indices {got} differ from minimal {targets}") from failure
    if isinstance(failure, RangeInclusionFailed):
        raise failure
    return params


def _require_j_contraction(d: JContractionData, tol: ToleranceProfile) -> None:
    defect = symmetrize(d.j1.j - d.t.T @ d.j2.j @ d.t)
    if not _nonnegative(defect, tol):
        raise NotJContractive("the operator is not a J-contraction")


def kernel_map_check(d: JContractionData, tol: ToleranceProfile | None = None) -> bool:
    """Check that ``J2 T`` maps ``ker D_T`` onto ``ker D_T*`` and back.

    Requires a J-contraction.  The backward direction is the forward one
    applied to the adjoint, so the map is ``J1 T^T`` (the two coincide for
    definite symmetries only).  The kernels are compared through the images
    of orthonormal bases, with principal angles within the subspace
    tolerance.
    """
    tol = resolve(tol)
    _require_j_contraction(d, tol)
    _, _, ker_t = d.spec_t.bases()
    _, _, ker_tstar = d.spec_tstar.bases()
    image_fwd = orthonormal_columns(d.j2.j @ d.t @ ker_t, tol)
    image_bwd = orthonormal_columns(d.j1.j @ d.t.T @ ker_tstar, tol)
    forward = subspaces_equal(image_fwd, ker_tstar, tol)
    backward = subspaces_equal(image_bwd, ker_t, tol)
    return bool(forward and backward)


def range_intersection(d: JContractionData, tol: ToleranceProfile | None = None) -> np.ndarray:
    """Orthonormal basis of ``ran T`` intersected with ``ran D_T*``.

    For a J-contraction this intersection equals both ``ran(T J1 D_T)`` and
    ``ran(D_T* L_T)``; all three are compared and a
    :class:`ConsistencyError` is raised if they disagree.
    """
    tol = resolve(tol)
    _require_j_contraction(d, tol)
    floor = (1.0 + norm2(d.t)) * (1.0 + norm2(d.d_t) + norm2(d.d_tstar))
    via_product = orthonormal_columns(d.t @ d.j1.j @ d.d_t, tol, floor=floor)
    via_link = orthonormal_columns(d.d_tstar @ d.l_t, tol, floor=floor)
    ran_t = orthonormal_columns(d.t, tol)
    ran_dstar = orthonormal_columns(d.d_tstar, tol)
    direct = intersect_subspaces(ran_t, ran_dstar, tol)
    if not (
        subspaces_equal(via_product, via_link, tol)
        and subspaces_equal(via_product, direct, tol)
    ):
        raise ConsistencyError(
            "range intersection characterizations disagree: "
            f"dims {via_product.shape[1]}, {via_link.shape[1]}, {direct.shape[1]}"
        )
    return via_product


def j_isometry_test(d: JContractionData, tol: ToleranceProfile | None = None) -> JIsometryReport:
    """Three-way J-isometry report for a J-contraction.

    Evaluates the Gram residual test ``T^T J2 T = J1``, the rank test
    (``ker T`` trivial and ``ran T`` meets ``ran D_T*`` trivially), and the
    boundedness form of the sup criterion (no nonzero vector is mapped into
    ``ran D_T*``).  The three verdicts must agree.
    """
    tol = resolve(tol)
    _require_j_contraction(d, tol)
    gram = symmetrize(d.t.T @ d.j2.j @ d.t)
    gram_ok = _small(gram - d.j1.j, tol, "residual", d.t, power=2)
    ran_t = orthonormal_columns(d.t, tol)
    ran_dstar = orthonormal_columns(d.d_tstar, tol)
    trivial_kernel = rank_of(d.t, tol) == d.dim1
    trivial_gap = intersect_subspaces(ran_t, ran_dstar, tol).shape[1] == 0
    rank_ok = bool(trivial_kernel and trivial_gap)
    # sup form: the supremum over probes is finite for some nonzero vector
    # exactly when some image direction falls into ran D_T*; the worst
    # normalized escape is the sine of the smallest principal angle,
    # computed as a singular value of the whitened blocked map so the
    # verdict is commensurate with the intersection test
    if not trivial_kernel:
        sup_ok = False
    elif d.dim1 == 0 or ran_dstar.shape[1] == 0:
        sup_ok = True
    else:
        blocked = (np.eye(d.dim2) - projector(ran_dstar)) @ d.t
        whitened = blocked @ moore_penrose_power(symmetrize(d.t.T @ d.t), 0.5, tol)
        sv = np.linalg.svd(whitened, compute_uv=False)
        sup_ok = bool(float(sv[-1]) > tol.subspace)
    report = JIsometryReport(
        gram_residual=bool(gram_ok), kernel_and_gap=rank_ok, sup_form=bool(sup_ok)
    )
    if not (report.gram_residual == report.kernel_and_gap == report.sup_form):
        raise ConsistencyError(f"J-isometry tests disagree: {report}")
    return report
