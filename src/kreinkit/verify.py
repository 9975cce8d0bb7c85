"""Randomized property suites behind the CLI verifier.

Each check runs ``cases`` independent random instances drawn from a
deterministic per-check seed stream, counts failures, and tracks the
largest residual it saw.  Library-level consistency errors (the internal
theorem asserts) count as failures rather than aborting the run, so a
deliberately corrupted tolerance profile produces a failure report instead
of a crash.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gens
from .completion import assemble, completable, is_solution, minimal_completion, reconstruction, schur_inertia
from .errors import KreinkitError
from .factor import JSpace, bicontraction_classify, douglas_factor, inertia_balance, schur_negativity_factor
from .lifting import (
    _extended_indices,
    column_extend,
    defect_data,
    extract_column_parameter,
    extract_lift_parameters,
    extract_row_parameter,
    j_isometry_test,
    kernel_map_check,
    lift,
    range_intersection,
    row_extend,
    row_index_formula,
    verify_link_identities,
)
from .quasicontraction import (
    SymmetricColumn,
    extremal_extensions,
    is_member,
    krein_uniqueness_criterion,
    solvable,
    split_counts,
    uniqueness_gap,
)
from .relations import (
    LinearRelation,
    _common_bottom,
    antitonicity_check,
    classify,
    ext_membership,
    extension_problem,
    form_a1,
    friedrichs_krein,
    inverse_duality_check,
    krein_uniqueness_relation,
    operator_part,
    relation_inertia,
    relation_leq,
    resolvent_interval_check,
)
from .spectral import (
    inertia_of,
    loewner_leq,
    modulus_power,
    negativity,
    norm2,
    norm_leq,
    projector,
    signature_of,
    signed_eigenbases,
    symmetrize,
)
from .tolerances import ToleranceProfile, resolve

__all__ = ["CheckResult", "available_suites", "run_suites"]


@dataclass
class CheckResult:
    suite: str
    name: str
    cases: int
    failures: int
    max_residual: float

    @property
    def passed(self) -> bool:
        return self.failures == 0


class _Tracker:
    """Failure counter and residual maximum for one check."""

    def __init__(self):
        self.failures = 0
        self.max_residual = 0.0

    def residual(self, value: float) -> None:
        self.max_residual = max(self.max_residual, float(value))

    def expect(self, condition: bool) -> None:
        if not condition:
            self.failures += 1

    def bound(self, value: float, limit: float) -> None:
        self.residual(value)
        self.expect(value <= limit)


def _run_cases(fn, rng, cases, tol):
    track = _Tracker()
    for _ in range(cases):
        try:
            fn(rng, tol, track)
        except KreinkitError:
            track.failures += 1
    return track


# ---------------------------------------------------------------------------
# completion suite


def _completion_minimality(rng, tol, track):
    n1 = int(rng.integers(1, 7))
    n2 = int(rng.integers(1, 7))
    kappa = int(rng.integers(0, min(n1, 2) + 1))
    n_zero = int(rng.integers(0, 2)) if n1 - kappa > 0 else 0
    blk = gens.random_completable_block(rng, n1, n2, kappa, n_zero)
    sol = minimal_completion(blk, tol)
    full = assemble(blk, sol.a22_min)
    track.expect(inertia_of(full, tol).n_minus == sol.kappa)
    half = modulus_power(blk.a11, 0.5, tol)
    track.bound(norm2(half @ sol.s - blk.a12) / (1.0 + norm2(blk.a12)), 1e-9)
    track.bound(norm2(full - reconstruction(blk, sol)) / (1.0 + norm2(full)), 1e-9)


def _completion_interval(rng, tol, track):
    n1 = int(rng.integers(1, 7))
    n2 = int(rng.integers(1, 7))
    kappa = int(rng.integers(0, min(n1, 2) + 1))
    blk = gens.random_completable_block(rng, n1, n2, kappa)
    sol = minimal_completion(blk, tol)
    for _ in range(2):
        bump = gens.random_psd(rng, n2)
        a22 = symmetrize(sol.a22_min + bump)
        member = is_solution(blk, a22, tol)
        direct = inertia_of(assemble(blk, a22), tol).n_minus == sol.kappa
        track.expect(member and direct)
    for _ in range(2):
        perturb = gens.random_symmetric_with_inertia(rng, n2, int(rng.integers(1, n2 + 1)))
        a22 = symmetrize(sol.a22_min + perturb)
        member = is_solution(blk, a22, tol)
        direct = inertia_of(assemble(blk, a22), tol).n_minus == sol.kappa
        track.expect(member == direct)
        track.expect(not member)


def _completion_necessity(rng, tol, track):
    n1 = int(rng.integers(2, 6))
    n2 = int(rng.integers(1, 4))
    kappa = int(rng.integers(0, 2))
    blk = gens.random_noncompletable_block(rng, n1, n2, kappa)
    track.expect(not completable(blk, tol))
    head = negativity(blk.a11, tol)
    for t in range(-10, 11):
        full = assemble(blk, float(t) * np.eye(n2))
        track.expect(inertia_of(full, tol).n_minus > head)


def _completion_schur(rng, tol, track):
    n1 = int(rng.integers(1, 7))
    n2 = int(rng.integers(1, 7))
    kappa = int(rng.integers(0, min(n1, 2) + 1))
    blk = gens.random_completable_block(rng, n1, n2, kappa, int(rng.integers(0, 2)))
    a22 = gens.random_symmetric(rng, n2)
    split = schur_inertia(blk, a22, tol)
    direct = inertia_of(assemble(blk, a22), tol)
    track.expect(split.n_minus == direct.n_minus)


# ---------------------------------------------------------------------------
# factor suite


def _factor_balance(rng, tol, track):
    n1 = int(rng.integers(1, 7))
    n2 = int(rng.integers(1, 7))
    j1 = JSpace.from_matrix(gens.random_symmetry(rng, n1, int(rng.integers(0, n1 + 1))))
    j2 = JSpace.from_matrix(gens.random_symmetry(rng, n2, int(rng.integers(0, n2 + 1))))
    t = rng.standard_normal((n2, n1)) * rng.uniform(0.3, 1.6)
    left, right = inertia_balance(t, j1, j2, tol)
    # the J's counted by their own spectra, not by JSpace's trace
    nu1, nu2 = negativity(j1.j, tol), negativity(j2.j, tol)
    track.expect(left.n_minus + nu2 == right.n_minus + nu1 and left.n_zero == right.n_zero)


def _factor_schur_roundtrip(rng, tol, track):
    n1 = int(rng.integers(1, 6))
    n2 = int(rng.integers(1, 4))
    kappa = int(rng.integers(0, n1 + 1))
    n_zero = int(rng.integers(0, 2)) if n1 - kappa > 0 else 0
    a = gens.random_symmetric_with_inertia(rng, n1, kappa, n_zero)
    k2 = int(rng.integers(0, min(kappa, n2) + 1))
    j2 = JSpace.from_matrix(gens.random_symmetry(rng, n2, k2))
    plus, minus, _ = signed_eigenbases(a, tol)
    try:
        k = gens.random_j_contraction_into(rng, j2.j, plus, minus)
    except ValueError:
        return
    b = (modulus_power(a, 0.5, tol) @ k).T
    result = schur_negativity_factor(a, b, j2, tol)
    track.expect(result is not None)
    if result is not None:
        track.bound(norm2(result.factor - k) / (1.0 + norm2(k)), 1e-8)
    # agreement with the direct criterion on an arbitrary coupling
    b_arb = rng.standard_normal((n2, n1))
    schur = symmetrize(a - b_arb.T @ j2.j @ b_arb)
    floor = 1.0 + norm2(a) + norm2(b_arb) ** 2
    equality = negativity(a, tol) == negativity(schur, tol, floor=floor) + j2.negativity(tol)
    track.expect((schur_negativity_factor(a, b_arb, j2, tol) is not None) == equality)


def _factor_douglas_classical(rng, tol, track):
    n = int(rng.integers(1, 6))
    m = int(rng.integers(1, 5))
    a = gens.random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
    c0 = gens.random_contraction(rng, m, n)
    half = modulus_power(a, 0.5, tol, floor=norm2(a))
    b = c0 @ half
    result = douglas_factor(a, b, JSpace.identity(m), "inequality", tol)
    track.expect(result is not None)
    if result is not None:
        track.expect(norm2(result.factor) <= 1.0 + tol.psd)
        track.bound(norm2(result.factor @ half - b) / (1.0 + norm2(b)), 1e-8)


def _factor_douglas_isometric(rng, tol, track):
    n = int(rng.integers(1, 6))
    kappa = int(rng.integers(0, n + 1))
    n_zero = int(rng.integers(0, 2)) if n - kappa > 0 else 0
    a = gens.random_symmetric_with_inertia(rng, n, kappa, n_zero)
    w = gens.random_orthogonal(rng, n)
    j_a = signature_of(a, tol)
    j2 = JSpace.from_matrix(symmetrize(w @ j_a @ w.T))
    b = w @ modulus_power(a, 0.5, tol, floor=norm2(a))
    result = douglas_factor(a, b, j2, "equality", tol)
    track.expect(result is not None)
    if result is not None:
        invertible = inertia_of(a, tol).n_zero == 0
        track.expect(result.classification == ("unitary" if invertible else "isometric"))
    case = bicontraction_classify(a, b, j2, tol)
    track.expect(case.case == "ii")


# ---------------------------------------------------------------------------
# lifting suite


def _random_defect_instance(rng, tol):
    n1 = int(rng.integers(1, 7))
    n2 = int(rng.integers(1, 7))
    j1 = JSpace.from_matrix(gens.random_symmetry(rng, n1, int(rng.integers(0, n1 + 1))))
    j2 = JSpace.from_matrix(gens.random_symmetry(rng, n2, int(rng.integers(0, n2 + 1))))
    t = rng.standard_normal((n2, n1)) * rng.uniform(0.4, 1.6)
    return defect_data(t, j1, j2, tol)


def _lifting_defect_identities(rng, tol, track):
    d = _random_defect_instance(rng, tol)
    t, j1, j2 = d.t, d.j1.j, d.j2.j
    m1 = symmetrize(j1 - t.T @ j2 @ t)
    m2 = symmetrize(j2 - t @ j1 @ t.T)
    scale = (1.0 + norm2(t)) ** 3
    track.bound(norm2(m1 @ j1 @ t.T - t.T @ j2 @ m2) / scale, 1e-10)
    track.bound(norm2(m2 @ j2 @ t - t @ j1 @ m1) / scale, 1e-10)
    track.bound(norm2(d.jt @ d.d_t @ d.d_t - m1) / (1.0 + norm2(m1)), 1e-10)
    track.bound(norm2(d.jt @ d.d_t - d.d_t @ d.jt) / (1.0 + norm2(d.d_t)), 1e-10)
    track.bound(norm2(d.jtstar @ d.d_tstar @ d.d_tstar - m2) / (1.0 + norm2(m2)), 1e-10)


def _lifting_link_identities(rng, tol, track):
    d = _random_defect_instance(rng, tol)
    track.expect(verify_link_identities(d, tol))
    scale = (1.0 + norm2(d.t)) ** 2
    track.bound(norm2(d.d_tstar @ d.l_t - d.t @ d.j1.j @ d.d_t) / scale, 1e-9)
    track.bound(norm2(d.d_t @ d.l_tstar - d.t.T @ d.j2.j @ d.d_tstar) / scale, 1e-9)


def _lifting_column_row(rng, tol, track):
    d = _random_defect_instance(rng, tol)
    m = int(rng.integers(1, 4))
    scale = (1.0 + norm2(d.t)) ** 2
    m1 = symmetrize(d.j1.j - d.t.T @ d.j2.j @ d.t)
    m2 = symmetrize(d.j2.j - d.t @ d.j1.j @ d.t.T)
    j2p = JSpace.from_matrix(
        gens.random_symmetry(rng, m, int(rng.integers(0, min(d.kappa1, m) + 1)))
    )
    plus1, minus1, _ = signed_eigenbases(m1, tol, floor=scale)
    try:
        k = gens.random_j_contraction_into(rng, j2p.j, plus1, minus1)
    except ValueError:
        return
    t_c = column_extend(d, k, j2p, tol)
    track.bound(norm2(extract_column_parameter(t_c, d, tol) - k) / (1.0 + norm2(k)), 1e-8)
    # an extension is a lifting with an empty exit: both its indices are minimal
    targets, counts = _extended_indices(d, JSpace.identity(0), j2p, tol)
    track.expect(counts(t_c) == targets)
    j1p = JSpace.from_matrix(
        gens.random_symmetry(rng, m, int(rng.integers(0, min(d.kappa2, m) + 1)))
    )
    plus2, minus2, _ = signed_eigenbases(m2, tol, floor=scale)
    try:
        b = gens.random_j_contraction_into(rng, j1p.j, plus2, minus2)
    except ValueError:
        return
    t_r = row_extend(d, b, j1p, tol)
    track.bound(norm2(extract_row_parameter(t_r, d, tol) - b) / (1.0 + norm2(b)), 1e-8)
    targets, counts = _extended_indices(d, j1p, JSpace.identity(0), tol)
    track.expect(counts(t_r) == targets)
    # index formula for an arbitrary, generally non-contractive parameter
    b_arb = rng.standard_normal((d.dim2, m))
    direct = counts(np.hstack([d.t, d.d_tstar @ b_arb]))[0]
    track.expect(row_index_formula(d, b_arb, j1p, tol) == direct)


def _lifting_roundtrip(rng, tol, track):
    dims = [int(rng.integers(1, 5)) for _ in range(2)] + [int(rng.integers(1, 4)) for _ in range(2)]
    instance = gens.random_lift_instance(rng, *dims)
    if instance is None:
        return
    d, params, j1p, j2p = instance
    t_tilde = lift(d, params, j1p, j2p, tol)
    targets, counts = _extended_indices(d, j1p, j2p, tol)
    track.expect(counts(t_tilde) == targets)
    recovered = extract_lift_parameters(t_tilde, d, j1p, j2p, tol)
    err = max(
        norm2(recovered.gamma1 - params.gamma1),
        norm2(recovered.gamma2 - params.gamma2),
        norm2(recovered.gamma - params.gamma),
    )
    track.bound(err, 1e-8)
    track.bound(norm2(lift(d, recovered, j1p, j2p, tol) - t_tilde), 1e-8)


def _random_j_contraction_instance(rng, tol, kind: int):
    if kind == 0:
        mdim = int(rng.integers(1, 5))
        ndim = int(rng.integers(1, 5))
        u = gens.random_orthogonal(rng, mdim)
        v = gens.random_orthogonal(rng, ndim)
        r = min(mdim, ndim)
        ones = int(rng.integers(0, r + 1))
        s = np.concatenate([np.ones(ones), rng.uniform(0.1, 0.85, size=r - ones)])
        t = u[:, :r] @ np.diag(s) @ v[:, :r].T
        j1 = JSpace.identity(ndim)
        j2 = JSpace.identity(mdim)
    elif kind == 1:
        mdim = int(rng.integers(1, 5))
        ndim = int(rng.integers(1, 5))
        k = int(rng.integers(0, min(mdim, ndim) + 1))
        j1 = JSpace.from_matrix(gens.random_symmetry(rng, ndim, k))
        j2 = JSpace.from_matrix(gens.random_symmetry(rng, mdim, int(rng.integers(k, mdim + 1))))
        plus, minus, _ = signed_eigenbases(j2.j, tol)
        units = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
        try:
            t = gens.random_j_contraction_into(rng, j1.j, plus, minus, unit_directions=units)
        except ValueError:
            return None
    else:
        ndim = int(rng.integers(1, 5))
        k = int(rng.integers(0, ndim + 1))
        j1 = JSpace.from_matrix(gens.random_symmetry(rng, ndim, k))
        j2 = JSpace.from_matrix(gens.random_symmetry(rng, ndim, k))
        plus, minus, _ = signed_eigenbases(j2.j, tol)
        t = gens.random_j_contraction_into(rng, j1.j, plus, minus, isometric=True)
    return defect_data(t, j1, j2, tol)


def _lifting_kernel_geometry(rng, tol, track):
    d = _random_j_contraction_instance(rng, tol, int(rng.integers(0, 3)))
    if d is None or d.kappa1 != 0:
        return
    track.expect(kernel_map_check(d, tol))
    range_intersection(d, tol)


def _lifting_isometry_agreement(rng, tol, track):
    kind = int(rng.integers(0, 3))
    d = _random_j_contraction_instance(rng, tol, kind)
    if d is None or d.kappa1 != 0:
        return
    # j_isometry_test raises when its three tests disagree
    report = j_isometry_test(d, tol)
    if kind == 2:
        track.expect(report.isometric)


# ---------------------------------------------------------------------------
# quasicontraction suite


def _quasi_split(rng, tol, track):
    n = int(rng.integers(1, 9))
    t = gens.random_symmetric(rng, n, scale=rng.uniform(0.3, 1.5))
    minus, plus = split_counts(t, tol)
    floor = (1.0 + norm2(t)) ** 2
    total = negativity(symmetrize(np.eye(n) - t @ t), tol, floor=floor)
    track.expect(minus + plus == total)


def _quasi_extremal(rng, tol, track):
    n1 = int(rng.integers(1, 5))
    n2 = int(rng.integers(0, 3))
    col = gens.random_quasicontraction_column(rng, n1, n2)
    pair = extremal_extensions(col, tol)
    for ext in (pair.t_min, pair.t_max):
        track.expect(split_counts(ext, tol) == (pair.kappa_minus, pair.kappa_plus))
    track.expect(is_member(pair, pair.t_min, tol))
    track.expect(is_member(pair, pair.t_max, tol))
    track.expect(is_member(pair, symmetrize((pair.t_min + pair.t_max) / 2.0), tol))
    gap = uniqueness_gap(pair, tol)
    track.expect(loewner_leq(np.zeros_like(gap), gap, tol))
    track.expect(_zero_gap_is_j_isometry(pair, tol))


def _zero_gap_is_j_isometry(pair, tol) -> bool:
    """The gap ``t_max - t_min`` vanishes exactly when ``V^T`` is J-isometric."""
    if not (pair.dim1 and pair.dim2):
        return True
    gap = uniqueness_gap(pair, tol)
    gap_zero = norm_leq(gap, lambda a, b: tol.residual * (1.0 + a + b), pair.t_min, pair.t_max)
    data = defect_data(pair.v.T, JSpace.identity(pair.dim2), JSpace.from_matrix(pair.j), tol)
    return j_isometry_test(data, tol).isometric == gap_zero


def _quasi_nonsolvable(rng, tol, track):
    n1 = int(rng.integers(1, 4))
    n2 = int(rng.integers(1, 3))
    for _ in range(20):
        t11 = gens.random_symmetric(rng, n1, scale=rng.uniform(0.4, 1.2))
        t21 = rng.standard_normal((n2, n1)) * rng.uniform(1.5, 3.0)
        col = SymmetricColumn(t11, t21)
        if not solvable(col, tol):
            break
    else:
        return
    eye = np.eye(n1 + n2)
    floor_head = (1.0 + norm2(col.t11)) ** 2
    kappa = negativity(symmetrize(np.eye(n1) - col.t11 @ col.t11), tol, floor=floor_head)
    for t in np.linspace(-3.0, 3.0, 13):
        full = np.block([
            [col.t11, col.t21.T],
            [col.t21, float(t) * np.eye(n2)],
        ])
        floor = (1.0 + norm2(full)) ** 2
        track.expect(
            negativity(symmetrize(eye - full @ full), tol, floor=floor) > kappa
        )


def _quasi_interval_index(rng, tol, track):
    n1 = int(rng.integers(1, 5))
    n2 = int(rng.integers(1, 3))
    col = gens.random_quasicontraction_column(rng, n1, n2)
    pair = extremal_extensions(col, tol)
    eye2 = np.eye(n2)
    eye = np.eye(n1 + n2)
    for t in np.linspace(-2.5, 2.5, 21):
        full = np.block([
            [col.t11, col.t21.T],
            [col.t21, float(t) * eye2],
        ])
        member = is_member(pair, full, tol)
        floor = (1.0 + norm2(full)) ** 2
        below = negativity(symmetrize(eye + full), tol, floor=floor)
        above = negativity(symmetrize(eye - full), tol, floor=floor)
        by_counts = below == pair.kappa_minus and above == pair.kappa_plus
        track.expect(member == by_counts)


def _quasi_duality(rng, tol, track):
    n1 = int(rng.integers(1, 5))
    n2 = int(rng.integers(0, 3))
    col = gens.random_quasicontraction_column(rng, n1, n2)
    pair = extremal_extensions(col, tol)
    negated = extremal_extensions(col.negated(), tol)
    scale = 1.0 + norm2(pair.t_min) + norm2(pair.t_max)
    track.bound(norm2(negated.t_min + pair.t_max) / scale, 1e-9)
    track.bound(norm2(negated.t_max + pair.t_min) / scale, 1e-9)
    gap = uniqueness_gap(pair, tol)
    predicted = np.zeros_like(gap)
    predicted[n1:, n1:] = 2.0 * (np.eye(n2) - pair.v @ pair.j @ pair.v.T)
    track.bound(norm2(gap - symmetrize(predicted)) / scale, 1e-9)


def _quasi_sup_probe(rng, tol, track):
    n2 = int(rng.integers(1, 3))
    n1 = n2 + int(rng.integers(0, 3))
    unique = bool(rng.integers(0, 2))
    col = gens.random_quasicontraction_column(rng, n1, n2, unique=unique)
    if not unique:
        # shrink the factor strictly inside the contraction ball
        col = SymmetricColumn(col.t11, 0.6 * col.t21)
    track.expect(krein_uniqueness_criterion(col, tol) == unique)
    t1 = col.stacked()
    m = symmetrize(np.eye(n1) - t1.T @ t1)
    abs_m = modulus_power(m, 1.0, tol)
    phi = rng.standard_normal(n2)
    phi /= np.linalg.norm(phi)
    phi_full = np.concatenate([np.zeros(n1), phi])
    ratios = []
    for eps in (1e-2, 1e-4, 1e-6):
        f = np.linalg.solve(abs_m + eps * np.eye(n1), t1.T @ phi_full)
        numerator = float(t1 @ f @ phi_full) ** 2
        denominator = abs(float(m @ f @ f))
        ratios.append(numerator / max(denominator, 1e-300))
    # along the probe sequence the ratio either explodes (supremum infinite)
    # or converges to the finite supremum, which is O(1) at these scales
    threshold = 1e6 * (1.0 + norm2(t1)) ** 4
    if unique:
        track.expect(ratios[-1] > threshold)
    else:
        track.expect(ratios[-1] < threshold)


# ---------------------------------------------------------------------------
# relations suite


def _random_plain_relation(rng, n):
    k = int(rng.integers(0, 2 * n + 1))
    basis = gens.random_orthogonal(rng, 2 * n)[:, :k]
    return LinearRelation(n, basis)


def _random_symmetric_relation(rng, n):
    sa = gens.random_selfadjoint_relation(rng, n, mul_dim=int(rng.integers(0, 2)))
    d = int(rng.integers(0, n + 1))
    coeff = gens.random_orthogonal(rng, sa.graph_dim)[:, :d] if sa.graph_dim else np.zeros((0, 0))
    return LinearRelation(n, sa.basis @ coeff)


def _relations_cayley(rng, tol, track):
    n = int(rng.integers(1, 6))
    rel = _random_plain_relation(rng, n)
    double = rel.cayley(tol).cayley(tol)
    track.bound(norm2(double.graph_projector() - rel.graph_projector()), 1e-9)
    lhs = rel.cayley(tol).inverse()
    rhs = rel.negate().cayley(tol)
    track.bound(norm2(lhs.graph_projector() - rhs.graph_projector()), 1e-9)


def _relations_spectral_map(rng, tol, track):
    n = int(rng.integers(1, 7))
    vals = []
    for _ in range(n):
        while True:
            x = rng.uniform(-4.0, 4.0)
            if min(abs(x + 1.0), abs(x - 1.0), abs(x)) > 0.15:
                break
        vals.append(x)
    q = gens.random_orthogonal(rng, n)
    h = symmetrize(q @ np.diag(vals) @ q.T)
    image = np.linalg.solve(np.eye(n) + h, np.eye(n) - h)
    w_h = np.linalg.eigvalsh(h)
    w_c = np.linalg.eigvalsh(symmetrize((image + image.T) / 2.0))
    track.expect(int(np.sum(w_h < -1.0)) == int(np.sum(w_c < -1.0)))
    track.expect(int(np.sum(w_h > 1.0)) == int(np.sum((w_c > -1.0) & (w_c < 0.0))))


def _relations_form(rng, tol, track):
    n = int(rng.integers(1, 6))
    rel = _random_symmetric_relation(rng, n)
    cls = classify(rel, tol)
    track.expect(cls.symmetric)
    data = form_a1(rel, tol)
    track.expect(data.negatives <= cls.form_negativity)
    track.expect(_form_identities(rel, data.gram, tol))


def _form_identities(rel, gram, tol) -> bool:
    """The projected form against the Cayley side, on each graph basis element.

    ``4 <P1 f', f> = |g|^2 - |P1 h|^2`` and ``|P2 h|^2 = 4 |P2 f|^2`` for
    ``g = f + f'``, ``h = f - f'`` and ``P1`` onto ``ran(I + A)``, the
    domain of the Cayley transform as the library reads it.
    """
    f, fp = rel.first, rel.second
    p1 = projector(operator_part(rel.cayley(tol), tol)[0])
    h = f - fp
    p1h = p1 @ h

    def col_sq(x):
        return np.sum(x * x, axis=0)

    bound = tol.residual * 4.0
    first = np.abs(4.0 * np.diag(gram) - (col_sq(f + fp) - col_sq(p1h)))
    second = np.abs(col_sq(h - p1h) - 4.0 * col_sq(f - p1 @ f))
    return not (np.any(first > bound) or np.any(second > bound))


def _extension_targets(rel, tol):
    a_f, a_k = friedrichs_krein(rel, tol)
    kappa = form_a1(rel, tol).negatives
    return a_f, a_k, kappa


def _member_triple(rel, a_f, a_k, kappa, candidate, tol):
    by_interval = ext_membership(rel, candidate, tol)
    by_order = relation_leq(a_k, candidate, tol) and relation_leq(candidate, a_f, tol)
    cls = classify(candidate, tol)
    by_count = (
        cls.selfadjoint
        and candidate.contains(rel, tol)
        and relation_inertia(candidate, tol).i_minus == kappa
    )
    return by_interval, by_order, by_count


def _sweep_members(rng, rel, tol, count=2):
    """Relations inside the extension interval, built from the transform side."""
    problem = extension_problem(rel, tol)
    pair = problem.pair
    n1 = problem.t11.shape[0]
    basis = np.hstack([problem.u1, problem.u2])
    eye = np.eye(rel.space_dim)  # the inverse Cayley image of M spans [I + M; I - M]
    gap_corner = symmetrize((pair.t_max - pair.t_min)[n1:, n1:])
    n2 = gap_corner.shape[0]
    half = modulus_power(gap_corner, 0.5, tol)
    members = []
    for _ in range(count):
        c = gens.random_psd(rng, n2, scale=1.0)
        top = norm2(c)
        if top > 1.0:
            c = c / (top * rng.uniform(1.0, 2.0))
        bump = np.zeros_like(pair.t_min)
        bump[n1:, n1:] = half @ c @ half
        t = symmetrize(pair.t_min + bump)
        m = symmetrize(basis @ t @ basis.T)
        members.append(LinearRelation.from_generators(eye + m, eye - m, tol))
    outside = None
    if n2 > 0:
        bump = np.zeros_like(pair.t_min)
        bump[n1:, n1:] = 0.4 * np.eye(n2)
        t_bad = symmetrize(pair.t_max + bump)
        m = symmetrize(basis @ t_bad @ basis.T)
        outside = LinearRelation.from_generators(eye + m, eye - m, tol)
    return members, outside


def _relations_extension_interval(rng, tol, track):
    n = int(rng.integers(2, 6))
    mul_dim = int(rng.integers(0, 2))
    d = int(rng.integers(mul_dim + 1, n + 1))
    rel = gens.random_solvable_relation(rng, n, dom_dim=d, mul_dim=mul_dim)
    a_f, a_k, kappa = _extension_targets(rel, tol)
    members, outside = _sweep_members(rng, rel, tol)
    for candidate in members + [a_f, a_k]:
        verdicts = _member_triple(rel, a_f, a_k, kappa, candidate, tol)
        track.expect(all(verdicts))
    if outside is not None:
        verdicts = _member_triple(rel, a_f, a_k, kappa, outside, tol)
        track.expect(not any(verdicts))


def _relations_resolvent_shifts(rng, tol, track):
    n = int(rng.integers(2, 5))
    rel = gens.random_solvable_relation(rng, n)
    a_f, a_k, _ = _extension_targets(rel, tol)
    members, _ = _sweep_members(rng, rel, tol, count=1)
    mu = _common_bottom((a_f, a_k, members[0]), tol)
    for shift in (-mu + 0.1, -mu + 1.0, -mu + 10.0):
        track.expect(resolvent_interval_check(rel, members[0], shift, tol))


def _relations_inverse_duality(rng, tol, track):
    n = int(rng.integers(2, 5))
    rel = gens.random_solvable_relation(rng, n)
    track.expect(inverse_duality_check(rel, tol))


def _relations_antitonicity(rng, tol, track):
    n = int(rng.integers(1, 6))
    mismatch = bool(rng.integers(0, 2))
    h1, h2 = gens.random_ordered_matrix_pair(rng, n, mismatch)
    # antitonicity_check raises when its verdict contradicts the inertias
    antitonicity_check(h1, h2, "matrix", tol)
    # relation mode on operator parts sharing the multivalued block
    mul_dim = int(rng.integers(0, 2))
    dim = n + mul_dim
    basis = gens.random_orthogonal(rng, dim)
    u, u_mul = basis[:, :n], basis[:, n:]
    rel1 = LinearRelation.from_generators(
        np.hstack([u, np.zeros((dim, mul_dim))]), np.hstack([u @ h1, u_mul])
    )
    rel2 = LinearRelation.from_generators(
        np.hstack([u, np.zeros((dim, mul_dim))]), np.hstack([u @ h2, u_mul])
    )
    antitonicity_check(rel1, rel2, "relation", tol)


def _relations_uniqueness(rng, tol, track):
    n = int(rng.integers(2, 5))
    unique = bool(rng.integers(0, 2))
    if unique:
        d = int(rng.integers((n + 1) // 2, n + 1))
        rel = gens.random_solvable_relation(rng, n, dom_dim=d, unique=True)
    else:
        rel = gens.random_solvable_relation(rng, n, dom_dim=int(rng.integers(1, n)))
    relation_verdict = krein_uniqueness_relation(rel, tol)
    problem = extension_problem(rel, tol)
    track.expect(_zero_gap_is_j_isometry(problem.pair, tol))
    track.expect(_translation_identities(rel, problem, tol))
    a_f, a_k = friedrichs_krein(rel, tol)
    track.expect(relation_verdict == a_f.same_as(a_k, tol))


def _translation_identities(rel, problem, tol) -> bool:
    """The relation side against the Cayley side, on probes from a private stream.

    For ``g`` in ``ran(I + A)``, ``phi`` in its complement and ``(f, f')``
    the graph element over ``g``: ``(T g, phi) = 2 ((I + A)^{-1} g, phi)``
    and ``|g|^2 - |T g|^2 = 4 (f', f)``, a form whose compression is symmetric.
    """
    u1, u2 = problem.u1, problem.u2
    if u1.shape[1] == 0:
        return True
    # the Cayley transform and (I + A)^{-1} as operators on ran(I + A)
    t1 = np.hstack([u1, u2]) @ np.vstack([problem.t11, problem.t21]) @ u1.T
    resolvent = rel.shift(1.0, tol).inverse()
    if resolvent.mul_dim(tol) > 0:
        return False
    u_res, images_res = operator_part(resolvent, tol)
    res = images_res @ u_res.T
    # the graph elements over the columns of u1, multivalued parts removed
    coeff, *_ = np.linalg.lstsq(rel.first + rel.second, u1, rcond=None)
    first_parts = rel.first @ coeff
    images = (np.eye(rel.space_dim) - projector(rel.mul_basis(tol))) @ (rel.second @ coeff)
    a_hat = first_parts.T @ images
    if not norm_leq(a_hat - a_hat.T, lambda na: tol.zero * (1.0 + na), a_hat):
        return False
    a_hat, rng = symmetrize(a_hat), np.random.default_rng(0)

    def holds(gap: float, weight: float) -> bool:
        return norm_leq(gap, lambda nt, na: tol.zero * ((1.0 + nt) ** 2 + na) * weight, t1, a_hat)

    for _ in range(4):
        r = rng.standard_normal(u1.shape[1])
        g = u1 @ r
        # least squares is linear in the right-hand side: lstsq(F + F', g) = coeff @ r
        quadratic = float(g @ g - (t1 @ g) @ (t1 @ g)) - 4.0 * float((images @ r) @ (first_parts @ r))
        if not holds(abs(quadratic), 1.0 + g @ g):
            return False
        if u2.shape[1]:
            phi = u2 @ rng.standard_normal(u2.shape[1])
            if not holds(abs(float((t1 @ g) @ phi) - 2.0 * float((res @ g) @ phi)), 1.0 + g @ g + phi @ phi):
                return False
    return True


_SUITES: dict[str, list[tuple[str, object]]] = {
    "completion": [
        ("minimality", _completion_minimality),
        ("interval_iff", _completion_interval),
        ("necessity", _completion_necessity),
        ("schur_split", _completion_schur),
    ],
    "factor": [
        ("inertia_balance", _factor_balance),
        ("schur_factor_roundtrip", _factor_schur_roundtrip),
        ("douglas_classical", _factor_douglas_classical),
        ("douglas_isometric", _factor_douglas_isometric),
    ],
    "lifting": [
        ("defect_identities", _lifting_defect_identities),
        ("link_identities", _lifting_link_identities),
        ("column_row_extensions", _lifting_column_row),
        ("lift_roundtrip", _lifting_roundtrip),
        ("kernel_geometry", _lifting_kernel_geometry),
        ("isometry_agreement", _lifting_isometry_agreement),
    ],
    "quasicontraction": [
        ("split_identity", _quasi_split),
        ("extremal_membership", _quasi_extremal),
        ("nonsolvable_sweep", _quasi_nonsolvable),
        ("interval_index_agreement", _quasi_interval_index),
        ("negation_duality_gap", _quasi_duality),
        ("uniqueness_sup_probe", _quasi_sup_probe),
    ],
    "relations": [
        ("cayley_involution", _relations_cayley),
        ("cayley_spectral_map", _relations_spectral_map),
        ("boundary_form", _relations_form),
        ("extension_interval", _relations_extension_interval),
        ("resolvent_shifts", _relations_resolvent_shifts),
        ("inverse_duality", _relations_inverse_duality),
        ("antitonicity", _relations_antitonicity),
        ("uniqueness_agreement", _relations_uniqueness),
    ],
}


def available_suites() -> list[str]:
    return list(_SUITES) + ["all"]


def run_suites(
    suite: str,
    seed: int,
    cases: int,
    tol: ToleranceProfile | None = None,
) -> list[CheckResult]:
    """Run the named suite (or ``all``) and return per-check results."""
    tol = resolve(tol)
    if suite == "all":
        names = list(_SUITES)
    elif suite in _SUITES:
        names = [suite]
    else:
        raise KeyError(f"unknown suite {suite!r}; choose from {available_suites()}")
    results = []
    index = 0
    for name in names:
        for check_name, fn in _SUITES[name]:
            rng = np.random.default_rng([seed, index])
            track = _run_cases(fn, rng, cases, tol)
            results.append(
                CheckResult(
                    suite=name,
                    name=check_name,
                    cases=cases,
                    failures=track.failures,
                    max_residual=track.max_residual,
                )
            )
            index += 1
    return results
