"""Acceptance suite: one test per criterion, at the stated scale and tolerance.

Each test prints a PASS line with its measured statistics, so running
``pytest tests/test_acceptance.py -v -s`` yields a one-line verdict per
criterion.
"""

import time

import numpy as np

from kreinkit import gens
from kreinkit.completion import assemble, is_solution, minimal_completion, reconstruction
from kreinkit.factor import JSpace, inertia_balance
from kreinkit.lifting import _extended_indices, extract_lift_parameters, lift
from kreinkit.quasicontraction import (
    SymmetricColumn,
    extremal_extensions,
    is_member,
    krein_uniqueness_criterion,
    split_counts,
    uniqueness_gap,
)
from kreinkit.relations import (
    LinearRelation,
    antitonicity_check,
    classify,
    ext_membership,
    form_a1,
    friedrichs_krein,
    inverse_duality_check,
    krein_uniqueness_relation,
    relation_inertia,
    relation_leq,
    resolvent_interval_check,
)
from kreinkit.completion import schur_inertia
from kreinkit.cli import main as cli_main
from kreinkit.spectral import (
    inertia_of,
    norm2,
    subspace_distance,
    symmetrize,
)
from kreinkit.tolerances import resolve


def nu_minus(matrix, scale_floor=1.0, threshold=1e-9):
    """Brute-force negative eigenvalue count (the independent oracle)."""
    w = np.linalg.eigvalsh(symmetrize(np.atleast_2d(matrix)))
    scale = max(scale_floor, abs(w).max() if w.size else 0.0)
    return int(np.sum(w < -threshold * scale))


def report(name, **stats):
    parts = " ".join(f"{key}={value}" for key, value in stats.items())
    print(f"PASS {name} {parts}")


def _completion_instances(count):
    """The shared instance stream used by criteria 1 and 2."""
    rng = np.random.default_rng(101)
    for _ in range(count):
        n1 = int(rng.integers(1, 7))
        n2 = int(rng.integers(1, 7))
        kappa = int(rng.integers(0, min(n1, 2) + 1))
        n_zero = int(rng.integers(0, 2)) if n1 - kappa > 0 else 0
        yield gens.random_completable_block(rng, n1, n2, kappa, n_zero), kappa


def test_criterion_1_completion_minimality():
    start = time.monotonic()
    worst = 0.0
    for blk, kappa in _completion_instances(500):
        sol = minimal_completion(blk)
        assert sol.kappa == kappa
        full = assemble(blk, sol.a22_min)
        assert nu_minus(full, scale_floor=1.0 + norm2(full)) == kappa
        residual = norm2(full - reconstruction(blk, sol)) / (1.0 + norm2(full))
        assert residual <= 1e-9
        worst = max(worst, residual)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report("completion_minimality", cases=500, max_residual=f"{worst:.3e}",
           seconds=f"{elapsed:.2f}")


def test_criterion_2_solution_set_iff():
    rng = np.random.default_rng(102)
    agreements = 0
    total = 0
    for blk, kappa in _completion_instances(500):
        n2 = blk.dim2
        sol = minimal_completion(blk)
        for _ in range(5):
            a22 = symmetrize(sol.a22_min + gens.random_psd(rng, n2))
            member = is_solution(blk, a22)
            direct = nu_minus(assemble(blk, a22), 1.0 + norm2(a22)) == kappa
            total += 1
            agreements += int(member == direct and member)
        for _ in range(5):
            bump = gens.random_symmetric_with_inertia(rng, n2, int(rng.integers(1, n2 + 1)))
            a22 = symmetrize(sol.a22_min + bump)
            member = is_solution(blk, a22)
            direct = nu_minus(assemble(blk, a22), 1.0 + norm2(a22)) == kappa
            total += 1
            agreements += int(member == direct and not member)
    assert agreements == total
    report("solution_set_iff", cases=total, agreement="100%")


def test_criterion_3_inertia_identities():
    rng = np.random.default_rng(103)
    start = time.monotonic()
    for _ in range(1000):
        n1 = int(rng.integers(1, 7))
        n2 = int(rng.integers(1, 7))
        j1 = JSpace.from_matrix(gens.random_symmetry(rng, n1, int(rng.integers(0, n1 + 1))))
        j2 = JSpace.from_matrix(gens.random_symmetry(rng, n2, int(rng.integers(0, n2 + 1))))
        t = rng.standard_normal((n2, n1))
        left, right = inertia_balance(t, j1, j2)
        assert left.n_minus + nu_minus(j2.j) == right.n_minus + nu_minus(j1.j)
        assert left.n_zero == right.n_zero
    for _ in range(1000):
        n1 = int(rng.integers(1, 7))
        n2 = int(rng.integers(1, 7))
        kappa = int(rng.integers(0, min(n1, 2) + 1))
        blk = gens.random_completable_block(rng, n1, n2, kappa, int(rng.integers(0, 2)))
        a22 = gens.random_symmetric(rng, n2)
        assert schur_inertia(blk, a22).n_minus == nu_minus(
            assemble(blk, a22), 1.0 + norm2(a22)
        )
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        t = gens.random_symmetric(rng, n, scale=rng.uniform(0.3, 1.5))
        minus, plus = split_counts(t)
        assert minus + plus == nu_minus(
            np.eye(n) - t @ t, scale_floor=(1.0 + norm2(t)) ** 2
        )
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report("inertia_identities", cases=3000, seconds=f"{elapsed:.2f}")


def test_criterion_4_lifting_roundtrip():
    rng = np.random.default_rng(104)
    done = 0
    worst = 0.0
    while done < 200:
        dims = [int(rng.integers(1, 5)), int(rng.integers(1, 5)),
                int(rng.integers(1, 5)), int(rng.integers(1, 5))]
        instance = gens.random_lift_instance(rng, *dims)
        if instance is None:
            continue
        d, params, j1p, j2p = instance
        lifted = lift(d, params, j1p, j2p)
        targets, counts = _extended_indices(d, j1p, j2p, resolve(None))
        assert counts(lifted) == targets
        recovered = extract_lift_parameters(lifted, d, j1p, j2p)
        relifted = lift(d, recovered, j1p, j2p)
        err = norm2(relifted - lifted)
        assert err <= 1e-8
        worst = max(worst, err)
        done += 1
    report("lifting_roundtrip", cases=200, max_error=f"{worst:.3e}")


def test_criterion_5_extremal_interval():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(100):
        n1 = int(rng.integers(1, 5))
        n2 = int(rng.integers(1, 3))
        col = gens.random_quasicontraction_column(rng, n1, n2)
        pair = extremal_extensions(col)
        eye = np.eye(n1 + n2)
        for t in np.linspace(-2.5, 2.5, 21):
            full = np.block([
                [col.t11, col.t21.T],
                [col.t21, float(t) * np.eye(n2)],
            ])
            floor = (1.0 + norm2(full)) ** 2
            below = nu_minus(eye + full, scale_floor=floor)
            above = nu_minus(eye - full, scale_floor=floor)
            expected = below == pair.kappa_minus and above == pair.kappa_plus
            assert is_member(pair, full) == expected
        negated = extremal_extensions(col.negated())
        scale = 1.0 + norm2(pair.t_min) + norm2(pair.t_max)
        duality = max(
            norm2(negated.t_min + pair.t_max), norm2(negated.t_max + pair.t_min)
        ) / scale
        assert duality <= 1e-9
        gap = uniqueness_gap(pair)
        predicted = np.zeros_like(gap)
        predicted[n1:, n1:] = 2.0 * (np.eye(n2) - pair.v @ pair.j @ pair.v.T)
        gap_residual = norm2(gap - symmetrize(predicted)) / scale
        assert gap_residual <= 1e-9
        worst = max(worst, duality, gap_residual)
    report("extremal_interval", cases=100, grid_points=21, max_residual=f"{worst:.3e}")


def test_criterion_6_friedrichs_krein_pipeline():
    # worked example first
    rel = LinearRelation.from_generators(
        np.array([[1.0], [0.0]]), np.array([[1.0], [0.0]])
    )
    a_f, a_k = friedrichs_krein(rel)
    target_k = LinearRelation.from_operator(np.diag([1.0, 0.0]))
    assert subspace_distance(a_k.basis, target_k.basis) <= 1e-9
    target_f = LinearRelation.from_generators(
        np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[1.0, 0.0], [0.0, 1.0]])
    )
    assert subspace_distance(a_f.basis, target_f.basis) <= 1e-9
    assert subspace_distance(a_f.mul_basis(), np.eye(2)[:, 1:]) <= 1e-9

    from kreinkit.relations import _cayley_column, _operator_minimum
    from kreinkit.spectral import modulus_power

    rng = np.random.default_rng(106)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        mul_dim = int(rng.integers(0, 2))
        d = int(rng.integers(mul_dim + 1, n + 1))
        rel = gens.random_solvable_relation(rng, n, dom_dim=d, mul_dim=mul_dim)
        a_f, a_k = friedrichs_krein(rel)
        kappa = form_a1(rel).negatives
        u1, u2, t11, t21 = _cayley_column(rel, None)
        pair = extremal_extensions(SymmetricColumn(t11, t21))
        basis = np.hstack([u1, u2])
        n1 = t11.shape[0]
        gap_corner = symmetrize((pair.t_max - pair.t_min)[n1:, n1:])
        half = modulus_power(gap_corner, 0.5, floor=1.0 + norm2(gap_corner))
        candidates = [a_f, a_k]
        c = gens.random_psd(rng, gap_corner.shape[0], scale=1.0)
        top = norm2(c)
        if top > 1.0:
            c = c / (top * 1.5)
        bump = np.zeros_like(pair.t_min)
        bump[n1:, n1:] = half @ c @ half
        inside = symmetrize(pair.t_min + bump)
        candidates.append(
            LinearRelation.from_operator(symmetrize(basis @ inside @ basis.T)).cayley()
        )
        for candidate in candidates:
            by_interval = ext_membership(rel, candidate)
            by_order = relation_leq(a_k, candidate) and relation_leq(candidate, a_f)
            cls = classify(candidate)
            by_count = (
                cls.selfadjoint
                and candidate.contains(rel)
                and relation_inertia(candidate).i_minus == kappa
            )
            assert by_interval and by_order and by_count
        assert inverse_duality_check(rel)
        member = candidates[-1]
        mins = [_operator_minimum(h, None) for h in (a_f, a_k, member)]
        finite = [m for m in mins if np.isfinite(m)]
        mu = min(finite) if finite else 0.0
        for shift in (-mu + 0.1, -mu + 1.0, -mu + 10.0):
            assert resolvent_interval_check(rel, member, shift)
    report("friedrichs_krein_pipeline", cases=200, triple_agreement="100%")


def test_criterion_7_antitonicity():
    rng = np.random.default_rng(107)
    for case in range(500):
        n = int(rng.integers(1, 6))
        mismatch = bool(rng.integers(0, 2))
        h1, h2 = gens.random_ordered_matrix_pair(rng, n, mismatch)
        if case % 3 != 2:
            # bounded invertible pair: full-inertia characterization;
            # antitonicity_check raises if the biconditional fails
            holds = antitonicity_check(h1, h2, "matrix")
            assert holds == (inertia_of(h1) == inertia_of(h2))
        else:
            # relation pair sharing a multivalued block: negative-count
            # characterization
            mul_dim = int(rng.integers(0, 2))
            dim = n + mul_dim
            basis = gens.random_orthogonal(rng, dim)
            u, u_mul = basis[:, :n], basis[:, n:]
            pad = np.zeros((dim, mul_dim))
            rel1 = LinearRelation.from_generators(
                np.hstack([u, pad]), np.hstack([u @ h1, u_mul])
            )
            rel2 = LinearRelation.from_generators(
                np.hstack([u, pad]), np.hstack([u @ h2, u_mul])
            )
            holds = antitonicity_check(rel1, rel2, "relation")
            assert holds == (
                relation_inertia(rel1).i_minus == relation_inertia(rel2).i_minus
            )
        if mismatch:
            assert not holds
    report("antitonicity_iff", cases=500, exact="yes")


def test_criterion_8_uniqueness_criteria():
    rng = np.random.default_rng(108)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        unique = bool(rng.integers(0, 2))
        if unique:
            d = int(rng.integers((n + 1) // 2, n + 1))
            rel = gens.random_solvable_relation(rng, n, dom_dim=d, unique=True)
        else:
            rel = gens.random_solvable_relation(rng, n, dom_dim=int(rng.integers(1, n)))
        relation_verdict = krein_uniqueness_relation(rel)
        from kreinkit.factor import JSpace
        from kreinkit.lifting import defect_data, j_isometry_test
        from kreinkit.relations import _cayley_column, extension_problem
        from kreinkit.verify import _translation_identities

        # the identities tying the relation to its Cayley transform
        assert _translation_identities(rel, extension_problem(rel), resolve(None))
        _, _, t11, t21 = _cayley_column(rel, None)
        col = SymmetricColumn(t11, t21)
        gap_verdict = krein_uniqueness_criterion(col)
        pair = extremal_extensions(col)
        # the gap formula, at the bound residual * (1 + |t_min| + |t_max|)
        gap = uniqueness_gap(pair)
        predicted = np.zeros_like(gap)
        predicted[pair.dim1:, pair.dim1:] = 2.0 * (np.eye(pair.dim2) - pair.v @ pair.j @ pair.v.T)
        bound = 1e-8 * (1.0 + norm2(pair.t_min) + norm2(pair.t_max))
        assert norm2(gap - symmetrize(predicted)) <= bound
        # rank/gap test on the coupling factor
        if pair.dim2 > 0 and pair.dim1 > 0:
            report_iso = j_isometry_test(
                defect_data(pair.v.T, JSpace.identity(pair.dim2),
                            JSpace.from_matrix(pair.j))
            )
            rank_verdict = report_iso.kernel_and_gap
            # a zero gap exactly when V^T is J-isometric
            assert report_iso.isometric == (norm2(gap) <= bound)
        else:
            rank_verdict = pair.dim2 == 0
        a_f, a_k = friedrichs_krein(rel)
        assert relation_verdict == gap_verdict == rank_verdict == a_f.same_as(a_k)
        if unique:
            assert relation_verdict
    report("uniqueness_criteria", cases=200, agreement="100%")


def test_desk_scale_boundary():
    # not a stated criterion: guard the target dimension range (~500 for the
    # matrix core, moderate dimensions for the relation pipeline)
    rng = np.random.default_rng(200)
    blk = gens.random_completable_block(rng, 250, 250, 2, 3)
    sol = minimal_completion(blk)
    assert inertia_of(assemble(blk, sol.a22_min)).n_minus == 2
    rel = gens.random_solvable_relation(rng, 60, dom_dim=45, mul_dim=2)
    a_f, a_k = friedrichs_krein(rel)
    assert ext_membership(rel, a_f) and ext_membership(rel, a_k)
    report("desk_scale_boundary", completion_dim=500, relation_dim=60)


def test_criterion_9_end_to_end_verifier(capsys):
    start = time.monotonic()
    code = cli_main(["verify", "--suite", "all", "--seed", "7", "--cases", "100"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == 0
    assert "SUMMARY" in out
    assert elapsed < 60.0
    with capsys.disabled():
        report("end_to_end_verifier", seconds=f"{elapsed:.2f}", exit_code=code)
