from collections import Counter

import numpy as np
import pytest

from kreinkit import gens
from kreinkit.errors import (
    ConsistencyError,
    DimensionMismatch,
    HypothesisViolated,
    KreinkitError,
    NegativeTargetIndex,
    NotJContractive,
    IndexMismatch,
    NotALifting,
    ParameterInvariantViolated,
    RangeInclusionFailed,
)
from kreinkit.factor import JSpace, inertia_balance
from kreinkit.lifting import (
    LiftParameters,
    _assemble,
    _block_diag,
    _blocks,
    _check_parameter,
    _defect_solve,
    _extended_indices,
    _defect_scale,
    _parameter_defects,
    _parameter_side,
    _parameter_sides,
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
from kreinkit.spectral import (
    SpectralDecomposition,
    _decompose,
    _inertia,
    as_matrix,
    norm2,
    norm_leq,
    orthonormal_columns,
    projector,
    signed_eigenbases,
    subspace_distance,
    symmetrize,
)
from kreinkit.tolerances import ToleranceProfile, resolve

J1 = JSpace.identity(1)


def scalar_data(t):
    return defect_data(np.array([[float(t)]]), J1, J1)


def test_defect_data_strict_contraction():
    d = scalar_data(0.6)
    root = np.sqrt(1.0 - 0.36)
    assert np.allclose(d.d_t, [[root]])
    assert np.allclose(d.d_tstar, [[root]])
    assert np.allclose(d.jt, [[1.0]])
    assert np.allclose(d.l_t, [[0.6]])
    assert d.kappa1 == 0 and d.kappa2 == 0


def test_defect_data_expansion():
    d = scalar_data(2.0)
    assert np.allclose(d.d_t, [[np.sqrt(3.0)]])
    assert np.allclose(d.jt, [[-1.0]])
    assert np.allclose(d.l_t, [[2.0]])
    assert d.kappa1 == 1
    # defect Gram identity: J_T - D_T J1 D_T = L_T^T J_T* L_T on the defect space
    lhs = d.jt - d.d_t @ J1.j @ d.d_t
    rhs = d.l_t.T @ d.jtstar @ d.l_t
    assert np.allclose(lhs, [[-4.0]])
    assert np.allclose(rhs, [[-4.0]])


def test_defect_data_zero_operator():
    d = scalar_data(0.0)
    assert np.allclose(d.d_t, np.eye(1))
    assert np.allclose(d.d_tstar, np.eye(1))
    assert np.allclose(d.l_t, np.zeros((1, 1)))


def test_defect_spectra_give_the_bases_of_direct_decompositions():
    # random_lift_instance reads its signed bases off defect_data's spectra;
    # they are those of the defect forms decomposed under (1 + |T|)^2
    rng = np.random.default_rng(77)
    for _ in range(300):
        n1, n2 = (int(k) for k in rng.integers(1, 7, size=2))
        j1 = JSpace.from_matrix(gens.random_symmetry(rng, n1, int(rng.integers(0, n1 + 1))))
        j2 = JSpace.from_matrix(gens.random_symmetry(rng, n2, int(rng.integers(0, n2 + 1))))
        t = rng.standard_normal((n2, n1)) * 1.2
        data = defect_data(t, j1, j2)
        floor = (1.0 + norm2(t)) ** 2
        direct = (
            signed_eigenbases(symmetrize(j1.j - t.T @ j2.j @ t), floor=floor),
            signed_eigenbases(symmetrize(j2.j - t @ j1.j @ t.T), floor=floor),
        )
        for spec, bases in zip((data.spec_t, data.spec_tstar), direct):
            assert all(np.array_equal(a, b) for a, b in zip(spec.bases(), bases))


def test_defect_operators_are_composed_once_by_their_expressions():
    # defect_data keeps the spectra; each operator is composed on first read,
    # by the expression defect_data once evaluated eagerly, and then kept
    rng = np.random.default_rng(78)
    for _ in range(60):
        n1, n2 = (int(k) for k in rng.integers(1, 7, size=2))
        j1 = JSpace.from_matrix(gens.random_symmetry(rng, n1, int(rng.integers(0, n1 + 1))))
        j2 = JSpace.from_matrix(gens.random_symmetry(rng, n2, int(rng.integers(0, n2 + 1))))
        t = rng.standard_normal((n2, n1)) * 1.2
        d = defect_data(t, j1, j2)
        s1, s2 = d.spec_t, d.spec_tstar
        d_t, d_tstar = s1.power(0.5), s2.power(0.5)
        expected = {
            "d_t": d_t,
            "d_tstar": d_tstar,
            "jt": s1.sign(),
            "jtstar": s2.sign(),
            "l_t": s2.pinv_power(0.5) @ t @ j1.j @ d_t,
            "l_tstar": s1.pinv_power(0.5) @ t.T @ j2.j @ d_tstar,
        }
        for name, value in expected.items():
            first = getattr(d, name)
            assert first.tobytes() == value.tobytes() and getattr(d, name) is first, name


def test_defect_data_holds_read_only_copies():
    t = np.array([[2.0, 0.5], [0.0, 0.3]])
    d = defect_data(t, JSpace.identity(2), JSpace.from_matrix(np.diag([1.0, -1.0])))
    kept = d.t.copy()
    t[0, 0] = 7.0
    assert np.array_equal(d.t, kept)
    for name in ("t", "d_t", "d_tstar", "jt", "jtstar", "l_t", "l_tstar"):
        with pytest.raises(ValueError):
            getattr(d, name)[0, 0] = 1.0


def _reference_defect_counts(t, j1, j2, tol):
    """The two defect forms counted apart, each at its own threshold, as before the
    balance had one owner: ``(kappa, zero count, threshold)`` of each side."""
    scale = _defect_scale(as_matrix(t))
    sides = (symmetrize(j1.j - t.T @ j2.j @ t), symmetrize(j2.j - t @ j1.j @ t.T))
    specs = [_decompose(m, tol, scale) for m in sides]
    return tuple((s.inertia.n_minus, s.inertia.n_zero, s.threshold) for s in specs)


def _balance_instances(rng):
    """Operators between J-spaces: dense, rank-deficient, and J-contractions with
    defect kernels (a unit singular value on each side), at n1, n2 in 1..8 and,
    every 50th, at 60."""
    for k in range(2100):
        n1, n2 = (60, 60) if k % 50 == 0 else (int(m) for m in rng.integers(1, 9, size=2))
        j1 = JSpace.from_matrix(gens.random_symmetry(rng, n1, int(rng.integers(0, n1 + 1))))
        if k % 3 == 2 and j1.negativity() <= n2:
            q = gens.random_orthogonal(rng, n2)
            minus = int(rng.integers(j1.negativity(), n2 + 1))
            j2 = JSpace.from_matrix(symmetrize((q * np.r_[-np.ones(minus), np.ones(n2 - minus)]) @ q.T))
            t = gens.random_j_contraction_into(rng, j1.j, q[:, minus:], q[:, :minus], unit_directions=(1, 1))
        else:
            j2 = JSpace.from_matrix(gens.random_symmetry(rng, n2, int(rng.integers(0, n2 + 1))))
            if k % 3 == 1:
                rank = int(rng.integers(0, min(n1, n2)))
                t = rng.standard_normal((n2, rank)) @ rng.standard_normal((rank, n1))
            else:
                t = rng.standard_normal((n2, n1)) * rng.uniform(0.3, 1.6)
        yield t, j1, j2


def test_defect_indices_agree_with_the_separate_counts_wherever_those_balance():
    # a balanced pair of separate counts is kept as it is, counts and
    # thresholds; every pair defect_data returns balances
    rng, tol = np.random.default_rng(2623), resolve(None)
    kept = 0
    for t, j1, j2 in _balance_instances(rng):
        ref = _reference_defect_counts(t, j1, j2, tol)
        d = defect_data(t, j1, j2, tol)
        got = tuple((s.inertia.n_minus, s.inertia.n_zero, s.threshold) for s in (d.spec_t, d.spec_tstar))
        nu1, nu2 = _inertia(j1.j, tol, 0.0).n_minus, _inertia(j2.j, tol, 0.0).n_minus
        assert (d.kappa1, d.kappa2) == (got[0][0], got[1][0])
        assert got[0][0] + nu2 == got[1][0] + nu1 and got[0][1] == got[1][1]
        if ref[0][0] + nu2 == ref[1][0] + nu1 and ref[0][1] == ref[1][1]:
            assert got == ref
            kept += 1
    assert kept >= 2000


def test_defect_indices_balance_on_the_desk_build_instance_that_broke_them():
    # the generator calls of perfbench's DeskBuild(2623)._draw(19) (n = 250,
    # exit 20) up to its lifting operator; counted apart, the defect forms
    # gave (125, 182) against nu_-(J1) = 66 and nu_-(J2) = 124
    rng = np.random.default_rng([2623, 19])
    kappa = int(rng.integers(1, 6))
    gens.random_completable_block(rng, 250, 250, kappa, int(rng.integers(0, 3)))
    gens.random_orthogonal(rng, 250), rng.uniform(0.2, 1.0, size=250)
    j1 = JSpace.from_matrix(gens.random_symmetry(rng, 250, int(rng.integers(0, 251))))
    j2 = JSpace.from_matrix(gens.random_symmetry(rng, 250, int(rng.integers(0, 251))))
    t = rng.standard_normal((250, 250)) * 1.2
    tol = resolve(None)
    ref = _reference_defect_counts(t, j1, j2, tol)
    assert (ref[0][0], ref[1][0]) == (125, 182)
    d = defect_data(t, j1, j2)
    assert (d.kappa1, d.kappa2, j1.negativity(), j2.negativity()) == (125, 183, 66, 124)
    # the side that kept its count kept its threshold; the moved side's
    # kernel follows its index, and inertia_balance reads both
    assert d.spec_t.threshold == ref[0][2]
    assert [b.shape[1] for b in d.spec_tstar.bases()] == [67, 183, 0]
    assert inertia_balance(t, j1, j2) == (d.spec_t.inertia, d.spec_tstar.inertia)


def test_the_count_of_m_decides_a_zero_count_the_two_thresholds_split(monkeypatch):
    # 1 - a^2 = 6e-6 is zero at the (1 + |T|)^2 cutoff of the 2-dim form, not
    # at that of the 1-dim one; M = [[1, T^T], [T, I]] has 1 - a ~ 3e-6 below
    # its own cutoff, so both forms count one zero, and the 1-dim form's
    # kernel follows
    tol = ToleranceProfile(zero=1e-6)
    t = np.array([[np.sqrt(1.0 - 6e-6)], [0.0]])
    args = (t, JSpace.identity(1), JSpace.identity(2), tol)
    assert [r[1] for r in _reference_defect_counts(*args)] == [0, 1]
    d = defect_data(*args)
    assert (d.spec_t.inertia.n_zero, d.spec_tstar.inertia.n_zero) == (1, 1)
    assert np.array_equal(d.d_t, np.zeros((1, 1)))
    assert inertia_balance(*args) == (d.spec_t.inertia, d.spec_tstar.inertia)
    # a spectrum no threshold can fit to M's counts is an internal failure
    monkeypatch.setattr(SpectralDecomposition, "_meeting", lambda spec, n_minus, n_zero: None)
    with pytest.raises(ConsistencyError):
        defect_data(*args)


def test_link_identities():
    assert verify_link_identities(scalar_data(2.0))
    assert verify_link_identities(scalar_data(0.0))
    # l_t is composed on first read and kept on the instance, so set it there
    corrupted = scalar_data(2.0)
    object.__setattr__(corrupted, "l_t", np.array([[2.1]]))
    assert not verify_link_identities(corrupted)


def test_defect_intertwining_identities():
    # pure matrix algebra, so the full stated count is cheap
    rng = np.random.default_rng(29)
    for _ in range(1000):
        n1 = int(rng.integers(1, 7))
        n2 = int(rng.integers(1, 7))
        j1 = gens.random_symmetry(rng, n1, int(rng.integers(0, n1 + 1)))
        j2 = gens.random_symmetry(rng, n2, int(rng.integers(0, n2 + 1)))
        t = rng.standard_normal((n2, n1))
        m1 = symmetrize(j1 - t.T @ j2 @ t)
        m2 = symmetrize(j2 - t @ j1 @ t.T)
        scale = (1.0 + norm2(t)) ** 3
        assert norm2(m1 @ j1 @ t.T - t.T @ j2 @ m2) <= 1e-10 * scale
        assert norm2(m2 @ j2 @ t - t @ j1 @ m1) <= 1e-10 * scale


def test_link_identity_property():
    rng = np.random.default_rng(30)
    for _ in range(120):
        n1 = int(rng.integers(1, 7))
        n2 = int(rng.integers(1, 7))
        j1 = JSpace.from_matrix(gens.random_symmetry(rng, n1, int(rng.integers(0, n1 + 1))))
        j2 = JSpace.from_matrix(gens.random_symmetry(rng, n2, int(rng.integers(0, n2 + 1))))
        t = rng.standard_normal((n2, n1))
        d = defect_data(t, j1, j2)
        assert verify_link_identities(d)


def test_column_extend_contraction():
    d = scalar_data(0.0)
    t_c = column_extend(d, np.array([[0.7]]), J1)
    assert np.allclose(t_c, [[0.0], [0.7]])


def test_column_extend_indefinite_example():
    # expanding operator, negative exit symmetry, boundary parameter
    d = scalar_data(2.0)
    j2p = JSpace.from_matrix(np.array([[-1.0]]))
    t_c = column_extend(d, np.array([[1.0]]), j2p)
    assert np.allclose(t_c, [[2.0], [np.sqrt(3.0)]])
    j2_ext = np.diag([1.0, -1.0])
    defect = J1.j - t_c.T @ j2_ext @ t_c
    assert abs(defect[0, 0]) <= 1e-12


def test_column_extend_zero_parameter():
    d = scalar_data(2.0)
    j2p = JSpace.from_matrix(np.array([[-1.0]]))
    with pytest.raises(NotJContractive):
        column_extend(d, np.zeros((1, 1)), j2p)
    t_c = column_extend(scalar_data(0.5), np.zeros((1, 1)), J1)
    assert np.allclose(t_c, [[0.5], [0.0]])


def test_column_extend_errors():
    with pytest.raises(NegativeTargetIndex):
        column_extend(scalar_data(0.5), np.zeros((1, 1)), JSpace.from_matrix(np.array([[-1.0]])))
    with pytest.raises(NotJContractive):
        column_extend(scalar_data(0.0), np.array([[2.0]]), J1)


def test_extract_column_parameter():
    d = scalar_data(0.0)
    t_c = column_extend(d, np.array([[0.7]]), J1)
    assert np.allclose(extract_column_parameter(t_c, d), [[0.7]])
    iso = scalar_data(1.0)  # defect vanishes entirely
    with pytest.raises(RangeInclusionFailed):
        extract_column_parameter(np.array([[1.0], [0.5]]), iso)


def test_row_extend_and_extract():
    d = scalar_data(0.0)
    t_r = row_extend(d, np.array([[0.4]]), J1)
    assert np.allclose(t_r, [[0.0, 0.4]])
    assert np.allclose(extract_row_parameter(t_r, d), [[0.4]])
    assert np.allclose(row_extend(d, np.zeros((1, 1)), J1), [[0.0, 0.0]])


def test_row_index_formula_examples():
    d = scalar_data(0.0)
    assert row_index_formula(d, np.array([[2.0]]), J1) == 1
    assert row_index_formula(d, np.array([[0.5]]), J1) == d.kappa1
    assert row_index_formula(d, np.zeros((1, 1)), J1) == d.kappa1
    # the formula is the first index of the assembled row [T, D_T* B], counted directly
    rng = np.random.default_rng(32)
    for _ in range(60):
        n1, n2, m = (int(x) for x in rng.integers(1, 5, 3))
        j1 = JSpace.from_matrix(gens.random_symmetry(rng, n1, int(rng.integers(0, n1 + 1))))
        j2 = JSpace.from_matrix(gens.random_symmetry(rng, n2, int(rng.integers(0, n2 + 1))))
        d = defect_data(rng.standard_normal((n2, n1)) * 1.2, j1, j2)
        j1p = JSpace.from_matrix(gens.random_symmetry(rng, m, int(rng.integers(0, m + 1))))
        _, counts = _extended_indices(d, j1p, JSpace.identity(0), resolve(None))
        for b in (rng.standard_normal((n2, m)), np.zeros((n2, m))):
            assert row_index_formula(d, b, j1p) == counts(np.hstack([d.t, d.d_tstar @ b]))[0]


def test_extension_roundtrip_property():
    rng = np.random.default_rng(31)
    done = rows = 0
    while done < 60:
        n1 = int(rng.integers(1, 5))
        n2 = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        j1 = JSpace.from_matrix(gens.random_symmetry(rng, n1, int(rng.integers(0, n1 + 1))))
        j2 = JSpace.from_matrix(gens.random_symmetry(rng, n2, int(rng.integers(0, n2 + 1))))
        t = rng.standard_normal((n2, n1)) * 1.2
        d = defect_data(t, j1, j2)
        scale = (1.0 + norm2(t)) ** 2
        m1 = symmetrize(j1.j - t.T @ j2.j @ t)
        j2p = JSpace.from_matrix(
            gens.random_symmetry(rng, m, int(rng.integers(0, min(d.kappa1, m) + 1)))
        )
        plus, minus, _ = signed_eigenbases(m1, floor=scale)
        try:
            k = gens.random_j_contraction_into(rng, j2p.j, plus, minus)
        except ValueError:
            continue
        t_c = column_extend(d, k, j2p)
        assert norm2(extract_column_parameter(t_c, d) - k) <= 1e-8 * (1.0 + norm2(k))
        targets, counts = _extended_indices(d, JSpace.identity(0), j2p, resolve(None))
        assert counts(t_c) == targets
        done += 1
        j1p = JSpace.from_matrix(
            gens.random_symmetry(rng, m, int(rng.integers(0, min(d.kappa2, m) + 1)))
        )
        plus, minus, _ = d.spec_tstar.bases()
        try:
            b = gens.random_j_contraction_into(rng, j1p.j, plus, minus)
        except ValueError:
            continue
        t_r = row_extend(d, b, j1p)
        assert norm2(extract_row_parameter(t_r, d) - b) <= 1e-8 * (1.0 + norm2(b))
        targets, counts = _extended_indices(d, j1p, JSpace.identity(0), resolve(None))
        assert counts(t_r) == targets
        rows += 1
    assert rows >= 30


def _half(spec, y):
    return spec._apply(spec._power_values(0.5), y)


def _reference_column_extend(d, k, j2prime, tol=None):
    """``column_extend`` as it stood as a construction of its own, before it was
    a lifting with an empty exit: it counts the extended index on every call."""
    tol = resolve(tol)
    k_arr = as_matrix(k)
    target = d.kappa1 - j2prime.negativity(tol)
    if target < 0:
        raise NegativeTargetIndex(
            f"kappa1 = {d.kappa1} is smaller than nu_-(J2') = {d.kappa1 - target}"
        )
    side = _parameter_side(d.spec_t, k_arr, j2prime.j)
    _check_parameter(k_arr, side, tol, "K", NotJContractive)
    t_c = np.vstack([d.t, _half(d.spec_t, side[1]).T])
    j2_ext = _block_diag(d.j2.j, j2prime.j)
    achieved = _inertia(symmetrize(d.j1.j - t_c.T @ j2_ext @ t_c), tol, _defect_scale(t_c)).n_minus
    if achieved != target:
        raise ConsistencyError(f"column extension index {achieved} differs from target {target}")
    return t_c


def _reference_row_extend(d, b, j1prime, tol=None):
    """``row_extend`` as it stood before it was a lifting with an empty exit."""
    tol = resolve(tol)
    b_arr = as_matrix(b)
    target = d.kappa2 - j1prime.negativity(tol)
    if target < 0:
        raise NegativeTargetIndex(
            f"kappa2 = {d.kappa2} is smaller than nu_-(J1') = {d.kappa2 - target}"
        )
    side = _parameter_side(d.spec_tstar, b_arr, j1prime.j)
    _check_parameter(b_arr, side, tol, "B", NotJContractive)
    t_r = np.hstack([d.t, _half(d.spec_tstar, side[1])])
    j1_ext = _block_diag(d.j1.j, j1prime.j)
    achieved = _inertia(symmetrize(d.j2.j - t_r @ j1_ext @ t_r.T), tol, _defect_scale(t_r)).n_minus
    if achieved != target:
        raise ConsistencyError(f"row extension index {achieved} differs from target {target}")
    return t_r


def _extension_parameter(rng, j_exit, spec):
    """A parameter into the defect subspace of ``spec``: J-contractive, scaled past
    J-contractivity, or drawn at random (generally off the subspace and not contractive)."""
    kind = int(rng.integers(0, 3))
    if kind < 2:
        plus, minus, _ = spec.bases()
        try:
            p = gens.random_j_contraction_into(rng, j_exit, plus, minus, unit_directions=(
                int(rng.integers(0, 2)), int(rng.integers(0, 2))))
        except ValueError:
            kind = 2
        else:
            return p * rng.uniform(1.5, 4.0) if kind == 1 else p
    return rng.standard_normal((spec.eigenvalues.size, j_exit.shape[0]))


def test_extensions_are_the_liftings_of_their_reference_constructions():
    rng = np.random.default_rng(36)
    outcomes = Counter()
    for case in range(400):
        n1, n2 = (int(x) for x in rng.integers(1, 5, 2))
        m = int(rng.integers(1, 4))
        if case % 2:
            # a J-contraction with pinned unit singular values: the defects have kernels
            k = int(rng.integers(0, min(n1, n2) + 1))
            j1 = JSpace.from_matrix(gens.random_symmetry(rng, n1, k))
            j2 = JSpace.from_matrix(gens.random_symmetry(rng, n2, int(rng.integers(k, n2 + 1))))
            plus, minus, _ = signed_eigenbases(j2.j)
            try:
                t = gens.random_j_contraction_into(rng, j1.j, plus, minus, unit_directions=(1, 1))
            except ValueError:
                continue
        else:
            j1 = JSpace.from_matrix(gens.random_symmetry(rng, n1, int(rng.integers(0, n1 + 1))))
            j2 = JSpace.from_matrix(gens.random_symmetry(rng, n2, int(rng.integers(0, n2 + 1))))
            t = rng.standard_normal((n2, n1)) * 1.2
        d = defect_data(t, j1, j2)
        # exit symmetries up to one negative direction more than the defect form holds
        j2p = JSpace.from_matrix(gens.random_symmetry(rng, m, int(rng.integers(0, min(d.kappa1 + 1, m) + 1))))
        j1p = JSpace.from_matrix(gens.random_symmetry(rng, m, int(rng.integers(0, min(d.kappa2 + 1, m) + 1))))
        calls = (
            (column_extend, _reference_column_extend, _extension_parameter(rng, j2p.j, d.spec_t), j2p),
            (row_extend, _reference_row_extend, _extension_parameter(rng, j1p.j, d.spec_tstar), j1p),
        )
        for call, reference, param, exit_space in calls:
            got = _outcome(call, d, param, exit_space)
            expected = _outcome(reference, d, param, exit_space)
            assert got[0] is expected[0], (case, call.__name__, got[:2], expected[:2])
            assert expected[2] is None or np.array_equal(got[2], expected[2]), (case, call.__name__)
            outcomes[expected[0].__name__] += 1
    assert sum(outcomes.values()) >= 600
    for name in ("ndarray", "NotJContractive", "NegativeTargetIndex", "ParameterInvariantViolated"):
        assert outcomes[name] > 0, outcomes


def test_verify_counts_the_indices_of_the_column_extension(monkeypatch, capsys):
    # extract_column_parameter never reads the upper block, so only the index
    # count sees a column extension whose upper block is not T
    from kreinkit import verify
    from kreinkit.cli import main

    args = ["verify", "--suite", "lifting", "--seed", "0", "--cases", "30"]
    assert main(args) == 0
    assert "PASS lifting.column_row_extensions" in capsys.readouterr().out

    def corrupted(d, k, j2prime, tol=None):
        t_c = column_extend(d, k, j2prime, tol)
        t_c[: d.dim2] += 1.0
        return t_c

    monkeypatch.setattr(verify, "column_extend", corrupted)
    assert main(args) != 0
    assert "FAIL lifting.column_row_extensions" in capsys.readouterr().out


def zero_lift_data():
    return scalar_data(0.0)


def test_lift_zero_parameters():
    d = zero_lift_data()
    params = LiftParameters(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
    lifted = lift(d, params, J1, J1)
    assert np.allclose(lifted, np.zeros((2, 2)))


def test_lift_boundary_parameter():
    d = zero_lift_data()
    params = LiftParameters(np.array([[1.0]]), np.zeros((1, 1)), np.zeros((1, 1)))
    lifted = lift(d, params, J1, J1)
    assert np.allclose(lifted, [[0.0, 1.0], [0.0, 0.0]])
    recovered = extract_lift_parameters(lifted, d, J1, J1)
    assert np.allclose(recovered.gamma1, [[1.0]])
    assert np.allclose(recovered.gamma2, np.zeros((1, 1)))
    assert np.allclose(recovered.gamma, np.zeros((1, 1)))


def test_lift_block_diagonal_extracts_zero():
    d = scalar_data(0.5)
    block = np.array([[0.5, 0.0], [0.0, 0.0]])
    recovered = extract_lift_parameters(block, d, J1, J1)
    assert norm2(recovered.gamma1) <= 1e-12
    assert norm2(recovered.gamma2) <= 1e-12
    assert norm2(recovered.gamma) <= 1e-12


def test_lift_hilbert_contraction():
    rng = np.random.default_rng(32)
    for _ in range(20):
        n1, n2, n1p, n2p = (int(rng.integers(1, 4)) for _ in range(4))
        t = gens.random_contraction(rng, n2, n1, 0.9)
        d = defect_data(t, JSpace.identity(n1), JSpace.identity(n2))
        m1 = symmetrize(np.eye(n1) - t.T @ t)
        m2 = symmetrize(np.eye(n2) - t @ t.T)
        plus2, _, _ = signed_eigenbases(m2)
        plus1, _, _ = signed_eigenbases(m1)
        g1 = gens.random_j_contraction_into(rng, np.eye(n1p), plus2, np.zeros((n2, 0)))
        g2 = gens.random_j_contraction_into(rng, np.eye(n2p), plus1, np.zeros((n1, 0))).T
        params = LiftParameters(g1, g2, np.zeros((n2p, n1p)))
        lifted = lift(d, params, JSpace.identity(n1p), JSpace.identity(n2p))
        assert norm2(lifted) <= 1.0 + 1e-8


def test_lift_roundtrip_property():
    rng = np.random.default_rng(33)
    done = 0
    while done < 60:
        dims = [int(rng.integers(1, 5)), int(rng.integers(1, 5)),
                int(rng.integers(1, 4)), int(rng.integers(1, 4))]
        instance = gens.random_lift_instance(rng, *dims)
        if instance is None:
            continue
        d, params, j1p, j2p = instance
        lifted = lift(d, params, j1p, j2p)
        targets, counts = _extended_indices(d, j1p, j2p, resolve(None))
        assert counts(lifted) == targets
        recovered = extract_lift_parameters(lifted, d, j1p, j2p)
        assert norm2(recovered.gamma1 - params.gamma1) <= 1e-8
        assert norm2(recovered.gamma2 - params.gamma2) <= 1e-8
        assert norm2(recovered.gamma - params.gamma) <= 1e-8
        assert norm2(lift(d, recovered, j1p, j2p) - lifted) <= 1e-8
        done += 1


def test_extract_lift_errors():
    d = zero_lift_data()
    not_lifting = np.array([[0.5, 0.0], [0.0, 0.0]])
    with pytest.raises(NotALifting):
        extract_lift_parameters(not_lifting, d, J1, J1)
    wrong_index = np.array([[0.0, 0.0], [0.0, 5.0]])
    with pytest.raises(IndexMismatch):
        extract_lift_parameters(wrong_index, d, J1, J1)


def _reference_extract_lift_parameters(t_tilde, d, j1prime, j2prime, tol=None):
    """``extract_lift_parameters`` as it stood before the parameter gate.

    It counts both extended indices of every candidate first and only then
    recovers the triplet; the agreement test below holds the gated version
    to its verdicts, exception classes and messages.
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
    if not norm_leq(compression - d.t, lambda nt: tol.residual * (1.0 + nt), d.t):
        raise NotALifting("the candidate does not compress to the original operator")
    targets, counts = _extended_indices(d, j1prime, j2prime, tol)
    got = counts(t_arr)
    if got != targets:
        raise IndexMismatch(f"candidate indices {got} differ from minimal {targets}")
    r = t_arr[:n2, n1:]
    c = t_arr[n2:, :n1]
    x = t_arr[n2:, n1:]
    gamma1 = _defect_solve(d.spec_tstar, r, tol, "the upper-right block")
    gamma2 = _defect_solve(d.spec_t, c.T, tol, "the lower-left block transpose").T
    params0 = LiftParameters(gamma1=gamma1, gamma2=gamma2, gamma=np.zeros((n2p, n1p)))
    sides = _parameter_sides(d, params0, j1prime, j2prime)
    spec_g1, spec_g2star = _parameter_defects(params0, sides, tol)
    residual = x + _blocks(d, sides)[2]
    gamma = spec_g2star.pinv_power(0.5) @ residual @ spec_g1.pinv_power(0.5)
    back = spec_g2star.power(0.5) @ gamma @ spec_g1.power(0.5)
    if not norm_leq(back - residual, lambda nr: tol.residual * (1.0 + nr), residual):
        raise RangeInclusionFailed(
            "the corner residual does not factor through the parameter defects"
        )
    return LiftParameters(gamma1=gamma1, gamma2=gamma2, gamma=gamma)


def _reference_lift(d, p, j1prime, j2prime, tol=None):
    """``lift`` as it stood before the parameter gate: it counts the indices
    of every lifting it assembles and raises if they miss the minimal ones."""
    tol = resolve(tol)
    targets, counts = _extended_indices(d, j1prime, j2prime, tol)
    if min(targets) < 0:
        raise HypothesisViolated(f"minimal indices {targets} must be nonnegative")
    sides = _parameter_sides(d, p, j1prime, j2prime)
    g1 = _check_parameter(p.gamma1, sides[0], tol, "gamma1", exc=ParameterInvariantViolated)
    g2t = _check_parameter(p.gamma2.T, sides[1], tol, "gamma2^T", exc=ParameterInvariantViolated)
    if not norm_leq(p.gamma, lambda: 1.0 + tol.psd):
        raise ParameterInvariantViolated(f"gamma has norm {norm2(p.gamma):.6f} > 1")
    params = LiftParameters(gamma1=g1, gamma2=g2t.T, gamma=p.gamma)
    t_tilde = _assemble(d, _blocks(d, sides), p.gamma, *_parameter_defects(params, sides, tol))
    got = counts(t_tilde)
    if got != targets:
        raise ConsistencyError(f"lifting indices {got} differ from targets {targets}")
    return t_tilde


def _assemble_ungated(d, p, j1p, j2p):
    """``lift``'s block formula without its parameter gate."""
    sides = _parameter_sides(d, p, j1p, j2p)
    return _assemble(d, _blocks(d, sides), p.gamma, *_parameter_defects(p, sides, resolve(None)))


def _boundary_lift_instance(rng, n1, n2, n1p, n2p):
    """Like ``gens.random_lift_instance``, with unit singular values pinned.

    ``T`` is a J-contraction with a unit singular value on each side its
    signatures allow, so ``D_T`` and ``D_T*`` mostly have kernels;
    ``gamma1`` and ``gamma2^T`` are drawn with random ``unit_directions``,
    so the parameter defects can have kernels too; ``gamma`` is scaled to
    norm one half the time.
    """
    k = int(rng.integers(0, min(n1, n2) + 1))
    j1 = JSpace.from_matrix(gens.random_symmetry(rng, n1, k))
    j2 = JSpace.from_matrix(gens.random_symmetry(rng, n2, int(rng.integers(k, n2 + 1))))

    def units():
        return int(rng.integers(0, 2)), int(rng.integers(0, 2))

    plus, minus, _ = signed_eigenbases(j2.j)
    try:
        t = gens.random_j_contraction_into(rng, j1.j, plus, minus, unit_directions=(1, 1))
        d = defect_data(t, j1, j2)
        j1p = JSpace.from_matrix(
            gens.random_symmetry(rng, n1p, int(rng.integers(0, min(d.kappa2, n1p) + 1)))
        )
        j2p = JSpace.from_matrix(
            gens.random_symmetry(rng, n2p, int(rng.integers(0, min(d.kappa1, n2p) + 1)))
        )
        plus1, minus1, _ = d.spec_t.bases()
        plus2, minus2, _ = d.spec_tstar.bases()
        g1 = gens.random_j_contraction_into(rng, j1p.j, plus2, minus2, unit_directions=units())
        g2 = gens.random_j_contraction_into(rng, j2p.j, plus1, minus1, unit_directions=units()).T
    except ValueError:
        return None
    p0 = LiftParameters(g1, g2, np.zeros((n2p, n1p)))
    spec_g1, spec_g2star = _parameter_defects(p0, _parameter_sides(d, p0, j1p, j2p), resolve(None))
    g = (
        projector(orthonormal_columns(spec_g2star.power(0.5)))
        @ gens.random_contraction(rng, n2p, n1p, 0.85)
        @ projector(orthonormal_columns(spec_g1.power(0.5)))
    )
    if rng.integers(0, 2) and norm2(g) > 1e-3:
        g = g / norm2(g)
    return d, LiftParameters(g1, g2, g), j1p, j2p


def _lift_candidates(rng, kinds):
    """Candidates ``(kind, triplet, extraction arguments)`` of the requested
    kinds, all on one drawn instance; ``triplet`` is what the candidate was
    assembled from, or ``None`` where a block was perturbed afterwards.

    0 a valid lifting; 1 ``gamma`` pushed past norm one; 2 and 3 ``gamma1``
    and ``gamma2`` scaled past J-contractivity; 4 and 5 the upper-right and
    lower-left blocks given a component off ``ran D_T*`` and ``ran D_T``
    (only where that defect has a kernel); 6 a wrong corner (wrong indices)
    or a wrong compression (not a lifting); 7 within the tolerances of a
    valid lifting: ``|gamma|`` set to ``1 + k 1e-10``, ``gamma1`` or
    ``gamma2`` scaled by ``1 + k 1e-10``, or a block moved by ``1e-11`` to
    ``1e-7``, off the defect range where it has a kernel.
    """
    dims = [int(rng.integers(1, 5)) for _ in range(2)] + [int(rng.integers(1, 4)) for _ in range(2)]
    # kinds 4, 5 and 7 need defect kernels, which only boundary instances have
    boundary = set(kinds) <= {4, 5, 7} or rng.integers(0, 2)
    instance = (_boundary_lift_instance if boundary else gens.random_lift_instance)(rng, *dims)
    if instance is None:
        return []
    d, p, j1p, j2p = instance
    n2, n1 = d.dim2, d.dim1
    out = []
    for kind in kinds:
        g1, g2, g = p.gamma1, p.gamma2, p.gamma
        variant = int(rng.integers(0, 5))
        if kind == 1 or (kind == 7 and variant == 0):
            direction = g if norm2(g) > 1e-3 else rng.standard_normal(g.shape)
            size = rng.uniform(1.05, 2.0) if kind == 1 else 1.0 + int(rng.integers(-5, 31)) * 1e-10
            g = direction * (size / norm2(direction))
        elif kind == 2 or (kind == 7 and variant == 1):
            g1 = g1 * (rng.uniform(1.5, 4.0) if kind == 2 else 1.0 + int(rng.integers(0, 31)) * 1e-10)
        elif kind == 3 or (kind == 7 and variant == 2):
            g2 = g2 * (rng.uniform(1.5, 4.0) if kind == 3 else 1.0 + int(rng.integers(0, 31)) * 1e-10)
        triplet = LiftParameters(g1, g2, g)
        candidate = _assemble_ungated(d, triplet, j1p, j2p)
        if kind in (4, 5) or (kind == 7 and variant == 3):
            side = kind == 4 or (kind == 7 and rng.integers(0, 2))
            spec, block = (d.spec_tstar, candidate[:n2, n1:]) if side else (d.spec_t, candidate[n2:, :n1].T)
            kernel = spec.bases()[2]
            if kernel.shape[1] == 0:
                if kind != 7:
                    continue
                kernel = np.eye(block.shape[0])
            size = rng.uniform(0.1, 1.0) if kind != 7 else 10.0 ** rng.uniform(-11, -7)
            block += kernel @ rng.standard_normal((kernel.shape[1], block.shape[1])) * size
            triplet = None
        elif kind == 7 and variant == 4:
            candidate[n2:, n1:] += rng.standard_normal((j2p.dim, j1p.dim)) * 10.0 ** rng.uniform(-11, -7)
            triplet = None
        elif kind == 6:
            if rng.integers(0, 2):
                candidate[n2:, n1:] = 5.0 * rng.standard_normal((j2p.dim, j1p.dim))
            else:
                candidate[:n2, :n1] += rng.uniform(0.01, 0.5) * rng.standard_normal((n2, n1))
            triplet = None
        out.append((kind, triplet, (candidate, d, j1p, j2p)))
    return out


def _outcome(call, *args):
    try:
        value = call(*args)
    except KreinkitError as exc:
        return type(exc), str(exc), None
    return type(value), "", value


def _assert_same(got, expected, where):
    assert got[:2] == expected[:2], (where, got[:2], expected[:2])
    if isinstance(expected[2], LiftParameters):
        assert all(np.array_equal(getattr(got[2], f), getattr(expected[2], f))
                   for f in ("gamma1", "gamma2", "gamma")), where
    elif expected[2] is not None:
        assert np.array_equal(got[2], expected[2]), where


def test_gated_lifting_agrees_with_the_index_count():
    rng = np.random.default_rng(35)
    d0 = zero_lift_data()
    one = np.ones((1, 1))
    # the two blocks of test_extract_lift_errors, and |gamma| = 1 + 9e-10: inside the order
    # slack 1e-9, but its extended defect form has the eigenvalue -1.8e-9, past the count's
    # zero threshold 8e-10, so the count rejects both the candidate and the triplet
    candidates = [
        (6, None, (np.array([[0.5, 0.0], [0.0, 0.0]]), d0, J1, J1)),
        (6, None, (np.array([[0.0, 0.0], [0.0, 5.0]]), d0, J1, J1)),
        (7, LiftParameters(0 * one, 0 * one, (1.0 + 9e-10) * one),
         (np.array([[0.0, 0.0], [0.0, 1.0 + 9e-10]]), d0, J1, J1)),
    ]
    quota = {kind: 300 for kind in range(7)} | {7: 600}
    per_kind = Counter(kind for kind, _, _ in candidates)
    while any(per_kind[kind] < n for kind, n in quota.items()):
        drawn = _lift_candidates(rng, [kind for kind, n in quota.items() if per_kind[kind] < n])
        per_kind.update(kind for kind, _, _ in drawn)
        candidates += drawn
    extracted, lifted = Counter(), Counter()
    for kind, triplet, args in candidates:
        expected = _outcome(_reference_extract_lift_parameters, *args)
        _assert_same(_outcome(extract_lift_parameters, *args), expected, kind)
        extracted[kind, expected[0].__name__] += 1
        if triplet is not None:
            lift_args = (args[1], triplet, *args[2:])
            expected = _outcome(_reference_lift, *lift_args)
            _assert_same(_outcome(lift, *lift_args), expected, kind)
            lifted[kind, expected[0].__name__] += 1
    assert len(candidates) >= 2000
    # every kind is decided, and each perturbation is caught by the index count
    assert extracted[0, "LiftParameters"] == per_kind[0] == lifted[0, "ndarray"]
    for kind in range(1, 6):
        assert extracted[kind, "IndexMismatch"] > 0
    assert extracted[6, "IndexMismatch"] > 0 and extracted[6, "NotALifting"] > 0
    # the tolerance band holds liftings of both verdicts, for both calls
    assert extracted[7, "LiftParameters"] > 0 and extracted[7, "IndexMismatch"] > 0
    assert lifted[7, "ndarray"] > 0 and lifted[7, "ConsistencyError"] > 0


def test_kernel_map_examples():
    assert kernel_map_check(scalar_data(1.0))
    assert kernel_map_check(scalar_data(0.5))
    d = defect_data(np.diag([1.0, 0.5]), JSpace.identity(2), JSpace.identity(2))
    assert kernel_map_check(d)


def test_kernel_map_requires_contraction():
    with pytest.raises(NotJContractive):
        kernel_map_check(scalar_data(2.0))


def test_range_intersection_examples():
    assert range_intersection(scalar_data(1.0)).shape[1] == 0
    full = range_intersection(scalar_data(0.5))
    assert full.shape[1] == 1
    d = defect_data(np.diag([1.0, 0.5]), JSpace.identity(2), JSpace.identity(2))
    basis = range_intersection(d)
    assert basis.shape[1] == 1
    assert subspace_distance(basis, np.eye(2)[:, 1:]) <= 1e-9


def test_j_isometry_examples():
    report = j_isometry_test(scalar_data(1.0))
    assert report.isometric and report.kernel_and_gap and report.sup_form
    report = j_isometry_test(scalar_data(0.5))
    assert not (report.isometric or report.kernel_and_gap or report.sup_form)
    swap = defect_data(
        np.array([[0.0, 1.0], [1.0, 0.0]]), JSpace.identity(2), JSpace.identity(2)
    )
    assert j_isometry_test(swap).isometric


def test_kernel_and_range_geometry_on_random_j_contractions():
    rng = np.random.default_rng(34)
    checked = 0
    while checked < 500:
        kind = checked % 3
        mdim = int(rng.integers(1, 5))
        ndim = int(rng.integers(1, 5))
        if kind == 0:
            # Hilbert-space case with some exact-unit singular values
            u = gens.random_orthogonal(rng, mdim)
            v = gens.random_orthogonal(rng, ndim)
            r = min(mdim, ndim)
            ones = int(rng.integers(0, r + 1))
            s = np.concatenate([np.ones(ones), rng.uniform(0.1, 0.85, size=r - ones)])
            t = u[:, :r] @ np.diag(s) @ v[:, :r].T
            j1 = JSpace.identity(ndim)
            j2 = JSpace.identity(mdim)
        elif kind == 1:
            k = int(rng.integers(0, min(mdim, ndim) + 1))
            j1 = JSpace.from_matrix(gens.random_symmetry(rng, ndim, k))
            j2 = JSpace.from_matrix(gens.random_symmetry(rng, mdim, int(rng.integers(k, mdim + 1))))
            plus, minus, _ = signed_eigenbases(j2.j)
            units = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
            try:
                t = gens.random_j_contraction_into(rng, j1.j, plus, minus, unit_directions=units)
            except ValueError:
                continue
        else:
            k = int(rng.integers(0, ndim + 1))
            j1 = JSpace.from_matrix(gens.random_symmetry(rng, ndim, k))
            j2 = JSpace.from_matrix(gens.random_symmetry(rng, ndim, k))
            plus, minus, _ = signed_eigenbases(j2.j)
            t = gens.random_j_contraction_into(rng, j1.j, plus, minus, isometric=True)
        d = defect_data(t, j1, j2)
        if d.kappa1 != 0:
            continue
        assert kernel_map_check(d)
        range_intersection(d)  # consistency asserted internally
        rep = j_isometry_test(d)
        assert rep.gram_residual == rep.kernel_and_gap == rep.sup_form
        if kind == 2:
            assert rep.isometric
        checked += 1
