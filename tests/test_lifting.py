import dataclasses

import numpy as np
import pytest

from kreinkit import gens
from kreinkit.errors import (
    NegativeTargetIndex,
    NotJContractive,
    IndexMismatch,
    NotALifting,
    RangeInclusionFailed,
)
from kreinkit.factor import JSpace
from kreinkit.lifting import (
    LiftParameters,
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
from kreinkit.spectral import norm2, signed_eigenbases, subspace_distance, symmetrize

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


def test_link_identities():
    assert verify_link_identities(scalar_data(2.0))
    assert verify_link_identities(scalar_data(0.0))
    corrupted = dataclasses.replace(scalar_data(2.0), l_t=np.array([[2.1]]))
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


def test_extension_roundtrip_property():
    rng = np.random.default_rng(31)
    done = 0
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
        done += 1


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
