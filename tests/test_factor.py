import dataclasses

import numpy as np
import pytest

from kreinkit import gens
from kreinkit.errors import HypothesisViolated, InvalidInput
from kreinkit.factor import (
    JSpace,
    bicontraction_classify,
    douglas_factor,
    inertia_balance,
    schur_negativity_factor,
)
from kreinkit.spectral import (
    inertia_of,
    modulus_power,
    norm2,
    signed_eigenbases,
    symmetrize,
)

J_POS = JSpace.identity(1)
J_NEG = JSpace.from_matrix(np.array([[-1.0]]))


def nu_minus(matrix, threshold=1e-9):
    w = np.linalg.eigvalsh(symmetrize(np.atleast_2d(matrix)))
    scale = 1.0 + (abs(w).max() if w.size else 0.0)
    return int(np.sum(w < -threshold * scale))


def test_jspace_validation():
    with pytest.raises(InvalidInput):
        JSpace.from_matrix(np.array([[2.0]]))


def test_inertia_balance_scalars():
    left, right = inertia_balance(np.array([[2.0]]), J_POS, J_POS)
    assert left.n_minus == 1 and right.n_minus == 1
    left, right = inertia_balance(np.array([[2.0]]), J_POS, J_NEG)
    assert left.n_minus == 0 and right.n_minus == 1
    # zero operator reproduces the symmetry inertias
    left, right = inertia_balance(np.zeros((1, 1)), J_POS, J_NEG)
    assert left == inertia_of(J_POS.j) and right == inertia_of(J_NEG.j)


def test_inertia_balance_property():
    rng = np.random.default_rng(20)
    for _ in range(120):
        n1 = int(rng.integers(1, 7))
        n2 = int(rng.integers(1, 7))
        j1 = JSpace.from_matrix(gens.random_symmetry(rng, n1, int(rng.integers(0, n1 + 1))))
        j2 = JSpace.from_matrix(gens.random_symmetry(rng, n2, int(rng.integers(0, n2 + 1))))
        t = rng.standard_normal((n2, n1))
        left, right = inertia_balance(t, j1, j2)
        assert left.n_minus + nu_minus(j2.j) == right.n_minus + nu_minus(j1.j)
        assert left.n_zero == right.n_zero


def test_verify_fails_the_balance_check_on_unbalanced_defect_counts(monkeypatch, capsys):
    # inertia_balance reads defect_data's spectra; with every eigenvalue of
    # J1 - T^T J2 T counted as zero they break the balance, and only the
    # verifier's own count of the J's sees it
    from kreinkit import lifting
    from kreinkit.cli import main

    original = lifting.defect_data

    def unbalanced(t, j1, j2, tol=None):
        d = original(t, j1, j2, tol)
        return dataclasses.replace(d, spec_t=d.spec_t.with_floor(1e12))

    monkeypatch.setattr(lifting, "defect_data", unbalanced)
    assert main(["verify", "--suite", "factor", "--seed", "0", "--cases", "20"]) == 1
    failing = {line.split()[1] for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")}
    assert failing == {"factor.inertia_balance"}


def test_schur_negativity_factor_example():
    a = np.diag([1.0, -1.0])
    result = schur_negativity_factor(a, np.array([[1.0, 0.0]]), J_POS)
    assert result is not None
    assert np.allclose(result.factor, [[1.0], [0.0]])
    assert norm2(result.defect_gram) <= 1e-10


def test_schur_negativity_factor_absent():
    result = schur_negativity_factor(np.eye(2), 2.0 * np.array([[1.0, 0.0]]), J_POS)
    assert result is None


def test_schur_negativity_factor_zero_coupling():
    # with no coupling the criterion asks for nu_-(J2) = 0
    a = np.diag([1.0, -1.0])
    assert schur_negativity_factor(a, np.zeros((1, 2)), J_POS) is not None
    assert schur_negativity_factor(a, np.zeros((1, 2)), J_NEG) is None


def test_schur_factor_roundtrip_property():
    rng = np.random.default_rng(21)
    done = 0
    while done < 40:
        n1 = int(rng.integers(1, 6))
        n2 = int(rng.integers(1, 4))
        kappa = int(rng.integers(0, n1 + 1))
        a = gens.random_symmetric_with_inertia(rng, n1, kappa, 0)
        j2 = JSpace.from_matrix(
            gens.random_symmetry(rng, n2, int(rng.integers(0, min(kappa, n2) + 1)))
        )
        plus, minus, _ = signed_eigenbases(a)
        try:
            k = gens.random_j_contraction_into(rng, j2.j, plus, minus)
        except ValueError:
            continue
        b = (modulus_power(a, 0.5) @ k).T
        # converse direction: a J-contractive factor forces the equality
        assert nu_minus(a) == nu_minus(a - b.T @ j2.j @ b) + nu_minus(j2.j)
        result = schur_negativity_factor(a, b, j2)
        assert result is not None
        assert norm2(result.factor - k) <= 1e-8 * (1.0 + norm2(k))
        done += 1


def test_douglas_inequality_scalar():
    result = douglas_factor(np.array([[4.0]]), np.array([[1.0]]), J_POS, "inequality")
    assert result is not None
    assert np.allclose(result.factor, [[0.5]])
    assert result.classification == "bicontractive"


def test_douglas_equality_scalar():
    result = douglas_factor(np.array([[4.0]]), np.array([[2.0]]), J_POS, "equality")
    assert result is not None
    assert np.allclose(result.factor, [[1.0]])
    assert result.classification == "unitary"


def test_douglas_identity_on_krein_space():
    j = JSpace.from_matrix(np.diag([1.0, -1.0]))
    result = douglas_factor(np.diag([1.0, -1.0]), np.eye(2), j, "equality")
    assert result is not None
    assert np.allclose(result.factor, np.eye(2))
    assert result.classification == "unitary"


def test_douglas_hypothesis_violated():
    with pytest.raises(HypothesisViolated):
        douglas_factor(np.array([[1.0]]), np.array([[1.0]]), J_NEG, "inequality")


def test_douglas_criterion_fails():
    assert douglas_factor(np.array([[1.0]]), np.array([[2.0]]), J_POS, "inequality") is None
    assert douglas_factor(np.array([[4.0]]), np.array([[1.0]]), J_POS, "equality") is None


def test_douglas_classical_consistency():
    rng = np.random.default_rng(22)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 5))
        a = gens.random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
        half = modulus_power(a, 0.5, floor=norm2(a))
        b = gens.random_contraction(rng, m, n) @ half
        result = douglas_factor(a, b, JSpace.identity(m), "inequality")
        assert result is not None
        assert norm2(result.factor) <= 1.0 + 1e-9
        assert norm2(result.factor @ half - b) <= 1e-8 * (1.0 + norm2(b))


def test_classification_consistent_with_defect_gram():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n1 = int(rng.integers(1, 5))
        n2 = int(rng.integers(1, 4))
        kappa = int(rng.integers(0, n1 + 1))
        a = gens.random_symmetric_with_inertia(rng, n1, kappa, 0)
        j2 = JSpace.from_matrix(
            gens.random_symmetry(rng, n2, int(rng.integers(0, min(kappa, n2) + 1)))
        )
        plus, minus, _ = signed_eigenbases(a)
        try:
            k = gens.random_j_contraction_into(rng, j2.j, plus, minus)
        except ValueError:
            continue
        result = schur_negativity_factor(a, (modulus_power(a, 0.5) @ k).T, j2)
        assert result is not None
        lowest = np.linalg.eigvalsh(result.defect_gram)[0] if result.defect_gram.size else 0.0
        if result.classification in ("contractive", "bicontractive"):
            assert lowest >= -1e-9 * (1.0 + norm2(result.defect_gram))
        if result.classification in ("isometric", "unitary"):
            assert norm2(result.defect_gram) <= 1e-8 * (1.0 + norm2(result.factor) ** 2)


def test_bicontraction_classify_cases():
    assert bicontraction_classify(np.array([[4.0]]), np.array([[1.0]]), J_POS).case == "i"
    case = bicontraction_classify(np.array([[4.0]]), np.array([[2.0]]), J_POS)
    assert case.case == "ii"
    assert np.allclose(case.witness, [[1.0]])
    assert bicontraction_classify(np.array([[1.0]]), np.array([[2.0]]), J_POS).case == "neither"
    # index mismatch alone forces "neither"
    assert bicontraction_classify(np.array([[1.0]]), np.array([[0.5]]), J_NEG).case == "neither"
