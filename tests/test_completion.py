import numpy as np
import pytest

from kreinkit import gens
from kreinkit.completion import (
    IncompleteBlock,
    assemble,
    completable,
    is_solution,
    minimal_completion,
    reconstruction,
    schur_inertia,
)
from kreinkit.errors import DimensionMismatch, NotCompletable
from kreinkit.spectral import norm2, symmetrize
from kreinkit.tolerances import ToleranceProfile, default_tolerances, set_default_tolerances

E1 = IncompleteBlock(np.diag([1.0, -1.0]), np.array([[1.0], [1.0]]))


def nu_minus(matrix, threshold=1e-9):
    """Independent oracle: count negative eigenvalues by brute force."""
    w = np.linalg.eigvalsh(symmetrize(matrix))
    scale = 1.0 + (abs(w).max() if w.size else 0.0)
    return int(np.sum(w < -threshold * scale))


def test_block_keeps_read_only_copies():
    a11 = np.diag([1.0, -1.0])
    a12 = np.array([[1.0], [1.0]])
    blk = IncompleteBlock(a11, a12)
    a22_min = minimal_completion(blk).a22_min.copy()
    assert not np.shares_memory(blk.a11, a11) and not np.shares_memory(blk.a12, a12)
    a11[0, 0] = 5.0
    a12[:] = 0.0
    assert np.array_equal(blk.a11, np.diag([1.0, -1.0]))
    assert np.array_equal(blk.a12, [[1.0], [1.0]])
    assert np.array_equal(minimal_completion(blk).a22_min, a22_min)
    for arr in (blk.a11, blk.a12, minimal_completion(blk).a22_min, minimal_completion(blk).j):
        with pytest.raises(ValueError):
            arr[0, 0] = 2.0


def test_signature_is_composed_once_on_first_read():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n1 = int(rng.integers(1, 7))
        blk = gens.random_completable_block(rng, n1, int(rng.integers(1, 5)), int(rng.integers(0, min(n1, 2) + 1)))
        sol = minimal_completion(blk)
        j = sol.j
        assert j.tobytes() == sol.spectrum.sign().tobytes() and sol.j is j


def test_completable_examples():
    assert completable(E1)
    assert not completable(IncompleteBlock(np.diag([1.0, 0.0]), np.array([[0.0], [1.0]])))
    assert completable(IncompleteBlock(np.diag([1.0, 0.0]), np.zeros((2, 1))))


def test_minimal_completion_worked_example():
    sol = minimal_completion(E1)
    assert np.allclose(sol.s, [[1.0], [1.0]])
    assert np.allclose(sol.a22_min, [[0.0]])
    assert sol.kappa == 1
    full = assemble(E1, sol.a22_min)
    assert np.allclose(full, [[1.0, 0.0, 1.0], [0.0, -1.0, 1.0], [1.0, 1.0, 0.0]])
    assert nu_minus(full) == 1


def test_minimal_completion_nonnegative_case():
    blk = IncompleteBlock(np.eye(2), np.array([[1.0], [0.0]]))
    sol = minimal_completion(blk)
    assert np.allclose(sol.a22_min, [[1.0]])
    assert nu_minus(assemble(blk, sol.a22_min)) == 0


def test_minimal_completion_zero_coupling():
    blk = IncompleteBlock(np.diag([1.0, -2.0]), np.zeros((2, 3)))
    sol = minimal_completion(blk)
    assert np.allclose(sol.a22_min, np.zeros((3, 3)))


def test_not_completable_reports_residual():
    blk = IncompleteBlock(np.diag([1.0, 0.0]), np.array([[0.0], [1.0]]))
    with pytest.raises(NotCompletable) as info:
        minimal_completion(blk)
    assert info.value.residual == pytest.approx(1.0, rel=1e-6)


def test_is_solution_examples():
    sol = minimal_completion(E1)
    assert is_solution(E1, sol.a22_min)
    assert is_solution(E1, sol.a22_min + np.eye(1))
    assert not is_solution(E1, sol.a22_min - np.eye(1))
    # the eigenvalue-count oracle must agree
    assert nu_minus(assemble(E1, sol.a22_min - np.eye(1))) > sol.kappa


def test_assemble_examples():
    zero = IncompleteBlock(np.zeros((2, 2)), np.zeros((2, 1)))
    assert np.allclose(assemble(zero, np.zeros((1, 1))), np.zeros((3, 3)))
    diag = IncompleteBlock(np.diag([1.0, 2.0]), np.zeros((2, 2)))
    assert np.allclose(
        assemble(diag, np.diag([3.0, 4.0])), np.diag([1.0, 2.0, 3.0, 4.0])
    )
    with pytest.raises(DimensionMismatch):
        assemble(E1, np.eye(2))


def test_schur_inertia_examples():
    assert schur_inertia(E1, np.zeros((1, 1))).n_minus == 1
    blk = IncompleteBlock(np.eye(2), np.zeros((2, 2)))
    assert schur_inertia(blk, -np.eye(2)).n_minus == 2
    blk = IncompleteBlock(np.diag([1.0, -1.0]), np.zeros((2, 1)))
    assert schur_inertia(blk, np.zeros((1, 1))).n_minus == 1


def test_minimality_property():
    rng = np.random.default_rng(10)
    from kreinkit.spectral import signed_eigenbases

    for _ in range(60):
        n1 = int(rng.integers(1, 7))
        n2 = int(rng.integers(1, 7))
        kappa = int(rng.integers(0, min(n1, 2) + 1))
        blk = gens.random_completable_block(rng, n1, n2, kappa, int(rng.integers(0, 2)))
        sol = minimal_completion(blk)
        assert sol.kappa == kappa
        full = assemble(blk, sol.a22_min)
        assert nu_minus(full) == kappa
        assert norm2(full - reconstruction(blk, sol)) <= 1e-9 * (1.0 + norm2(full))
        # the factor is normalized against the corner kernel
        _, _, kernel = signed_eigenbases(blk.a11, floor=norm2(blk.a11))
        assert norm2(kernel.T @ sol.s) <= 1e-8 * (1.0 + norm2(sol.s))


def test_interval_characterization_property():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n1 = int(rng.integers(1, 6))
        n2 = int(rng.integers(1, 6))
        blk = gens.random_completable_block(rng, n1, n2, int(rng.integers(0, 2)))
        sol = minimal_completion(blk)
        psd = symmetrize(sol.a22_min + gens.random_psd(rng, n2))
        assert is_solution(blk, psd)
        assert nu_minus(assemble(blk, psd)) == sol.kappa
        indef = symmetrize(
            sol.a22_min
            + gens.random_symmetric_with_inertia(rng, n2, int(rng.integers(1, n2 + 1)))
        )
        member = is_solution(blk, indef)
        assert member == (nu_minus(assemble(blk, indef)) == sol.kappa)
        assert not member


def test_necessity_property():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n1 = int(rng.integers(2, 6))
        n2 = int(rng.integers(1, 4))
        blk = gens.random_noncompletable_block(rng, n1, n2, int(rng.integers(0, 2)))
        assert not completable(blk)
        head = nu_minus(blk.a11)
        for t in range(-10, 11):
            assert nu_minus(assemble(blk, float(t) * np.eye(n2))) > head


def test_schur_inertia_matches_direct_count():
    rng = np.random.default_rng(13)
    for _ in range(60):
        n1 = int(rng.integers(1, 7))
        n2 = int(rng.integers(1, 7))
        blk = gens.random_completable_block(
            rng, n1, n2, int(rng.integers(0, min(n1, 2) + 1)), int(rng.integers(0, 2))
        )
        a22 = gens.random_symmetric(rng, n2)
        assert schur_inertia(blk, a22).n_minus == nu_minus(assemble(blk, a22))


def test_reconstruction_uses_the_solution_profile():
    # 1e-7 is a kernel eigenvalue under zero=1e-6 but not under the default
    blk = IncompleteBlock(np.diag([1.0, -1.0, 1e-7]), np.array([[1.0], [2.0], [0.0]]))
    sol = minimal_completion(blk, ToleranceProfile(zero=1e-6))
    before = reconstruction(blk, sol)
    saved = default_tolerances()
    try:
        set_default_tolerances(ToleranceProfile(zero=1e-5))
        after = reconstruction(blk, sol)
    finally:
        set_default_tolerances(saved)
    assert np.array_equal(before, after)
    # the head block is |a11|^{1/2} J |a11|^{1/2}, with the kernel dropped
    assert np.allclose(before[:3, :3], np.diag([1.0, -1.0, 0.0]), rtol=0.0, atol=1e-12)
    assert np.allclose(before[3:, 3:], sol.a22_min, rtol=0.0, atol=1e-12)
