import sys

import numpy as np
import pytest

from kreinkit import gens
from kreinkit.cli import main
from kreinkit.completion import IncompleteBlock, is_solution
from kreinkit.errors import DimensionMismatch, InvalidInput
from kreinkit.factor import JSpace, bicontraction_classify, douglas_factor, schur_negativity_factor
from kreinkit.quasicontraction import SymmetricColumn, extremal_extensions, is_member, split_counts
from kreinkit.relations import antitonicity_check
from kreinkit.tolerances import ToleranceProfile, resolve
from kreinkit.spectral import (
    Inertia,
    _decompose,
    _inertia,
    _nonnegative,
    as_symmetric,
    inertia_of,
    intersect_subspaces,
    loewner_leq,
    modulus_power,
    moore_penrose_power,
    negativity,
    norm2,
    norm_leq,
    orthonormal_columns,
    pinv_symmetric,
    projector,
    range_factor,
    signature_of,
    spectral_decompose,
    subspace_distance,
    symmetrize,
)


def test_decompose_diagonal():
    dec = spectral_decompose(np.diag([2.0, -3.0, 0.0]))
    assert np.allclose(dec.eigenvalues, [-3.0, 0.0, 2.0])
    # eigenvectors are signed standard basis vectors
    assert np.allclose(np.abs(dec.eigenvectors), np.eye(3)[:, [1, 2, 0]])


def test_decompose_swap():
    dec = spectral_decompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0])
    expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert np.allclose(np.abs(dec.eigenvectors[:, 0]), np.abs(expected))


def test_decompose_reconstruction():
    rng = np.random.default_rng(0)
    a = gens.random_symmetric(rng, 8)
    dec = spectral_decompose(a)
    assert norm2(dec.reconstruct() - a) <= 1e-12 * max(1.0, norm2(a))
    gram = dec.eigenvectors.T @ dec.eigenvectors
    assert norm2(gram - np.eye(8)) <= 1e-12


def test_asymmetric_input_rejected():
    with pytest.raises(InvalidInput):
        as_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InvalidInput):
        as_symmetric(np.array([[np.nan]]))


# one input of each kind that a symmetric-matrix argument must refuse
INVALID_SYMMETRIC = {
    "asymmetric": np.array([[1.0, 1.0], [0.0, 1.0]]),
    "non-finite": np.array([[1.0, np.inf], [np.inf, 1.0]]),
    "non-square": np.ones((2, 3)),
    "non-2-D": np.ones((2, 2, 1)),
}


def test_exactly_symmetric_input_is_taken_as_it_is():
    rng = np.random.default_rng(4)
    for n in (0, 1, 2, 7):
        a = symmetrize(rng.standard_normal((n, n)))
        assert as_symmetric(a) is a
        assert np.array_equal(as_symmetric(a), (a + a.T) / 2.0)
        if n > 1:
            # an asymmetry within tolerance is still averaged, into a new array
            near = a.copy()
            near[0, 1] += 1e-12
            assert np.array_equal(as_symmetric(near), (near + near.T) / 2.0)
            assert near[0, 1] != near[1, 0]
    assert np.array_equal(as_symmetric([[1, 2], [2, 1]]), [[1.0, 2.0], [2.0, 1.0]])
    for bad in INVALID_SYMMETRIC.values():
        with pytest.raises(InvalidInput):
            as_symmetric(bad)


# each public entry point taking a symmetric 2 x 2 matrix m
ENTRY_POINTS = {
    "inertia_of": inertia_of,
    "negativity": negativity,
    "spectral_decompose": spectral_decompose,
    "loewner_leq(m, I)": lambda m: loewner_leq(m, np.eye(2)),
    "loewner_leq(I, m)": lambda m: loewner_leq(np.eye(2), m),
    "split_counts": split_counts,
    "is_member": lambda m: is_member(extremal_extensions(SymmetricColumn([[0.5]], [[0.3]])), m),
    "is_solution": lambda m: is_solution(IncompleteBlock([[2.0]], [[1.0, 0.5]]), m),
    "JSpace": lambda m: JSpace(2, m),
    "SymmetricColumn": lambda m: SymmetricColumn(m, np.zeros((1, 2))),
    "IncompleteBlock": lambda m: IncompleteBlock(m, np.zeros((2, 1))),
}


@pytest.mark.parametrize("kind", sorted(INVALID_SYMMETRIC))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_symmetric_arguments_are_validated_at_every_entry_point(entry, kind):
    with pytest.raises(InvalidInput):
        ENTRY_POINTS[entry](INVALID_SYMMETRIC[kind])


def test_instances_keep_read_only_copies():
    j, t11, t21 = np.diag([1.0, -1.0]), np.diag([0.5, 0.2]), np.array([[0.3, 0.0]])
    a11, a12 = np.diag([2.0, -1.0]), np.array([[1.0], [0.5]])
    space, column, blk = JSpace(2, j), SymmetricColumn(t11, t21), IncompleteBlock(a11, a12)
    kept = {"j": space.j, "t11": column.t11, "t21": column.t21, "a11": blk.a11}
    before = {name: arr.copy() for name, arr in kept.items()}
    for caller in (j, t11, t21, a11):
        caller[0, 0] = 7.0
    for name, arr in kept.items():
        assert np.array_equal(arr, before[name])
        with pytest.raises(ValueError):
            arr[0, 0] = 3.0


def test_no_entry_point_writes_into_its_symmetric_arguments():
    # an exactly symmetric argument reaches the library as it is, so a
    # read-only one raises on any write
    def frozen(m):
        m = np.array(m, dtype=float)
        m.flags.writeable = False
        return m

    a, j2 = frozen(np.diag([2.0, -1.0])), JSpace(1, frozen([[-1.0]]))
    b = frozen([[1.0, 0.5]])
    pair = extremal_extensions(SymmetricColumn(frozen(np.diag([0.5])), frozen([[0.3]])))
    blk = IncompleteBlock(frozen(np.diag([2.0])), frozen([[1.0, 0.5]]))
    h1, h2 = frozen(np.diag([1.0, 2.0])), frozen(np.diag([1.5, 3.0]))
    for call in (
        lambda: loewner_leq(a, h1),
        lambda: inertia_of(a),
        lambda: spectral_decompose(a).sign(),
        lambda: split_counts(frozen(np.diag([0.5, 2.0]))),
        lambda: range_factor(h1, frozen(np.eye(2))),
        lambda: is_member(pair, frozen((pair.t_min + pair.t_max) / 2.0)),
        lambda: is_solution(blk, frozen(np.eye(2))),
        lambda: schur_negativity_factor(a, b, j2),
        lambda: bicontraction_classify(a, b, j2),
        lambda: douglas_factor(a, frozen([[1.0, 0.0]]), j2, "inequality"),
        lambda: antitonicity_check(h1, h2, "matrix"),
    ):
        call()


def test_inertia_examples():
    assert inertia_of(np.diag([2.0, -3.0, 0.0])) == Inertia(1, 1, 1, 0)
    assert inertia_of(np.eye(4)) == Inertia(4, 0, 0, 0)
    # below the relative threshold classifies as zero
    assert inertia_of(np.diag([1e-20, 1.0])) == Inertia(1, 0, 1, 0)


def test_signature_examples():
    assert np.allclose(signature_of(np.diag([2.0, -3.0])), np.diag([1.0, -1.0]))
    # the kernel is signed +1
    assert np.allclose(signature_of(np.diag([0.0, 5.0])), np.eye(2))
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(signature_of(swap), swap)


def test_signature_properties():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        a = gens.random_symmetric_with_inertia(
            rng, n, int(rng.integers(0, n + 1)), 0
        )
        j = signature_of(a)
        assert norm2(j @ j - np.eye(n)) <= 1e-8
        assert norm2(j @ modulus_power(a, 1.0) - a) <= 1e-8 * (1.0 + norm2(a))


def test_modulus_power_examples():
    a = np.diag([4.0, -9.0])
    half = modulus_power(a, 0.5)
    assert np.allclose(half, np.diag([2.0, 3.0]))
    assert np.allclose(half @ half, np.diag([4.0, 9.0]))
    rng = np.random.default_rng(2)
    b = gens.random_symmetric(rng, 5)
    assert loewner_leq(np.zeros((5, 5)), modulus_power(b, 1.0))


def test_moore_penrose_power_examples():
    assert np.allclose(moore_penrose_power(np.diag([4.0, 0.0]), 0.5), np.diag([0.5, 0.0]))
    rng = np.random.default_rng(3)
    a = gens.random_symmetric_with_inertia(rng, 4, 2, 0)
    prod = modulus_power(a, 0.5) @ moore_penrose_power(a, 0.5)
    assert norm2(prod - np.eye(4)) <= 1e-9
    # Penrose identity on a singular matrix
    sing = np.diag([4.0, 0.0])
    r = moore_penrose_power(sing, 0.5)
    assert norm2(r @ modulus_power(sing, 0.5) @ r - r) <= 1e-12


def test_moore_penrose_projection_property():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        n_minus = int(rng.integers(0, n))
        n_zero = int(rng.integers(0, n - n_minus + 1))
        a = gens.random_symmetric_with_inertia(rng, n, n_minus, n_zero)
        absolute = modulus_power(a, 1.0)
        p = moore_penrose_power(absolute, 1.0) @ absolute
        assert norm2(p @ p - p) <= 1e-8


def test_range_factor_examples():
    s = range_factor(np.eye(2), np.array([[1.0], [1.0]]))
    assert np.allclose(s, [[1.0], [1.0]])
    assert range_factor(np.diag([1.0, 0.0]), np.array([[0.0], [1.0]])) is None
    s = range_factor(np.diag([2.0, 3.0]), np.array([[2.0], [0.0]]))
    assert np.allclose(s, [[1.0], [0.0]])


def test_range_factor_soundness():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(1, 4))
        m = gens.random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
        b = m @ rng.standard_normal((n, k))
        s = range_factor(m, b)
        assert s is not None
        assert norm2(m @ s - b) <= 1e-8 * (1.0 + norm2(b))
        kernel = pinv_symmetric(m) @ m
        # columns of the factor lie in the range
        assert norm2(kernel @ s - s) <= 1e-8 * (1.0 + norm2(s))


def test_range_factor_shape_check():
    with pytest.raises(DimensionMismatch):
        range_factor(np.eye(2), np.zeros((3, 1)))


def test_loewner_examples():
    assert loewner_leq(np.zeros((2, 2)), np.eye(2))
    assert loewner_leq(np.diag([1.0, -1.0]), np.diag([2.0, -0.5]))
    assert not loewner_leq(np.eye(2), np.zeros((2, 2)))
    assert loewner_leq(np.zeros((0, 0)), np.zeros((0, 0)))
    with pytest.raises(DimensionMismatch):
        loewner_leq(np.eye(2), np.eye(3))


def test_congruence_preserves_inertia():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        d = gens.random_symmetric_with_inertia(rng, n, int(rng.integers(0, n + 1)), 0)
        while True:
            w = rng.standard_normal((n, n))
            if abs(np.linalg.det(w)) > 1e-3:
                break
        assert inertia_of(symmetrize(w.T @ d @ w)) == inertia_of(d)


def test_subspace_helpers():
    rng = np.random.default_rng(7)
    q = orthonormal_columns(rng.standard_normal((6, 3)))
    assert q.shape == (6, 3)
    assert norm2(q.T @ q - np.eye(3)) <= 1e-12
    assert subspace_distance(q, q) <= 1e-14
    p = projector(q)
    assert norm2(p @ p - p) <= 1e-12
    e1 = np.eye(3)[:, :1]
    e12 = np.eye(3)[:, :2]
    cap = intersect_subspaces(e12, np.eye(3)[:, 1:])
    assert cap.shape[1] == 1
    assert subspace_distance(cap, np.eye(3)[:, 1:2]) <= 1e-10
    assert intersect_subspaces(e1, np.eye(3)[:, 2:]).shape[1] == 0


def test_quantities_read_off_one_decomposition():
    a = np.diag([3.0, -2.0, 1e-8, 0.0])
    spec = spectral_decompose(a)
    assert spec.norm == 3.0
    assert spec.inertia == inertia_of(a) == Inertia(2, 1, 1, 0)
    assert np.array_equal(spec.sign(), signature_of(a))
    assert np.array_equal(spec.power(0.5), modulus_power(a, 0.5))
    assert np.array_equal(spec.pinv_power(0.5), moore_penrose_power(a, 0.5))
    assert np.array_equal(spec.pinv(), pinv_symmetric(a))
    assert np.allclose(spec.range_projector(), np.diag([1.0, 1.0, 1.0, 0.0]))
    # a second floor re-thresholds the same eigenvalues
    floored = spec.with_floor(100.0)
    assert floored.eigenvalues is spec.eigenvalues
    assert floored.inertia == inertia_of(a, floor=100.0) == Inertia(1, 1, 2, 0)
    assert np.allclose(floored.range_projector(), np.diag([1.0, 1.0, 0.0, 0.0]))
    # only a positive floor zeroes sub-threshold eigenvalues in a power
    assert np.allclose(floored.power(0.5), np.diag([np.sqrt(3.0), np.sqrt(2.0), 0.0, 0.0]))
    assert spec.power(0.5)[2, 2] > 0.0


def test_a_spectrum_meets_prescribed_counts_by_its_threshold_alone():
    spec = spectral_decompose(np.diag([-2.0, -4e-12, 1e-12, 3.0]))
    assert spec.inertia == Inertia(1, 1, 2, 0)
    # counts the threshold already gives keep it, and the spectrum itself
    assert spec._meeting(1, 2) is spec
    # one zero fewer: the threshold moves to the middle of the gap between
    # the moduli 1e-12 and 4e-12, and the kernel, projector and
    # pseudo-inverse powers follow it
    moved = spec._meeting(2, 1)
    assert moved.eigenvalues is spec.eigenvalues and moved.threshold == (1e-12 + 4e-12) / 2.0
    assert moved.inertia == Inertia(1, 2, 1, 0)
    assert np.count_nonzero(moved._pinv_values(0.5)) == 3
    assert np.isclose(np.trace(moved.range_projector()), 3.0)
    # no threshold keeps -4e-12 off the kernel without counting it negative,
    # and none counts more zeros than the dimension
    assert spec._meeting(1, 1) is None and spec._meeting(0, 5) is None


def test_mapped_spectrum_is_the_function_of_the_matrix():
    a = np.diag([0.5, -2.0, 1.0])
    mapped = spectral_decompose(a).map(lambda w: (1.0 - w) * (1.0 + w), floor=4.0)
    # 1 - w^2 reverses the order of |w|, and the values are re-sorted ascending
    assert np.array_equal(mapped.eigenvalues, [-3.0, 0.0, 0.75])
    assert mapped.floor == 4.0
    assert mapped.inertia == inertia_of(np.eye(3) - a @ a, floor=4.0) == Inertia(1, 1, 1, 0)
    assert np.allclose(mapped.reconstruct(), np.eye(3) - a @ a)
    assert np.allclose(mapped.power(0.5), modulus_power(np.eye(3) - a @ a, 0.5))


DELTAS = (1e-14, 1e-11, 1e-9, 1e-3)


def _gate_cases(rng):
    """Dense, rank-one (Frobenius norm = spectral norm), zero and empty matrices."""
    for _ in range(40):
        m, n = rng.integers(1, 7, size=2)
        yield rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-6, 6)
        yield np.outer(rng.standard_normal(m), rng.standard_normal(n))
    yield np.zeros((3, 2))
    for shape in ((0, 0), (0, 3), (3, 0)):
        yield np.zeros(shape)


def test_norm_gate_agrees_with_the_spectral_norm():
    rng = np.random.default_rng(5)
    for r in _gate_cases(rng):
        exact = norm2(r)
        for delta in DELTAS:
            for sign in (-1.0, 1.0):
                target = exact * (1.0 + sign * delta)
                assert norm_leq(r, lambda: target) == (exact <= target)
                # a bound scaled by the norm of a dense or a float operand
                for b in (rng.standard_normal((4, 3)), float(rng.uniform(0.0, 5.0))):
                    nb = b if isinstance(b, float) else norm2(b)
                    c = target / (1.0 + nb)
                    assert norm_leq(r, lambda x: c * (1.0 + x), b) == (exact <= c * (1.0 + nb))
        # a float residual is its own norm
        assert norm_leq(exact, lambda: exact)
        assert not norm_leq(exact + 1.0, lambda: exact)
    assert not norm_leq(np.full((2, 2), 1e-300), lambda: 0.0)


def _head_loewner(a, b, tol):
    """The order test with both norms taken by SVD; it holds vacuously on a zero-dimensional space."""
    if np.size(a) == 0:
        return True
    lowest = np.linalg.eigvalsh(symmetrize(b - a))[0]
    return bool(lowest >= -tol.psd * (1.0 + norm2(a) + norm2(b)))


PSD_PROFILES = (ToleranceProfile(), ToleranceProfile(psd=1e-14), ToleranceProfile(psd=1e-3))


def test_loewner_gate_agrees_with_the_direct_slack():
    rng = np.random.default_rng(9)
    tol = ToleranceProfile()
    for _ in range(60):
        n = int(rng.integers(1, 6))
        a = gens.random_symmetric(rng, n) * 10.0 ** rng.uniform(-2, 4)
        q = gens.random_orthogonal(rng, n)
        gap = rng.uniform(0.0, 1.0, n)
        slack = tol.psd * (1.0 + norm2(a) + norm2(a + q @ np.diag(gap) @ q.T))
        # the lowest eigenvalue of B - A just inside and just outside -psd
        # (where the norms start to matter) and the full slack
        for edge in (tol.psd, slack):
            for delta in DELTAS:
                for sign in (-1.0, 1.0):
                    gap[0] = -edge * (1.0 + sign * delta)
                    b = symmetrize(a + q @ np.diag(gap) @ q.T)
                    assert loewner_leq(a, b, tol) == _head_loewner(a, b, tol)


def test_loewner_gate_agrees_on_generic_pairs_at_desk_scale_and_every_profile():
    rng = np.random.default_rng(19)
    for n in (30, 60, 100, 250):
        a = gens.random_symmetric(rng, n) * 10.0 ** rng.uniform(-2, 4)
        q = gens.random_orthogonal(rng, n)
        gap = rng.uniform(0.0, 1.0, n)
        for tol in PSD_PROFILES:
            slack = tol.psd * (1.0 + norm2(a) + norm2(a + q @ np.diag(gap) @ q.T))
            for delta in DELTAS:
                for sign in (-1.0, 1.0):
                    # just inside and just outside -psd and the full slack, and
                    # near zero
                    for at in (-tol.psd * (1.0 + sign * delta), -slack * (1.0 + sign * delta), sign * delta):
                        gap[0] = at
                        b = symmetrize(a + q @ np.diag(gap) @ q.T)
                        assert loewner_leq(a, b, tol) == _head_loewner(a, b, tol)


def test_loewner_gate_falls_back_only_at_the_slack_of_commuting_pairs(monkeypatch):
    rng = np.random.default_rng(9)
    fallbacks = []
    original = np.linalg.eigvalsh

    def counting(x, *args, **kwargs):
        fallbacks.append(np.shape(x))
        return original(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    for n in [int(n) for n in rng.integers(1, 6, 30)] + [30, 60, 100, 250]:
        # A = Q diag(alpha) Q^T and B - A = Q diag(gap) Q^T, the gap within a
        # factor 100 of A so that B - A carries its placed eigenvalue exactly
        scale = 10.0 ** rng.uniform(-2, 4)
        q = gens.random_orthogonal(rng, n)
        alpha = rng.uniform(-1.0, 1.0, n) * scale
        gap = rng.uniform(0.0, 1.0, n) * scale * 10.0 ** rng.uniform(-2, 1)
        a = symmetrize(q @ np.diag(alpha) @ q.T)
        for tol in PSD_PROFILES:
            for delta in DELTAS:
                for sign in (-1.0, 1.0):
                    # the pair's own slack psd (1 + |A| + |B|) moves with the
                    # placed eigenvalue through |B|: iterate to its fixed point
                    at_slack = 0.0
                    for _ in range(20):
                        gap[0] = at_slack
                        slack = tol.psd * (1.0 + np.max(np.abs(alpha)) + np.max(np.abs(alpha + gap)))
                        at_slack = -slack * (1.0 + sign * delta)
                    # the lowest eigenvalue of B - A just inside and just outside
                    # -psd (where the norms start to matter), the full slack and zero
                    for at in (-tol.psd * (1.0 + sign * delta), at_slack, sign * delta):
                        gap[0] = at
                        b = symmetrize(q @ np.diag(alpha + gap) @ q.T)
                        fallbacks.clear()
                        verdict = loewner_leq(a, b, tol)
                        # within 1e-14 of the slack only eigvalsh can decide (for
                        # n = 1 rounding in B - A moves the eigenvalue further)
                        if at == at_slack and delta == DELTAS[0] and n > 1:
                            assert len(fallbacks) == 1
                        assert verdict == _head_loewner(a, b, tol)


def test_order_verdicts_of_verify_are_the_eigvalsh_verdicts(monkeypatch, capsys):
    original, original_nonnegative = loewner_leq, _nonnegative
    recorded, certified = [], []

    def recording(a, b, tol=None):
        verdict = original(a, b, tol)
        recorded.append((np.array(a, dtype=float), np.array(b, dtype=float), resolve(tol), verdict))
        return verdict

    def recording_nonnegative(g, tol, slack=True):
        verdict = original_nonnegative(g, tol, slack)
        if slack:
            recorded.append((np.zeros_like(g, dtype=float), np.array(g, dtype=float), resolve(tol), verdict))
        else:
            certified.append((np.array(g, dtype=float), verdict))
        return verdict

    for name, module in list(sys.modules.items()):
        if name.startswith("kreinkit"):
            for attr, wrapper, wrapped in (("loewner_leq", recording, original),
                                           ("_nonnegative", recording_nonnegative, original_nonnegative)):
                if getattr(module, attr, None) is wrapped:
                    monkeypatch.setattr(module, attr, wrapper)
    # four seeds: the resolvent order decides 0 <= R2 from its weights, not by an order test
    for seed in range(4):
        assert main(["verify", "--suite", "all", "--seed", str(seed), "--cases", "5"]) == 0
    capsys.readouterr()
    assert {verdict for *_, verdict in recorded} == {True, False}
    # the order tests of every layer, the zero-based ones included
    assert len(recorded) >= 600
    for a, b, tol, verdict in recorded:
        assert verdict == _head_loewner(as_symmetric(a, tol), as_symmetric(b, tol), tol)
    # a form certified positive definite with no slack has a positive spectrum
    # (vacuously on a zero-dimensional space)
    assert any(verdict and g.size for g, verdict in certified)
    for g, verdict in certified:
        assert not verdict or np.min(np.linalg.eigvalsh(g), initial=np.inf) > 0.0


def _placed(rng, n, at):
    """Symmetric ``n x n`` with spectral norm 1 (for ``n > 1``) and one eigenvalue at ``at``."""
    w = rng.uniform(-1.0, 1.0, n)
    w[-1] = 1.0
    w[0] = at
    q = gens.random_orthogonal(rng, n)
    return symmetrize(q @ np.diag(w) @ q.T)


def _near(rng, edge):
    """``+-edge`` moved by each relative ``delta`` in ``DELTAS``, then zero."""
    for delta in DELTAS:
        for sign in (-1.0, 1.0):
            yield sign * edge * (1.0 + rng.choice((-1.0, 1.0)) * delta)
    yield 0.0


def test_count_kernel_agrees_with_the_decomposition():
    rng = np.random.default_rng(21)
    # a profile's zero must be positive; the smallest one puts every
    # threshold below any nonzero eigenvalue here, so only the guard is left
    for tol in (ToleranceProfile(), ToleranceProfile(zero=5e-324)):
        cases = [(np.zeros((n, n)), floor) for n in (0, 1, 3) for floor in (0.0, 1.0)]
        for _ in range(40):
            n = int(rng.integers(1, 8))
            floor = float(rng.choice((0.0, 0.5, 3.0)))
            cases += [(_placed(rng, n, at), floor) for at in _near(rng, tol.zero * n * max(1.0, floor))]
        for a, floor in cases:
            expected = spectral_decompose(a, tol, floor).inertia
            assert inertia_of(a, tol, floor) == _inertia(a, tol, floor) == expected


def _squared(nb):
    return (1.0 + nb) ** 2


def test_certified_floors_agree_with_the_exact_floor(monkeypatch):
    rng = np.random.default_rng(22)
    tol = ToleranceProfile()
    svds = []
    original = np.linalg.norm

    def counting(x, ord=None, *args, **kwargs):
        svds.append(ord == 2)
        return original(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        b = rng.standard_normal((n, int(rng.integers(1, 5))))
        exact = _squared(norm2(b))
        for at in _near(rng, tol.zero * n * exact):
            a = _placed(rng, n, at)
            assert _inertia(a, tol, (_squared, b)) == spectral_decompose(a, tol, exact).inertia
            certified, direct = _decompose(a, tol, (_squared, b)), spectral_decompose(a, tol, exact)
            assert certified.inertia == direct.inertia
            for read in (lambda s: s.power(0.5), lambda s: s.pinv_power(0.5), lambda s: s.sign(),
                         lambda s: s.pinv(), lambda s: np.hstack(s.bases())):
                assert np.array_equal(read(certified), read(direct))
    # a floor whose Frobenius bracket [(1 + 6^1/2 / 3^1/2)^2, (1 + 6^1/2)^2]
    # holds an eigenvalue's threshold is taken by SVD; away from it, not
    b = np.diag([2.0, 1.0, 1.0])
    for n in range(2, 7):
        for at, svd in ((tol.zero * n * 9.0 * 1.001, True), (0.0, False)):
            svds.clear()
            a = _placed(rng, n, at)
            assert _inertia(a, tol, (_squared, b)) == spectral_decompose(a, tol, 9.0).inertia
            assert any(svds) == svd


def test_compose_scales_columns_bit_for_bit():
    rng = np.random.default_rng(23)
    for n in (0, 1, 2, 5, 17, 60):
        spec = spectral_decompose(gens.random_symmetric(rng, n))
        v = spec.eigenvectors
        for values in (spec.eigenvalues, rng.standard_normal(n), np.abs(spec.eigenvalues) ** 0.5):
            assert np.array_equal(spec._compose(values), symmetrize(v @ np.diag(values) @ v.T))
