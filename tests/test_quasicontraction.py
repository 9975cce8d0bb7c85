from collections import Counter

import numpy as np
import pytest

from kreinkit import gens, quasicontraction
from kreinkit.cli import main
from kreinkit.errors import NotAnExtension, NotSolvable
from kreinkit.quasicontraction import (
    SymmetricColumn,
    extremal_extensions,
    is_member,
    krein_uniqueness_criterion,
    solvable,
    split_counts,
    uniqueness_gap,
)
from kreinkit.spectral import as_symmetric, loewner_leq, negativity, norm2, norm_leq, symmetrize
from kreinkit.tolerances import ToleranceProfile, resolve


def nu_minus(matrix, scale_floor=1.0, threshold=1e-9):
    w = np.linalg.eigvalsh(symmetrize(np.atleast_2d(matrix)))
    scale = max(scale_floor, abs(w).max() if w.size else 0.0)
    return int(np.sum(w < -threshold * scale))


def column(t11, t21):
    head = np.atleast_2d(np.asarray(t11, dtype=float))
    coupling = np.asarray(t21, dtype=float).reshape(-1, head.shape[0])
    return SymmetricColumn(head, coupling)


def test_split_counts_examples():
    assert split_counts(np.diag([2.0, -3.0, 0.0])) == (1, 1)
    assert split_counts(np.zeros((2, 2))) == (0, 0)
    assert split_counts(np.diag([0.5, -0.5])) == (0, 0)


def test_split_counts_property():
    rng = np.random.default_rng(40)
    for _ in range(150):
        n = int(rng.integers(1, 9))
        t = gens.random_symmetric(rng, n, scale=rng.uniform(0.3, 1.5))
        minus, plus = split_counts(t)
        direct = nu_minus(np.eye(n) - t @ t, scale_floor=(1.0 + norm2(t)) ** 2)
        assert minus + plus == direct


def test_counts_read_off_one_spectrum_match_direct_decompositions():
    # split_counts and the column's counts map one spectrum of T; each count
    # must equal a decomposition of I + T, I - T or I - T^2 formed directly,
    # also where head eigenvalues sit exactly at -1 (at least one stays off
    # -1, as in the relations the verifier draws)
    rng = np.random.default_rng(41)
    tol = ToleranceProfile()
    for case in range(540):
        exact_unit = case % 3
        n1 = exact_unit + int(rng.integers(1, 5))
        col = gens.random_quasicontraction_column(
            rng, n1, int(rng.integers(0, 4)), exact_unit=exact_unit
        )
        pair = extremal_extensions(col, tol)
        head_floor = (1.0 + norm2(col.t11)) ** 2
        eye1 = np.eye(n1)
        assert pair.kappa == negativity(symmetrize(eye1 - col.t11 @ col.t11), tol, floor=head_floor)
        for t in (col.t11, pair.t_min, pair.t_max):
            eye = np.eye(t.shape[0])
            floor = (1.0 + norm2(t)) ** 2
            direct = tuple(negativity(symmetrize(eye + s * t), tol, floor=floor) for s in (1.0, -1.0))
            assert split_counts(t, tol) == direct
        assert (pair.kappa_minus, pair.kappa_plus) == split_counts(col.t11, tol)
        # extremal_extensions does not count its extremes; both keep the column's split counts
        for ext in (pair.t_min, pair.t_max):
            assert split_counts(ext, tol) == (pair.kappa_minus, pair.kappa_plus)
        assert solvable(col, tol)


def test_all_pinned_columns_split_with_counts_of_direct_decompositions():
    # every head eigenvalue at exactly -1: the defect I - T11^2 vanishes, so
    # the coupling must vanish to roundoff, not to its square root, for the
    # extremes to exist; the counts must still match direct decompositions
    rng = np.random.default_rng(41)
    tol = ToleranceProfile()
    for _ in range(180):
        n1 = int(rng.integers(1, 6))
        col = gens.random_quasicontraction_column(rng, n1, int(rng.integers(0, 4)), exact_unit=n1)
        pair = extremal_extensions(col, tol)
        head_floor = (1.0 + norm2(col.t11)) ** 2
        assert pair.kappa == negativity(symmetrize(np.eye(n1) - col.t11 @ col.t11), tol, floor=head_floor)
        for t in (col.t11, pair.t_min, pair.t_max):
            eye = np.eye(t.shape[0])
            floor = (1.0 + norm2(t)) ** 2
            direct = tuple(negativity(symmetrize(eye + s * t), tol, floor=floor) for s in (1.0, -1.0))
            assert split_counts(t, tol) == direct
        assert (pair.kappa_minus, pair.kappa_plus) == split_counts(col.t11, tol)
        # extremal_extensions does not count its extremes; both keep the column's split counts
        for ext in (pair.t_min, pair.t_max):
            assert split_counts(ext, tol) == (pair.kappa_minus, pair.kappa_plus)
        assert solvable(col, tol)


def test_solvable_examples():
    assert solvable(column([[2.0]], [[0.0]]))
    assert not solvable(column([[0.0]], [[2.0]]))
    assert solvable(column([[0.3]], np.zeros((0, 1))))


def test_extremal_worked_examples():
    pair = extremal_extensions(column([[0.0]], [[0.0]]))
    assert np.allclose(pair.t_min, np.diag([0.0, -1.0]))
    assert np.allclose(pair.t_max, np.diag([0.0, 1.0]))

    pair = extremal_extensions(column([[2.0]], [[0.0]]))
    assert np.allclose(pair.t_min, np.diag([2.0, -1.0]))
    assert np.allclose(pair.t_max, np.diag([2.0, 1.0]))
    assert (pair.kappa, pair.kappa_plus, pair.kappa_minus) == (1, 1, 0)

    pair = extremal_extensions(column([[0.0]], [[1.0]]))
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(pair.t_min, swap)
    assert np.allclose(pair.t_max, swap)


def test_extremal_not_solvable():
    with pytest.raises(NotSolvable):
        extremal_extensions(column([[0.0]], [[2.0]]))


def test_is_member_examples():
    pair = extremal_extensions(column([[0.0]], [[0.0]]))
    assert is_member(pair, pair.t_min)
    assert is_member(pair, pair.t_max)
    assert is_member(pair, (pair.t_min + pair.t_max) / 2.0)
    for t in (-1.0, -0.4, 0.0, 0.8, 1.0):
        assert is_member(pair, np.diag([0.0, t]))
    for t in (-1.7, 1.2):
        assert not is_member(pair, np.diag([0.0, t]))
    with pytest.raises(NotAnExtension):
        is_member(pair, np.diag([0.5, 0.0]))


def _reference_is_member(pair, t, tol=None):
    """``is_member`` as it stood before it decided on the corner: both order
    tests on the full ``n x n`` matrices, with the slack on the full norms."""
    tol = resolve(tol)
    t_sym = as_symmetric(t, tol)
    column = pair.t_min[:, : pair.dim1]
    gap = t_sym[:, : pair.dim1] - column
    if not norm_leq(gap, lambda nc: tol.residual * (1.0 + nc), column):
        raise NotAnExtension(f"first block column differs by {norm2(gap):.3e}")
    return loewner_leq(pair.t_min, t_sym, tol) and loewner_leq(t_sym, pair.t_max, tol)


def _with_corner(pair, corner):
    t = pair.t_max.copy()
    t[pair.dim1 :, pair.dim1 :] = symmetrize(corner)
    return t


def _order_band(pair, t, psd):
    """Whether a gap's lowest eigenvalue lies in ``[-s_full, -s_corner)``.

    ``s_full = psd (1 + |A| + |B|)`` on the full operands and ``s_corner`` the
    same on their corners, so ``s_corner <= s_full``.  The bracket is widened
    by a relative 1e-6, far above the roundoff of the eigenvalues.
    """
    n1 = pair.dim1
    for a, b in ((pair.t_min, t), (t, pair.t_max)):
        lowest = float(np.linalg.eigvalsh(b[n1:, n1:] - a[n1:, n1:])[0])
        s_full = psd * (1.0 + norm2(a) + norm2(b))
        s_corner = psd * (1.0 + norm2(a[n1:, n1:]) + norm2(b[n1:, n1:]))
        if -s_full * (1.0 + 1e-6) <= lowest < -s_corner * (1.0 - 1e-6):
            return True
    return False


def test_corner_membership_agrees_with_the_full_size_decision():
    # Every member shares t_min's first block column, so T - t_min and
    # t_max - T vanish off the n2 x n2 corner, and is_member decides
    # corner_min <= T22 <= corner_max.  Its slack psd (1 + |A| + |B|) is
    # taken on the corners, whose norms are at most the full ones.  So the
    # verdicts can differ only where a gap's lowest eigenvalue lies in the
    # band [-s_full, -s_corner) between the full and the corner slack: there
    # the corner test refuses what the full test accepts, and never the
    # other way round.
    rng = np.random.default_rng(44)
    psd = ToleranceProfile().psd
    seen = Counter()
    for case in range(50):
        n1, n2 = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        unique = case % 3 == 0 and n1 >= n2
        pair = extremal_extensions(gens.random_quasicontraction_column(rng, n1, n2, unique=unique))
        lo, hi = pair.t_min[n1:, n1:], pair.t_max[n1:, n1:]
        v = gens.random_orthogonal(rng, n2)[:, :1]
        bump = gens.random_psd(rng, n2, scale=rng.uniform(0.05, 0.5))
        corners = [lo, hi, (lo + hi) / 2.0, hi + bump, lo - bump]
        # a gap eigenvalue placed at +-s (1 +- d) of the corner slack s, and
        # beyond the full slack, at either end of the interval
        for base, full in ((lo, pair.t_min), (hi, pair.t_max)):
            s_corner, s_full = (psd * (1.0 + 2.0 * norm2(m)) for m in (base, full))
            for x in (0.5 * s_corner, 0.99 * s_corner, 1.01 * s_corner, 1.5 * s_corner, 1.01 * s_full, 2.0 * s_full):
                corners += [base + x * (v @ v.T), base - x * (v @ v.T)]
        for corner in corners:
            t = _with_corner(pair, corner)
            got, want = is_member(pair, t), _reference_is_member(pair, t)
            band = _order_band(pair, t, psd)
            assert want or not got
            if not band:
                assert got == want
            seen[unique, band, got, want] += 1
    assert sum(seen.values()) >= 1000
    # unique pairs are covered, both verdicts occur outside the band, and
    # the band holds candidates the full test accepted and the corner refuses
    assert seen[True, False, True, True] > 0 and seen[False, False, False, False] > 0
    assert seen[False, True, False, True] > 0


def test_a_first_column_off_by_up_to_residual_is_decided_on_its_corner():
    # A first block column off by up to residual (1 + |column|) still passes
    # the extension check, and is_member decides such a candidate on its
    # corner alone, as if the column were exact.  The full-size test also saw
    # the offset (up to residual = 1e-8, above the order slack psd = 1e-9
    # times 1 + |A| + |B|), so it refused most members among them.
    rng = np.random.default_rng(45)
    tol = ToleranceProfile()
    seen = Counter()
    for _ in range(100):
        n1, n2 = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        pair = extremal_extensions(gens.random_quasicontraction_column(rng, n1, n2))
        lo, hi = pair.t_min[n1:, n1:], pair.t_max[n1:, n1:]
        bump = gens.random_psd(rng, n2, scale=rng.uniform(0.05, 0.5))
        for corner, member in (((lo + hi) / 2.0, True), (hi + bump, False)):
            exact = _with_corner(pair, corner)
            offset = np.zeros_like(exact)
            offset[:, :n1] = rng.standard_normal((n1 + n2, n1))
            offset += offset.T
            size = rng.uniform(0.1, 0.9) * tol.residual * (1.0 + norm2(pair.t_min[:, :n1]))
            t = exact + offset * (size / norm2(offset[:, :n1]))
            assert is_member(pair, t, tol) == is_member(pair, exact, tol) == member
            seen[member, _reference_is_member(pair, t, tol)] += 1
    # no non-member is accepted either way, and members the full-size test
    # refused (88 of the 100 here) are now accepted
    assert seen[False, True] == 0 and seen[True, False] > 0


def test_uniqueness_gap_examples():
    pair = extremal_extensions(column([[0.0]], [[0.0]]))
    assert np.allclose(uniqueness_gap(pair), np.diag([0.0, 2.0]))
    pair = extremal_extensions(column([[0.0]], [[1.0]]))
    assert norm2(uniqueness_gap(pair)) <= 1e-12


def test_uniqueness_gap_is_psd():
    rng = np.random.default_rng(41)
    for _ in range(40):
        n1 = int(rng.integers(1, 5))
        n2 = int(rng.integers(0, 3))
        pair = extremal_extensions(gens.random_quasicontraction_column(rng, n1, n2))
        gap = uniqueness_gap(pair)
        assert loewner_leq(np.zeros_like(gap), gap)


def test_krein_uniqueness_examples():
    assert krein_uniqueness_criterion(column([[0.0]], [[1.0]]))
    assert not krein_uniqueness_criterion(column([[0.0]], [[0.5]]))
    # no defect space at all: vacuously unique
    assert krein_uniqueness_criterion(column([[0.3]], np.zeros((0, 1))))


def test_sup_ratio_probe_separates_unique_case():
    # the ratio |(T1 f, phi)|^2 / |((I - T1^T T1) f, f)| stays bounded along
    # the probe sequence when two distinct extremes exist, and blows up in
    # the unique case
    from kreinkit.spectral import modulus_power

    def ratio_at(col, eps, phi_tail):
        t1 = col.stacked()
        n1 = col.dim1
        m = symmetrize(np.eye(n1) - t1.T @ t1)
        abs_m = modulus_power(m, 1.0)
        phi = np.concatenate([np.zeros(n1), phi_tail])
        f = np.linalg.solve(abs_m + eps * np.eye(n1), t1.T @ phi)
        numerator = float(t1 @ f @ phi) ** 2
        denominator = abs(float(m @ f @ f))
        return numerator / max(denominator, 1e-300)

    unique = column([[0.0]], [[1.0]])
    bounded = column([[0.0]], [[0.6]])
    phi = np.array([1.0])
    assert ratio_at(unique, 1e-6, phi) > 1e6
    assert ratio_at(bounded, 1e-6, phi) < 1e3
    assert ratio_at(bounded, 1e-6, phi) == pytest.approx(
        ratio_at(bounded, 1e-2, phi), rel=1e-2
    )


def test_membership_matches_index_characterization():
    rng = np.random.default_rng(42)
    for _ in range(25):
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


def test_negation_duality():
    rng = np.random.default_rng(43)
    for _ in range(40):
        col = gens.random_quasicontraction_column(
            rng, int(rng.integers(1, 5)), int(rng.integers(0, 3))
        )
        pair = extremal_extensions(col)
        negated = extremal_extensions(col.negated())
        scale = 1.0 + norm2(pair.t_min) + norm2(pair.t_max)
        assert norm2(negated.t_min + pair.t_max) <= 1e-9 * scale
        assert norm2(negated.t_max + pair.t_min) <= 1e-9 * scale


def test_nonsolvable_columns_admit_no_extension():
    rng = np.random.default_rng(44)
    found = 0
    while found < 10:
        n1 = int(rng.integers(1, 4))
        n2 = int(rng.integers(1, 3))
        t11 = gens.random_symmetric(rng, n1, scale=0.8)
        t21 = rng.standard_normal((n2, n1)) * 2.0
        col = SymmetricColumn(t11, t21)
        if solvable(col):
            continue
        found += 1
        kappa = nu_minus(np.eye(n1) - t11 @ t11, scale_floor=(1.0 + norm2(t11)) ** 2)
        eye = np.eye(n1 + n2)
        for t in np.linspace(-3.0, 3.0, 13):
            full = np.block([
                [t11, t21.T],
                [t21, float(t) * np.eye(n2)],
            ])
            floor = (1.0 + norm2(full)) ** 2
            assert nu_minus(eye - full @ full, scale_floor=floor) > kappa


def _verify_quasicontraction(monkeypatch, capsys, mutate):
    """``kreinkit verify --suite quasicontraction`` with ``_extremal_blocks``'s
    extremes edited in place by ``mutate(ext, n1)``; returns the failing check names."""
    original = quasicontraction._extremal_blocks

    def mutated(t11, t21, defect):
        t_min, t_max, v, j, coupling = original(t11, t21, defect)
        for ext in (t_min, t_max):
            mutate(ext, t11.shape[0])
        return t_min, t_max, v, j, coupling

    monkeypatch.setattr(quasicontraction, "_extremal_blocks", mutated)
    assert main(["verify", "--suite", "quasicontraction", "--seed", "3", "--cases", "20"]) == 1
    return {line.split()[1] for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")}


def test_verify_names_the_check_a_negated_coupling_fails(monkeypatch, capsys):
    # the extremes no longer extend the column, so the interval's members are
    # refused as non-extensions; the library's own coupling check still passes
    def negate(ext, n1):
        ext[:n1, n1:] *= -1.0
        ext[n1:, :n1] *= -1.0

    assert "quasicontraction.interval_index_agreement" in _verify_quasicontraction(monkeypatch, capsys, negate)


def test_verify_counts_the_extremes_split_counts(monkeypatch, capsys):
    # both corners lowered alike: the gap, the membership of the extremes and
    # their order are intact, and only the split counts of the extremes, which
    # extremal_extensions leaves to the verifier, catch it
    def lower(ext, n1):
        ext[n1:, n1:] -= 0.5 * np.eye(ext.shape[0] - n1)

    assert "quasicontraction.extremal_membership" in _verify_quasicontraction(monkeypatch, capsys, lower)


def test_verify_names_the_check_a_zero_gap_of_a_non_isometry_fails(monkeypatch, capsys):
    # t_max collapsed onto t_min: the member tests and split counts of the
    # extremes still pass, but the zero gap contradicts the J-isometry test
    # of V^T, which the library leaves to the verifier
    original = quasicontraction._extremal_blocks

    def collapsed(t11, t21, defect):
        t_min, _, v, j, coupling = original(t11, t21, defect)
        return t_min, t_min, v, j, coupling

    monkeypatch.setattr(quasicontraction, "_extremal_blocks", collapsed)
    assert main(["verify", "--suite", "quasicontraction", "--seed", "3", "--cases", "20"]) == 1
    assert "FAIL quasicontraction.extremal_membership" in capsys.readouterr().out
