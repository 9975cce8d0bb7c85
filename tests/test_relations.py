from collections import Counter

import numpy as np
import pytest

from kreinkit import gens, relations, spectral, verify
from kreinkit.cli import main
from kreinkit.errors import (
    DimensionMismatch,
    InvalidInput,
    KreinkitError,
    NotAnExtension,
    NotSelfadjoint,
    NotSolvable,
    PreconditionViolated,
    ShiftNotAdmissible,
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
    operator_part,
    relation_inertia,
    relation_leq,
    resolvent_interval_check,
    resolvent_matrix,
)
from kreinkit.spectral import norm2, orthonormal_columns, subspace_distance, symmetrize
from kreinkit.tolerances import ToleranceProfile, resolve


def graph(m):
    return LinearRelation.from_operator(np.asarray(m, dtype=float))


# the running example: the identity on span{e1} inside R^2
PARTIAL_IDENTITY = LinearRelation.from_generators(
    np.array([[1.0], [0.0]]), np.array([[1.0], [0.0]])
)


def test_constructors():
    rel = graph([[2.0]])
    expected = LinearRelation.from_generators(np.array([[1.0]]), np.array([[2.0]]))
    assert rel.same_as(expected)
    pure_mul = LinearRelation.from_generators(np.zeros((2, 2)), np.eye(2))
    assert pure_mul.mul_dim() == 2
    duplicated = LinearRelation.from_generators(
        np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([[1.0, 1.0], [0.0, 0.0]])
    )
    assert duplicated.same_as(PARTIAL_IDENTITY)
    assert duplicated.graph_dim == 1


def test_constructor_validates_and_freezes_the_basis():
    with pytest.raises(DimensionMismatch):
        LinearRelation(3, np.eye(5)[:, :2])
    with pytest.raises(DimensionMismatch):
        LinearRelation(2, np.zeros(4))
    raw = np.eye(4)[:, :2]
    rel = LinearRelation(2, raw)
    raw[0, 0] = 5.0
    assert rel.basis[0, 0] == 1.0
    with pytest.raises(ValueError):
        rel.basis[0, 0] = 2.0
    with pytest.raises(AttributeError):
        rel.basis = np.eye(4)


def test_constructor_rejects_a_basis_that_is_not_orthonormal():
    with pytest.raises(InvalidInput):
        LinearRelation(1, np.array([[2.0], [0.0]]))
    tol = resolve(None)
    rng = np.random.default_rng(64)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        q = gens.random_orthogonal(rng, 2 * n)[:, : int(rng.integers(1, 2 * n + 1))]
        # a symmetric perturbation E of the Gram gives B^T B - I = 2E + E^2
        e = gens.random_symmetric(rng, q.shape[1])
        e /= 2.0 * norm2(e)
        for gap, accepted in ((0.5 * tol.residual, True), (0.99 * tol.residual, True), (1.01 * tol.residual, False),
                              (2.0 * tol.residual, False)):
            basis = q @ (np.eye(q.shape[1]) + gap * e)
            assert norm2(basis.T @ basis - np.eye(q.shape[1])) == pytest.approx(gap, rel=1e-6)
            if accepted:
                assert LinearRelation(n, basis).graph_dim == q.shape[1]
            else:
                with pytest.raises(InvalidInput):
                    LinearRelation(n, basis)


def test_library_constructions_skip_the_orthonormality_check(monkeypatch):
    # every relation-valued operation builds an orthonormal basis itself
    checked = []
    original = relations._small

    def recording(r, tol, field, *operands, **kwargs):
        checked.append(field)
        return original(r, tol, field, *operands, **kwargs)

    rel = gens.random_solvable_relation(np.random.default_rng(65), 4)
    monkeypatch.setattr(relations, "_small", recording)
    for made in (rel.adjoint(), rel.inverse(), rel.negate(), rel.shift(0.5), rel.cayley(),
                 LinearRelation.from_generators(rel.first, rel.second), LinearRelation.from_operator(np.eye(2))):
        assert made.graph_dim > 0
    assert checked == []
    LinearRelation(rel.space_dim, rel.basis)
    assert checked == ["residual"]


def test_operator_part_hands_out_read_only_arrays():
    rel = LinearRelation.from_operator(np.diag([1.0, -2.0]))
    before = relation_inertia(rel)
    u, images = operator_part(rel)
    for arr in (u, images):
        with pytest.raises(ValueError):
            arr *= -3
    assert relation_inertia(rel) == before
    assert np.array_equal(operator_part(rel)[0], u)


# At c = 1e-8 the scaled multivalued direction has size 1e-8 next to unit
# directions, below what the SVD of the generators resolves
@pytest.mark.parametrize("c", [
    pytest.param(1e-8, marks=pytest.mark.xfail(
        strict=True, reason="the generators' SVD cannot resolve a 1e-8 direction next to unit ones",
    )),
    1e-4, 1.0, 1e4, 1e8,
])
def test_multivalued_part_across_scales(c):
    rng = np.random.default_rng(53)
    wrong = 0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        rel = gens.random_selfadjoint_relation(rng, n, mul_dim=int(rng.integers(0, 2)))
        scaled = LinearRelation.from_generators(rel.first, c * rel.second)
        wrong += scaled.mul_dim() != rel.mul_dim()
    assert wrong == 0


def test_adjoint_inverse_shift():
    rng = np.random.default_rng(50)
    m = rng.standard_normal((3, 3))
    assert graph(m).adjoint().same_as(graph(m.T))
    inv = graph(np.diag([1.0, 0.0])).inverse()
    assert inv.mul_dim() == 1
    assert subspace_distance(inv.mul_basis(), np.eye(2)[:, 1:]) <= 1e-10
    assert graph(np.zeros((2, 2))).shift(1.0).same_as(graph(np.eye(2)))


def test_classify_examples():
    cls = classify(graph(np.diag([1.0, -2.0])))
    assert cls.selfadjoint and cls.form_negativity == 1
    # identity on span{e1} extended by a multivalued direction: the graph
    # pairing vanishes and the graph dimension is full, so selfadjoint
    rel = LinearRelation.from_generators(
        np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[1.0, 0.0], [0.0, 1.0]])
    )
    cls = classify(rel)
    assert cls.symmetric and cls.selfadjoint and cls.form_negativity == 0
    # a strict restriction is symmetric but not selfadjoint
    cls = classify(PARTIAL_IDENTITY)
    assert cls.symmetric and not cls.selfadjoint
    rotation = graph(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert not classify(rotation).symmetric


def test_relation_inertia():
    counts = relation_inertia(graph(np.diag([2.0, -3.0, 0.0])))
    assert (counts.i_plus, counts.i_minus, counts.i_zero, counts.i_inf) == (1, 1, 1, 0)
    rel = LinearRelation.from_generators(
        np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[1.0, 0.0], [0.0, 1.0]])
    )
    counts = relation_inertia(rel)
    assert (counts.i_plus, counts.i_minus, counts.i_zero, counts.i_inf) == (1, 0, 0, 1)
    with pytest.raises(NotSelfadjoint):
        relation_inertia(PARTIAL_IDENTITY)


def test_relation_inertia_counts_a_form_zero_domain_direction_as_zero():
    # the form shows an eigenvalue lambda as lambda / (1 + lambda^2), below the
    # graph's singular value 1 / (1 + lambda^2)^(1/2); under zero = 0.15 both
    # cutoffs are 0.3, so lambda = +-3.05 (form 0.296, singular value 0.312)
    # is zero to the form while the graph keeps it in the domain: it is i_zero
    coarse = ToleranceProfile(zero=0.15)
    for lam in (3.05, -3.05):
        rel = graph(np.diag([lam, 1.0]))
        assert rel.mul_dim(coarse) == 0
        counts = relation_inertia(rel, coarse)
        assert (counts.i_plus, counts.i_minus, counts.i_zero, counts.i_inf) == (1, 0, 1, 0)
        counts = relation_inertia(rel)
        assert (counts.i_plus, counts.i_minus, counts.i_zero, counts.i_inf) == (1 + (lam > 0), lam < 0, 0, 0)


def _near_multivalued(rng, eps):
    """Cayley image of ``T`` with one eigenvalue at ``-1 + eps``.

    The other eigenvalues keep at least 0.2 from ``+-1``.  Returns the
    relation and its counts ``(i_plus, i_minus)`` by the spectral map
    ``mu -> (1 - mu) / (1 + mu)``: ``|mu| < 1`` gives a positive eigenvalue
    and ``|mu| > 1`` a negative one.
    """
    n = int(rng.integers(2, 7))
    mags = [rng.uniform(0.0, 0.8) if rng.integers(0, 2) else rng.uniform(1.2, 3.0) for _ in range(n - 1)]
    mus = np.array([-1.0 + eps] + [m * rng.choice([-1.0, 1.0]) for m in mags])
    q = gens.random_orthogonal(rng, n)
    t = q @ np.diag(mus) @ q.T
    rel = graph((t + t.T) / 2.0).cayley()
    return rel, (int(np.sum(np.abs(mus) < 1.0)), int(np.sum(np.abs(mus) > 1.0)))


@pytest.mark.parametrize("eps", [1e-7, 1e-8, 1e-9])
def test_relation_inertia_near_a_multivalued_direction(eps):
    # the operator part has an eigenvalue near 2 / eps, so a domain direction
    # has singular value about eps / 2 and the SVD's roundoff about u / eps;
    # counts are checked down to 1e-8: the graph form shows that eigenvalue
    # as about eps / 2, above the unit-scale threshold, and the others at
    # unit scale; at 1e-9 the direction nears the graph cutoff itself
    rng = np.random.default_rng(62)
    for _ in range(100):
        rel, (i_plus, i_minus) = _near_multivalued(rng, eps)
        counts = relation_inertia(rel)
        if eps >= 1e-8:
            assert (counts.i_plus, counts.i_minus, counts.i_zero, counts.i_inf) == (i_plus, i_minus, 0, 0)


# (seed, cases) of ``verify --suite all --cases 100`` runs whose extension
# interval check once failed on a correct SVD near the Friedrichs end
# or on a count read off the operator part at the scale of its largest
# eigenvalue, near a multivalued direction
_EXTENSION_INTERVAL_REPLAYS = [(23, 89), (64, 89), (88, 29), (182, 31), (188, 58), (231, 22), (236, 59), (2304, 86)]


def _replay(check, seed, cases):
    """Failures of ``check`` over the first ``cases`` cases of ``verify --suite all --seed seed``."""
    checks = [fn for suite in verify._SUITES.values() for _, fn in suite]
    rng = np.random.default_rng([seed, checks.index(check)])
    return verify._run_cases(check, rng, cases, resolve(None)).failures


@pytest.mark.parametrize("seed,cases", _EXTENSION_INTERVAL_REPLAYS)
def test_verify_extension_interval_replays(seed, cases):
    assert _replay(verify._relations_extension_interval, seed, cases) == 0


# (seed, cases) of ``verify --suite all --cases 100`` runs whose resolvent
# shifts check once refused an admissible shift, its bound grown with an
# operator-part eigenvalue near a multivalued direction
_RESOLVENT_SHIFTS_REPLAYS = [(480, 47)]


@pytest.mark.parametrize("seed,cases", _RESOLVENT_SHIFTS_REPLAYS)
def test_verify_resolvent_shifts_replays(seed, cases):
    assert _replay(verify._relations_resolvent_shifts, seed, cases) == 0


def test_cayley_scalar_and_multivalued():
    assert graph([[2.0]]).cayley().same_as(graph([[-1.0 / 3.0]]))
    pure_mul = LinearRelation.from_generators(np.zeros((2, 2)), np.eye(2))
    assert pure_mul.cayley().same_as(graph(-np.eye(2)))


def test_cayley_involution_property():
    rng = np.random.default_rng(51)
    for _ in range(500):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(0, 2 * n + 1))
        rel = LinearRelation(n, gens.random_orthogonal(rng, 2 * n)[:, :k])
        double = rel.cayley().cayley()
        assert subspace_distance(double.basis, rel.basis) <= 1e-9
        lhs = rel.cayley().inverse()
        rhs = rel.negate().cayley()
        assert subspace_distance(lhs.basis, rhs.basis) <= 1e-9


def _reference_cayley(rel, tol=None):
    """The Cayley transform as it stood before: an SVD of the stacked image."""
    stacked = np.vstack([rel.first + rel.second, rel.first - rel.second])
    return LinearRelation(rel.space_dim, orthonormal_columns(stacked, tol))


def test_cayley_basis_agrees_with_the_orthonormalized_image():
    # (f, f') -> (f + f', f - f') / sqrt(2) is orthogonal on the doubled
    # space, so it maps the orthonormal graph basis to an orthonormal basis
    # of the image, whose singular values the SVD route saw all at sqrt(2)
    rng = np.random.default_rng(54)
    rels = [LinearRelation(n, np.zeros((2 * n, 0))) for n in range(4)]
    rels += [LinearRelation.from_generators(np.zeros((n, n)), np.eye(n)) for n in range(1, 4)]
    for _ in range(300):
        n = int(rng.integers(1, 6))
        rels.append(LinearRelation(n, gens.random_orthogonal(rng, 2 * n)[:, : int(rng.integers(0, 2 * n + 1))]))
        rels.append(gens.random_selfadjoint_relation(rng, n, mul_dim=int(rng.integers(0, n + 1))))
    for eps in (1e-7, 1e-8, 1e-9, 1e-10, 1e-12):
        rels += [_near_multivalued(rng, eps)[0] for _ in range(20)]
    multivalued = 0
    for rel in rels:
        got, want = rel.cayley(), _reference_cayley(rel)
        assert got.same_as(want) and got.mul_dim() == want.mul_dim()
        multivalued += got.mul_dim() > 0
        assert norm2(got.basis.T @ got.basis - np.eye(got.graph_dim)) <= 1e-14
        assert np.max(np.abs(got.cayley().basis - rel.basis), initial=0.0) <= 1e-15
    assert len(rels) >= 500 and multivalued > 0


def test_operator_part_of_operator_graphs():
    rng = np.random.default_rng(52)
    m = rng.standard_normal((3, 3))
    basis, images = operator_part(graph(m))
    assert basis.shape == (3, 3)
    assert np.allclose(images @ basis.T, m)
    # a purely multivalued relation is no operator graph: empty domain
    pure_mul = LinearRelation.from_generators(np.zeros((2, 2)), np.eye(2))
    assert pure_mul.mul_dim() == 2
    assert operator_part(pure_mul)[0].shape == (2, 0)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        transform = gens.random_solvable_relation(rng, n).cayley()
        assert transform.mul_dim() == 0
        assert operator_part(transform)[0].shape == (n, transform.graph_dim)


def test_form_a1_selfadjoint_case():
    rel = graph(np.diag([2.0, -3.0]))
    data = form_a1(rel)
    cls = classify(rel)
    assert data.negatives == cls.form_negativity == 1


def test_form_a1_detects_cayley_singularity():
    # an eigenvalue at exactly -1 kills a negative square of the projected
    # form, so the minimal-index extension set is empty
    rel = graph(np.diag([2.0, -1.0]))
    assert classify(rel).form_negativity == 1
    assert form_a1(rel).negatives == 0
    with pytest.raises(NotSolvable):
        friedrichs_krein(rel)


def test_form_a1_partial_case():
    rel = LinearRelation.from_generators(
        np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[1.0, 0.0], [0.0, 1.0]])
    )
    assert form_a1(rel).negatives == 0


def test_form_a1_projected_versus_plain():
    # a negative restriction with a coupled defect direction: the projected
    # form may lose negativity relative to the plain one
    rng = np.random.default_rng(53)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        rel_sa = gens.random_selfadjoint_relation(rng, n, mul_dim=int(rng.integers(0, 2)))
        d = int(rng.integers(0, rel_sa.graph_dim + 1))
        rel = LinearRelation(n, rel_sa.basis @ gens.random_orthogonal(rng, rel_sa.graph_dim)[:, :d])
        cls = classify(rel)
        assert cls.symmetric
        assert form_a1(rel).negatives <= cls.form_negativity


def test_form_identities_at_tight_tolerance():
    # the identities linking the forms to the transform side hold to 1e-10
    # on random symmetric relations, measured directly on graph elements,
    # and the first also on the diagonal of the Gram form_a1 returns
    rng = np.random.default_rng(63)
    from kreinkit.spectral import orthonormal_columns, projector

    for _ in range(100):
        n = int(rng.integers(1, 6))
        rel_sa = gens.random_selfadjoint_relation(rng, n, mul_dim=int(rng.integers(0, 2)))
        d = int(rng.integers(0, rel_sa.graph_dim + 1))
        coeff = gens.random_orthogonal(rng, rel_sa.graph_dim)[:, :d]
        rel = LinearRelation(n, rel_sa.basis @ coeff)
        f, fp = rel.first, rel.second
        sums = f + fp
        p1 = projector(orthonormal_columns(sums))
        gram = form_a1(rel).gram
        for i in range(rel.graph_dim):
            g = sums[:, i]
            h = f[:, i] - fp[:, i]
            a1_val = float(f[:, i] @ (p1 @ fp[:, i]))
            a_val = float(f[:, i] @ fp[:, i])
            assert abs(4.0 * a1_val - (g @ g - (p1 @ h) @ (p1 @ h))) <= 1e-10
            assert abs(4.0 * gram[i, i] - (g @ g - (p1 @ h) @ (p1 @ h))) <= 1e-10
            assert abs(4.0 * a_val - (g @ g - h @ h)) <= 1e-10
            p2f = f[:, i] - p1 @ f[:, i]
            p2h = h - p1 @ h
            assert abs(p2h @ p2h - 4.0 * (p2f @ p2f)) <= 1e-10


def test_friedrichs_krein_worked_example():
    a_f, a_k = friedrichs_krein(PARTIAL_IDENTITY)
    assert a_k.same_as(graph(np.diag([1.0, 0.0])))
    expected_af = LinearRelation.from_generators(
        np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[1.0, 0.0], [0.0, 1.0]])
    )
    assert a_f.same_as(expected_af)
    assert subspace_distance(a_f.mul_basis(), np.eye(2)[:, 1:]) <= 1e-9


def test_friedrichs_krein_selfadjoint_input():
    rel = graph(np.diag([2.0, -3.0]))
    a_f, a_k = friedrichs_krein(rel)
    assert a_f.same_as(rel) and a_k.same_as(rel)


def test_friedrichs_krein_nonnegative_case():
    rng = np.random.default_rng(54)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        d = int(rng.integers(1, n))
        m = gens.random_psd(rng, n)
        u = gens.random_orthogonal(rng, n)[:, :d]
        rel = LinearRelation.from_generators(u, m @ u)
        a_f, a_k = friedrichs_krein(rel)
        assert relation_inertia(a_f).i_minus == 0
        assert relation_inertia(a_k).i_minus == 0
        assert relation_leq(a_k, a_f)


def test_friedrichs_krein_not_solvable():
    # a one-dimensional restriction that loses a negative square
    rel = LinearRelation.from_generators(
        np.array([[1.0], [0.0]]), np.array([[-1.0], [1.0]])
    )
    cls = classify(rel)
    assert cls.symmetric and cls.form_negativity == 1
    assert form_a1(rel).negatives == 0
    with pytest.raises(NotSolvable):
        friedrichs_krein(rel)


def test_relation_leq_examples():
    assert relation_leq(graph(np.zeros((2, 2))), graph(np.eye(2)))
    assert relation_leq(graph(np.diag([1.0, -1.0])), graph(np.diag([2.0, -0.5])))
    a_f, a_k = friedrichs_krein(PARTIAL_IDENTITY)
    assert relation_leq(a_k, a_f)


def test_resolvent_matrix():
    rel = graph(np.diag([1.0, 3.0]))
    r = resolvent_matrix(rel, 0.0)
    assert np.allclose(r, np.diag([1.0, 1.0 / 3.0]))
    with pytest.raises(ShiftNotAdmissible):
        resolvent_matrix(rel, 2.0)


def test_resolvent_shift_bound_does_not_grow_with_the_largest_eigenvalue():
    # the operator part of verify's seed 480 case, -5.47 beside 3.0e9, on the
    # Cayley route, and with 4.6e9, whose graph singular value 2.2e-10 lies
    # within the guard of the cutoff 2e-10 (the graph route); the shift 0.01
    # below the minimum is admissible on both, although a bound zero (1 + |M|)
    # of 0.3 or 0.46 would refuse it
    tol = resolve(None)
    rng = np.random.default_rng(66)
    for top, cayley_route in ((3.02342997e9, True), (4.6e9, False)):
        lams = np.array([-5.46512722, top])
        rel = _from_spectrum(rng, gens.random_orthogonal(rng, 2), lams, np.eye(2), 0)
        assert (relations._cayley_spectrum(rel, tol) is not None) == cayley_route
        assert relations._operator_minimum(rel, tol) == pytest.approx(lams[0], rel=1e-12)
        assert 0.01 < tol.zero * (1.0 + top)
        a = lams[0] - 0.01
        expected = _reference_resolvent(rel, a, tol, bound=0.0)
        got = resolvent_matrix(rel, a)
        assert norm2(got - expected) <= tol.residual * (1.0 + norm2(expected))
        assert norm2(got) == pytest.approx(100.0, rel=1e-6)
        with pytest.raises(ShiftNotAdmissible):
            resolvent_matrix(rel, lams[0])


def _from_spectrum(rng, q, lams, w, mul):
    """A selfadjoint relation on ``R^n`` from its spectral data, on a rotated orthonormal graph basis.

    The operator part is ``U W diag(lams) W^T U^T`` on the domain ``U = q[:, :d]``
    (``d = len(lams)``) and ``mul`` multivalued directions span ``q[:, d:]``.  The graph
    elements over the eigenvectors are normalized before they are stacked, so an
    eigenvalue of 1e9 costs no accuracy in the basis.
    """
    n, d = q.shape[0], lams.size
    c = 1.0 / np.hypot(1.0, lams)
    u = q[:, :d] @ w
    basis = np.block([[u * c, np.zeros((n, mul))], [u * (lams * c), q[:, d:]]])
    return LinearRelation(n, basis @ gens.random_orthogonal(rng, n))


def _reference_minimum(rel, tol):
    """The operator part's minimum as the graph route read it before: one ``eigh`` of
    ``sym(U^T W)`` off the graph SVD.  Returns ``(minimum, |M|)``, ``(inf, 0)`` on an empty domain."""
    u, images = operator_part(rel, tol)
    spec = spectral.spectral_decompose(symmetrize(u.T @ images), tol)
    return (float(spec.eigenvalues[0]), spec.norm) if u.shape[1] else (np.inf, 0.0)


def _reference_resolvent(rel, a, tol, bound=None):
    """The resolvent as the graph route built it before: ``U (M - a)^{-1} U^T`` by a solve, the
    shift refused when ``w_0 - a <= zero (1 + |M|)`` (or ``bound`` when given)."""
    u, images = operator_part(rel, tol)
    d = u.shape[1]
    if d == 0:
        return np.zeros((rel.space_dim, rel.space_dim))
    m = symmetrize(u.T @ images)
    w0, norm = _reference_minimum(rel, tol)
    if w0 - a <= (tol.zero * (1.0 + norm) if bound is None else bound):
        raise ShiftNotAdmissible(f"shift {a} does not stay below {w0}")
    return symmetrize(u @ np.linalg.solve(m - a * np.eye(d), np.eye(d)) @ u.T)


def _reference_leq(h1, h2, tol):
    """The resolvent order as it was decided before, with ``0 <= R2`` tested."""
    finite = [w for w in (_reference_minimum(h, tol)[0] for h in (h1, h2)) if np.isfinite(w)]
    a = (min(finite) if finite else 0.0) - 1.0
    r1, r2 = _reference_resolvent(h1, a, tol), _reference_resolvent(h2, a, tol)
    return spectral.loewner_leq(np.zeros_like(r2), r2, tol) and spectral.loewner_leq(r2, r1, tol)


def _agreement_relation(rng, n, kind, tol):
    """A selfadjoint relation of one of five kinds: a random operator part (0), one with the
    eigenvalue -1, so that the Cayley transform is multivalued (1), one near a multivalued
    direction, up to 1e9 (2), one whose graph singular value lies within the guard of the
    cutoff (3), or one with an eigenvalue near -1, so that the transform is large (4).

    The near-multivalued eigenvalue of kind 2 is never the minimum: a basis known to eps
    fixes an eigenvalue ``lambda`` only to about ``eps lambda^2``, 2 at 1e8."""
    if kind == 2 and n == 1:
        kind = 0
    mul = int(rng.integers(0, min(n, 2) + 1)) if kind == 0 else int(rng.integers(0, n - (kind == 2)))
    d = n - mul
    lams = rng.standard_normal(d) * 10.0 ** rng.uniform(-1.0, 1.0)
    if kind == 1:
        lams[0] = -1.0
    elif kind == 2:
        lams[0] = 10.0 ** rng.uniform(6.0, 9.0)
    elif kind == 3:
        sigma = tol.zero * n + rng.uniform(-0.5, 0.5) * spectral._GUARD
        lams[0] = np.sqrt(1.0 / sigma ** 2 - 1.0)
    elif kind == 4:
        lams[0] = -1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6.0, -3.0)
    return _from_spectrum(rng, gens.random_orthogonal(rng, n), lams, gens.random_orthogonal(rng, d), mul)


def _ordered_pair(rng, n):
    """Selfadjoint ``h1 <= h2`` (or, with an inertia mismatch, still ordered) sharing their
    multivalued part, with a near-multivalued direction added to both at times."""
    mul = int(rng.integers(0, min(n - 1, 2) + 1))
    d = n - mul
    big = d > 1 and bool(rng.integers(0, 2))
    a1, a2 = gens.random_ordered_matrix_pair(rng, d - big, bool(rng.integers(0, 2)))
    q = gens.random_orthogonal(rng, n)
    pair = []
    for a, top in ((a1, 1e8), (a2, 2e8)):
        lams, w = np.linalg.eigh(a)
        if big:
            lams, w = np.append(lams, top), np.block([[w, np.zeros((d - 1, 1))], [np.zeros((1, d - 1)), 1.0]])
        pair.append(_from_spectrum(rng, q, lams, w, mul))
    return pair


def test_cayley_route_agrees_with_the_graph_route():
    # the operator part's minimum, the resolvent at three admissible shifts
    # and the order verdicts, against the graph route copied above
    tol = resolve(None)
    rng = np.random.default_rng(67)
    sizes = [int(rng.integers(1, 9)) for _ in range(1000)] + [60] * 20
    rels, routes = [], Counter()
    for i, n in enumerate(sizes):
        kind = i % 5
        rel = _agreement_relation(rng, n, kind, tol)
        spectrum = relations._cayley_spectrum(rel, tol)
        cayley_route = spectrum is not None
        routes[kind, cayley_route] += 1
        if kind in (1, 3) and n - rel.mul_dim(tol) > 0:
            assert not cayley_route
        if cayley_route:
            # the certified mask is the graph SVD's rank decision
            assert np.count_nonzero(~spectrum[2]) == rel.mul_dim(tol)
        w0, norm = _reference_minimum(rel, tol)
        got = relations._operator_minimum(rel, tol)
        assert got == w0 or abs(got - w0) <= tol.residual * (1.0 + norm)
        if np.isfinite(w0):
            # shifts at the minimum's own scale: an orthonormal basis known to
            # eps fixes an eigenvalue lambda only to about eps lambda^2
            for gap in (2.0, 5.0, 20.0):
                a = w0 - gap * (1.0 + abs(w0))
                expected = _reference_resolvent(rel, a, tol)
                r = resolvent_matrix(rel, a, tol)
                assert norm2(r - expected) <= tol.residual * (1.0 + norm2(expected))
        rels.append(rel)
    # a near-multivalued direction stays on the Cayley route unless another
    # eigenvalue nears -1 and widens the guard with |T|
    assert routes[2, True] >= 0.9 * len(sizes) / 5 and routes[1, False] + routes[3, False] >= 300
    assert sum(routes[kind, True] for kind in (0, 2, 4)) >= 500
    pairs = [_ordered_pair(rng, int(rng.integers(1, 9))) for _ in range(300)]
    pairs += [_ordered_pair(rng, 60) for _ in range(5)]
    pairs += [(h1, h2) for h1, h2 in zip(rels, rels[1:]) if h1.space_dim == h2.space_dim]
    pairs += [(h, LinearRelation(h.space_dim, h.basis)) for h in rels[:200]]
    verdicts = set()
    for h1, h2 in pairs:
        for a, b in ((h1, h2), (h2, h1)):
            verdict = relation_leq(a, b, tol)
            assert verdict == _reference_leq(a, b, tol)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def _from_cayley_spectrum(rng, mus):
    """The selfadjoint relation whose Cayley transform has the eigenvalues ``mus`` (``inf``
    where the transform is multivalued) on random eigenvectors, on a rotated graph basis.

    Over an eigenvector the graph holds ``(1 + mu, 1 - mu) / sqrt(2 (1 + mu^2))``, and
    ``(1, -1) / sqrt(2)`` where ``mu`` is infinite: the relation has the eigenvalue -1 there."""
    n = mus.size
    finite = np.isfinite(mus)
    safe = np.where(finite, mus, 0.0)
    c = np.where(finite, 1.0 / (np.sqrt(2.0) * np.hypot(1.0, safe)), 0.0)
    top = np.where(finite, (1.0 + safe) * c, np.sqrt(0.5))
    bottom = np.where(finite, (1.0 - safe) * c, -np.sqrt(0.5))
    p = gens.random_orthogonal(rng, n)
    basis = np.vstack([p * top, p * bottom]) @ gens.random_orthogonal(rng, n)
    return LinearRelation(n, basis)


def _cayley_kind(rng, n, kind, tol):
    """Cayley eigenvalues of one of five kinds: random (0), some pinned at -1, so that the
    relation is multivalued (1), some near +1 or -1 (2), ``|T|_F`` on either side of the
    solve's certificate (3), or some infinite or nearly so, so that ``X`` is singular or
    nearly so (4)."""
    mus = rng.standard_normal(n) * 10.0 ** rng.uniform(-1.0, 1.0)
    k = int(rng.integers(1, min(n, 2) + 1))
    if kind == 1:
        mus[:k] = -1.0
    elif kind == 2:
        mus[:k] = rng.choice([-1.0, 1.0], k) + rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(-12.0, -3.0, k)
    elif kind == 3:
        # the Frobenius norm at which the solve's error bound 3 n u f sqrt(1 + f^2) meets half the guard
        limit = np.sqrt(spectral._GUARD / (6.0 * n * 2.0 ** -52))
        mus = mus / np.linalg.norm(mus) * limit * rng.uniform(0.8, 1.25)
    elif kind == 4:
        mus[:k] = np.inf if rng.integers(0, 2) else 1.0 / (rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-16.0, -8.0))
    return mus


def _outcome(fn, *args):
    try:
        return fn(*args)
    except KreinkitError as exc:
        return type(exc)


def _route_data(h, rel, other, c, tol):
    """What each route decides on ``h``: its transform, spectrum, inertia, the interval
    membership over the restriction ``rel`` and the order against ``h + c`` and ``other``."""
    spectrum = relations._cayley_spectrum(h, tol)
    above = h.shift(c)
    return {
        "t": relations._cayley_matrix(h, tol),
        "mask": None if spectrum is None else spectrum[2],
        "inertia": relation_inertia(h, tol),
        "member": _outcome(ext_membership, rel, h, tol),
        "order": [_outcome(relation_leq, a, b, tol) for a, b in ((h, above), (above, h), (h, other), (other, h))],
    }


def test_solved_transform_agrees_with_the_graph_svd(monkeypatch):
    # the transform solved from the Cayley image against the same relations on
    # the forced graph-SVD route: T to residual, the domain mask, the inertia and
    # the membership and order verdicts
    tol = resolve(None)
    rng = np.random.default_rng(68)
    sizes = [int(rng.integers(1, 9)) for _ in range(540)] + [int(rng.integers(9, 61)) for _ in range(50)] + [60] * 10
    previous, routes, verdicts, multivalued = {}, Counter(), Counter(), 0

    def fresh(r):
        return LinearRelation(r.space_dim, r.basis)

    for i, n in enumerate(sizes):
        kind = i % 5
        h = _from_cayley_spectrum(rng, _cayley_kind(rng, n, kind, tol))
        rel = LinearRelation(n, h.basis @ gens.random_orthogonal(rng, n)[:, : int(rng.integers(0, n))])
        # shifts at the minimum's own scale: an eigenvalue lambda near a
        # multivalued direction is fixed only to about u lambda^2
        w0 = relations._operator_minimum(h, tol)
        c = 0.5 * (1.0 + abs(w0)) if np.isfinite(w0) else 0.5
        other = previous[n] if n in previous else h.shift(-c)
        previous[n] = h
        got = _route_data(h, rel, other, c, tol)
        solved = ("graph_svd", None) not in h.cayley()._memo
        routes[kind, solved] += 1
        with monkeypatch.context() as m:
            m.setattr(relations, "_solved_graph", lambda t, tol, size: False)
            want = _route_data(fresh(h), fresh(rel), fresh(other), c, tol)
        if want["t"] is None:
            assert got["t"] is None and not solved
            multivalued += 1
        else:
            assert norm2(got["t"] - want["t"]) <= tol.residual * (1.0 + norm2(want["t"]))
        if got["mask"] is not None or want["mask"] is not None:
            assert np.array_equal(got["mask"], want["mask"])
            assert np.count_nonzero(~got["mask"]) == h.mul_dim(tol)
        # and both against the graph form's own count and the graph SVD
        form = spectral.inertia_of(symmetrize(h.first.T @ h.second), tol, 1.0)
        assert got["inertia"] == want["inertia"]
        assert (got["inertia"].i_plus, got["inertia"].i_minus, got["inertia"].i_inf) == (
            form.n_plus, form.n_minus, h.mul_dim(tol))
        assert got["member"] == want["member"] and got["order"] == want["order"]
        verdicts.update(v for v in [got["member"], *got["order"]] if isinstance(v, bool))
    # the solve is certified on most relations and falls back past the certificate;
    # a singular X always falls back
    assert sum(routes[kind, True] for kind in (0, 1, 2)) >= 0.9 * 3 * len(sizes) / 5
    assert routes[3, True] >= 20 and routes[3, False] >= 20
    assert routes[4, False] >= 0.9 * len(sizes) / 5 and multivalued >= 50
    assert verdicts[True] >= 100 and verdicts[False] >= 100


def test_relation_order_shift_invariance():
    # the resolvent-order verdict must not depend on the admissible shift
    rng = np.random.default_rng(59)
    from kreinkit.relations import _operator_minimum
    from kreinkit.spectral import loewner_leq

    for _ in range(30):
        n = int(rng.integers(1, 5))
        mul_dim = int(rng.integers(0, 2))
        h1_mat, h2_mat = gens.random_ordered_matrix_pair(rng, n, bool(rng.integers(0, 2)))
        dim = n + mul_dim
        basis = gens.random_orthogonal(rng, dim)
        u, u_mul = basis[:, :n], basis[:, n:]
        pad = np.zeros((dim, mul_dim))
        rel1 = LinearRelation.from_generators(np.hstack([u, pad]), np.hstack([u @ h1_mat, u_mul]))
        rel2 = LinearRelation.from_generators(np.hstack([u, pad]), np.hstack([u @ h2_mat, u_mul]))
        reference = relation_leq(rel1, rel2)
        bottom = min(_operator_minimum(rel1, None), _operator_minimum(rel2, None))
        for offset in (0.5, 2.0, 10.0):
            a = bottom - offset
            r1 = resolvent_matrix(rel1, a)
            r2 = resolvent_matrix(rel2, a)
            verdict = loewner_leq(np.zeros_like(r2), r2) and loewner_leq(r2, r1)
            assert verdict == reference


def test_ext_membership_sweep():
    a_f, a_k = friedrichs_krein(PARTIAL_IDENTITY)
    for t in (-5.0, -1.0, -0.2):
        assert not ext_membership(PARTIAL_IDENTITY, graph(np.diag([1.0, t])))
    for t in (0.0, 0.5, 3.0):
        assert ext_membership(PARTIAL_IDENTITY, graph(np.diag([1.0, t])))
    assert ext_membership(PARTIAL_IDENTITY, a_f)
    assert ext_membership(PARTIAL_IDENTITY, a_k)
    with pytest.raises(NotAnExtension):
        ext_membership(PARTIAL_IDENTITY, graph(np.diag([2.0, 0.0])))


def test_membership_triple_agreement():
    rng = np.random.default_rng(55)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        rel = gens.random_solvable_relation(rng, n)
        a_f, a_k = friedrichs_krein(rel)
        # the extremes extend the relation at its own minimal index
        kappa = form_a1(rel).negatives
        for candidate in (a_f, a_k):
            assert candidate.contains(rel)
            assert ext_membership(rel, candidate)
            assert relation_leq(a_k, candidate) and relation_leq(candidate, a_f)
            assert relation_inertia(candidate).i_minus == kappa


def test_resolvent_interval_examples():
    rng = np.random.default_rng(56)
    n = 3
    m = gens.random_psd(rng, n)
    u = gens.random_orthogonal(rng, n)[:, :2]
    rel = LinearRelation.from_generators(u, m @ u)
    a_f, a_k = friedrichs_krein(rel)
    assert resolvent_interval_check(rel, a_f, 1.0)
    assert resolvent_interval_check(rel, a_k, 1.0)
    with pytest.raises(ShiftNotAdmissible):
        resolvent_interval_check(rel, a_k, -100.0)


def test_inverse_duality_examples():
    assert inverse_duality_check(PARTIAL_IDENTITY)
    assert inverse_duality_check(graph(np.diag([2.0, -3.0])))
    rng = np.random.default_rng(57)
    for _ in range(10):
        rel = gens.random_solvable_relation(rng, int(rng.integers(2, 5)))
        assert inverse_duality_check(rel)


def test_antitonicity_matrix_examples():
    assert antitonicity_check(np.diag([1.0, -1.0]), np.diag([2.0, -0.5]), "matrix")
    assert antitonicity_check(np.diag([1.0, 1.0]), np.diag([2.0, 2.0]), "matrix")
    # ordered with different inertias: the inverse order must fail
    assert not antitonicity_check(np.array([[-1.0]]), np.array([[1.0]]), "matrix")
    with pytest.raises(PreconditionViolated):
        antitonicity_check(np.eye(2), np.zeros((2, 2)) - np.eye(2), "matrix")


def test_antitonicity_relation_mode():
    h1 = graph(np.array([[-1.0]]))
    h2 = graph(np.array([[1.0]]))
    assert not antitonicity_check(h1, h2, "relation")
    assert antitonicity_check(graph(np.eye(2)), graph(2.0 * np.eye(2)), "relation")


def test_krein_uniqueness_relation_examples():
    assert krein_uniqueness_relation(graph(np.diag([2.0, -3.0])))
    assert not krein_uniqueness_relation(PARTIAL_IDENTITY)
    rng = np.random.default_rng(58)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        d = int(rng.integers((n + 1) // 2, n + 1))
        rel = gens.random_solvable_relation(rng, n, dom_dim=d, unique=True)
        assert krein_uniqueness_relation(rel)
        a_f, a_k = friedrichs_krein(rel)
        assert a_f.same_as(a_k)


def _verify_relations_failures(capsys):
    """Names of the checks ``kreinkit verify --suite relations`` reports failing."""
    assert main(["verify", "--suite", "relations", "--seed", "3", "--cases", "20"]) == 1
    return {line.split()[1] for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")}


def test_verify_names_the_check_a_negated_transform_coupling_fails(monkeypatch, capsys):
    # the uniqueness verdict and the extremes' agreement do not see the sign
    # of t21; the translation identities compare it with the resolvent
    original = relations._cayley_column

    def negated(rel, tol):
        u1, u2, t11, t21 = original(rel, tol)
        return u1, u2, t11, -t21

    monkeypatch.setattr(relations, "_cayley_column", negated)
    assert "relations.uniqueness_agreement" in _verify_relations_failures(capsys)


def test_verify_names_the_check_extremes_off_the_relation_fail(monkeypatch, capsys):
    # shifted extremes are still selfadjoint but no longer extend the relation
    def shifted(rel, tol=None):
        return tuple(ext.shift(1.0, tol) for ext in friedrichs_krein(rel, tol))

    monkeypatch.setattr(verify, "friedrichs_krein", shifted)
    assert "relations.extension_interval" in _verify_relations_failures(capsys)


def test_verify_names_the_check_a_corrupted_form_projector_fails(monkeypatch, capsys):
    # a scaled projector keeps the form's negative count, so within the
    # check only the identities tying the Gram to the Cayley side see it
    monkeypatch.setattr(relations, "projector", lambda q: 0.9 * spectral.projector(q))
    assert "relations.boundary_form" in _verify_relations_failures(capsys)
