"""Each symmetric matrix and each relation graph is decomposed once per operation.

The counts pin how many ``numpy.linalg.eigh`` and ``numpy.linalg.svd``
calls one call of each operation makes on a fixed small instance.  Every
spectral quantity of a matrix (inertia, signature, powers, pseudo-inverse
powers, projectors) is read off one eigendecomposition, and a relation's
domain, multivalued part and operator part off one SVD of its graph, so a
rise here means something is decomposed again.  What a block or relation
has computed once is kept on it, so a query against an instance queried
before pays only for its candidate; the fresh-instance counts build every
instance anew.  A norm compared with a bound is settled from Frobenius
bounds where they suffice, so queries on kept instances also pin the
spectral norms taken by SVD (``numpy.linalg.norm`` with ``ord=2``).
"""

import json
from collections import Counter

import numpy as np
import pytest

from kreinkit import gens, jsonio
from kreinkit.cli import main
from kreinkit.completion import IncompleteBlock, is_solution, minimal_completion, schur_inertia
from kreinkit.factor import JSpace
from kreinkit.lifting import defect_data, extract_lift_parameters, lift
from kreinkit.quasicontraction import SymmetricColumn, extremal_extensions, is_member, split_counts
from kreinkit.relations import (
    LinearRelation,
    ext_membership,
    form_a1,
    friedrichs_krein,
    krein_uniqueness_relation,
    operator_part,
    relation_inertia,
    relation_leq,
)
from kreinkit.spectral import SpectralDecomposition, inertia_of, loewner_leq, negativity, symmetrize
from kreinkit.tolerances import ToleranceProfile

T = np.array([[0.5, 0.2], [0.1, 1.3]])
COLUMN = SymmetricColumn(np.diag([0.5, 2.0]), np.array([[0.3, 0.0]]))


def block():
    """Built fresh for each count, so no memoized completion carries over."""
    return IncompleteBlock(np.diag([2.0, -1.0, 0.5]), np.array([[1.0, 0.0], [1.0, 2.0], [0.0, 1.0]]))


def relation():
    """x' = x on the first coordinate, nothing on the second: a symmetric
    restriction whose two extreme extensions differ.  Built fresh for each
    count, so nothing memoized carries over between counts."""
    return LinearRelation.from_generators(np.array([[1.0], [0.0]]), np.array([[1.0], [0.0]]))


class StoreCounter(dict):
    """A relation's memo that counts the values stored under each quantity."""

    def __init__(self):
        super().__init__()
        self.stores = Counter()

    def __setitem__(self, key, value):
        self.stores[key[0]] += 1
        super().__setitem__(key, value)


def _counting(monkeypatch, name, calls=None):
    calls = [] if calls is None else calls
    original = getattr(np.linalg, name)

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


@pytest.fixture
def eigh_calls(monkeypatch):
    return _counting(monkeypatch, "eigh")


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    return _counting(monkeypatch, "eigvalsh")


@pytest.fixture
def decompositions(monkeypatch):
    """Symmetric eigensolves of either kind: ``eigh`` and ``eigvalsh`` together."""
    return _counting(monkeypatch, "eigh", _counting(monkeypatch, "eigvalsh"))


@pytest.fixture
def cholesky_calls(monkeypatch):
    return _counting(monkeypatch, "cholesky")


@pytest.fixture
def svd_calls(monkeypatch):
    return _counting(monkeypatch, "svd")


@pytest.fixture
def norm2_calls(monkeypatch):
    """Spectral norms taken by SVD: ``numpy.linalg.norm`` with ``ord=2``."""
    calls = []
    original = np.linalg.norm

    def counting(x, ord=None, *args, **kwargs):
        if ord == 2:
            calls.append(np.shape(x))
        return original(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting)
    return calls


def _count(calls, fn, *args):
    calls.clear()
    fn(*args)
    return len(calls)


def test_completion_decomposes_a11_once(eigh_calls, decompositions):
    assert _count(eigh_calls, minimal_completion, block()) == 1
    corner = minimal_completion(block()).a22_min + np.eye(2)
    assert _count(eigh_calls, is_solution, block(), corner) == 1
    # a block completed before pays only for the candidate corner
    blk = block()
    minimal_completion(blk)
    assert _count(eigh_calls, is_solution, blk, corner) == 0
    # the corner's inertia is a count, off eigvalsh
    assert _count(decompositions, schur_inertia, blk, corner) == 1


def test_defect_data_decomposes_each_defect_form_once(eigh_calls):
    j1 = JSpace.from_matrix(np.diag([1.0, -1.0]))
    assert _count(eigh_calls, defect_data, T, j1, JSpace.identity(2)) == 2


def test_split_counts_decomposes_t_once(decompositions):
    # I + T, I - T and I - T^2 are read off one spectrum of T
    assert _count(decompositions, split_counts, T + T.T) == 1


def test_extremal_extensions_decomposes_the_head_defect_once(eigh_calls, eigvalsh_calls, norm2_calls):
    # one eigh of T11 and one count of I - T1^T T1, off eigvalsh; nothing of
    # the extremes' size, whose split counts verify and the tests assert, and
    # the floor (1 + |T1|)^2 is bracketed from |T1|_F
    extremal_extensions(COLUMN)
    assert eigh_calls == [(2, 2)] and eigvalsh_calls == [(2, 2)]
    assert _count(norm2_calls, extremal_extensions, COLUMN) == 0


def test_counts_read_eigenvalues_only(eigh_calls):
    a = np.diag([2.0, -1.0, 0.0])
    assert _count(eigh_calls, negativity, a) == 0
    assert _count(eigh_calls, inertia_of, a) == 0
    assert _count(eigh_calls, split_counts, T + T.T) == 0


def test_defect_floors_take_no_svd_norm(norm2_calls):
    j1 = JSpace.from_matrix(np.diag([1.0, -1.0]))
    assert _count(norm2_calls, defect_data, T, j1, JSpace.identity(2)) == 0
    blk = block()
    corner = minimal_completion(blk).a22_min + np.eye(2)
    # the corner floor 1 + |a22| + |a22_min| of a block completed before
    assert _count(norm2_calls, schur_inertia, blk, corner) == 0


def test_lifting_indices_decompose_nothing_of_the_lifting_size(
    eigh_calls, eigvalsh_calls, cholesky_calls, norm2_calls
):
    rng = np.random.default_rng(4)
    instance = None
    while instance is None:
        instance = gens.random_lift_instance(rng, 4, 3, 2, 1)
    d, params, j1p, j2p = instance
    lifted = lift(d, params, j1p, j2p)
    assert lifted.shape == (4, 6)
    # the base is 3 x 4, so its defect forms are 4 x 4 and 3 x 3, and the
    # lifting's extended defect forms are 6 x 6 and 4 x 4
    base_or_lifting = {(3, 3), (4, 4), (6, 6)}
    for fn, args in ((lift, (d, params, j1p, j2p)), (extract_lift_parameters, (lifted, d, j1p, j2p))):
        for calls in (eigh_calls, eigvalsh_calls, cholesky_calls, norm2_calls):
            calls.clear()
        fn(*args)
        # only the two parameter defect forms, 2 x 2 and 1 x 1, are decomposed
        assert sorted(eigh_calls) == [(1, 1), (2, 2)]
        # the parameter gate factors only the exit-sized J-contractivity grams
        assert cholesky_calls and not base_or_lifting & set(cholesky_calls + eigvalsh_calls)
        assert lifted.shape not in norm2_calls


@pytest.fixture
def compose_sizes(monkeypatch):
    """Sizes of the matrices ``SpectralDecomposition._compose`` builds."""
    sizes = []
    original = SpectralDecomposition._compose

    def recording(self, values):
        sizes.append(values.size)
        return original(self, values)

    monkeypatch.setattr(SpectralDecomposition, "_compose", recording)
    return sizes


def _desk_lift_instance():
    rng = np.random.default_rng(2)
    while (instance := gens.random_lift_instance(rng, 250, 250, 20, 20)) is None:
        pass
    return instance


def test_desk_liftings_compose_and_factor_nothing_of_the_base_size(
    compose_sizes, eigh_calls, eigvalsh_calls, cholesky_calls, svd_calls
):
    d, params, j1p, j2p = _desk_lift_instance()
    factored = (eigh_calls, eigvalsh_calls, cholesky_calls, svd_calls)

    def run(fn, *args):
        for calls in (compose_sizes, *factored):
            calls.clear()
        return fn(*args)

    def nothing_of_the_base_size():
        return max(compose_sizes, default=0) < 250 and all(
            max(shape) < 250 for calls in factored for shape in calls
        )

    data = run(defect_data, d.t, d.j1, d.j2)
    # the two defect forms' eigh, and no operator composed off them
    assert eigh_calls == [(250, 250), (250, 250)] and not compose_sizes
    lifted = run(lift, data, params, j1p, j2p)
    assert nothing_of_the_base_size()
    run(extract_lift_parameters, lifted, data, j1p, j2p)
    assert nothing_of_the_base_size()
    # none of the six defect operators was composed on that path
    assert not {"d_t", "d_tstar", "jt", "jtstar", "l_t", "l_tstar"} & set(vars(data))


def test_desk_completion_composes_nothing_of_the_block_size(compose_sizes):
    blk = gens.random_completable_block(np.random.default_rng(3), 250, 250, 3, 1)
    compose_sizes.clear()
    sol = minimal_completion(blk)
    assert not compose_sizes and sol.kappa == 3
    # the signature is composed when first read, and only then
    sol.j
    sol.j
    assert compose_sizes == [250]


def _write_documents(tmp_path, **docs):
    paths = []
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    return paths


def test_extremes_command_builds_the_pair_once(decompositions, tmp_path, capsys):
    paths = _write_documents(
        tmp_path, t11=jsonio.matrix_document(COLUMN.t11), t21=jsonio.matrix_document(COLUMN.t21)
    )
    decompositions.clear()
    assert main(["extremes", *paths]) == 0
    assert len(decompositions) == 2
    assert json.loads(capsys.readouterr().out)["unique"] is False


def test_extensions_command_decomposes_no_matrix_twice(monkeypatch, tmp_path, capsys):
    decomposed = []
    original = np.linalg.eigh

    def recording(a, *args, **kwargs):
        arr = np.asarray(a)
        decomposed.append((arr.shape, arr.tobytes()))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    (path,) = _write_documents(tmp_path, rel=jsonio.relation_document(relation()))
    for ext in friedrichs_krein(jsonio.load_relation(path)):
        relation_inertia(ext)
    building = Counter(decomposed)
    decomposed.clear()
    assert main(["extensions", path]) == 0
    assert json.loads(capsys.readouterr().out)["kappa"] == 0
    # the report counts each extreme once, so the command decomposes exactly
    # what building the pair and counting both extremes does
    assert Counter(decomposed) == building


def test_relation_pipelines_share_the_column_spectrum(eigh_calls):
    assert _count(eigh_calls, friedrichs_krein, relation()) <= 10
    _, a_k = friedrichs_krein(relation())
    assert _count(eigh_calls, ext_membership, relation(), a_k) <= 9


def test_fresh_extremes_are_not_counted_by_friedrichs_krein(eigh_calls):
    # verify and the tests count the extremes; building them counts neither
    for ext in friedrichs_krein(relation()):
        assert not {"relation_inertia", "_operator_spectrum"} & {key[0] for key in ext._memo}
        # counted once, an extreme keeps its inertia
        relation_inertia(ext)
        assert _count(eigh_calls, relation_inertia, ext) == 0


def test_relation_pipelines_factor_each_graph_once(svd_calls):
    # ran(I + A) off the kept Cayley graph's SVD, which the Cayley column
    # shares, and one SVD per extreme's graph
    assert _count(svd_calls, friedrichs_krein, relation()) == 3
    _, a_k = friedrichs_krein(relation())
    # on a fresh relation: its Cayley graph and the candidate's
    assert _count(svd_calls, ext_membership, relation(), a_k) == 2


def test_membership_after_the_extremes_pays_only_for_the_candidate(eigh_calls, svd_calls):
    rel = relation()
    _, a_k = friedrichs_krein(rel)
    candidate = LinearRelation(a_k.space_dim, a_k.basis)
    eigh_calls.clear()
    svd_calls.clear()
    assert ext_membership(rel, candidate)
    # the candidate's classification, and its Cayley graph's SVD; the
    # transform itself takes none
    assert len(eigh_calls) <= 1
    assert len(svd_calls) == 1


def test_projected_form_of_a_fresh_relation_takes_one_svd(svd_calls):
    # ran(I + A) is read off the Cayley graph's SVD, and the transform is
    # an orthogonal map of the graph basis
    assert _count(svd_calls, form_a1, relation()) == 1


def test_cayley_transform_makes_no_linalg_call(monkeypatch):
    calls = []
    for name in ("eigh", "eigvalsh", "svd", "qr", "lstsq", "solve", "cholesky", "norm", "inv", "pinv"):
        _counting(monkeypatch, name, calls)
    rng = np.random.default_rng(6)
    # operator graphs, multivalued relations and a zero-dimensional graph
    rels = [relation(), LinearRelation.from_generators(np.zeros((2, 2)), np.eye(2)), LinearRelation(3, np.zeros((6, 0)))]
    rels += [LinearRelation(3, gens.random_orthogonal(rng, 6)[:, :k]) for k in range(7)]
    calls.clear()
    for rel in rels:
        assert rel.cayley().graph_dim == rel.graph_dim
    assert calls == []


def test_relation_order_builds_each_operator_part_once(decompositions, cholesky_calls):
    # eigh for the operator parts; each Loewner test is one Cholesky
    h1 = LinearRelation.from_operator(np.diag([1.0, 2.0]))
    h2 = LinearRelation.from_operator(np.diag([1.5, 3.0]))
    h1._memo, h2._memo = StoreCounter(), StoreCounter()
    # the two classifications and one operator-part spectrum per relation
    assert _count(decompositions, relation_leq, h1, h2) == 4
    assert len(cholesky_calls) == 2
    assert [h._memo.stores["operator_part"] for h in (h1, h2)] == [1, 1]
    # asked again, only the Loewner tests of the resolvents run
    cholesky_calls.clear()
    assert _count(decompositions, relation_leq, h1, h2) == 0
    assert len(cholesky_calls) == 2
    assert [h._memo.stores["operator_part"] for h in (h1, h2)] == [1, 1]


def test_membership_on_a_kept_pair_factors_only_the_corner(eigh_calls, eigvalsh_calls, cholesky_calls, svd_calls):
    # every member shares the first block column, so the order tests run on
    # the n2 x n2 corners: 2 Cholesky factorizations of size 3, not of 9
    pair = extremal_extensions(gens.random_quasicontraction_column(np.random.default_rng(7), 6, 3))
    outside = pair.t_max.copy()
    outside[6:, 6:] += 0.4 * np.eye(3)
    for t, member in ((pair.t_min, True), ((pair.t_min + pair.t_max) / 2.0, True), (pair.t_max, True), (outside, False)):
        for calls in (eigh_calls, eigvalsh_calls, cholesky_calls, svd_calls):
            calls.clear()
        assert is_member(pair, t) == member
        assert set(cholesky_calls) == {(3, 3)} and not eigh_calls + eigvalsh_calls + svd_calls
        if member:
            assert len(cholesky_calls) == 2


def test_queries_on_kept_instances_take_no_eigvalsh(eigvalsh_calls):
    # an order test clear of its slack is settled by Cholesky
    blk = block()
    a22_min = minimal_completion(blk).a22_min
    for corner in (a22_min, a22_min + np.eye(2), a22_min - np.eye(2)):
        assert _count(eigvalsh_calls, is_solution, blk, corner) == 0
    pair = extremal_extensions(COLUMN)
    outside = pair.t_max.copy()
    outside[2:, 2:] += 0.4
    for t in (pair.t_min, (pair.t_min + pair.t_max) / 2.0, pair.t_max, outside):
        assert _count(eigvalsh_calls, is_member, pair, t) == 0


def test_membership_takes_only_the_candidates_classification_eigvalsh(eigvalsh_calls):
    # the two order tests of the Cayley transforms take none
    rel = relation()
    for ext in friedrichs_krein(rel):
        candidate = LinearRelation(ext.space_dim, ext.basis)
        assert _count(eigvalsh_calls, ext_membership, rel, candidate) == 1


def test_order_test_on_a_nonnegative_gap_takes_no_norm(norm2_calls):
    a = np.diag([1.0, -2.0, 0.5])
    assert _count(norm2_calls, loewner_leq, a, a + np.diag([0.0, 1.0, 3.0])) == 0
    # a gap far below the slack is refused from the Frobenius bounds
    assert _count(norm2_calls, loewner_leq, a, a - np.eye(3)) == 0


def test_queries_on_kept_instances_take_no_svd_norm(norm2_calls):
    # the kept a22_min, t_min/t_max and the candidates' residuals are
    # all compared through their Frobenius bounds
    blk = block()
    a22_min = minimal_completion(blk).a22_min
    for corner in (a22_min, a22_min + np.eye(2), a22_min - np.eye(2)):
        assert _count(norm2_calls, is_solution, blk, corner) == 0
    pair = extremal_extensions(COLUMN)
    outside = pair.t_max.copy()
    outside[2:, 2:] += 0.4
    for t in (pair.t_min, (pair.t_min + pair.t_max) / 2.0, pair.t_max, outside):
        assert _count(norm2_calls, is_member, pair, t) == 0
    rel = relation()
    for ext in friedrichs_krein(rel):
        candidate = LinearRelation(ext.space_dim, ext.basis)
        assert _count(norm2_calls, ext_membership, rel, candidate) == 0


@pytest.mark.parametrize(
    "rel", [relation(), LinearRelation.from_operator(np.diag([2.0, -3.0]))], ids=["partial", "selfadjoint"]
)
def test_uniqueness_after_the_extremes_makes_no_lapack_call(monkeypatch, norm2_calls, rel):
    # the relation keeps its minimal index and extension problem, and the
    # verdict I - V J V^T = 0 is settled from its Frobenius bounds
    calls = []
    for name in ("eigh", "eigvalsh", "svd", "lstsq", "solve", "cholesky"):
        _counting(monkeypatch, name, calls)
    friedrichs_krein(rel)
    calls.clear()
    norm2_calls.clear()
    krein_uniqueness_relation(rel)
    assert calls == [] and norm2_calls == []


def test_a_j_space_counts_its_negative_index_once(eigvalsh_calls):
    space, tol = JSpace.from_matrix(np.diag([1.0, -1.0, -1.0])), ToleranceProfile()
    assert _count(eigvalsh_calls, space.negativity, tol) == 1
    # asked again under the same profile, the space reads the kept count
    assert _count(eigvalsh_calls, space.negativity, tol) == 0
    assert space.negativity(tol) == 2


def test_member_triple_decomposes_each_operator_part_once(monkeypatch):
    decomposed = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def recording(a, *args, _original=original, **kwargs):
            decomposed.append(np.asarray(a).tobytes())
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    rel = relation()
    _, a_k = friedrichs_krein(rel)
    for ext in friedrichs_krein(rel):
        candidate = LinearRelation(ext.space_dim, ext.basis)
        decomposed.clear()
        # verify's member triple reads the candidate's operator part twice:
        # for the resolvent shift of the order and for its inertia
        relation_leq(a_k, candidate)
        relation_inertia(candidate)
        u, images = operator_part(candidate)
        assert Counter(decomposed)[symmetrize(u.T @ images).tobytes()] == 1
