"""Each symmetric matrix and each relation graph is decomposed once per operation.

The counts pin how many ``numpy.linalg.eigh`` and ``numpy.linalg.svd``
calls one call of each operation makes on a fixed small instance.  Every
spectral quantity of a matrix (inertia, signature, powers, pseudo-inverse
powers, projectors) is read off one eigendecomposition, and a relation's
domain, multivalued part and operator part off one SVD of its graph, so a
rise here means something is decomposed again.
"""

import json

import numpy as np
import pytest

from kreinkit import jsonio
from kreinkit.cli import main
from kreinkit.completion import IncompleteBlock, is_solution, minimal_completion
from kreinkit.factor import JSpace
from kreinkit.lifting import defect_data
from kreinkit.quasicontraction import SymmetricColumn, extremal_extensions
from kreinkit.relations import LinearRelation, ext_membership, friedrichs_krein

BLOCK = IncompleteBlock(np.diag([2.0, -1.0, 0.5]), np.array([[1.0, 0.0], [1.0, 2.0], [0.0, 1.0]]))
T = np.array([[0.5, 0.2], [0.1, 1.3]])
COLUMN = SymmetricColumn(np.diag([0.5, 2.0]), np.array([[0.3, 0.0]]))


def relation():
    """x' = x on the first coordinate, nothing on the second: a symmetric
    restriction whose two extreme extensions differ.  Built fresh for each
    count, so no cached graph decomposition carries over between tests."""
    return LinearRelation.from_generators(np.array([[1.0], [0.0]]), np.array([[1.0], [0.0]]))


def _counting(monkeypatch, name):
    calls = []
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
def svd_calls(monkeypatch):
    return _counting(monkeypatch, "svd")


def _count(calls, fn, *args):
    calls.clear()
    fn(*args)
    return len(calls)


def test_completion_decomposes_a11_once(eigh_calls):
    assert _count(eigh_calls, minimal_completion, BLOCK) == 1
    sol = minimal_completion(BLOCK)
    assert _count(eigh_calls, is_solution, BLOCK, sol.a22_min + np.eye(2)) == 1


def test_defect_data_decomposes_each_defect_form_once(eigh_calls):
    j1 = JSpace.from_matrix(np.diag([1.0, -1.0]))
    assert _count(eigh_calls, defect_data, T, j1, JSpace.identity(2)) == 2


def test_extremal_extensions_decomposes_the_head_defect_once(eigh_calls):
    assert _count(eigh_calls, extremal_extensions, COLUMN) <= 8


def test_extremes_command_builds_the_pair_once(eigh_calls, tmp_path, capsys):
    paths = []
    for name, block in (("t11", COLUMN.t11), ("t21", COLUMN.t21)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(jsonio.matrix_document(block)))
        paths.append(str(path))
    eigh_calls.clear()
    assert main(["extremes", *paths]) == 0
    assert len(eigh_calls) == 8
    assert json.loads(capsys.readouterr().out)["unique"] is False


def test_relation_pipelines_share_the_column_spectrum(eigh_calls):
    assert _count(eigh_calls, friedrichs_krein, relation()) <= 14
    _, a_k = friedrichs_krein(relation())
    assert _count(eigh_calls, ext_membership, relation(), a_k) <= 9


def test_relation_pipelines_factor_each_graph_once(svd_calls):
    assert _count(svd_calls, friedrichs_krein, relation()) <= 10
    _, a_k = friedrichs_krein(relation())
    assert _count(svd_calls, ext_membership, relation(), a_k) <= 4
