"""Each symmetric matrix is decomposed once per operation.

The counts pin how many ``numpy.linalg.eigh`` calls one call of each
operation makes on a fixed small instance.  Every spectral quantity of a
matrix (inertia, signature, powers, pseudo-inverse powers, projectors) is
read off one decomposition, so a rise here means a matrix is decomposed
again.
"""

import numpy as np
import pytest

from kreinkit.completion import IncompleteBlock, is_solution, minimal_completion
from kreinkit.factor import JSpace
from kreinkit.lifting import defect_data
from kreinkit.quasicontraction import SymmetricColumn, extremal_extensions
from kreinkit.relations import LinearRelation, ext_membership, friedrichs_krein

BLOCK = IncompleteBlock(np.diag([2.0, -1.0, 0.5]), np.array([[1.0, 0.0], [1.0, 2.0], [0.0, 1.0]]))
T = np.array([[0.5, 0.2], [0.1, 1.3]])
COLUMN = SymmetricColumn(np.diag([0.5, 2.0]), np.array([[0.3, 0.0]]))
# x' = x on the first coordinate, nothing on the second: a symmetric
# restriction whose two extreme extensions differ
RELATION = LinearRelation.from_generators(np.array([[1.0], [0.0]]), np.array([[1.0], [0.0]]))


@pytest.fixture
def eigh_calls(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


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


def test_relation_pipelines_share_the_column_spectrum(eigh_calls):
    assert _count(eigh_calls, friedrichs_krein, RELATION) <= 15
    _, a_k = friedrichs_krein(RELATION)
    assert _count(eigh_calls, ext_membership, RELATION, a_k) <= 9
