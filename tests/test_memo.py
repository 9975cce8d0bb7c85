"""What an instance computes once per profile equals what a fresh instance computes.

Blocks and relations keep derived quantities per tolerance profile, so a
query against an instance asked before reads the stored value.  These
tests pin that the stored value is bitwise the fresh one, under two
profiles asked in turn, and that each profile gets its own value.
"""

from dataclasses import fields, is_dataclass

import numpy as np

from kreinkit import gens
from kreinkit.completion import IncompleteBlock, completable, is_solution, minimal_completion, schur_inertia
from kreinkit.relations import (
    LinearRelation,
    classify,
    ext_membership,
    extension_problem,
    friedrichs_krein,
    krein_uniqueness_relation,
    operator_part,
    relation_inertia,
    relation_leq,
)
from kreinkit.tolerances import ToleranceProfile, default_tolerances, set_default_tolerances

DEFAULT = ToleranceProfile()
LOOSE = ToleranceProfile(zero=1e-9, psd=1e-8, residual=1e-7, subspace=1e-7)
# under COARSE a singular value of 1e-6 counts as zero
COARSE = ToleranceProfile(zero=1e-4)


def same(x, y) -> bool:
    """Bitwise equality through tuples, dataclasses and relations."""
    if isinstance(x, np.ndarray):
        return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()
    if isinstance(x, LinearRelation):
        return x.space_dim == y.space_dim and same(x.basis, y.basis)
    if isinstance(x, tuple):
        return len(x) == len(y) and all(same(a, b) for a, b in zip(x, y))
    if is_dataclass(x):
        return type(x) is type(y) and all(
            same(getattr(x, f.name), getattr(y, f.name)) for f in fields(x) if f.name != "_memo"
        )
    return x == y


def relation_answers(rel, tol):
    a_f, a_k = friedrichs_krein(rel, tol)
    return (
        classify(rel, tol),
        operator_part(rel, tol),
        extension_problem(rel, tol),
        (a_f, a_k),
        ext_membership(rel, a_k, tol),
        krein_uniqueness_relation(rel, tol),
        relation_leq(a_k, a_f, tol),
        relation_inertia(a_f, tol),
    )


def test_relation_answers_equal_a_fresh_copy_under_each_profile():
    rel = gens.random_solvable_relation(np.random.default_rng(5), 4, dom_dim=2)
    for tol in (DEFAULT, LOOSE, DEFAULT, LOOSE):
        fresh = LinearRelation(rel.space_dim, rel.basis)
        assert same(relation_answers(rel, tol), relation_answers(fresh, tol))


def test_relation_profiles_get_their_own_entries():
    rel = LinearRelation.from_generators(np.diag([1.0, 1e-6]), np.eye(2))
    for tol, dom in ((DEFAULT, 2), (COARSE, 1), (DEFAULT, 2)):
        assert operator_part(rel, tol)[0].shape == (2, dom)
        assert same(operator_part(rel, tol), operator_part(LinearRelation(2, rel.basis), tol))


def block_answers(blk, tol):
    sol = minimal_completion(blk, tol)
    corner = sol.a22_min + np.eye(blk.dim2)
    return sol, completable(blk, tol), is_solution(blk, corner, tol), schur_inertia(blk, corner, tol)


def test_block_answers_equal_a_fresh_copy_under_each_profile():
    # 1e-7 is a kernel eigenvalue of a11 under COARSE but not under DEFAULT
    blk = IncompleteBlock(np.diag([1.0, -1.0, 1e-7]), np.array([[1.0], [2.0], [0.0]]))
    for tol in (DEFAULT, COARSE, DEFAULT, COARSE):
        assert same(block_answers(blk, tol), block_answers(IncompleteBlock(blk.a11, blk.a12), tol))
    assert minimal_completion(blk, COARSE).spectrum.inertia.n_zero == 1
    assert minimal_completion(blk, DEFAULT).spectrum.inertia.n_zero == 0


def test_a_changed_default_profile_gets_its_own_entry():
    blk = IncompleteBlock(np.diag([1.0, -1.0, 1e-7]), np.array([[1.0], [2.0], [0.0]]))
    assert minimal_completion(blk).spectrum.inertia.n_zero == 0
    saved = default_tolerances()
    try:
        set_default_tolerances(COARSE)
        assert minimal_completion(blk).spectrum.inertia.n_zero == 1
    finally:
        set_default_tolerances(saved)
    assert minimal_completion(blk).spectrum.inertia.n_zero == 0
