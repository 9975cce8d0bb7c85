"""Every scale rule is written once, in ``spectral``.

A profile field becomes a threshold through one of five private primitives:
``_cutoff``, ``_small``, ``_contractive``, ``_nonnegative`` and
``_defect_scale``.  The guard below parses the package and fails when another
module scales a field itself or reaches into spectral's decision internals;
the agreement tests compare each primitive with the expression it replaced,
kept here as the reference, down to the rounding of the bound.
"""

import ast
from pathlib import Path

import numpy as np

import kreinkit
from kreinkit import gens
from kreinkit.relations import LinearRelation
from kreinkit.spectral import (
    _contractive,
    _cutoff,
    _defect_scale,
    _inertia,
    _nonnegative,
    _order_by_cholesky,
    _relative,
    _small,
    loewner_leq,
    norm2,
    norm_leq,
    orthonormal_columns,
    rank_of,
    spectral_decompose,
    symmetrize,
)
from kreinkit.tolerances import ToleranceProfile

SOURCE = Path(kreinkit.__file__).parent

# what only spectral may call: the count kernel, the floor settling, the
# solver wrapper, the norm brackets and the Cholesky order kernel
SPECTRAL_INTERNALS = {
    "_count", "_settle", "_solve", "_bound_span", "_exact_bound", "_norm_bounds", "_order_by_cholesky", "_factors",
}
FIELDS = {"zero", "psd", "residual", "subspace"}
# the rules' home, the profile itself, the instance generators, and verify,
# whose oracles restate the library's bounds independently of it
SCALING_MODULES = {"spectral", "tolerances", "gens", "verify"}
ALLOWED = {
    ("lifting", "verify_link_identities"): "the composite bound residual (1 + |T|)^2 (1 + |D_T| + |D_T*|)^2 "
    "of the three link identities, a product of scales no other decision uses",
    ("lifting", "j_isometry_test"): "a singular value of the whitened map against subspace, kept "
    "commensurate with the principal-angle test of intersect_subspaces",
}


def _scaled_fields(tree):
    """``(function, expression)`` for each profile field read inside arithmetic or a comparison."""
    hits = []

    def visit(node, function, arithmetic):
        if function is None and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if arithmetic is None and isinstance(node, (ast.BinOp, ast.UnaryOp, ast.Compare, ast.AugAssign)):
            arithmetic = node
        if arithmetic is not None and isinstance(node, ast.Attribute) and node.attr in FIELDS:
            hits.append((function, ast.unparse(arithmetic)))
        for child in ast.iter_child_nodes(node):
            visit(child, function, arithmetic)

    visit(tree, None, None)
    return hits


def scale_rule_violations(source: Path) -> list:
    found = []
    for path in sorted(source.glob("*.py")):
        module, tree = path.stem, ast.parse(path.read_text())
        if module != "spectral":
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "spectral":
                    found += [(module, "imports", a.name) for a in node.names if a.name in SPECTRAL_INTERNALS]
                elif isinstance(node, ast.Attribute) and node.attr in SPECTRAL_INTERNALS:
                    found.append((module, "reads", node.attr))
        if module not in SCALING_MODULES:
            found += [(module, fn, expr) for fn, expr in _scaled_fields(tree) if (module, fn) not in ALLOWED]
    return found


def test_scale_rules_are_written_only_in_spectral():
    assert scale_rule_violations(SOURCE) == []


def test_the_guard_sees_a_written_rule_and_a_borrowed_internal(tmp_path):
    (tmp_path / "spectral.py").write_text("def _count(w):\n    return w\n")
    (tmp_path / "lifting.py").write_text(
        "from .spectral import _count, norm_leq\n\n\n"
        "def f(r, t, tol):\n    return norm_leq(r, lambda nt: tol.residual * (1.0 + nt), t)\n\n\n"
        "def j_isometry_test(s, tol):\n    return s > tol.subspace\n"
    )
    assert scale_rule_violations(tmp_path) == [
        ("lifting", "imports", "_count"),
        ("lifting", "f", "tol.residual * (1.0 + nt)"),
    ]


# ---------------------------------------------------------------------------
# each primitive against the expression it replaced

PROFILES = (ToleranceProfile(), ToleranceProfile(zero=1e-14, psd=1e-3, residual=1e-12, subspace=1e-4))
# k * 2^-52 for small k: a bound computed in another order moves by about this
NUDGES = tuple(sign * k * 2.0 ** -52 for k in (0, 1, 2, 3) for sign in (1.0, -1.0))[1:]


def _operand(rng):
    """A matrix at a scale from 1e-6 to 1e6, a rank-one or an empty one, or a float taken as a known norm."""
    kind = int(rng.integers(0, 4))
    scale = 10.0 ** rng.uniform(-6, 6)
    m, n = (int(x) for x in rng.integers(1, 6, size=2))
    if kind == 0:
        return rng.standard_normal((m, n)) * scale
    if kind == 1:
        return np.outer(rng.standard_normal(m), rng.standard_normal(n)) * scale
    if kind == 2:
        return np.zeros((m, 0)) if rng.integers(0, 2) else np.zeros((0, n))
    return float(rng.uniform(0.0, 2.0) * scale)


def _exact(x):
    return x if isinstance(x, float) else norm2(x)


def _placed(rng, target: float):
    """Residuals whose norm is ``target``: the float itself and a matrix scaled to it."""
    m = rng.standard_normal((int(rng.integers(1, 5)), int(rng.integers(1, 5))))
    return target, m * (target / norm2(m))


# (field, power, weight, operand count, the expression each call site wrote)
RELATIVE_RULES = (
    ("residual", 1, 1.0, 1, lambda tol: lambda nb: tol.residual * (1.0 + nb)),
    ("residual", 2, 1.0, 1, lambda tol: lambda nj: tol.residual * (1.0 + nj ** 2)),
    ("residual", 1, 1.0, 2, lambda tol: lambda n1, ng: tol.residual * (1.0 + n1 + ng)),
    ("subspace", 1, 1.0, 1, lambda tol: lambda npar: tol.subspace * (1.0 + npar)),
    ("zero", 1, 0.5, 1, lambda tol: lambda nt: 0.5 * tol.zero * (1.0 + nt)),
    ("zero", 1, 1.0, 1, lambda tol: lambda n: tol.zero * (1.0 + n)),
    ("psd", 1, 1.0, 2, lambda tol: lambda na, nb: tol.psd * (1.0 + na + nb)),
    ("subspace", 1, 1.0, 0, lambda tol: lambda: tol.subspace),
)


def test_relative_bound_agrees_with_the_lambdas_it_replaced():
    rng = np.random.default_rng(320)
    sets = 0
    for tol in PROFILES:
        for field, power, weight, count, reference in RELATIVE_RULES:
            ref = reference(tol)
            for _ in range(20):
                operands = [_operand(rng) for _ in range(count)]
                norms = [_exact(o) for o in operands]
                bound = ref(*norms)
                # the bound itself, bit for bit, and on norms at every scale
                assert _relative(weight * getattr(tol, field), power)(*norms) == bound
                for nudge in NUDGES:
                    for r in _placed(rng, bound * (1.0 + nudge)):
                        expected = norm_leq(r, ref, *operands)
                        assert _small(r, tol, field, *operands, power=power, weight=weight) == expected
                        sets += 1
    assert sets >= 2000


def test_a_signed_float_is_compared_as_it_is():
    # resolvent_matrix's admissibility: the gap w_0 - a against zero (1 + |M|)
    tol = ToleranceProfile()
    for norm in (0.0, 1e-6, 3.0, 1e6):
        bound = tol.zero * (1.0 + norm)
        for gap in (-1.0, -bound, 0.0, bound * (1.0 - 2.0 ** -52), bound, bound * (1.0 + 2.0 ** -52), 1.0):
            assert _small(gap, tol, "zero", norm) == (gap <= bound)


def test_unit_ball_agrees_with_the_lambdas_it_replaced():
    rng = np.random.default_rng(321)
    for tol in PROFILES:
        for slack, ref in ((True, lambda: 1.0 + tol.psd), (False, lambda: 1.0)):
            for nudge in NUDGES + (0.0, 1e-3, -1e-3):
                for _ in range(5):
                    for g in _placed(rng, ref() * (1.0 + nudge)):
                        assert _contractive(g, tol, slack) == norm_leq(g, ref)
        assert _contractive(np.zeros((0, 3)), tol, slack=False)


def test_cutoff_agrees_with_the_threshold_it_replaced():
    rng = np.random.default_rng(322)
    for tol in PROFILES:
        for _ in range(500):
            size, norm = int(rng.integers(0, 300)), float(10.0 ** rng.uniform(-6, 6))
            floor = float(rng.choice((0.0, 1.0, 10.0 ** rng.uniform(-6, 6))))
            assert _cutoff(tol, size, norm, floor) == tol.zero * size * max(norm, floor)
        for _ in range(50):
            m = gens.random_symmetric(rng, int(rng.integers(1, 7))) * 10.0 ** rng.uniform(-6, 6)
            spec = spectral_decompose(m, tol, 0.5)
            assert spec.threshold == tol.zero * m.shape[0] * max(spec.norm, 0.5)
            s = np.linalg.svd(m, compute_uv=False)
            assert rank_of(m, tol) == int(np.count_nonzero(s > tol.zero * max(m.shape) * s[0]))
            kept = orthonormal_columns(m, tol, floor=2.0).shape[1]
            assert kept == int(np.count_nonzero(s > tol.zero * max(m.shape) * max(s[0], 2.0)))
        # the graph cutoff at floor 1, empty graphs included
        for k in range(7):
            rel = LinearRelation(3, gens.random_orthogonal(rng, 6)[:, :k])
            s = np.linalg.svd(rel.first, compute_uv=False)
            rank = int(np.count_nonzero(s > tol.zero * max(rel.first.shape) * np.max(s, initial=1.0)))
            assert rel.mul_dim(tol) == k - rank


def test_defect_floor_agrees_with_the_floor_it_replaced():
    rng = np.random.default_rng(323)

    def squared(nt):
        return (1.0 + nt) ** 2

    for tol in PROFILES:
        for _ in range(40):
            t = _operand(rng)
            if not isinstance(t, float):
                assert _defect_scale(t)[1] is t
            exact = squared(_exact(t))
            assert _defect_scale(_exact(t)) == exact
            n = int(rng.integers(1, 6))
            q = gens.random_orthogonal(rng, n)
            for nudge in (0.0, 2.0 ** -52, -(2.0 ** -52), 1e-3, -1e-3):
                w = rng.uniform(-1.0, 1.0, n) * exact
                w[0] = tol.zero * n * exact * (1.0 + nudge)
                a = symmetrize(q @ np.diag(w) @ q.T)
                reference = exact if isinstance(t, float) else (squared, t)
                assert _inertia(a, tol, _defect_scale(t)) == _inertia(a, tol, reference)


def test_order_from_zero_agrees_with_the_order_it_replaced():
    rng = np.random.default_rng(324)
    for tol in PROFILES:
        for _ in range(40):
            n = int(rng.integers(0, 6))
            scale = 10.0 ** rng.uniform(-6, 6)
            q = gens.random_orthogonal(rng, n) if n else np.zeros((0, 0))
            w = rng.uniform(0.0, 1.0, n) * scale
            top = float(np.max(w, initial=0.0))
            for at in (0.0, -tol.psd * (1.0 + top)) if n else (0.0,):
                for nudge in NUDGES + (1e-3, -1e-3):
                    if n:
                        w[0] = at * (1.0 + nudge) if at else nudge * scale
                    g = symmetrize(q @ np.diag(w) @ q.T) if n else np.zeros((0, 0))
                    assert _nonnegative(g, tol) == loewner_leq(np.zeros_like(g), g, tol)
                    assert _nonnegative(g, tol, slack=False) == bool(_order_by_cholesky(g, (lambda: 0.0,)))
