"""The four benchmark workloads.

Each workload is a closed loop with one client.  It splits into four parts,
so that the runner can time exactly the part a user waits for:

* ``setup()``: everything before the first timed call (imports aside):
  the first instances, inputs that stay fixed for the run, files;
* ``inputs(r)``: untimed, the inputs of pass ``r``, drawn from
  ``[seed, r]`` so the same seed gives the same inputs;
* ``run(inp)``: timed, one pass; returns one ``Op`` per operation;
* ``check(inp, ops)``: untimed oracle; returns the number of failed ops.

``PASS_SECONDS`` is the nominal length of one pass with its inputs and
check (2-vCPU Xeon, one BLAS thread); a run of ``--seconds`` makes
``round(seconds / PASS_SECONDS)`` passes, so the same seed and length always
give the same work and the same number of latency samples.
``TRACED_PASSES`` is the number of passes in each half of a traced run.

Sizes are constructor arguments so the tests can run every workload tiny;
the defaults are the benchmark's sizes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# library functions are looked up on their modules at call time, so the
# tracer's rebinding of module attributes reaches the calls made here
from kreinkit import cli, completion, gens, lifting, quasicontraction, relations, verify
from kreinkit.errors import KreinkitError
from kreinkit.jsonio import matrix_document, parse_relation, relation_document
from kreinkit.relations import LinearRelation
from kreinkit.spectral import norm2, symmetrize

ROUNDTRIP_TOL = 1e-8


@dataclass
class Op:
    """One timed operation: its name, latency and output (or exception)."""

    name: str
    seconds: float
    value: object


def timed(name, fn, *args):
    start = time.perf_counter()
    try:
        value = fn(*args)
    except (KreinkitError, ValueError, np.linalg.LinAlgError) as exc:
        value = exc
    return Op(name, time.perf_counter() - start, value)


def _raised(op: Op) -> bool:
    return isinstance(op.value, BaseException)


def _psd_bump(rng, n, lo=0.2, hi=1.0):
    """Symmetric matrix with eigenvalues in ``[lo, hi]``."""
    q = gens.random_orthogonal(rng, n)
    return symmetrize(q @ np.diag(rng.uniform(lo, hi, size=n)) @ q.T)


def _lift_instance(rng, n, exit_dim):
    """``gens.random_lift_instance`` redrawn until the exit signatures admit one."""
    for _ in range(20):
        inst = gens.random_lift_instance(rng, n, n, exit_dim, exit_dim)
        if inst is not None:
            return inst
    raise RuntimeError("no admissible lifting instance in 20 draws")


def _head_kappa(t11) -> int:
    """Negative index ``nu_-(I - T11^2)`` built into a generated column.

    The generator keeps head eigenvalues at least 0.2 away from +-1, so the
    count is exact.
    """
    return int(np.sum(np.abs(np.linalg.eigvalsh(t11)) > 1.0))


def _relation_from_column(rng, n, d, unique):
    """Solvable symmetric relation on R^n with a known Cayley column.

    Same construction as ``gens.random_solvable_relation``, but it keeps the
    column and basis, so membership verdicts are known by construction.
    """
    col = gens.random_quasicontraction_column(rng, d, n - d, unique=unique)
    basis = gens.random_orthogonal(rng, n)
    images = basis[:, :d] @ col.t11 + basis[:, d:] @ col.t21
    rel = LinearRelation.from_generators(basis[:, :d], images).cayley()
    return rel, col, basis


def _extension_of(basis, t):
    """Selfadjoint relation whose Cayley transform is ``basis t basis^T``."""
    return LinearRelation.from_operator(symmetrize(basis @ t @ basis.T)).cayley()


# ---------------------------------------------------------------------------


class VerifyAll:
    """``kreinkit verify --suite all`` run in-process after the imports.

    Thousands of instances with n <= 8: per-call Python overhead dominates.
    One operation is one property case; its latency comes from a timer put
    around each of the check callables that ``run_suites`` dispatches.
    """

    name = "verify_all"
    PASS_SECONDS = 12.0
    TRACED_PASSES = 1

    def __init__(self, seed: int, cases: int = 100):
        self.seed = seed
        self.cases = cases
        self.checks = sum(len(v) for v in verify._SUITES.values())
        self.argv = ["verify", "--suite", "all", "--seed", str(seed), "--cases", str(cases)]
        self.first_output = None
        self.between = lambda: None  # called before each case, outside its timing

    def setup(self):
        pass

    def inputs(self, r):
        return None

    def run(self, inp, wrap=None):
        """One verify pass; ``wrap(label, fn)`` may replace each check."""
        ops = []

        def timer(label, fn):
            def case(rng, tol, track):
                self.between()
                before = track.failures
                start = time.perf_counter()
                failed = True
                try:
                    fn(rng, tol, track)
                    failed = track.failures > before
                finally:
                    ops.append(Op(label, time.perf_counter() - start, failed))
            return case

        saved = {suite: list(checks) for suite, checks in verify._SUITES.items()}
        try:
            for suite, checks in verify._SUITES.items():
                for i, (check, fn) in enumerate(checks):
                    label = f"verify.{suite}.{check}"
                    inner = wrap(label, fn) if wrap else fn
                    checks[i] = (check, timer(label, inner))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(self.argv)
        finally:
            for suite, checks in saved.items():
                verify._SUITES[suite][:] = checks
        self.last = (code, out.getvalue())
        return ops

    def check(self, inp, ops):
        code, text = self.last
        if self.first_output is None:
            self.first_output = text
        failed = sum(1 for op in ops if op.value)
        summary = text.strip().splitlines()[-1] if text.strip() else ""
        ok = (
            code == 0
            and len(ops) == self.checks * self.cases
            and f"checks={self.checks} failures=0" in summary
            and text == self.first_output
        )
        return failed if ok else max(1, failed)


# ---------------------------------------------------------------------------


class DeskBuild:
    """Desk-scale constructions on fresh instances, ``rounds`` rounds per pass.

    O(n^3) LAPACK work is most of the time, so fewer factorizations show
    here and cuts to Python overhead barely do.  No instance is seen twice
    in a run, so a content-keyed cache cannot flatter this workload.  A
    pass of several rounds keeps the median pass time steady on a machine
    whose speed changes from second to second.
    """

    name = "desk_build"
    PASS_SECONDS = 2.9
    TRACED_PASSES = 1
    OPS_PER_ROUND = 8

    def __init__(self, seed: int, n: int = 250, exit_dim: int = 20,
                 col: tuple[int, int] = (150, 75), rel_n: int = 60, rounds: int = 4):
        self.seed = seed
        self.n = n
        self.exit_dim = exit_dim
        self.col = col
        self.rel_n = rel_n
        self.rounds = rounds

    def setup(self):
        self.drawn = {0: self._batch(0)}

    def inputs(self, r):
        return self.drawn.pop(r, None) or self._batch(r)

    def _batch(self, r):
        return [self._draw(r * self.rounds + k) for k in range(self.rounds)]

    def _draw(self, r):
        rng = np.random.default_rng([self.seed, r])
        n = self.n
        kappa = int(rng.integers(1, 6))
        blk = gens.random_completable_block(rng, n, n, kappa, int(rng.integers(0, 3)))
        bump = _psd_bump(rng, n)
        data, params, j1p, j2p = _lift_instance(rng, n, self.exit_dim)
        column = gens.random_quasicontraction_column(rng, *self.col)
        unique = r % 2 == 0
        d = (2 * self.rel_n) // 3
        rel, rel_col, _ = _relation_from_column(rng, self.rel_n, d, unique)
        return {
            "blk": blk, "kappa": kappa, "bump": bump,
            "t": data.t, "j1": data.j1, "j2": data.j2, "params": params, "j1p": j1p, "j2p": j2p,
            "column": column, "column_kappa": _head_kappa(column.t11),
            "rel": rel, "rel_kappa": _head_kappa(rel_col.t11), "unique": unique,
        }

    def run(self, inp):
        return [op for inst in inp for op in self._round(inst)]

    def _round(self, inp):
        sol = timed("minimal_completion", completion.minimal_completion, inp["blk"])
        if _raised(sol):
            solution = Op("is_solution", 0.0, sol.value)
        else:
            a22 = symmetrize(sol.value.a22_min + inp["bump"])
            solution = timed("is_solution", completion.is_solution, inp["blk"], a22)
        ops = [sol, solution]
        data = timed("defect_data", lifting.defect_data, inp["t"], inp["j1"], inp["j2"])
        lifted = (Op("lift", 0.0, data.value) if _raised(data) else
                  timed("lift", lifting.lift, data.value, inp["params"], inp["j1p"], inp["j2p"]))
        back = (Op("extract_lift_parameters", 0.0, lifted.value) if _raised(lifted) else
                timed("extract_lift_parameters", lifting.extract_lift_parameters,
                      lifted.value, data.value, inp["j1p"], inp["j2p"]))
        ops += [data, lifted, back]
        ops.append(timed("extremal_extensions", quasicontraction.extremal_extensions, inp["column"]))
        ops.append(timed("friedrichs_krein", relations.friedrichs_krein, inp["rel"]))
        ops.append(timed("krein_uniqueness_relation", relations.krein_uniqueness_relation, inp["rel"]))
        return ops

    def check(self, inp, ops):
        k = self.OPS_PER_ROUND
        return sum(1 for i, inst in enumerate(inp) for op in ops[k * i:k * (i + 1)]
                   if _raised(op) or not self._ok(inst, op))

    def _ok(self, inp, op):
        v = op.value
        if op.name == "minimal_completion":
            return v.kappa == inp["kappa"]
        if op.name == "is_solution":
            return v is True
        if op.name == "defect_data":
            # inertia balance of the two defect forms against J1 and J2
            neg = [int(np.sum(np.linalg.eigvalsh(j.j) < 0)) for j in (inp["j1"], inp["j2"])]
            return v.kappa1 + neg[1] == v.kappa2 + neg[0]
        if op.name == "lift":
            return v.shape == (self.n + self.exit_dim, self.n + self.exit_dim)
        if op.name == "extract_lift_parameters":
            p = inp["params"]
            err = max(norm2(v.gamma1 - p.gamma1), norm2(v.gamma2 - p.gamma2), norm2(v.gamma - p.gamma))
            return err <= ROUNDTRIP_TOL
        if op.name == "extremal_extensions":
            gap = np.linalg.eigvalsh(symmetrize(v.t_max - v.t_min))
            return v.kappa == inp["column_kappa"] and gap[0] >= -1e-9 * (1.0 + abs(gap[-1]))
        if op.name == "friedrichs_krein":
            return all(relations.relation_inertia(h).i_minus == inp["rel_kappa"] for h in v)
        if op.name == "krein_uniqueness_relation":
            return v == inp["unique"]
        return False


# ---------------------------------------------------------------------------


class DeskQueries:
    """A few instances, each queried many times; verdicts known by construction.

    The instances and the library objects the queries are posed against
    (completion, extremal pair, extensions) are built in setup; each pass
    draws fresh candidates.  Reads beside the writes of ``desk_build``: a
    caching or reuse change shows its gain here.
    """

    name = "desk_queries"
    PASS_SECONDS = 0.55
    TRACED_PASSES = 2

    def __init__(self, seed: int, n: int = 100, col: tuple[int, int] = (60, 30),
                 rel_n: int = 60, per_instance: int = 16, per_relation: int = 8):
        self.seed = seed
        self.n = n
        self.col = col
        self.rel_n = rel_n
        self.per_instance = per_instance
        self.per_relation = per_relation

    def setup(self):
        rng = np.random.default_rng([self.seed, 0])
        n = self.n
        self.blk = gens.random_completable_block(rng, n, n, int(rng.integers(1, 6)), 1)
        self.a22_min = completion.minimal_completion(self.blk).a22_min
        self.column = gens.random_quasicontraction_column(rng, *self.col)
        self.pair = quasicontraction.extremal_extensions(self.column)
        d = (2 * self.rel_n) // 3
        self.rel, rel_col, self.basis = _relation_from_column(rng, self.rel_n, d, False)
        self.rel_pair = quasicontraction.extremal_extensions(rel_col)
        self.a_f, self.a_k = relations.friedrichs_krein(self.rel)

    def inputs(self, r):
        """Candidates of pass ``r``: alternately inside and outside."""
        rng = np.random.default_rng([self.seed, r + 1])
        n1 = self.col[0]
        corners = []
        scale = 1.0 + norm2(self.a22_min)
        for i in range(self.per_instance):
            if i % 2 == 0:
                corners.append((symmetrize(self.a22_min + scale * _psd_bump(rng, self.n, 0.01, 0.1)), True))
            else:
                v = rng.standard_normal((self.n, 1))
                v /= np.linalg.norm(v)
                corners.append((symmetrize(self.a22_min - scale * 0.5 * (v @ v.T)), False))
        members = [self._between(rng, self.pair, n1, i % 2 == 0) for i in range(self.per_instance)]
        d = self.rel_pair.dim1
        extensions = []
        for i in range(self.per_relation):
            inside = i % 2 == 0
            t, _ = self._between(rng, self.rel_pair, d, inside)
            extensions.append((_extension_of(self.basis, t), inside))
        return {"corners": corners, "members": members, "extensions": extensions}

    @staticmethod
    def _between(rng, pair, n1, inside):
        """A symmetric extension inside ``[t_min, t_max]``, or just above it."""
        if inside:
            lam = rng.uniform(0.1, 0.9)
            return symmetrize((1.0 - lam) * pair.t_min + lam * pair.t_max), True
        bump = np.zeros_like(pair.t_max)
        bump[n1:, n1:] = _psd_bump(rng, pair.dim2, 0.2, 0.6)
        return symmetrize(pair.t_max + bump), False

    def _order(self, candidate):
        return relations.relation_leq(self.a_k, candidate) and relations.relation_leq(candidate, self.a_f)

    def run(self, inp):
        ops = [timed("is_solution", completion.is_solution, self.blk, c) for c, _ in inp["corners"]]
        ops += [timed("is_member", quasicontraction.is_member, self.pair, t) for t, _ in inp["members"]]
        for rel, _ in inp["extensions"]:
            ops.append(timed("ext_membership", relations.ext_membership, self.rel, rel))
            ops.append(timed("relation_leq", self._order, rel))
        return ops

    def check(self, inp, ops):
        expected = [v for _, v in inp["corners"]] + [v for _, v in inp["members"]]
        for _, inside in inp["extensions"]:
            expected += [inside, inside]
        failed = abs(len(expected) - len(ops))
        for op, want in zip(ops, expected):
            failed += 0 if (not _raised(op) and bool(op.value) == want) else 1
        return failed


# ---------------------------------------------------------------------------


def child_env(root: Path) -> dict:
    """Environment of a CLI child: the checkout's sources, BLAS pinned."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("KREINKIT_TOL", None)
    return env


def run_child(argv, env, cwd):
    """Run a child to completion; returns (exit code, stdout, rusage)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            env=env, cwd=cwd)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), usage


class CliOneshot:
    """One fresh ``python -m kreinkit`` process per command, n <= 6.

    Imports are most of the time, so this is the workload where the
    ``cli``/``jsonio``/import layer carries the time.  One operation is one
    command; a pass runs each of the seven commands once.
    """

    name = "cli_oneshot"
    PASS_SECONDS = 3.5
    TRACED_PASSES = 1
    COMMANDS = ("inertia", "complete", "extremes", "check-interval", "lift", "cayley", "extensions")

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.env = child_env(root)
        self.expected = None
        self.max_rss_kb = 0

    def _write(self, name, doc):
        path = self.workdir / name
        path.write_text(json.dumps(doc))
        return str(path)

    def setup(self):
        rng = np.random.default_rng([self.seed, 0])
        self.workdir.mkdir(parents=True, exist_ok=True)
        w = self._write
        self.m_kappa = int(rng.integers(0, 4))
        self.m = gens.random_symmetric_with_inertia(rng, 6, self.m_kappa)
        self.a_kappa = int(rng.integers(0, 3))
        self.blk = gens.random_completable_block(rng, 4, 2, self.a_kappa)
        self.column = gens.random_quasicontraction_column(rng, 4, 2)
        self.candidate = self._midpoint(self.column)
        self.lift_inst = _lift_instance(rng, 3, 2)
        data, params, j1p, j2p = self.lift_inst
        self.rel, _, _ = _relation_from_column(rng, 5, 3, False)
        mat = matrix_document
        f = {
            "m": w("m.json", mat(self.m)),
            "a11": w("a11.json", mat(self.blk.a11)),
            "a12": w("a12.json", mat(self.blk.a12)),
            "t11": w("t11.json", mat(self.column.t11)),
            "t21": w("t21.json", mat(self.column.t21)),
            "cand": w("cand.json", mat(self.candidate)),
            "t": w("t.json", mat(data.t)),
            "j1": w("j1.json", mat(data.j1.j)),
            "j2": w("j2.json", mat(data.j2.j)),
            "j1p": w("j1p.json", mat(j1p.j)),
            "j2p": w("j2p.json", mat(j2p.j)),
            "g1": w("g1.json", mat(params.gamma1)),
            "g2": w("g2.json", mat(params.gamma2)),
            "g": w("g.json", mat(params.gamma)),
            "rel": w("rel.json", relation_document(self.rel)),
        }
        self.argvs = {
            "inertia": ["inertia", f["m"]],
            "complete": ["complete", f["a11"], f["a12"]],
            "extremes": ["extremes", f["t11"], f["t21"]],
            "check-interval": ["check-interval", f["t11"], f["t21"], f["cand"]],
            "lift": ["lift", f["t"], "--j1", f["j1"], "--j2", f["j2"], "--j1p", f["j1p"],
                     "--j2p", f["j2p"], "--gamma1", f["g1"], "--gamma2", f["g2"], "--gamma", f["g"]],
            "cayley": ["cayley", f["rel"]],
            "extensions": ["extensions", f["rel"]],
        }

    @staticmethod
    def _midpoint(column):
        pair = quasicontraction.extremal_extensions(column)
        return symmetrize((pair.t_min + pair.t_max) / 2.0)

    def inputs(self, r):
        return self.argvs

    def run(self, inp):
        ops = []
        for name in self.COMMANDS:
            start = time.perf_counter()
            code, out, usage = run_child([sys.executable, "-m", "kreinkit", *inp[name]],
                                         self.env, self.root)
            ops.append(Op(name, time.perf_counter() - start, (code, out)))
            self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        return ops

    def run_inprocess(self, inp):
        """The same commands through ``cli.main`` in this process."""
        ops = []
        for name in self.COMMANDS:
            out = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out):
                code = cli.main(list(inp[name]))
            ops.append(Op(name, time.perf_counter() - start, (code, out.getvalue())))
        return ops

    def _library_results(self):
        data, params, j1p, j2p = self.lift_inst
        pair = quasicontraction.extremal_extensions(self.column)
        a_f, _ = relations.friedrichs_krein(self.rel)
        return {
            "inertia": {"n_minus": self.m_kappa, "n_plus": 6 - self.m_kappa},
            "complete": {"kappa": self.a_kappa, "a22_min": completion.minimal_completion(self.blk).a22_min},
            "extremes": {"kappa": _head_kappa(self.column.t11), "t_min": pair.t_min,
                         "t_max": pair.t_max, "unique": quasicontraction.krein_uniqueness_criterion(self.column)},
            "check-interval": {"member": quasicontraction.is_member(pair, self.candidate)},
            "lift": {"lift": lifting.lift(lifting.defect_data(data.t, data.j1, data.j2), params, j1p, j2p)},
            "cayley": {"relation": self.rel.cayley()},
            "extensions": {"kappa": relations.relation_inertia(a_f).i_minus, "friedrichs": a_f},
        }

    def check(self, inp, ops):
        if self.expected is None:
            self.expected = self._library_results()
        return sum(1 for op in ops if not self._ok(op))

    def _ok(self, op):
        code, out = op.value
        try:
            return code == 0 and self._matches(op.name, json.loads(out))
        except (ValueError, KeyError, TypeError, KreinkitError):
            return False

    def _matches(self, name, report):
        want = self.expected[name]

        def close(doc, matrix):
            return np.allclose(np.array(doc["data"], dtype=float).reshape(doc["rows"], doc["cols"]),
                               matrix, rtol=1e-9, atol=1e-9)

        if name == "cayley":
            return parse_relation(report).same_as(want["relation"])
        if name == "extensions":
            return (report["kappa"] == want["kappa"]
                    and parse_relation(report["friedrichs"]["relation"]).same_as(want["friedrichs"]))
        for key, value in want.items():
            if isinstance(value, np.ndarray):
                if not close(report[key], value):
                    return False
            elif report.get(key) != value:
                return False
        return True
