"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
COUNTS = (".calls", ".errors", ".eigh", ".svd", ".norm2", "_frac")


def tiny(name, tmp_path):
    return {
        "verify_all": lambda: workloads.VerifyAll(3, cases=1),
        "desk_build": lambda: workloads.DeskBuild(3, n=8, exit_dim=2, col=(6, 3), rel_n=9, rounds=2),
        "desk_queries": lambda: workloads.DeskQueries(3, n=6, col=(6, 3), rel_n=9,
                                                      per_instance=4, per_relation=2),
        "cli_oneshot": lambda: workloads.CliOneshot(3, bench.ROOT, tmp_path / "cli"),
    }[name]()


def is_count(key):
    return key.startswith("lapack.") and key != "lapack.self_s" or key.endswith(COUNTS)


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(name, tmp_path):
    attempted, failed, metrics, _ = bench.run_untraced(tiny(name, tmp_path), 0.0, [0.5])
    assert failed == 0 and attempted > 0
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())
    attempted, failed, metrics, _ = bench.run_traced(tiny(name, tmp_path), name, 3)
    assert failed == 0 and attempted > 0
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_pinning_keeps_one_allowed_cpu():
    allowed = os.sched_getaffinity(0)
    try:
        bench.pin_quietest_cpu()
        now = os.sched_getaffinity(0)
        assert now <= allowed
        assert len(now) == (1 if len(bench.CPUS) > 1 else len(allowed))
    finally:
        os.sched_setaffinity(0, allowed)


def test_direct_eigh_call_counts_once():
    tracer = Tracer()
    tracer.install()
    try:
        np.linalg.eigh(np.eye(3))
    finally:
        tracer.restore()
    spans = [tracer.names[i] for i in tracer.name]
    assert spans.count("lapack.eigh") == 1
    assert len(spans) == 1


def _namespaces():
    import scipy.linalg

    mods = [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "kreinkit" or n.startswith("kreinkit."))]
    return mods + [np.linalg, scipy.linalg]


def test_traced_run_restores_every_attribute(tmp_path):
    from kreinkit import verify

    before = [(ns, dict(vars(ns))) for ns in _namespaces()]
    suites = {k: list(v) for k, v in verify._SUITES.items()}
    bench.run_traced(tiny("verify_all", tmp_path), "verify_all", 3)
    for ns, attrs in before:
        for attr, value in attrs.items():
            assert getattr(ns, attr) is value, f"{ns.__name__}.{attr}"
    assert verify._SUITES == suites


def test_two_traced_runs_give_identical_counts(tmp_path):
    runs = [bench.run_traced(tiny("desk_queries", tmp_path), "desk_queries", 3)[2] for _ in range(2)]
    counts = [{k: v["value"] for k, v in m.items() if is_count(k) and k != "trace_overhead_frac"
               and k != "factorization_frac"} for m in runs]
    assert counts[0] == counts[1]
    assert counts[0]["op.minimal_completion.eigh"] == 4


def test_oracle_counts_a_wrong_verdict(tmp_path):
    wl = tiny("desk_queries", tmp_path)
    wl.setup()
    inp = wl.inputs(1)
    ops = wl.run(inp)
    assert wl.check(inp, ops) == 0
    ops[0].value = not ops[0].value
    assert wl.check(inp, ops) == 1
