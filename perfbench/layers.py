"""Per-layer metrics from the spans of one traced pass.

A layer's calls, self time and errors sum over the spans of its public
functions.  ``op.<name>.{eigh,svd,norm2}`` are mean counts per call of the
``numpy.linalg.eigh``/``svd`` and ``spectral.norm2`` spans nested inside that
operation, so they are exact integers for a given seed.
"""

from __future__ import annotations

import statistics

import numpy as np

from tracer import LAPACK_OWN, LAYERS

# the operations reported one by one, with the layer that defines each
OPS = {
    "minimal_completion": "completion",
    "is_solution": "completion",
    "defect_data": "lifting",
    "lift": "lifting",
    "extract_lift_parameters": "lifting",
    "extremal_extensions": "quasicontraction",
    "is_member": "quasicontraction",
    "friedrichs_krein": "relations",
    "ext_membership": "relations",
    "krein_uniqueness_relation": "relations",
}


def check_labels() -> list[tuple[str, str]]:
    """``(suite, check)`` of every check ``run_suites`` dispatches."""
    from kreinkit import verify

    return [(suite, check) for suite, checks in verify._SUITES.items() for check, _ in checks]


def per_layer(tracer, *, traced_wall: float, untraced_wall: float, cpu_s: float,
              imports: dict, cli_compute_s: float) -> dict:
    name, start, end, _, self_t = tracer.columns()
    names = tracer.names
    ids = {n: i for i, n in enumerate(names)}
    calls = np.bincount(name, minlength=len(names))
    selfs = np.bincount(name, weights=self_t, minlength=len(names))
    m = {}

    def put(key, value, unit):
        m[key] = {"value": float(value), "unit": unit}

    def prefixed(prefix):
        return [i for i, n in enumerate(names) if n.startswith(prefix)]

    for layer in LAYERS:
        own = prefixed(layer + ".")
        put(f"{layer}.calls", calls[own].sum(), "count")
        put(f"{layer}.self_s", selfs[own].sum(), "s")
        put(f"{layer}.errors", sum(tracer.errors[names[i]] for i in own), "count")

    def count(span):
        return calls[ids[span]] if span in ids else 0

    for fn in LAPACK_OWN:
        put(f"lapack.{fn}", count(f"lapack.{fn}"), "count")
    lapack = prefixed("lapack.")
    own = {ids[f"lapack.{fn}"] for fn in LAPACK_OWN if f"lapack.{fn}" in ids}
    put("lapack.other", sum(calls[i] for i in lapack if i not in own), "count")
    lapack_self = selfs[lapack].sum()
    put("lapack.self_s", lapack_self, "s")

    def frac(part, whole):
        return part / whole if whole else 0.0

    norm2 = count("spectral.norm2")
    norm2_self = selfs[ids["spectral.norm2"]] if norm2 else 0.0
    put("spectral.norm2.calls", norm2, "count")
    put("spectral.norm2.self_s", norm2_self, "s")
    put("spectral.norm2.sym_frac", frac(tracer.probed["spectral.norm2"], norm2), "ratio")
    sym = count("spectral.as_symmetric")
    put("spectral.as_symmetric.calls", sym, "count")
    put("spectral.as_symmetric.noop_frac", frac(tracer.probed["spectral.as_symmetric"], sym), "ratio")
    put("factorization_frac", frac(lapack_self + norm2_self, traced_wall), "ratio")

    # descendants of span i are the spans i+1 .. last that start before i ends
    cumulative = {}
    for key, span in (("eigh", "lapack.eigh"), ("svd", "lapack.svd"), ("norm2", "spectral.norm2")):
        hit = (name == ids[span]) if span in ids else np.zeros(len(name), bool)
        cumulative[key] = np.concatenate([[0], np.cumsum(hit)])
    for op, layer in OPS.items():
        span = f"{layer}.{op}"
        idx = np.flatnonzero(name == ids[span]) if span in ids else np.zeros(0, int)
        dur = end[idx] - start[idx]
        put(f"op.{op}.p50_ms", 1e3 * statistics.median(dur) if len(idx) else 0.0, "ms")
        last = np.searchsorted(start, end[idx], side="left")
        for key, cum in cumulative.items():
            per_call = (cum[last] - cum[idx + 1]).mean() if len(idx) else 0.0
            put(f"op.{op}.{key}", per_call, "count")

    for suite, check in check_labels():
        span = f"verify.{suite}.{check}"
        busy = (end - start)[name == ids[span]].sum() if span in ids else 0.0
        put(f"verify.{suite}.{check}_s", busy, "s")

    put("import.numpy_s", imports["numpy"], "s")
    put("import.scipy_s", imports["scipy"], "s")
    put("import.kreinkit_s", imports["kreinkit"], "s")
    put("cli.compute_s", cli_compute_s, "s")
    put("process.cpu_s", cpu_s, "s")
    put("trace_overhead_frac", traced_wall / untraced_wall - 1.0, "ratio")
    return m
