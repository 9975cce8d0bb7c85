"""kreinkit benchmark: one workload, one run, metrics as JSON on the last line.

    python3 perfbench/run.py --workload desk_build --seed 3 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` the run is untraced and reports the end-to-end metrics;
with ``--trace 1`` it runs a warm-up, an untraced and a traced pass of the
same inputs and reports the per-layer metrics.  The last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``; the line before it
carries the run's metadata (machine, BLAS, tail percentile).  Spans and the
full result are written under ``perfbench/out/``.
"""

from __future__ import annotations

import os

# one BLAS thread, before numpy loads here or in any child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5
CPUS = sorted(os.sched_getaffinity(0))
REPIN_SECONDS = 1.0


def load_library():
    """Import kreinkit from the checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import kreinkit

    if Path(kreinkit.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"kreinkit was imported from {kreinkit.__file__}, not {src}")


def make_workload(name: str, seed: int):
    import workloads as w

    if name == "cli_oneshot":
        return w.CliOneshot(seed, ROOT, OUT / f"cli-{os.getpid()}")
    return {"verify_all": w.VerifyAll, "desk_build": w.DeskBuild,
            "desk_queries": w.DeskQueries}[name](seed)


def tail(values):
    """Highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, samples beyond); with fewer than 11 samples
    it is the maximum.
    """
    ordered = sorted(values)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def _probe_seconds() -> float:
    """A fixed ~10 ms mix of LAPACK and interpreter work."""
    import numpy as np

    a = np.arange(14400.0).reshape(120, 120) % 7.0
    a = a + a.T
    start = time.perf_counter()
    for _ in range(4):
        np.linalg.eigh(a)
    total = 0
    for i in range(20000):
        total += i * i
    return time.perf_counter() - start


def pin_quietest_cpu() -> None:
    """Pin this process, and the children it starts, to its fastest CPU now.

    On a shared machine other tenants' load makes each CPU switch between
    speeds about 35% apart, for seconds to minutes at a time.  Three runs of
    a fixed probe on each allowed CPU pick the fastest one.  Called between
    passes, outside the timed window; a no-op with one CPU.
    """
    if len(CPUS) < 2:
        return
    speed = {}
    try:
        for cpu in CPUS:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = statistics.median(_probe_seconds() for _ in range(3))
        os.sched_setaffinity(0, {min(speed, key=speed.get)})
    except OSError:  # affinity not settable here: run unpinned
        pass


class Repinner:
    """``pin_quietest_cpu`` at most once per ``REPIN_SECONDS``; adds up its time."""

    def __init__(self):
        self.last = float("-inf")
        self.spent = 0.0

    def __call__(self) -> None:
        start = time.perf_counter()
        if start - self.last >= REPIN_SECONDS:
            pin_quietest_cpu()
            self.last = time.perf_counter()
            self.spent += self.last - start


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to the end of its set-up."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--setup-only"]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def machine() -> dict:
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), "")
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "openblas_config": blas.get("openblas configuration"),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------


def run_untraced(wl, seconds: float, setup_samples: list[float]):
    """Closed loop over the passes that fill ``seconds``; the end-to-end metrics."""
    wl.setup()
    passes, latencies = [], []
    failed = 0
    # long passes may re-pin between their operations; that time is not the pass's
    wl.between = repin = Repinner()
    for r in range(max(1, round(seconds / wl.PASS_SECONDS))):
        inp = wl.inputs(r)
        repin()
        spent = repin.spent
        t0 = time.perf_counter()
        ops = wl.run(inp)
        passes.append(time.perf_counter() - t0 - (repin.spent - spent))
        failed += wl.check(inp, ops)
        latencies += [op.seconds for op in ops]
    attempted = len(latencies)
    rss_kb = getattr(wl, "max_rss_kb", 0) or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    value, pct, beyond = tail(latencies)
    metrics = {
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "wall_s": metric(statistics.median(passes), "s"),
        "ops_per_s": metric(attempted / sum(passes), "1/s"),
        "op_p50_ms": metric(1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": metric(1e3 * value, "ms"),
        "ok_frac": metric((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": metric(rss_kb / 1024.0, "MB"),
    }
    meta = {"passes": len(passes), "op_tail_percentile": pct, "op_tail_beyond": beyond,
            "op_samples": attempted, "setup_samples_s": setup_samples, "pinning_s": repin.spent,
            "failed_frac": failed / attempted}
    return attempted, failed, metrics, meta


def import_times(env) -> dict:
    """Self import time by top-level package, from ``-X importtime``; median of 3."""
    argv = [sys.executable, "-X", "importtime", "-c", "import kreinkit.cli"]
    samples = []
    for _ in range(3):
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, check=True)
        sums = {"numpy": 0.0, "scipy": 0.0, "kreinkit": 0.0}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _, package = line[len("import time:"):].split("|")
            top = package.strip().split(".")[0]
            if top in sums:
                sums[top] += float(self_us) * 1e-6
        samples.append(sums)
    return {k: statistics.median(s[k] for s in samples) for k in ("numpy", "scipy", "kreinkit")}


def run_traced(wl, name: str, seed: int):
    """Warm-up, untraced, then traced passes over the same inputs; per-layer metrics.

    Both halves time the inputs of each pass with the pass, so that the
    traced half's ``gens`` spans have an untraced counterpart.  On
    ``verify_all`` the check compares each pass's printed lines with the
    first pass's, so the traced PASS/FAIL lines must match the untraced ones.
    """
    import layers
    import workloads as w
    from tracer import Tracer

    wl.setup()
    cli_mode = name == "cli_oneshot"
    run = wl.run_inprocess if cli_mode else wl.run
    passes = range(1, wl.TRACED_PASSES + 1)

    def window(tracer=None):
        failed = attempted = 0
        elapsed = cpu = 0.0
        for r in passes:
            pin_quietest_cpu()
            t0, c0 = time.perf_counter(), time.process_time()
            inp = wl.inputs(r)
            if tracer is not None and name == "verify_all":
                ops = run(inp, wrap=tracer.wrap)
            else:
                ops = run(inp)
            elapsed += time.perf_counter() - t0
            cpu += time.process_time() - c0
            failed += wl.check(inp, ops)
            attempted += len(ops)
        return elapsed, cpu, attempted, failed

    # a first, discarded pass pays first-touch allocation for both halves
    _, _, attempted, failed = window()
    plain, cpu_s, n1, f1 = window()
    attempted += n1
    failed += f1
    tracer = Tracer()
    tracer.install()
    try:
        traced, _, n2, f2 = window(tracer)
    finally:
        tracer.restore()
    attempted += n2
    failed += f2
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{name}-seed{seed}.npz")
    metrics = layers.per_layer(
        tracer, traced_wall=traced, untraced_wall=plain, cpu_s=cpu_s,
        imports=import_times(w.child_env(ROOT)), cli_compute_s=plain if cli_mode else 0.0,
    )
    meta = {"traced_wall_s": traced, "untraced_wall_s": plain, "spans": len(tracer.start)}
    return attempted, failed, metrics, meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify_all", "desk_build", "desk_queries", "cli_oneshot"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        load_library()
    except ImportError as exc:
        print(f"cannot import kreinkit from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    wl = make_workload(args.workload, args.seed)
    workdir = getattr(wl, "workdir", None)
    try:
        if args.setup_only:
            wl.setup()
            print("ready", flush=True)
            return 0
        if args.trace:
            attempted, failed, metrics, meta = run_traced(wl, args.workload, args.seed)
        else:
            samples = []
            for _ in range(SETUP_PROBES):
                pin_quietest_cpu()
                samples.append(probe_setup(args.workload, args.seed))
            attempted, failed, metrics, meta = run_untraced(wl, args.seconds, samples)
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    meta.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                machine=machine())
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, **result}, indent=1))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
