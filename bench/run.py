"""drumtest benchmark: one workload per process, seeded, single-threaded.

    python3 bench/run.py --workload mc-table|app-test|check-bounds \
        --seed N --seconds S --trace 0|1

Run from the repository root; drumtest is imported from ``src/``. The run
sets up its inputs several times (set-up time is the median), then repeats
passes of the workload's ops until ``--seconds`` have passed, checking every
output. With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` each
pass runs untraced and is then replayed under the span tracer, and the last
line carries the per-layer metrics, including the tracing overhead. Full
results and spans go to ``.bench_out/``.
"""

from __future__ import annotations

import os

# pin BLAS and OpenMP pools before numpy loads, so the numbers measure the
# program and not the scheduler
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from spans import SPAN_NAMES, Tracer  # noqa: E402
from workloads import MC_CELLS, WORKLOADS, Outcome  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 3
# The host probe's typical time on the 2-core machine the baseline was
# taken on; reported times are scaled to a host that runs the probe in
# this long (see _probe_ms).
PROBE_REF_MS = 2.2


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _environment(args, host_probe_ms):
    try:
        from scipy.optimize._highspy import _core
        highs = f"{_core.HIGHS_VERSION_MAJOR}.{_core.HIGHS_VERSION_MINOR}." \
                f"{_core.HIGHS_VERSION_PATCH}"
    except (ImportError, AttributeError):
        highs = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "highs": highs,
            "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "host_probe_ms": host_probe_ms}


def _probe_ms():
    """Wall time of a fixed pure-Python loop, a gauge of host speed.

    Host speed on a shared machine drifts, by up to 1.8x within minutes, and
    moves every op's time with it. The probe runs before every op (outside
    its timing); each pass's times are multiplied by PROBE_REF_MS over the
    pass's median probe, which takes most of that drift out."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    return (time.perf_counter() - t0) * 1e3


def _time_import():
    """Wall time of a fresh interpreter importing the CLI and its layers."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import drumtest.cli"], env=env, cwd=ROOT,
                   check=True)
    return time.perf_counter() - t0


class Measurement:
    """Outcome of running passes of a workload's ops."""

    def __init__(self):
        self.samples = []       # (kind, raw ms per unit, units, pass) per op
        self.probes = []        # per pass, the host probe before each op (ms)
        self.pass_seconds = []  # raw wall time per pass
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.known_defects = []
        self.fingerprint = []
        self.op_ids = set()

    @property
    def passes(self):
        return len(self.pass_seconds)

    @property
    def seconds(self):
        return sum(self.pass_seconds)

    def factor(self, k):
        """Host-speed factor of pass ``k``."""
        return PROBE_REF_MS / statistics.median(self.probes[k])

    def adjusted_seconds(self):
        return sum(s * self.factor(k) for k, s in enumerate(self.pass_seconds))

    def unit_ms(self, adjusted=True):
        out = []
        for _, ms, units, k in self.samples:
            out += [ms * self.factor(k) if adjusted else ms] * units
        return out


def run_pass(workload, m, tracer=None):
    """Run pass number ``m.passes`` of the workload's ops into ``m``. The
    first pass's outputs are the fingerprint."""
    index = m.passes
    probes = []
    m.probes.append(probes)
    t_start = time.perf_counter()
    for j, op in enumerate(workload.pass_ops(index)):
        op_id = f"{index}.{j}"
        if tracer is not None:
            tracer.op = op_id
        probes.append(_probe_ms())
        t0 = time.perf_counter()
        try:
            outcome = op.run()
        except Exception as exc:  # an op that raises counts as failed
            outcome = Outcome(False, f"{type(exc).__name__}: {exc}")
        ms = (time.perf_counter() - t0) * 1e3
        m.op_ids.add(op_id)
        m.samples.append((op.kind, ms / op.units, op.units, index))
        m.attempted += op.units
        if not outcome.ok:
            m.failed += op.units
            m.failures.append(f"{op.kind} (pass {index}): {outcome.detail}")
        m.known_defects += [f"{op.kind}:{name}" for name in outcome.known_defects]
        if index == 0:
            m.fingerprint.append(op.kind + "=" + ",".join(outcome.fingerprint))
    m.pass_seconds.append(time.perf_counter() - t_start)


def run_passes(workload, seconds):
    """Whole passes until ``seconds`` have passed; the first always completes."""
    m = Measurement()
    t_start = time.perf_counter()
    while True:
        run_pass(workload, m)
        if time.perf_counter() - t_start >= seconds:
            return m


def run_traced(workload, seconds, tracer):
    """Each pass runs untraced and traced back to back, in alternating order,
    until ``seconds`` have passed, so the two sides see the same ops and the
    same drift in host speed."""
    untraced, traced = Measurement(), Measurement()
    t_start = time.perf_counter()
    while True:
        traced_first = untraced.passes % 2 == 1
        if not traced_first:
            run_pass(workload, untraced)
        tracer.install()
        try:
            run_pass(workload, traced, tracer)
        finally:
            tracer.uninstall()
        if traced_first:
            run_pass(workload, untraced)
        if time.perf_counter() - t_start >= seconds:
            return untraced, traced


def _percentiles(values):
    p50, p90 = np.percentile(values, [50, 90])
    return float(p50), float(p90), int(sum(v > p90 for v in values))


def _kind_medians(m):
    kinds = {}
    for kind, ms, _, k in m.samples:
        kinds.setdefault(kind, []).append(ms * m.factor(k))
    return {k: statistics.median(v) for k, v in kinds.items()}


def _per(name):
    """io writers build the inputs, so they are counted per set-up."""
    return "setup" if name.startswith("io.write") else "op"


def end_to_end(m, setup_s):
    p50, p90, _ = _percentiles(m.unit_ms())
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"setup_s": (setup_s, "s"),
            "ops_per_s": (m.attempted / m.adjusted_seconds(), "1/s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
            "op_ms.p50": (p50, "ms"),
            "op_ms.p90": (p90, "ms")}


def per_layer(untraced, traced, tracer):
    rows = {"op": tracer.summary(traced.op_ids, traced.attempted),
            "setup": tracer.summary({"setup"}, SETUP_REPS)}
    metrics = {}
    for name in SPAN_NAMES:
        per = _per(name)
        row = rows[per][name]
        metrics[f"{name}.calls"] = (row["calls"], f"calls/{per}")
        metrics[f"{name}.ms"] = (row["ms"], f"ms/{per}")
        metrics[f"{name}.self_ms"] = (row["self_ms"], f"ms/{per}")
    metrics["geometry.distinct_budget_sets_per_call"] = (
        tracer.distinct_budget_sets_per_call(traced.op_ids), "ratio")
    metrics["trace.overhead_pct"] = (
        100.0 * (traced.seconds - untraced.seconds) / untraced.seconds, "%")
    metrics["trace.missing"] = (len(tracer.missing), "count")
    cells = _kind_medians(untraced)
    for cell, *_ in MC_CELLS:
        metrics[f"mc.{cell}.ms_per_sim"] = (cells.get(cell, 0.0), "ms/sim")
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "drumtest" / "__init__.py").is_file():
        print(f"error: no drumtest package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import drumtest.cli  # noqa: F401  (loads every layer before wrapping)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    outdir = ROOT / ".bench_out"
    outdir.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            factor = PROBE_REF_MS / statistics.median(_probe_ms() for _ in range(5))
            import_s = _time_import()
            if tracer is not None:
                tracer.op = "setup"
                tracer.install()
            t0 = time.perf_counter()
            workload.setup(workdir, args.seed)
            setup_times.append((import_s + time.perf_counter() - t0) * factor)
            if tracer is not None:
                tracer.uninstall()
                tracer.op = None
        setup_s = statistics.median(setup_times)

        if tracer is None:
            m = run_passes(workload, args.seconds)
            runs = [m]
            metrics, names = end_to_end(m, setup_s), spec["end_to_end"]
        else:
            untraced, traced = run_traced(workload, args.seconds, tracer)
            m, runs = untraced, [untraced, traced]
            metrics, names = per_layer(untraced, traced, tracer), spec["per_layer"]
            tracer.dump(outdir / f"{args.workload}-seed{args.seed}.spans.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    fingerprint = hashlib.sha256("\n".join(m.fingerprint).encode()).hexdigest()[:16]
    env = _environment(args, statistics.median(p for pass_probes in m.probes
                                               for p in pass_probes))
    wrong = [e["name"] for e in names
             if e["name"] not in metrics or metrics[e["name"]][1] != e["unit"]]
    if wrong:
        raise KeyError(f"BENCHMARK.json metrics missing here or with another unit: {wrong}")
    selected = {e["name"]: {"value": metrics[e["name"]][0], "unit": e["unit"]} for e in names}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    raw50, raw90, _ = _percentiles(m.unit_ms(adjusted=False))
    print(f"ops {m.attempted} in {m.passes} passes, {m.seconds:.2f} s "
          f"({m.adjusted_seconds():.2f} s adjusted to host speed); "
          f"{_percentiles(m.unit_ms())[2]} ops beyond p90; "
          f"fail_ratio {failed / attempted:.4f}")
    print(f"raw op_ms p50 {raw50:.2f}, p90 {raw90:.2f}; "
          f"host probe {env['host_probe_ms']:.3f} ms (reference {PROBE_REF_MS})")
    for k, v in sorted(_kind_medians(m).items()):
        print(f"  {k:<20} median {v:10.2f} ms per op (adjusted)")
    if tracer is not None:
        print(f"tracing overhead {metrics['trace.overhead_pct'][0]:.2f}% "
              f"({traced.seconds:.2f} s traced vs {untraced.seconds:.2f} s untraced)")
        print(f"missing names: {tracer.missing or 'none'}")
        print(f"{'layer':<46}{'calls/op':>10}{'ms/op':>12}{'self_ms/op':>12}")
        for name in SPAN_NAMES:
            c, ms, s = (metrics[f"{name}.{f}"][0] for f in ("calls", "ms", "self_ms"))
            if c:
                print(f"{name + ' (per ' + _per(name) + ')':<46}{c:>10.2f}{ms:>12.3f}{s:>12.3f}")
    for failure in sum((r.failures for r in runs), [])[:20]:
        print(f"FAILED {failure}")
    defects = sorted(set(m.known_defects))
    print(f"known defects: {len(m.known_defects)} verdicts {defects or ''} (see bench/NOTES.md)")
    print(f"fingerprint {fingerprint}")

    result = {"env": env, "fingerprint": fingerprint, "setup_times_s": setup_times,
              "known_defects": m.known_defects,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "failures": sum((r.failures for r in runs), [])}
    (outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": selected}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
