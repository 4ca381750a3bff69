"""Tests of the benchmark itself: python3 -m pytest bench

Tiny runs (one pass each) check the output format and that a seed fixes
the fingerprint; the tracer is checked on its own for missing names and
self time.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

_runs = {}


def _run(workload, seed, trace, fresh=False):
    key = (workload, seed, trace)
    if fresh or key not in _runs:
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                               "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        _runs[key] = proc.stdout.splitlines()
    return _runs[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    result = json.loads(_run(workload, 3, trace)[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_fingerprint(workload):
    def fingerprint(lines):
        return next(line for line in lines if line.startswith("fingerprint "))

    first = fingerprint(_run(workload, 3, 0))
    again = fingerprint(_run(workload, 3, 0, fresh=True))
    other = fingerprint(_run(workload, 4, 0))
    assert first == again
    assert first != other


def test_missing_name_is_reported_not_raised(monkeypatch):
    import drumtest.cli  # noqa: F401
    import drumtest.checks
    from spans import Tracer
    original = drumtest.checks.check_sarpd
    monkeypatch.delattr(drumtest.checks, "check_sarpd")
    tracer = Tracer()
    tracer.install()
    try:
        assert "checks.check_sarpd" in tracer.missing
        assert drumtest.cli.check_sarpd is original  # left unwrapped
        assert hasattr(drumtest.cli.check_stability, "__wrapped__")
    finally:
        tracer.uninstall()


def test_self_time_subtracts_direct_children():
    import drumtest.cli  # noqa: F401
    from drumtest import checks, cli
    from spans import Tracer
    tracer = Tracer()
    original = cli.check_stability
    tracer.install()
    try:
        assert cli.check_stability is not original
    finally:
        tracer.uninstall()
    assert cli.check_stability is original and checks.check_stability is original
    # cli.main 0..10 ms holding io.read_rho 1..3 ms and checks.cone_membership
    # 4..9 ms, which holds checks.nnls 5..8 ms
    tracer.spans = [["cli.main", 0.000, 0.010, -1, "a"],
                    ["io.read_rho", 0.001, 0.003, 0, "a"],
                    ["checks.cone_membership", 0.004, 0.009, 0, "a"],
                    ["checks.nnls", 0.005, 0.008, 2, "a"],
                    ["cli.main", 0.0, 1.0, -1, "other op"]]
    rows = tracer.summary({"a"}, 1)
    assert rows["cli.main"]["calls"] == 1
    assert rows["cli.main"]["ms"] == pytest.approx(10.0)
    assert rows["cli.main"]["self_ms"] == pytest.approx(3.0)
    assert rows["checks.cone_membership"]["self_ms"] == pytest.approx(2.0)
    assert rows["checks.nnls"]["self_ms"] == pytest.approx(3.0)
