"""Self-tests of the benchmark: tracing arithmetic, metric names and
units, and a gate that can fail.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_nested_span_tree():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def leaf():
        clock.now += 1.0

    def hot():
        clock.now += 0.5
        wrapped_leaf()
        clock.now += 0.25

    def middle():
        clock.now += 2.0
        wrapped_hot()
        wrapped_leaf()

    def top():
        clock.now += 3.0
        wrapped_middle()
        wrapped_leaf()
        clock.now += 4.0

    wrapped_leaf = tracer.wrap("leaf", leaf, span=True)
    wrapped_hot = tracer.wrap("hot", hot)
    wrapped_middle = tracer.wrap("middle", middle, span=True)
    tracer.wrap("top", top, span=True)()

    assert tracer.counts == {"leaf": 3, "hot": 1, "middle": 1, "top": 1}
    assert tracer.self_s == {"leaf": 3.0, "hot": 0.75, "middle": 2.0, "top": 7.0}
    names = [s[0] for s in tracer.spans]
    assert names == ["top", "middle", "leaf", "leaf", "leaf"]
    parents = [names[s[3]] if s[3] >= 0 else None for s in tracer.spans]
    # The leaf inside the hot boundary belongs to the enclosing span.
    assert parents == [None, "top", "middle", "middle", "top"]
    top_span = tracer.spans[0]
    assert (top_span[1], top_span[2]) == (0.0, 12.75)
    assert tracer.under[("leaf", "middle")] == 2


def test_outermost_counts_recursive_calls_once():
    tracer = tracing.Tracer()

    def countdown(n):
        return 0 if n == 0 else wrapped(n - 1) + 1

    wrapped = tracer.wrap("countdown", countdown, outermost=True)
    assert wrapped(5) == 5
    assert tracer.counts["countdown"] == 1


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_declared_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared()[trace]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace:
        metrics = result["metrics"]
        assert metrics["error_rate"]["value"] == 0.0
        if workload == "deep_orbit":
            degree = workloads.SIZES["tiny"]["deep_orbit"]["max_degree"]
            assert metrics["operators.apply.count"]["value"] == degree * (degree + 1) // 2
            assert metrics["operators.eval_poly.count"]["value"] == degree + 1


def test_gate_fails_on_oracle_mismatch():
    params = workloads.SIZES["tiny"]["deep_orbit"]
    oracle = gate.dense_oracle(3, params)
    attempted, failed, _ = gate.check("deep_orbit", 3, params, [{"best": oracle}])
    assert attempted == len(oracle) and failed == 0
    wrong = [list(pair) for pair in oracle]
    wrong[1][0] *= 1 + 1e-9
    attempted, failed, problems = gate.check("deep_orbit", 3, params,
                                             [{"best": oracle}, {"best": wrong}])
    assert failed == 1 and failed / attempted > 0
    assert "target 1" in problems[0]


def test_gate_fails_on_changed_payload_or_exit_code():
    params = workloads.SIZES["full"]["criterion_cli"]
    good = {label: {"code": code, "digest": "a", "conds": workloads.CRITERION_I_CONDS}
            for label, code in params["codes"].items()}
    changed = json.loads(json.dumps(good))
    changed["II"]["digest"] = "b"
    changed["screen"]["code"] = 2
    attempted, failed, _ = gate.check("criterion_cli", 0, params, [good, good, changed])
    assert (attempted, failed) == (12, 2)
