"""Tests of the benchmark itself (not collected by the repository's
tier-1 run, whose ``testpaths`` is ``tests``).  Run with::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures import Future

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from loadgen import open_loop, percentile, summarize  # noqa: E402
from tracing import ASSIGNED, PER_LAYER, Tracer, layer_metrics  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_bench(*extra: str):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--seed", "3",
               "--seconds", "1", "--scale", "tiny", *extra]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=170, check=False)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    code, result, proc = run_bench("--workload", workload, "--trace", trace)
    assert code == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: metric["unit"] for name, metric in
            result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in listed}
    if trace == "0":
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())


def test_wrong_expected_value_counts_as_failure():
    code, result, proc = run_bench("--workload", "write-mix",
                                   "--corrupt-first-check")
    assert code != 0
    assert result["correct"] is False and result["failed"] == 1
    assert "deliberately wrong expected value" in proc.stdout


def test_no_program_no_result(tmp_path):
    """Without the program's sources the command fails and prints no
    result."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if os.path.isfile(os.path.join(HERE, name)):
            shutil.copy(os.path.join(HERE, name), bench / name)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "point-read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


class StallingService:
    """Answers at once, except that one submit blocks for ``stall_s``."""

    def __init__(self, stall_at: int, stall_s: float) -> None:
        self.calls = 0
        self.stall_at = stall_at
        self.stall_s = stall_s

    def submit(self, key):
        self.calls += 1
        if self.calls == self.stall_at + 1:
            time.sleep(self.stall_s)
        future: Future = Future()
        future.set_result(key)
        return future


@pytest.mark.parametrize("stall_s", [0.05, 0.1])
def test_open_loop_times_from_due_time(stall_s):
    rate, count, stall_at = 1000.0, 400, 100
    result = open_loop(StallingService(stall_at, stall_s).submit,
                       list(range(count)), rate)
    latencies = [done - due for due, done in zip(result.due, result.done)]
    lags = result.lags()
    # The stalled request and the ones due during the stall wait for
    # it: their latency, counted from due time, grows with the stall.
    assert latencies[stall_at] >= stall_s * 0.9
    assert latencies[stall_at + 1] >= stall_s * 0.9 - 1 / rate
    late = int(stall_s * rate * 0.5)
    assert latencies[stall_at + late] >= stall_s * 0.4
    # Requests due before the stall are unaffected.
    assert max(latencies[:stall_at]) < stall_s * 0.5
    # The generator reports how late it ran: the stall shows in the
    # p99 of its lag.
    assert percentile(lags, 99.0) >= stall_s * 0.5
    assert result.value == list(range(count))


def test_summarize_counter_matches_list():
    samples = [1.0] * 200 + [2.0] * 100
    mean, tail, pct, count = summarize(samples, "mean", 90.0)
    assert (mean, tail, pct, count) == (pytest.approx(4 / 3), 2.0, 90.0, 300)
    assert summarize(Counter(samples), "mean", 90.0) == (mean, tail, pct,
                                                          count)
    assert summarize(samples, "p50", 99.0) == (1.0, 2.0, 95.0, 300)
    assert summarize(list(range(1, 2001)), "p50", 99.0) == (1000, 1980, 99.0,
                                                            2000)
    # Too few samples for the top percentile with ten beyond it: the
    # tail falls back.
    assert summarize(list(range(1, 51)), "mean", 90.0)[1:3] == (38, 75.0)
    assert percentile(Counter(samples), 50) == percentile(samples, 50) == 1.0


def test_missing_wrap_target_fails_loudly():
    tracer = Tracer()
    with pytest.raises(AttributeError):
        tracer.install({"x": [("repro.core.pipeline", "no_such_function")]})
    tracer.uninstall()


@pytest.mark.parametrize("workload", sorted(ASSIGNED))
def test_assigned_metric_without_spans_fails(workload):
    with pytest.raises(RuntimeError, match="no spans"):
        layer_metrics(Tracer(), workload, {})


def test_per_layer_table_matches_benchmark_json():
    listed = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
    for name, spec in PER_LAYER.items():
        assert listed[name] == spec[0]
    for names in ASSIGNED.values():
        assert set(names) <= set(PER_LAYER)
