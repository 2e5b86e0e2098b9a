"""The repository benchmark: one command, every workload, checked answers.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload point-read --seed 1 --seconds 20 \\
        --trace 0

Workloads: ``point-read`` and ``write-mix`` (see
``perfbench/README.md``).  ``--workload all`` runs both in turn.
The command prints one line per metric, with its unit, and as its last
line one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
It exits non-zero if any answer was wrong or any operation failed.

With ``--trace 0`` the metrics are the end-to-end ones: several fresh
processes each set the workload up and measure a share of
``--seconds``, and their samples are pooled.  With ``--trace 1`` the
metrics are the per-layer ones: one untraced and one traced process
each run the workload for ``--seconds``, the spans of the traced one
give each layer's self time, and the two runs' ratio is the tracing
overhead.

Each session runs in a child process of this command (the same file
with ``--role session``), with every ``REPRO_*`` switch cleared, so
nothing a shell exported (such as a plan-store path) reaches the
program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout: plan stores, span dumps.
WORK = os.path.join(ROOT, ".perfbench")

#: Fresh processes per untraced run.  Each sets up (the median set-up
#: time is reported) and measures an equal share of the seconds, so
#: that the pooled samples span the whole run and follow the host's
#: speed changes less.
SESSIONS = 5
WORKLOADS = ("point-read", "write-mix")
#: Each workload's children must end within this many seconds.
BUDGET_S = 170.0

END_TO_END = {
    "setup_s": "s", "reload_s": "s",
    "op_ms": "ms", "op_tail_ms": "ms", "op2_ms": "ms", "op2_tail_ms": "ms",
    "op_rate_per_s": "1/s", "scan_ms": "ms", "peak_rss_mb": "MB",
}
#: Each timed operation's statistics: the central value and the
#: highest tail percentile, chosen so that they repeat on a shared
#: 2-vCPU host whose single-thread speed flips between two levels
#: about 1.6x apart.  point-read's open-loop reads mix sub-0.1 ms cache
#: hits with multi-ms misses (10-15% of reads), and every sweep on a
#: miss holds the interpreter and delays the reads due during it, so
#: their mean and their far tail grow faster than the host slows: the
#: median (a hit) and the p95 (the body of the misses) repeat.  Its
#: uncached reads are all misses, so their p90 is that body.
#: write-mix's writes are all alike: their median jumps to whichever
#: speed level held more of the run where the mean moves in
#: proportion, and a p99 of its thousand-odd writes per 10 s rests on
#: ten samples where the p90 rests on a hundred.
STATISTICS = {
    "point-read": {"op": ("p50", 95.0), "op2": ("p50", 90.0)},
    "write-mix": {"op": ("mean", 90.0), "op2": ("mean", 90.0)},
}
#: What the generic metrics are called on each workload.
WORKLOAD_NAMES = {
    "point-read": {"op_ms": "read_p50_ms", "op_tail_ms": "read_p95_ms",
                   "op2_ms": "uncached_read_p50_ms",
                   "op2_tail_ms": "uncached_read_p90_ms",
                   "op_rate_per_s": "read_saturation_qps",
                   "scan_ms": "groupby_ms"},
    "write-mix": {"op_ms": "write_mean_ms", "op_tail_ms": "write_p90_ms",
                  "op2_ms": "rw_read_mean_ms", "op2_tail_ms": "rw_read_p90_ms",
                  "op_rate_per_s": "writes_per_s", "scan_ms": "groupby_ms"},
}


# -- child process ------------------------------------------------------------


def child_main(args: argparse.Namespace) -> int:
    """Run one session in this process; print its samples as JSON."""
    from loadgen import percentile
    from tracing import Tracer, layer_metrics, queue_waits
    from workloads import Session

    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    session = Session(args.workload, args.seed, args.seconds, args.scale,
                      workdir, corrupt=args.corrupt_first_check)
    tracer = Tracer() if args.trace else None
    try:
        out = session.run(tracer=tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    summary = {key: out[key] for key in (
        "setup_s", "reloads", "op2", "scan", "rates", "peak_rss_mb",
        "attempted", "failed", "messages", "kernel", "fallbacks")}
    # Sample values repeat, so (value, count) pairs ship them compactly.
    summary["op"] = sorted(Counter(out["op"]).items())
    if tracer is not None:
        layer = dict(out["layer"])
        waits = [wait for chunk in out.get("reference", ())
                 for wait in queue_waits(tracer, chunk)]
        if waits:
            layer["serve.queue_wait_p50_ms"] = percentile(waits, 50) * 1e3
            layer["serve.queue_wait_p99_ms"] = percentile(waits, 99) * 1e3
        summary["layer"] = layer_metrics(tracer, args.workload, layer)
        summary["layer"]["trace.spans"] = float(len(tracer.spans))
        os.makedirs(WORK, exist_ok=True)
        path = os.path.join(WORK, f"spans-{args.workload}.jsonl")
        tracer.dump(path)
        summary["spans_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(summary))
    return 0


def end_to_end(sessions: List[Dict[str, Any]], workload: str
               ) -> Tuple[Dict[str, float], List[str]]:
    """Pool the sessions' samples into the end-to-end metrics; returns
    them with notes on which percentile each tail is and the other
    statistics of each timed operation."""
    from loadgen import percentile, summarize

    setups = [session["setup_s"] for session in sessions]
    op = Counter()
    for session in sessions:
        op.update({value: count for value, count in session["op"]})
    op2 = [value for session in sessions for value in session["op2"]]
    pooled = {key: [value for session in sessions for value in session[key]]
              for key in ("reloads", "scan", "rates")}
    metrics = {
        "setup_s": statistics.median(setups),
        "reload_s": statistics.fmean(pooled["reloads"]),
        "op_rate_per_s": (sum(count for count, _ in pooled["rates"])
                          / sum(seconds for _, seconds in pooled["rates"])),
        "scan_ms": statistics.fmean(pooled["scan"]) * 1e3,
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sessions),
    }
    notes = []
    for name, sample in (("op", op), ("op2", op2)):
        central, top = STATISTICS[workload][name]
        middle, tail, pct, count = summarize(sample, central, top)
        metrics[f"{name}_ms"] = middle * 1e3
        metrics[f"{name}_tail_ms"] = tail * 1e3
        mean = summarize(sample, "mean", top)[0]
        notes.append(f"{name}: {central} and p{pct:g} of {count} samples; "
                     + ", ".join(f"{label} {value * 1e3:.6f}" for label, value
                                 in (("mean", mean),
                                     ("p50", percentile(sample, 50)),
                                     ("p90", percentile(sample, 90)),
                                     ("p99", percentile(sample, 99))))
                     + " ms")
    return {name: metrics[name] for name in END_TO_END}, notes


# -- parent process -----------------------------------------------------------


def pinned_env() -> Dict[str, str]:
    """The children's environment: every ``REPRO_*`` switch cleared, the
    checkout's ``src`` first on the path, string hashing fixed."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: argparse.Namespace, seconds: float, trace: int,
              deadline: float, corrupt: bool = False) -> Dict[str, Any]:
    command = [sys.executable, os.path.abspath(__file__),
               "--role", "session", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(seconds),
               "--trace", str(trace), "--scale", args.scale]
    if corrupt:
        command.append("--corrupt-first-check")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("time budget exhausted before a child started")
    # subprocess.run kills and reaps the child if it overruns.
    proc = subprocess.run(command, env=pinned_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, timeout=timeout,
                          check=False, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"session process for {args.workload} exited "
                           f"with code {proc.returncode}")
    return json.loads(lines[-1])


def numpy_version() -> str:
    try:
        import numpy
    except ImportError:
        return "absent"
    return str(numpy.__version__)


def run_workload(args: argparse.Namespace, deadline: float
                 ) -> Dict[str, Any]:
    """Run one workload; print its lines; return its result object."""
    print(f"== {args.workload}  seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} scale={args.scale}")
    corrupt = args.corrupt_first_check
    if args.trace:
        plain = run_child(args, args.seconds, 0, deadline, corrupt)
        traced = run_child(args, args.seconds, 1, deadline)
        sessions = [plain, traced]
        metrics = dict(traced["layer"])
        metrics["trace.setup_ratio"] = traced["setup_s"] / plain["setup_s"]
        metrics["trace.op_ratio"] = (
            end_to_end([traced], args.workload)[0]["op_ms"]
            / end_to_end([plain], args.workload)[0]["op_ms"])
        units = per_layer_units()
        notes = [f"spans written to {traced['spans_file']}"]
    else:
        sessions = [run_child(args, args.seconds / SESSIONS, 0, deadline,
                              corrupt and index == 0)
                    for index in range(SESSIONS)]
        metrics, notes = end_to_end(sessions, args.workload)
        units = END_TO_END
        notes.insert(0, f"set-up seconds of {SESSIONS} fresh processes: "
                     + ", ".join(f"{s['setup_s']:.4f}" for s in sessions))
    attempted = sum(session["attempted"] for session in sessions)
    failed = sum(session["failed"] for session in sessions)
    for note in notes:
        print(note)
    print(f"env nproc={len(os.sched_getaffinity(0))} "
          f"python={platform.python_version()} "
          f"numpy={numpy_version()} PYTHONHASHSEED=0 REPRO_*=cleared "
          f"kernel={sessions[0]['kernel']} "
          f"kernel_fallbacks={sessions[0]['fallbacks']}")
    for name, value in metrics.items():
        print(f"{name:36s} {value:14.6f} {units.get(name, '')}")
    if not args.trace:
        for metric, alias in WORKLOAD_NAMES[args.workload].items():
            print(f"  on {args.workload}: {metric} is {alias}")
    print(f"failed_frac {failed / max(1, attempted):.6f} "
          f"({failed} of {attempted})")
    for session in sessions:
        for message in session["messages"]:
            print(f"FAILED: {message}")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units.get(name, "")}
                        for name, value in metrics.items()}}


def per_layer_units() -> Dict[str, str]:
    from tracing import PER_LAYER
    units = {name: spec[0] for name, spec in PER_LAYER.items()}
    units.update({"trace.spans": "count", "trace.setup_ratio": "ratio",
                  "trace.op_ratio": "ratio"})
    return units


def parent_main(args: argparse.Namespace) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for workload in workloads:
            args.workload = workload
            results.append(run_workload(args,
                                        time.monotonic() + BUDGET_S))
    except (RuntimeError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:  # all workloads: one object, metric names prefixed
        metrics = {f"{workload}.{name}": metric
                   for workload, result in zip(workloads, results)
                   for name, metric in result["metrics"].items()}
    correct = all(result["correct"] for result in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics}))
    return 0 if correct else 1


def parse(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the benchmark's "
                             "own tests")
    parser.add_argument("--corrupt-first-check", action="store_true",
                        help="replace the first expected value with a "
                             "wrong one (tests that mismatches count)")
    parser.add_argument("--role", choices=("parent", "session"),
                        default="parent", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    if args.role == "parent":
        return parent_main(args)
    if args.workload == "all":
        raise SystemExit("a child process runs one workload")
    return child_main(args)


if __name__ == "__main__":
    sys.exit(main())
