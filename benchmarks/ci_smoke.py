"""CI benchmark smoke runner: every bench, fast mode, one JSON artifact.

Runs each ``benchmarks/bench_*.py`` through pytest with the benchmark
fixture disabled (functions execute once — a smoke test plus a coarse
wall-clock sample) and ``REPRO_BENCH_FAST=1`` so size-aware benches
shrink their workloads.  Per-bench timings and outcomes accumulate into
a single JSON report (default ``BENCH_ci.json``) which CI uploads as a
workflow artifact, so the perf trajectory of the repo is recorded per
commit.

On the numpy leg, benches that honor ``REPRO_BACKEND`` (detected by
scanning their source) are re-run with ``REPRO_BACKEND=python`` and the
per-bench python-vs-numpy wall-clock ratio is recorded
(``python_seconds`` / ``speedup_vs_python``), so the backend trajectory
is comparable across runs from the artifact alone.

Perf-regression gate: ``--baseline BENCH_baseline.json`` diffs the
current run against the committed baseline and exits 2 when any bench
slowed down by more than ``--max-regression`` (default 25%, plus a small
``--grace`` absolute allowance for sub-second noise).  Before the
benches run, a tiny fixed pure-Python *calibration* workload measures
the machine's speed; per-bench thresholds are scaled by the ratio of
this run's calibration to the baseline's (clamped to [1, 4] — a slower
CI runner relaxes the gate, a faster one never tightens it below the
25% + grace floor).  Against an old baseline with no calibration
sample, the gate falls back to comparing each bench's *share* of the
run's total time, which is machine-speed-free.  ``--check REPORT.json``
gates an existing report without re-running the benches (used to
validate the gate itself against synthetic regressions).  Refresh the
baseline with ``--write-baseline BENCH_baseline.json`` (skipped when
any bench failed — a broken run must not become the new baseline).

The gate also checks every recorded ``speedup_vs_python`` on the numpy
leg: a vectorized backend slower than pure Python at representative
size is a regression (exit 2).  In fast mode the two benches whose
shrunken workloads are known to sit below the vectorization break-even
point are exempt.

Plan store: bench subprocesses run with ``REPRO_PLAN_STORE`` pointing
at a shared store directory (default ``.plan-store/``, cached across
CI runs), an in-process probe records cold-compile vs warm-load
seconds plus the store's hit/miss counters into the report (the
probe's own store lives in a ``tempfile`` context that is always
cleaned up), and any ``PLAN-STORE-REPORT {json}`` lines the benches
print are lifted into the artifact.  The multi-process serving leg is
recorded the same way: ``CLUSTER-REPORT {json}`` lines from the
sharded-gateway axis of ``bench_serve.py`` land under each bench's
``cluster`` key.

Usage::

    python benchmarks/ci_smoke.py [--output BENCH_ci.json] [--full]
        [--backend auto|python|numpy] [--baseline BENCH_baseline.json]
        [--max-regression 0.25] [--grace 0.25]
        [--write-baseline BENCH_baseline.json] [--check BENCH_ci.json]
        [--plan-store DIR | --no-plan-store]

Exits 1 if any bench fails, 2 if the perf gate trips.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)

# Benches whose REPRO_BENCH_FAST workloads are too small to amortize
# numpy dispatch overhead (measured: the break-even batch/circuit size
# sits above their shrunken fast-mode sizes).  Exempt from the
# speedup_vs_python >= 1 gate in fast mode ONLY — at full size the
# vectorized backend must win on every backend-aware bench.
SPEEDUP_EXEMPT_FAST = {"bench_batched_eval.py", "bench_groupby.py",
                       "bench_serve.py"}

# Clamp bounds for the calibration-derived threshold scale: a slower
# runner may relax the gate up to 4x, a faster runner never tightens
# it (scale floor 1.0 keeps the committed baseline's absolute floor).
CALIBRATION_SCALE_MIN = 1.0
CALIBRATION_SCALE_MAX = 4.0

# Absolute grace (in share-of-total points) for the calibration-free
# relative-share fallback comparison.
SHARE_GRACE = 0.02


def calibrate(repeats: int = 3) -> float:
    """Seconds for a fixed pure-Python workload (best of ``repeats``).

    Measures the machine, not the library: sha256 hashing plus integer
    arithmetic, no imports from the repo, so the sample is identical
    across commits and isolates runner speed from code changes."""
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        digest = hashlib.sha256(b"repro-ci-calibration")
        acc = 0
        for i in range(400_000):
            acc = (acc + i * i) & 0xFFFFFFFF
            if not i & 0x3FFF:
                digest.update(acc.to_bytes(8, "big"))
        digest.hexdigest()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return round(best, 6)


def run_bench(path: str, env: dict) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", path, "-q", "--benchmark-disable",
         "--no-header", "-p", "no:cacheprovider"],
        cwd=REPO, env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    tail = (proc.stdout.strip().splitlines() or [""])[-1]
    counts = {key: int(num) for num, key in
              re.findall(r"(\d+) (passed|failed|error|skipped)", tail)}
    result = {
        "bench": os.path.basename(path),
        "seconds": round(elapsed, 3),
        "returncode": proc.returncode,
        "summary": tail,
        **counts,
    }
    # Benches that exercise the exact-kernel axis print one
    # ``KERNEL-REPORT {json}`` line per axis (chosen kernel, fallback
    # count, speedup); lift them into the artifact so the kernel
    # trajectory is comparable across runs without re-running anything.
    # Benches publish structured rows as ``<KIND>-REPORT {json}`` lines:
    # exact-kernel choices (KERNEL), plan-store cold/warm timings
    # (PLAN-STORE), the sharded-gateway axis of bench_serve (CLUSTER),
    # and the mixed read/write stream of bench_update_stream
    # (UPDATE-STREAM: per-write cost vs the rehash baseline, warm-hit
    # rate, sharded-consistency check).  Lift them into the artifact so
    # each trajectory is comparable across runs without re-running.
    lifted = {key: [] for key in ("kernels", "plan_store", "cluster",
                                  "update_stream")}
    patterns = {"kernels": r"KERNEL-REPORT (\{.*\})\s*$",
                "plan_store": r"PLAN-STORE-REPORT (\{.*\})\s*$",
                "cluster": r"CLUSTER-REPORT (\{.*\})\s*$",
                "update_stream": r"UPDATE-STREAM-REPORT (\{.*\})\s*$"}
    for line in proc.stdout.splitlines():
        # pytest progress dots may prefix the line; search, don't anchor.
        for key, pattern in patterns.items():
            match = re.search(pattern, line)
            if match:
                try:
                    lifted[key].append(json.loads(match.group(1)))
                except json.JSONDecodeError:
                    pass
    for key, rows in lifted.items():
        if rows:
            result[key] = rows
    return result


def backend_aware(path: str) -> bool:
    """Does this bench switch behavior on ``REPRO_BACKEND``?"""
    with open(path) as handle:
        return "REPRO_BACKEND" in handle.read()


def calibration_scale(report: dict, baseline: dict):
    """The threshold scale from the two calibration samples, or ``None``
    when either run lacks one (old baseline / old report)."""
    current = report.get("calibration_seconds")
    base = baseline.get("calibration_seconds")
    if not current or not base:
        return None
    return min(max(current / base, CALIBRATION_SCALE_MIN),
               CALIBRATION_SCALE_MAX)


def compare_to_baseline(report: dict, baseline: dict,
                        max_regression: float, grace: float):
    """Per-bench slowdown check: returns (failures, notes).

    With calibration samples on both sides, per-bench thresholds are
    ``base * (1 + max_regression) * scale + grace`` where ``scale`` is
    the clamped runner-speed ratio — a slow CI machine relaxes the gate
    instead of flaking it.  Without calibration the check falls back to
    each bench's share of its run's total time (machine-speed-free),
    still floored by the plain 25% + grace absolute bound so a tiny
    bench cannot trip on share noise alone.
    """
    failures, notes = [], []
    scale = calibration_scale(report, baseline)
    if scale is None:
        notes.append("no calibration sample on both sides: falling back "
                     "to relative-share comparison")
    elif scale > 1.0:
        notes.append(f"runner is {scale:.2f}x slower than the baseline's "
                     f"(calibration); thresholds scaled accordingly")
    total = sum(b.get("seconds", 0) for b in report.get("benches", []))
    base_total = sum(b.get("seconds", 0) for b in baseline.get("benches", []))
    base_benches = {b["bench"]: b for b in baseline.get("benches", [])}
    for bench in report.get("benches", []):
        base = base_benches.pop(bench["bench"], None)
        if base is None:
            notes.append(f"{bench['bench']}: new bench, no baseline entry")
            continue
        floor = base["seconds"] * (1.0 + max_regression) + grace
        if bench["seconds"] <= floor:
            continue
        slowdown = (bench["seconds"] / base["seconds"] - 1.0) * 100 \
            if base["seconds"] else float("inf")
        if scale is not None:
            allowed = base["seconds"] * (1.0 + max_regression) * scale + grace
            if bench["seconds"] > allowed:
                failures.append(
                    f"{bench['bench']}: {bench['seconds']}s vs baseline "
                    f"{base['seconds']}s (+{slowdown:.0f}%, allowed "
                    f"{allowed:.3f}s at calibration scale {scale:.2f})")
            continue
        # Relative-share fallback: compare the bench's share of its own
        # run's total — uniform machine slowness cancels out.
        share = bench["seconds"] / total if total else 0.0
        base_share = base["seconds"] / base_total if base_total else 0.0
        allowed_share = base_share * (1.0 + max_regression) + SHARE_GRACE
        if share > allowed_share:
            failures.append(
                f"{bench['bench']}: {bench['seconds']}s vs baseline "
                f"{base['seconds']}s (+{slowdown:.0f}%; share "
                f"{share:.1%} of total vs baseline {base_share:.1%}, "
                f"allowed {allowed_share:.1%})")
    for name in base_benches:
        notes.append(f"{name}: in baseline but not in this run")
    return failures, notes


def check_speedups(report: dict):
    """``speedup_vs_python >= 1`` on every bench that recorded one.

    The numpy leg records the python-backend rerun ratio per
    backend-aware bench; a vectorized backend slower than pure Python
    is a perf regression, not noise.  In fast mode the benches in
    ``SPEEDUP_EXEMPT_FAST`` are skipped (their shrunken workloads sit
    below the vectorization break-even size by design)."""
    failures = []
    fast = bool(report.get("fast_mode"))
    for bench in report.get("benches", []):
        speedup = bench.get("speedup_vs_python")
        if speedup is None:
            continue
        if fast and bench["bench"] in SPEEDUP_EXEMPT_FAST:
            continue
        if speedup < 1.0:
            failures.append(
                f"{bench['bench']}: numpy backend is slower than python "
                f"(speedup_vs_python={speedup}, python="
                f"{bench.get('python_seconds')}s vs {bench['seconds']}s)")
    return failures


def baseline_for_backend(data: dict, backend: str):
    """A baseline file is either one plain report or a mapping
    ``backend -> report`` (the committed form covers both CI legs)."""
    if "benches" in data:
        return data
    return data.get(backend)


def merge_baseline(existing: dict, backend: str, report: dict) -> dict:
    """Merge one leg's report into the per-backend baseline mapping.

    The committed baseline holds one report per CI leg; refreshing one
    leg must not drop the other.  A legacy single-report file (the
    pre-mapping form) is lifted into the mapping under its recorded
    backend first."""
    merged = dict(existing)
    if "benches" in merged:  # legacy single-report form
        merged = {merged.get("backend", "numpy"): merged}
    merged[backend] = report
    return merged


def plan_store_probe(store_path: str):
    """Cold-compile vs warm-load seconds through the plan store.

    Compiles a small fixed workload, then measures the cross-process
    cold-start path — save, then load through a *fresh* store handle —
    inside a ``tempfile`` context, so the probe's own store directory
    is always cleaned up, even when the probe raises midway.  The
    shared ``store_path`` is only touched to record whether CI's
    cross-run cache restored the plan (``warmed_from_cache``) and to
    publish it for the next run.  Returns the probe record for the
    report, or an error record when the library is not importable
    (the probe must never fail the smoke run)."""
    sys.path.insert(0, os.path.join(REPO, "src"))
    sys.path.insert(0, HERE)
    try:
        from common import TRIANGLE, timed, triangle_workload
        from repro.core import compile_structure_query, plan_cache_key
        from repro.serve import PlanStore

        structure = triangle_workload(4)
        key = plan_cache_key(structure, TRIANGLE, frozenset(), True)
        # Always measure a true compile — the store could satisfy it.
        compiled, cold = timed(compile_structure_query, structure, TRIANGLE)
        shared = PlanStore(store_path)
        warmed = shared.load(key, structure, TRIANGLE) is not None
        if not warmed:
            shared.save(key, compiled)
        with tempfile.TemporaryDirectory(prefix="repro-plan-probe-") as tmp:
            first = PlanStore(tmp)
            first.save(key, compiled)
            second = PlanStore(tmp)  # fresh handle: no in-memory state
            loaded, warm = timed(second.load, key, structure, TRIANGLE)
            record = {
                "path": os.path.relpath(store_path, REPO),
                "warmed_from_cache": warmed,
                "cold_compile_seconds": round(cold, 6),
                "warm_load_seconds": round(warm, 6),
                "loaded": loaded is not None,
                "hits": second.stats()["hits"],
                "misses": first.stats()["misses"] + second.stats()["misses"],
                "entries": shared.stats()["entries"],
            }
        if loaded is not None and warm:
            record["speedup"] = round(cold / warm, 2)
        return record
    except Exception as error:  # pragma: no cover - defensive
        return {"path": os.path.relpath(store_path, REPO),
                "error": f"{type(error).__name__}: {error}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=os.path.join(REPO,
                                                         "BENCH_ci.json"))
    parser.add_argument("--full", action="store_true",
                        help="run full-size workloads (no fast mode)")
    parser.add_argument("--backend", choices=["auto", "python", "numpy"],
                        default="auto",
                        help="evaluation backend for backend-aware benches "
                             "(exported as REPRO_BACKEND; 'auto' uses numpy "
                             "when importable)")
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON to gate against (exit 2 on "
                             "regression)")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="max tolerated per-bench slowdown fraction "
                             "(default 0.25 = 25%%)")
    parser.add_argument("--grace", type=float, default=0.25,
                        help="absolute seconds of slack per bench on top of "
                             "the relative bound (shields sub-second "
                             "benches from scheduler noise)")
    parser.add_argument("--write-baseline", default=None,
                        help="merge this run into the given baseline file, "
                             "keyed by backend")
    parser.add_argument("--check", default=None,
                        help="gate an existing report JSON against "
                             "--baseline without running any bench")
    parser.add_argument("--plan-store", default=os.path.join(REPO,
                                                             ".plan-store"),
                        help="shared plan-store directory exported to bench "
                             "subprocesses as REPRO_PLAN_STORE and probed "
                             "for cold/warm timings (default .plan-store/, "
                             "cached across CI runs)")
    parser.add_argument("--no-plan-store", action="store_true",
                        help="run without a plan store (no env export, no "
                             "probe)")
    args = parser.parse_args(argv)

    have_numpy = importlib.util.find_spec("numpy") is not None
    if args.backend == "numpy" and not have_numpy:
        parser.error("--backend numpy requested but numpy is not importable")
    backend = ("python" if args.backend == "python" or not have_numpy
               else "numpy")

    if args.check is not None:
        with open(args.check) as handle:
            report = json.load(handle)
        return gate(report, args, report.get("backend", backend))

    calibration = calibrate()
    print(f"calibration: {calibration}s (fixed pure-python workload, "
          f"best of 3)", flush=True)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if not args.full:
        env["REPRO_BENCH_FAST"] = "1"
    if args.backend != "auto":
        env["REPRO_BACKEND"] = args.backend
    if not args.no_plan_store:
        os.makedirs(args.plan_store, exist_ok=True)
        env["REPRO_PLAN_STORE"] = args.plan_store

    benches = sorted(name for name in os.listdir(HERE)
                     if name.startswith("bench_") and name.endswith(".py"))
    results = []
    for name in benches:
        path = os.path.join(HERE, name)
        result = run_bench(path, env)
        if backend == "numpy" and backend_aware(path):
            # The backend trajectory: the same bench, python backend, so
            # the artifact records the per-bench vectorization speedup.
            python_env = dict(env)
            python_env["REPRO_BACKEND"] = "python"
            python_run = run_bench(path, python_env)
            if python_run["returncode"] == 0:
                result["python_seconds"] = python_run["seconds"]
                result["speedup_vs_python"] = (
                    round(python_run["seconds"] / result["seconds"], 2)
                    if result["seconds"] else None)
            else:
                # A crashing python-backend rerun is a real failure, not
                # a timing sample: record it and fail the run.
                result["python_rerun"] = {
                    "returncode": python_run["returncode"],
                    "summary": python_run["summary"],
                }
                result["returncode"] = result["returncode"] or \
                    python_run["returncode"]
        status = "ok" if result["returncode"] == 0 else "FAIL"
        ratio = (f"  python/numpy={result['speedup_vs_python']}x"
                 if "speedup_vs_python" in result else "")
        print(f"[{status}] {name}: {result['seconds']}s  "
              f"({result['summary']}){ratio}", flush=True)
        results.append(result)

    report = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "fast_mode": not args.full,
        "backend": backend,
        "numpy_available": have_numpy,
        "calibration_seconds": calibration,
        "total_seconds": round(sum(r["seconds"] for r in results), 3),
        "benches": results,
    }
    if not args.no_plan_store:
        report["plan_store"] = plan_store_probe(args.plan_store)
        probe = report["plan_store"]
        if "error" in probe:
            print(f"plan-store probe failed: {probe['error']}")
        else:
            print(f"plan store: cold compile "
                  f"{probe['cold_compile_seconds']}s, warm load "
                  f"{probe['warm_load_seconds']}s "
                  f"({probe['entries']} entries, warmed_from_cache="
                  f"{probe['warmed_from_cache']})", flush=True)
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output} ({len(results)} benches, "
          f"{report['total_seconds']}s total)")

    failed = any(r["returncode"] for r in results)
    if args.write_baseline:
        if failed:
            # A run with failing benches records bogus timings for
            # them; never let it become the committed reference.
            print(f"NOT writing baseline {args.write_baseline}: "
                  f"benches failed")
        else:
            existing = {}
            if os.path.exists(args.write_baseline):
                with open(args.write_baseline) as handle:
                    existing = json.load(handle)
            merged = merge_baseline(existing, backend, report)
            with open(args.write_baseline, "w") as handle:
                json.dump(merged, handle, indent=2)
                handle.write("\n")
            print(f"merged {backend} baseline into {args.write_baseline}")

    if failed:
        return 1
    return gate(report, args, backend)


def gate(report: dict, args, backend: str) -> int:
    """Apply the perf-regression gate; returns the process exit code."""
    speedup_failures = check_speedups(report)
    if speedup_failures:
        print("perf gate FAILED (vectorized backend slower than python):")
        for failure in speedup_failures:
            print(f"  {failure}")
    if args.baseline is None:
        return 2 if speedup_failures else 0
    with open(args.baseline) as handle:
        data = json.load(handle)
    baseline = baseline_for_backend(data, backend)
    if baseline is None:
        print(f"perf gate: no '{backend}' section in {args.baseline}; "
              f"skipping (refresh with --write-baseline)")
        return 2 if speedup_failures else 0
    failures, notes = compare_to_baseline(report, baseline,
                                          args.max_regression, args.grace)
    for note in notes:
        print(f"perf gate note: {note}")
    if failures:
        print(f"perf gate FAILED (>{args.max_regression:.0%} slowdown vs "
              f"{args.baseline}):")
        for failure in failures:
            print(f"  {failure}")
        return 2
    if speedup_failures:
        return 2
    print(f"perf gate ok: no bench slowed by more than "
          f"{args.max_regression:.0%} (+{args.grace}s grace) vs "
          f"{args.baseline}; all recorded backend speedups >= 1")
    return 0


if __name__ == "__main__":
    sys.exit(main())
