"""E-S1: serving throughput — micro-batched serving vs per-query loop.

A 32-thread point-query load is driven through the facade's
``Database.serve`` (micro-batching through ``evaluate_batch``) and
compared against the naive baseline: the same number of point queries
answered by sequential ``bind(...).value(...)`` calls with result
caching disabled (the Theorem 8 selector protocol, one dynamic update
pass per probe).  Acceptance: the service sustains >= 3x the naive
queries/sec on the numpy backend at full size.

Axes reported:

* backend axis — the same service load on ``backend="python"`` vs
  ``backend="numpy"`` (queries/sec each);
* result cache — the headline numbers run with the result cache
  disabled (micro-batching only); a cached row shows the steady-state
  effect of the shared epoch-tagged LRU on a repeating probe mix;
* multi-process axis — the sharded ``ClusterService`` gateway vs the
  single-process service on a many-component workload (queries/sec at
  2 and 4 shards).  Acceptance: the gateway sustains >= 2x the
  single-process service at 4 shards on the numpy leg — each shard's
  circuit covers ~1/4 of the structure, so a probe's batched sweep
  touches 4x fewer gates.  A companion test shows admission control
  shedding load with the typed ``Overloaded`` error once the workers
  saturate, instead of queueing without bound.

``REPRO_BENCH_FAST=1`` shrinks the workload (assertions are skipped);
``REPRO_BACKEND=python`` drops the numpy rows (the no-numpy CI leg).
"""

from __future__ import annotations

import json
import os
import random
import signal
import threading

from repro import FLOAT, Atom, Bracket, Database, Sum, Weight
from repro.circuits import HAVE_NUMPY
from repro.cluster import Overloaded
from repro.graphs import Graph
from repro.structures import graph_structure

from common import report, timed, triangle_workload

E = lambda x, y: Atom("E", (x, y))
w = lambda x, y: Weight("w", (x, y))

#: f(x) = Σ_y [E(x, y)] * w(x, y) — the weighted out-degree point query.
DEGREE = Sum("y", Bracket(E("x", "y")) * w("x", "y"))

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))
NUMPY_OK = HAVE_NUMPY and os.environ.get("REPRO_BACKEND") != "python"
SIDE = 8 if FAST else 20
THREADS = 8 if FAST else 32
QUERIES_PER_THREAD = 8 if FAST else 100
ROUNDS = 1 if FAST else 3
MAX_BATCH = 256
MAX_DELAY = 0.001


def serving_workload(side: int):
    """Float-weighted triangulated grid (float64 array kernel) plus a
    per-thread probe schedule over the whole domain."""
    structure = triangle_workload(side)
    for edge in list(structure.weights["w"]):
        structure.set_weight("w", edge, float(structure.weights["w"][edge]))
    schedules = []
    for thread_id in range(THREADS):
        rng = random.Random(1000 + thread_id)
        probes = [rng.choice(structure.domain)
                  for _ in range(QUERIES_PER_THREAD)]
        schedules.append(probes)
    return structure, schedules


def run_naive_loop(query, schedules):
    """The baseline: every probe through the per-query selector protocol.
    (Compilation is paid outside the timed region on both paths — the
    paper's amortized-preprocessing model.)"""
    return {probe: query.bind(probe).value(FLOAT)
            for schedule in schedules for probe in schedule}


def drive_service(service, schedules):
    errors = []

    def client(schedule):
        try:
            for probe in schedule:
                service.query(probe)
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=client, args=(schedule,))
               for schedule in schedules]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def best_rate(fn, total_queries, rounds=ROUNDS):
    """Best-of-N queries/sec plus the last elapsed time."""
    best = float("inf")
    for _ in range(rounds):
        _, elapsed = timed(fn)
        best = min(best, elapsed)
    return total_queries / best, best


def test_service_throughput_vs_per_query_loop(capsys):
    structure, schedules = serving_workload(SIDE)
    total = sum(len(schedule) for schedule in schedules)

    # result_cache_size=0: the naive loop must pay the selector protocol
    # per probe, not serve memoized repeats.
    with Database(structure.copy(), result_cache_size=0) as db:
        query = db.prepare(DEGREE)
        expected = run_naive_loop(query, schedules)  # warm + reference
        naive_rate, naive_time = best_rate(
            lambda: run_naive_loop(query, schedules), total)

    # Correctness: the service answers what the point queries answer.
    with Database(structure.copy(), result_cache_size=0,
                  max_batch_size=MAX_BATCH,
                  max_batch_delay=MAX_DELAY) as db:
        with db.serve(DEGREE, FLOAT, backend="auto") as service:
            for probe in list(expected)[:10]:
                assert FLOAT.eq(service.query(probe), expected[probe])

    rows = [["bind().value() loop", round(naive_time, 4),
             int(naive_rate), 1.0]]
    rates = {}
    backends = ["python"] + (["numpy"] if NUMPY_OK else [])
    for backend in backends:
        with Database(structure.copy(), result_cache_size=0,
                      max_batch_size=MAX_BATCH,
                      max_batch_delay=MAX_DELAY) as db:
            with db.serve(DEGREE, FLOAT, backend=backend) as service:
                drive_service(service, schedules)  # warm pass
                rate, elapsed = best_rate(
                    lambda: drive_service(service, schedules), total)
        rates[backend] = rate
        rows.append([f"service ({backend})", round(elapsed, 4), int(rate),
                     round(rate / naive_rate, 2)])

    # Steady-state with the shared result cache on (probe mix repeats).
    with Database(structure.copy(), result_cache_size=4096,
                  max_batch_size=MAX_BATCH,
                  max_batch_delay=MAX_DELAY) as db:
        with db.serve(DEGREE, FLOAT,
                      backend="auto" if NUMPY_OK else "python") as service:
            drive_service(service, schedules)  # cold pass fills the cache
            _, warm_time = timed(drive_service, service, schedules)
            cached_stats = service.stats()
    rows.append(["service (cached)", round(warm_time, 4),
                 int(total / warm_time) if warm_time else 0,
                 round(total / warm_time / naive_rate, 2) if warm_time
                 else 0.0])

    with capsys.disabled():
        report(f"E-S1: {THREADS}-thread point-query serving "
               f"(side={SIDE}, {total} queries, seconds)",
               ["path", "time", "qps", "speedup"], rows)
        print(f"cached-pass stats: result_cache={cached_stats['result_cache']}"
              f" mean_batch={cached_stats['mean_batch']}")
    if not FAST and NUMPY_OK:
        speedup = rates["numpy"] / naive_rate
        assert speedup >= 3.0, (
            f"micro-batched service only {speedup:.2f}x the per-query "
            f"bind().value() loop on the numpy backend (target: 3x)")


def test_plan_cache_amortizes_service_compiles(capsys):
    """Services compile once per database: four ``db.serve`` services of
    one query rebind the shared cached plan, so they cost about one
    compilation, not four."""
    structure, _ = serving_workload(6 if FAST else 10)

    def build_services():
        with Database(structure.copy()) as db:
            services = [db.serve(DEGREE, FLOAT) for _ in range(4)]
            assert all(not service.closed for service in services)
            return db.plan_cache.stats()

    stats, elapsed = timed(build_services)

    def build_loose():
        # Four independent databases: no shared plan cache, 4 compiles.
        for _ in range(4):
            with Database(structure.copy()) as db:
                db.prepare(DEGREE).bind(structure.domain[0]).value(FLOAT)

    _, loose_elapsed = timed(build_loose)
    with capsys.disabled():
        report("E-S2: 4 services, shared plan vs 4 compiles (seconds)",
               ["path", "time"],
               [["4 db.serve services (plan cache)", round(elapsed, 4)],
                ["4 independent databases", round(loose_elapsed, 4)]])
    assert stats["misses"] == 1 and stats["hits"] == 3


def test_service_sweep(benchmark):
    structure, schedules = serving_workload(6 if FAST else 12)
    with Database(structure.copy(), result_cache_size=0,
                  max_batch_size=MAX_BATCH,
                  max_batch_delay=MAX_DELAY) as db:
        with db.serve(DEGREE, FLOAT,
                      backend="auto" if NUMPY_OK else "python") as service:
            benchmark(lambda: drive_service(service, schedules[:4]))


# -- multi-process axis: the sharded gateway -----------------------------------

#: The sharder's placement unit is a Gaifman component, so the workload
#: is a disjoint union of many small chains — the shape where scale-out
#: pays: each shard's circuit covers only its own components, while the
#: single-process service sweeps every probe through the whole circuit.
CLUSTER_COMPONENTS = 48 if FAST else (512 if NUMPY_OK else 64)
CLUSTER_CHAIN = 4 if FAST else 8
CLUSTER_SHARDS = (2,) if FAST else (2, 4)
CLUSTER_BATCH = 1024
CLUSTER_ROUNDS = 1 if FAST else 2


def clustered_workload(components: int, chain: int, seed: int = 0):
    """Disjoint union of ``components`` float-weighted chains."""
    graph = Graph()
    for c in range(components):
        for i in range(chain):
            graph.add_vertex(f"c{c}n{i}")
        for i in range(chain - 1):
            graph.add_edge(f"c{c}n{i}", f"c{c}n{i + 1}")
    structure = graph_structure(graph)
    rng = random.Random(seed)
    for edge in sorted(structure.relations["E"]):
        structure.set_weight("w", edge, float(rng.randint(1, 9)))
    return structure


def cluster_probes(structure, seed: int = 1):
    """One shuffled pass over the domain (every component gets probed)."""
    probes = [(element,) for element in structure.domain]
    random.Random(seed).shuffle(probes)
    return probes


def test_sharded_gateway_throughput(capsys):
    structure = clustered_workload(CLUSTER_COMPONENTS, CLUSTER_CHAIN)
    probes = cluster_probes(structure)
    backend = "numpy" if NUMPY_OK else "python"
    spot = min(len(probes), 256)

    with Database(structure.copy(), result_cache_size=0,
                  max_batch_size=CLUSTER_BATCH, max_batch_delay=0.0) as db:
        with db.serve(DEGREE, FLOAT, backend=backend) as service:
            expected = service.query_batch(probes[:spot])  # warm + reference
            single_rate, single_time = best_rate(
                lambda: service.query_batch(probes), len(probes),
                rounds=CLUSTER_ROUNDS)

    rows = [["service (1 process)", round(single_time, 4),
             int(single_rate), 1.0]]
    rates, last_stats = {}, {}
    for shards in CLUSTER_SHARDS:
        with Database(structure.copy(), result_cache_size=0,
                      max_batch_size=CLUSTER_BATCH,
                      max_batch_delay=0.0) as db:
            with db.serve_sharded(
                    DEGREE, FLOAT, shards=shards, backend=backend,
                    max_pending=4 * len(probes),
                    max_inflight_per_client=4 * len(probes)) as service:
                got = service.query_batch_sync(probes[:spot])
                assert got == expected, "gateway disagrees with the service"
                rate, elapsed = best_rate(
                    lambda: service.query_batch_sync(probes), len(probes),
                    rounds=CLUSTER_ROUNDS)
                last_stats = service.stats()
        rates[shards] = rate
        rows.append([f"gateway ({shards} shards)", round(elapsed, 4),
                     int(rate), round(rate / single_rate, 2)])

    peak = max(CLUSTER_SHARDS)
    with capsys.disabled():
        report(f"E-S4: sharded gateway vs single-process service "
               f"({CLUSTER_COMPONENTS} components, {len(probes)} bulk "
               f"probes, backend={backend}, seconds)",
               ["path", "time", "qps", "speedup"], rows)
        print("CLUSTER-REPORT " + json.dumps({
            "shards": peak, "backend": backend,
            "qps": int(rates[peak]), "single_qps": int(single_rate),
            "speedup": round(rates[peak] / single_rate, 2),
            "merge_seconds": round(last_stats.get("merge_seconds", 0.0), 6),
            "respawns": last_stats.get("respawns", 0),
            "sheds": last_stats.get("sheds", 0),
        }))
    if not FAST and NUMPY_OK:
        speedup = rates[4] / single_rate
        assert speedup >= 2.0, (
            f"sharded gateway only {speedup:.2f}x the single-process "
            f"service at 4 shards on the numpy backend (target: 2x)")


def test_gateway_sheds_load_when_saturated(capsys):
    """Saturation demo: frozen workers, bounded queues, typed sheds.

    With every worker SIGSTOPped the gateway cannot drain; admission
    control must shed with :class:`Overloaded` (scope ``client`` at the
    per-client cap, scope ``gateway`` at the global cap) instead of
    queueing without bound — and serve every admitted request once the
    workers thaw."""
    structure = clustered_workload(16, 4)
    probes = cluster_probes(structure)
    max_pending, per_client = 24, 8
    with Database(structure.copy(), result_cache_size=0) as db:
        with db.serve_sharded(DEGREE, FLOAT, shards=2, backend="python",
                              max_pending=max_pending,
                              max_inflight_per_client=per_client) as service:
            expected = {probe: service.query_sync(*probe)
                        for probe in probes[:max_pending]}
            pids = [entry["pid"] for entry in service.stats()["workers"]]
            for pid in pids:
                os.kill(pid, signal.SIGSTOP)
            try:
                futures, sheds = [], {"client": 0, "gateway": 0}
                # One hog hits its per-client cap first ...
                for probe in probes[:per_client + 2]:
                    try:
                        futures.append((probe,
                                        service.submit(*probe, client="hog")))
                    except Overloaded as error:
                        sheds[error.scope] += 1
                # ... then distinct clients fill the gateway-wide bound.
                for index, probe in enumerate(probes[:max_pending]):
                    try:
                        futures.append((probe, service.submit(
                            *probe, client=f"client-{index}")))
                    except Overloaded as error:
                        sheds[error.scope] += 1
            finally:
                for pid in pids:
                    os.kill(pid, signal.SIGCONT)
            for probe, future in futures:
                assert future.result(60.0) == expected[probe]
            stats = service.stats()
    assert sheds["client"] == 2, sheds
    assert sheds["gateway"] > 0, sheds
    assert stats["sheds"] == sheds["client"] + sheds["gateway"]
    with capsys.disabled():
        report("E-S5: admission control under frozen workers",
               ["admitted", "shed (client)", "shed (gateway)"],
               [[len(futures), sheds["client"], sheds["gateway"]]])
