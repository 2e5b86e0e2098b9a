"""The serving layer: micro-batching, plan/result caches, lifecycle.

Covers the served-query contract of ``Database.serve`` (concurrent
correctness, coalescing, epoch-precise result-cache invalidation), the
compile-plan cache (structure fingerprints, rebind isolation,
selector-name determinism with collision fallback), and the service
lifecycle under concurrency — no selector-weight leaks in the served
structure after close, even with many client threads in flight.
"""

from __future__ import annotations

import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import Database
from repro.core import compile_structure_query, plan_cache_key
from repro.engine import SELECTOR_PREFIX, WeightedQueryEngine
from repro.logic import Atom, Bracket, Sum, Weight
from repro.semirings import MIN_PLUS, NATURAL
from repro.serve import MISS, PlanCache, ResultCache
from repro.structures import Structure

from tests.util import weighted_graph_structure
from repro.graphs import path_graph, triangulated_grid

E = lambda x, y: Atom("E", (x, y))
w = lambda x, y: Weight("w", (x, y))

#: f(x) = Σ_y [E(x, y)] * w(x, y) — the weighted out-degree point query.
DEGREE = Sum("y", Bracket(E("x", "y")) * w("x", "y"))
#: closed: total edge weight.
EDGE_SUM = Sum(("x", "y"), Bracket(E("x", "y")) * w("x", "y"))


def selector_names(structure):
    return {name for name in structure.weights
            if name.startswith(SELECTOR_PREFIX)}


def reference_values(structure, expr=DEGREE, sr=NATURAL):
    with WeightedQueryEngine(structure.copy(), expr, sr) as engine:
        return {v: engine.query(v) for v in structure.domain}


# -- structure fingerprints ------------------------------------------------------


class TestFingerprint:
    def test_copy_preserves_fingerprint(self):
        structure = weighted_graph_structure(triangulated_grid(3, 3), seed=1)
        assert structure.copy().fingerprint() == structure.fingerprint()

    def test_mutations_change_and_restore_fingerprint(self):
        structure = weighted_graph_structure(path_graph(5), seed=0)
        base = structure.fingerprint()
        edge = sorted(structure.relations["E"])[0]
        old = structure.weights["w"][edge]
        structure.set_weight("w", edge, old + 1)
        assert structure.fingerprint() != base
        structure.set_weight("w", edge, old)
        assert structure.fingerprint() == base  # content-determined

    def test_selector_install_and_strip_roundtrips(self):
        structure = weighted_graph_structure(path_graph(5), seed=0)
        base = structure.fingerprint()
        with WeightedQueryEngine(structure, DEGREE, NATURAL):
            assert structure.fingerprint() != base
        assert structure.fingerprint() == base

    def test_relation_toggle_changes_fingerprint(self):
        structure = Structure("ab", relations={"R": [("a",)]})
        base = structure.fingerprint()
        structure.add_tuple("R", ("b",))
        assert structure.fingerprint() != base
        structure.remove_tuple("R", ("b",))
        assert structure.fingerprint() == base


# -- the compile-plan cache -----------------------------------------------------


class TestPlanCache:
    def test_hit_shares_circuit_and_schedule(self):
        cache = PlanCache()
        structure = weighted_graph_structure(triangulated_grid(3, 3), seed=2)
        first = compile_structure_query(structure, EDGE_SUM,
                                        plan_cache=cache)
        second = compile_structure_query(structure.copy(), EDGE_SUM,
                                         plan_cache=cache)
        assert cache.stats()["hits"] == 1
        assert second.circuit is first.circuit
        assert second.evaluate(NATURAL) == first.evaluate(NATURAL)

    def test_key_distinguishes_content_and_expr(self):
        structure = weighted_graph_structure(path_graph(4), seed=3)
        key = plan_cache_key(structure, EDGE_SUM)
        assert key == plan_cache_key(structure.copy(), EDGE_SUM)
        assert key != plan_cache_key(structure, DEGREE)
        other = weighted_graph_structure(path_graph(4), seed=4)
        assert key != plan_cache_key(other, EDGE_SUM)
        assert key != plan_cache_key(structure, EDGE_SUM, optimize=False)

    def test_rebind_isolates_mutable_state(self):
        # Updates through one consumer's plan must not drift the cached
        # template: a later hit still sees compile-time content.
        cache = PlanCache()
        structure = weighted_graph_structure(path_graph(5), seed=5)
        snapshot = structure.copy()  # pre-update content
        edge = sorted(structure.relations["E"])[0]
        first = compile_structure_query(structure, EDGE_SUM,
                                        plan_cache=cache)
        baseline = first.evaluate(NATURAL)
        dynamic = first.dynamic(NATURAL)
        dynamic.update_weight("w", edge, 50)
        assert dynamic.value() != baseline
        second = compile_structure_query(snapshot, EDGE_SUM,
                                         plan_cache=cache)
        assert cache.stats()["hits"] == 1  # recognized the old content
        assert second.evaluate(NATURAL) == baseline

    def test_dynamic_update_stales_fingerprint_and_plan(self):
        # Regression: DynamicQuery.update_weight used to write the weight
        # dict directly, leaving the cached fingerprint (and hence the
        # plan cache) pointing at pre-update content.
        cache = PlanCache()
        structure = weighted_graph_structure(path_graph(4), seed=16)
        first = compile_structure_query(structure, EDGE_SUM,
                                        plan_cache=cache)
        fingerprint = structure.fingerprint()
        dynamic = first.dynamic(NATURAL)
        edge = sorted(structure.relations["E"])[0]
        dynamic.update_weight("w", edge, 50)
        assert structure.fingerprint() != fingerprint
        second = compile_structure_query(structure, EDGE_SUM,
                                         plan_cache=cache)
        assert second.evaluate(NATURAL) == dynamic.value()

    def test_enumerator_update_invalidates_batched_base(self):
        # Regression: ProvenanceEnumerator.update_weight mutates
        # compiled.recorded; the memoized batched base must go stale too.
        from repro.enumeration import ProvenanceEnumerator
        from repro.semirings import FreeSemiring
        free = FreeSemiring()
        structure = Structure("ab", relations={"E": [("a", "b")]})
        structure.set_weight("w", ("a", "b"), free.generator("e"))
        expr = Sum(("x", "y"), Bracket(Atom("E", ("x", "y")))
                   * Weight("w", ("x", "y")))
        enumerator = ProvenanceEnumerator(structure, expr)
        compiled = enumerator.compiled
        before = compiled.evaluate_batch(free, [{}])[0]  # primes the cache
        assert before == free.generator("e")
        enumerator.update_weight("w", ("a", "b"), free.generator("f"))
        assert compiled.evaluate_batch(free, [{}])[0] == free.generator("f")
        assert compiled.evaluate(free) == free.generator("f")

    def test_lru_eviction_and_clear(self):
        cache = PlanCache(maxsize=2)
        for seed in range(3):
            structure = weighted_graph_structure(path_graph(4), seed=seed)
            compile_structure_query(structure, EDGE_SUM, plan_cache=cache)
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1
        cache.clear()
        assert len(cache) == 0

    def test_engine_reuses_plan_across_equal_structures(self):
        cache = PlanCache()
        structure = weighted_graph_structure(triangulated_grid(3, 3), seed=6)
        expected = reference_values(structure)
        with WeightedQueryEngine(structure.copy(), DEGREE, NATURAL,
                                 plan_cache=cache) as first:
            with WeightedQueryEngine(structure.copy(), DEGREE, NATURAL,
                                     plan_cache=cache) as second:
                assert second.compiled.circuit is first.compiled.circuit
                assert first.selectors == second.selectors
                probe = structure.domain[0]
                assert first.query(probe) == expected[probe]
                assert second.query(probe) == expected[probe]
        assert cache.stats()["hits"] >= 1

    def test_same_structure_collision_falls_back_to_unique_names(self):
        # Two live engines with the same identity on one structure must
        # not share selector names; the second bypasses the cache.
        cache = PlanCache()
        structure = weighted_graph_structure(triangulated_grid(3, 3), seed=7)
        expected = reference_values(structure)
        with WeightedQueryEngine(structure, DEGREE, NATURAL,
                                 plan_cache=cache) as first:
            with WeightedQueryEngine(structure, DEGREE, NATURAL,
                                     plan_cache=cache) as second:
                assert set(first.selectors).isdisjoint(second.selectors)
                probe = structure.domain[2]
                assert first.query(probe) == expected[probe]
                assert second.query(probe) == expected[probe]
        assert selector_names(structure) == set()

    def test_cached_engine_semiring_separation(self):
        # min-plus and N install different selector zeros, so the cached
        # plans must diverge; both engines stay correct.
        cache = PlanCache()
        structure = weighted_graph_structure(triangulated_grid(3, 3), seed=8)
        nat = reference_values(structure, sr=NATURAL)
        trop = reference_values(structure, sr=MIN_PLUS)
        probe = structure.domain[1]
        with WeightedQueryEngine(structure.copy(), DEGREE, NATURAL,
                                 plan_cache=cache) as engine:
            assert engine.query(probe) == nat[probe]
        with WeightedQueryEngine(structure.copy(), DEGREE, MIN_PLUS,
                                 plan_cache=cache) as engine:
            assert engine.query(probe) == trop[probe]


# -- the result cache -----------------------------------------------------------


class TestResultCache:
    def test_epoch_tagging(self):
        cache = ResultCache(maxsize=4)
        cache.put(("a",), 3, epoch=0)
        assert cache.get(("a",), epoch=0) == 3
        assert cache.get(("a",), epoch=1) is MISS  # stale, evicted
        assert cache.stats()["stale"] == 1
        assert cache.get(("a",), epoch=0) is MISS  # gone for good

    def test_lru_bound(self):
        cache = ResultCache(maxsize=2)
        for index in range(3):
            cache.put((index,), index, epoch=0)
        assert cache.get((0,), epoch=0) is MISS
        assert cache.get((2,), epoch=0) == 2

    def test_none_is_a_cacheable_value(self):
        cache = ResultCache()
        cache.put(("k",), None, epoch=0)
        assert cache.get(("k",), epoch=0) is None


# -- the query service ----------------------------------------------------------


@pytest.fixture
def grid_service():
    structure = weighted_graph_structure(triangulated_grid(4, 4), seed=9)
    expected = reference_values(structure)
    with Database(structure) as db:
        service = db.serve(DEGREE, NATURAL, max_batch_size=16,
                           max_batch_delay=0.002)
        yield db, expected, service


def served_structure(service):
    """The snapshot the service's engine installed its selectors on."""
    return service.engine.structure


class TestQueryService:
    def test_concurrent_clients_get_engine_answers(self, grid_service):
        db, expected, service = grid_service
        structure = db.structure
        errors = []

        def client(tid):
            rng = random.Random(tid)
            try:
                for _ in range(40):
                    probe = rng.choice(structure.domain)
                    value = service.query(probe)
                    if value != expected[probe]:
                        errors.append((probe, value, expected[probe]))
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=client, args=(tid,))
                   for tid in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = service.stats()
        assert stats["queries"] == 12 * 40
        # Coalescing happened: far fewer sweeps than queries.
        assert stats["batches"] < stats["queries"]

    def test_query_batch_and_dict_arguments(self, grid_service):
        db, expected, service = grid_service
        structure = db.structure
        probes = structure.domain[:6]
        assert service.query_batch([(v,) for v in probes]) \
            == [expected[v] for v in probes]
        probe = structure.domain[3]
        assert service.query({"x": probe}) == expected[probe]

    def test_update_invalidates_results(self, grid_service):
        db, expected, service = grid_service
        structure = db.structure
        edge = sorted(structure.relations["E"])[0]
        source = edge[0]
        before = service.query(source)
        assert before == expected[source]
        with db.update() as tx:
            touched = tx.set_weight("w", edge, 77)
        assert touched > 0
        assert service.epoch == 1
        after = service.query(source)
        assert after != before
        # The served value agrees with a fresh engine over the updated data.
        fresh = reference_values(structure)
        assert after == fresh[source]

    def test_noop_update_keeps_cache_warm(self, grid_service):
        db, expected, service = grid_service
        structure = db.structure
        edge = sorted(structure.relations["E"])[0]
        value = structure.weights["w"][edge]
        service.query(edge[0])
        hits_before = service.result_cache.stats()["hits"]
        with db.update() as tx:
            assert tx.set_weight("w", edge, value) == 0
        assert service.epoch == 0
        service.query(edge[0])
        assert service.result_cache.stats()["hits"] == hits_before + 1

    def test_repeated_probe_hits_result_cache(self, grid_service):
        db, expected, service = grid_service
        structure = db.structure
        probe = structure.domain[5]
        first = service.query(probe)
        hits_before = service.result_cache.stats()["hits"]
        for _ in range(5):
            assert service.query(probe) == first
        assert service.result_cache.stats()["hits"] >= hits_before + 5

    def test_bad_arguments_fail_only_their_caller(self, grid_service):
        db, expected, service = grid_service
        structure = db.structure
        with pytest.raises(KeyError):
            service.query("no-such-element")
        with pytest.raises(ValueError):
            service.query(structure.domain[0], structure.domain[1])
        probe = structure.domain[0]
        assert service.query(probe) == expected[probe]

    def test_min_plus_service_uses_tropical_zero(self):
        structure = weighted_graph_structure(triangulated_grid(3, 3), seed=11)
        expected = reference_values(structure, sr=MIN_PLUS)
        with Database(structure) as db, \
                db.serve(DEGREE, MIN_PLUS) as service:
            for probe in structure.domain[:5]:
                assert service.query(probe) == expected[probe]


# -- lifecycle under concurrency (satellite: no selector leaks) -------------------


class TestServiceLifecycle:
    def test_no_selector_leaks_after_concurrent_load(self):
        structure = weighted_graph_structure(triangulated_grid(4, 4), seed=12)
        weight_names = set(structure.weights)
        expected = reference_values(structure)
        with Database(structure) as db:
            service = db.serve(DEGREE, NATURAL, max_batch_size=8,
                               max_batch_delay=0.001)
            served = served_structure(service)
            assert selector_names(served)  # the engine lives on it

            def client(tid):
                rng = random.Random(tid)
                return [(probe, service.query(probe)) for probe in
                        (rng.choice(structure.domain) for _ in range(25))]

            with ThreadPoolExecutor(max_workers=16) as pool:
                answers = [pair for chunk in pool.map(client, range(16))
                           for pair in chunk]
            service.close()
        assert all(value == expected[probe] for probe, value in answers)
        assert selector_names(served) == set()
        assert set(served.weights) == weight_names
        assert set(structure.weights) == weight_names
        assert service.closed

    def test_repeated_services_do_not_grow_weight_table(self):
        structure = weighted_graph_structure(triangulated_grid(3, 3), seed=13)
        cache = PlanCache()
        baseline = len(structure.weights)
        values = []
        with Database(structure, plan_cache=cache) as db:
            for _ in range(5):
                with db.serve(DEGREE, NATURAL) as service:
                    values.append(service.query(structure.domain[0]))
                assert len(served_structure(service).weights) == baseline
                assert len(structure.weights) == baseline
        assert len(set(values)) == 1
        # Compilation happened once; every later service hit the cache.
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] == 4

    def test_close_is_idempotent_and_blocks_use(self):
        structure = weighted_graph_structure(path_graph(6), seed=14)
        service = Database(structure).serve(DEGREE, NATURAL)
        probe = structure.domain[0]
        service.query(probe)  # lands in the result cache
        service.close()
        service.close()
        with pytest.raises(RuntimeError):
            service.query(probe)  # a cached result must not leak out
        with pytest.raises(RuntimeError):
            service.query(structure.domain[1])
        with pytest.raises(RuntimeError):
            service.update_weight("w",
                                  sorted(structure.relations["E"])[0], 5)

    def test_close_during_concurrent_group_by_never_hangs(self):
        # Drain-on-close with *grouped* sweeps in flight: a group_by
        # fans one submit per group into the micro-batch queue, so
        # close() must either serve the whole table or fail it with the
        # closed error — never hang, never return a partial table.
        structure = weighted_graph_structure(triangulated_grid(3, 3),
                                             seed=21)
        service = Database(structure).serve(DEGREE, NATURAL,
                                            max_batch_size=4,
                                            max_batch_delay=0.001)
        expected = list(service.group_by())
        started = threading.Barrier(5, timeout=10)
        outcomes = []

        def client():
            started.wait()
            try:
                outcomes.append(("table", list(service.group_by())))
            except RuntimeError:
                outcomes.append(("closed", None))

        threads = [threading.Thread(target=client) for _ in range(4)]
        for thread in threads:
            thread.start()
        started.wait()  # all clients are issuing group submits now
        service.close()
        for thread in threads:
            thread.join(timeout=10)
        assert all(not thread.is_alive() for thread in threads)
        assert len(outcomes) == 4
        for kind, table in outcomes:
            if kind == "table":  # drained before close: the full table
                assert table == expected
        assert selector_names(served_structure(service)) == set()

    def test_close_during_concurrent_queries_never_hangs(self):
        structure = weighted_graph_structure(triangulated_grid(3, 3), seed=15)
        service = Database(structure).serve(DEGREE, NATURAL,
                                            max_batch_size=4,
                                            max_batch_delay=0.001)
        stop = threading.Event()
        outcomes = []

        def client(tid):
            rng = random.Random(tid)
            while not stop.is_set():
                try:
                    service.query(rng.choice(structure.domain))
                except RuntimeError:
                    outcomes.append("closed")
                    return
            outcomes.append("stopped")

        threads = [threading.Thread(target=client, args=(tid,))
                   for tid in range(6)]
        for thread in threads:
            thread.start()
        service.close()
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        assert all(not thread.is_alive() for thread in threads)
        assert selector_names(served_structure(service)) == set()
