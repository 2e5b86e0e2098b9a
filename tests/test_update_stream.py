"""The O(delta) update path: incremental fingerprint + fine-grained
result-cache invalidation.

Four guarantees, each load-bearing for the streaming-write story:

* the incrementally-maintained digest equals the full content rehash
  after *arbitrary* interleaved mutator sequences (hypothesis), and
  content-equal structures built in different mutation orders agree;
* transactions reconcile in O(1) and a no-op transaction skips
  reconciliation entirely; ``Structure.copy`` carries the digest
  without hashing anything;
* ``REPRO_VERIFY_FINGERPRINT=1`` turns a digest staled by raw dict
  mutation into a loud :class:`FingerprintMismatch` instead of silent
  stale answers, and ``rehash()`` is the sanctioned resync;
* after an effective routed write, cached point results the write
  provably cannot affect stay warm — across all 13 shipped semirings —
  through the one retag rule both prepared handles and services use,
  and a failed analysis leaves entries stale instead of failing the
  write.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.api import Database
from repro.baselines import StructureModel, eval_expression
from repro.engine import WeightedQueryEngine
from repro.logic import Atom, Bracket, Sum, Weight
from repro.semirings import NATURAL
from repro.serve import ResultCache
from repro.structures import FingerprintMismatch, Structure
from repro.structures import structure as structure_module

from tests.test_plan_store import SEMIRING_CASES, weighted_structure

E = lambda x, y: Atom("E", (x, y))
w = lambda x, y: Weight("w", (x, y))

#: f(x) = Σ_y [E(x, y)] * w(x, y) — the canonical maintained point query.
DEGREE = Sum("y", Bracket(E("x", "y")) * w("x", "y"))


def base_structure() -> Structure:
    return Structure(range(5), {"E": [(0, 1)], "R": [(1, 2)]},
                     {"w": {(0, 1): 1}, "u": {(3,): 2}})


_elems = st.sampled_from(range(5))
_pairs = st.tuples(_elems, _elems)
_values = st.integers(min_value=0, max_value=5)

_ops = st.lists(st.one_of(
    st.tuples(st.just("add"), st.sampled_from(["E", "R"]), _pairs),
    st.tuples(st.just("remove"), st.sampled_from(["E", "R"]), _pairs),
    st.tuples(st.just("setw2"), _pairs, _values),
    st.tuples(st.just("setw1"), _elems, _values),
    st.tuples(st.just("rmw2"), _pairs),
    st.tuples(st.just("rmw1"), _elems),
    st.tuples(st.just("rmwall"), st.sampled_from(["w", "u"])),
), max_size=40)


def _apply(structure: Structure, op) -> None:
    kind = op[0]
    if kind == "add":
        structure.add_tuple(op[1], op[2])
    elif kind == "remove":
        structure.remove_tuple(op[1], op[2])
    elif kind == "setw2":
        structure.set_weight("w", op[1], op[2])
    elif kind == "setw1":
        structure.set_weight("u", (op[1],), op[2])
    elif kind == "rmw2":
        structure.remove_weight("w", op[1])
    elif kind == "rmw1":
        structure.remove_weight("u", (op[1],))
    else:
        structure.remove_weight(op[1])


class TestIncrementalDigest:
    @given(_ops)
    def test_digest_tracks_full_rehash_under_interleaving(self, ops):
        structure = base_structure()
        for op in ops:
            _apply(structure, op)
            assert structure.fingerprint() == structure.full_fingerprint()
        # Order independence: a fresh structure built from the final
        # content in one pass lands on the same digest.
        fresh = Structure(structure.domain,
                          {r: set(t) for r, t in structure.relations.items()},
                          {n: dict(m) for n, m in structure.weights.items()})
        assert fresh.fingerprint() == structure.fingerprint()

    @given(_pairs, _values)
    def test_add_then_remove_round_trips_to_equality(self, tup, value):
        structure = base_structure()
        before = structure.fingerprint()
        had_tuple = structure.has_tuple("E", tup)
        structure.add_tuple("E", tup)
        structure.remove_tuple("E", tup)
        if had_tuple:  # removing a pre-existing tuple is a real change
            structure.add_tuple("E", tup)
        assert structure.fingerprint() == before
        if tup not in structure.weights["w"]:
            structure.set_weight("w", tup, value)
            structure.remove_weight("w", tup)
            assert structure.fingerprint() == before

    def test_noop_writes_leave_digest_and_counter_alone(self):
        structure = base_structure()
        before = (structure.fingerprint(), structure._mutations)
        structure.add_tuple("E", (0, 1))       # already present
        structure.set_weight("w", (0, 1), 1)   # same value
        structure.remove_tuple("R", (4, 4))    # never present
        structure.remove_weight("w", (4, 4))   # never present
        structure.remove_weight("ghost")       # unknown name
        assert (structure.fingerprint(), structure._mutations) == before

    def test_remove_tuple_still_raises_on_unknown_relation(self):
        with pytest.raises(KeyError):
            base_structure().remove_tuple("missing", (0, 1))

    def test_copy_carries_digest_without_hashing(self, monkeypatch):
        structure = base_structure()
        expected = structure.fingerprint()
        calls = []
        original = structure_module._entry_digest
        monkeypatch.setattr(
            structure_module, "_entry_digest",
            lambda tag, payload: calls.append(tag) or original(tag, payload))
        clone = structure.copy()
        assert clone.fingerprint() == expected
        assert calls == [], "copy() rehashed instead of carrying the digest"
        # And the clone maintains independently from there on.
        clone.set_weight("w", (2, 3), 9)
        assert clone.fingerprint() == clone.full_fingerprint()
        assert structure.fingerprint() == expected

    def test_verify_mode_raises_on_bypassed_mutation(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_FINGERPRINT", "1")
        structure = base_structure()
        assert structure.fingerprint() == structure.full_fingerprint()
        structure.relations["E"].add((3, 4))  # bypasses the mutators
        with pytest.raises(FingerprintMismatch):
            structure.fingerprint()
        # rehash() is the sanctioned resync after deliberate raw edits.
        assert structure.rehash() == structure.full_fingerprint()
        assert structure.fingerprint() == structure.full_fingerprint()

    def test_verify_mode_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY_FINGERPRINT", raising=False)
        structure = base_structure()
        structure.relations["E"].add((3, 4))
        structure.fingerprint()  # stale but silent: detection is opt-in


class TestTransactionReconcile:
    def _counting_fingerprint(self, monkeypatch):
        calls = []
        original = Structure.fingerprint

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(Structure, "fingerprint", counting)
        return calls

    def test_noop_transaction_skips_reconcile(self, monkeypatch):
        structure = weighted_structure()
        db = Database(structure)
        query = db.prepare(DEGREE, params=("x",))
        edge = next(iter(structure.weights["w"]))
        current = structure.weights["w"][edge]
        query.bind(structure.domain[0]).value(NATURAL)
        calls = self._counting_fingerprint(monkeypatch)
        ctx = db.update()
        ctx.__enter__()
        ctx.set_weight("w", edge, current)  # value unchanged: no-op
        before_exit = len(calls)
        ctx.__exit__(None, None, None)
        assert len(calls) == before_exit, \
            "a no-op transaction still reconciled the fingerprint"
        db.close()

    def test_effective_transaction_reconciles_once(self, monkeypatch):
        structure = weighted_structure()
        db = Database(structure)
        edges = sorted(structure.weights["w"])[:3]
        calls = self._counting_fingerprint(monkeypatch)
        ctx = db.update()
        ctx.__enter__()
        for step, edge in enumerate(edges):
            ctx.set_weight("w", edge, 50 + step)
        before_exit = len(calls)
        ctx.__exit__(None, None, None)
        assert len(calls) == before_exit + 1, \
            "K effective writes must cost exactly one O(1) reconcile"
        assert db._expected_fp == structure.fingerprint()
        db.close()


class TestRetagMany:
    def test_bulk_retag_is_conditional_and_counted(self):
        cache = ResultCache(maxsize=8)
        cache.put("a", 1, epoch=0)
        cache.put("b", 2, epoch=0)
        cache.put("c", 3, epoch=5)  # wrong epoch: must not be carried
        carried = cache.retag_many(["a", "b", "c", "ghost"], 0, 1)
        assert carried == 2
        assert cache.get("a", 1) == 1
        assert cache.get("b", 1) == 2
        assert cache.get("c", 1) is ResultCache.MISS

    def test_scoped_bulk_retag(self):
        cache = ResultCache(maxsize=8)
        scope = cache.scoped("ns")
        other = cache.scoped("other")
        scope.put("a", 1, epoch=0)
        other.put("a", 9, epoch=0)
        assert scope.retag_many(["a", "missing"], 0, 3) == 1
        assert scope.get("a", 3) == 1
        assert other.get("a", 0) == 9  # untouched by the ns retag


class TestWarmEntrySurvival:
    @pytest.mark.parametrize("name,sr,conv", SEMIRING_CASES,
                             ids=[case[0] for case in SEMIRING_CASES])
    def test_unaffected_points_stay_warm_across_a_write(self, name, sr,
                                                        conv):
        structure = weighted_structure(conv)
        edge = sorted(structure.relations["E"])[0]
        with Database(structure.copy()) as db:
            query = db.prepare(DEGREE, params=("x",))
            for element in structure.domain:  # warm every point
                query.bind(element).value(sr)
            engine = query._engines[sr.name]
            affected = engine.affected_arguments((("w", "w", edge),))
            assert affected is not None and len(affected) == 1
            # The analysis must be nontrivial: some points are provably
            # out of the write's input cone on this workload.
            survivors = [element for element in structure.domain
                         if element not in affected[0]]
            assert survivors
            with db.update() as tx:
                tx.set_weight("w", edge, conv(4))
            scope = query._scope(sr)
            for element in survivors:
                before = scope.hits
                query.bind(element).value(sr)
                assert scope.hits == before + 1, (
                    f"provably-unaffected point {element!r} missed the "
                    f"cache after a write to {edge} in {name}")
        # Every post-write answer (warm or recomputed) matches a fresh
        # database over the mutated content.
        mutated = structure.copy()
        mutated.set_weight("w", edge, conv(4))
        with Database(structure.copy()) as db, Database(mutated) as ref:
            query = db.prepare(DEGREE, params=("x",))
            reference = ref.prepare(DEGREE, params=("x",))
            for element in structure.domain:
                query.bind(element).value(sr)
            with db.update() as tx:
                tx.set_weight("w", edge, conv(4))
            for element in structure.domain:
                assert (query.bind(element).value(sr)
                        == reference.bind(element).value(sr))


def _raise_analysis(self, update_keys):
    raise RuntimeError("injected co-occurrence analysis failure")


class TestOneRetagRule:
    def test_only_proven_arity_tuples_are_carried(self):
        structure = weighted_structure(lambda v: v)
        edge = sorted(structure.relations["E"])[0]
        with WeightedQueryEngine(structure.copy(), DEGREE,
                                 NATURAL) as engine:
            affected = engine.affected_arguments((("w", "w", edge),))
            outside = next(element for element in structure.domain
                           if element not in affected[0])
            inside = next(iter(affected[0]))
            scope = ResultCache(maxsize=16).scoped("q")
            for key in [(outside,), (inside,), (outside, outside),
                        outside]:
                scope.put(key, 1, epoch=0)
            carried = engine.retag_unaffected(
                scope, (("w", "w", edge),), 0, 1)
        # Only the proven survivor moves; the reachable point, the
        # wrong-length tuple and the bare element all stay stale.
        assert carried == 1
        assert scope.get((outside,), 1) == 1
        for key in [(inside,), (outside, outside), outside]:
            assert scope.get(key, 1) is ResultCache.MISS

    def test_failed_analysis_leaves_prepared_points_stale(self,
                                                          monkeypatch):
        structure = weighted_structure(lambda v: v)
        edge = sorted(structure.relations["E"])[0]
        with Database(structure.copy()) as db:
            query = db.prepare(DEGREE, params=("x",))
            for element in structure.domain:  # warm every point
                query.bind(element).value(NATURAL)
            monkeypatch.setattr(WeightedQueryEngine, "affected_arguments",
                                _raise_analysis)
            with db.update() as tx:  # the write itself must not fail
                assert tx.set_weight("w", edge, 9) > 0
            scope = query._scope(NATURAL)
            model = StructureModel(db.structure, NATURAL.zero)
            for element in structure.domain:
                before = scope.misses
                value = query.bind(element).value(NATURAL)
                assert scope.misses == before + 1  # stale, recomputed
                assert value == eval_expression(DEGREE, model, NATURAL,
                                                {"x": element})

    def test_failed_analysis_leaves_served_points_stale(self, monkeypatch):
        structure = weighted_structure(lambda v: v)
        edge = sorted(structure.relations["E"])[0]
        with Database(structure.copy()) as db:
            service = db.serve(DEGREE, NATURAL)
            service.query_batch([(element,) for element in
                                 structure.domain])
            monkeypatch.setattr(WeightedQueryEngine, "affected_arguments",
                                _raise_analysis)
            with db.update() as tx:
                assert tx.set_weight("w", edge, 9) > 0
            assert service.stats()["retagged"] == 0
            model = StructureModel(db.structure, NATURAL.zero)
            for element in structure.domain:
                assert service.query(element) == eval_expression(
                    DEGREE, model, NATURAL, {"x": element})
