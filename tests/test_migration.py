"""Layer/facade equivalence: the layer APIs vs the repro.api facade.

For every shipped semiring, the layer entry points
(``repro.core.compile_structure_query`` + ``CompiledQuery.dynamic``,
``repro.engine.WeightedQueryEngine``, ``repro.serve.QueryService``) and
the ``Database``/``PreparedQuery`` paths built on them must return
identical results.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro import Database
from repro.core import compile_structure_query
from repro.engine import WeightedQueryEngine
from repro.graphs import triangulated_grid
from repro.logic import Atom, Bracket, Sum, Weight
from repro.semirings import (BOOLEAN, FLOAT, INTEGER, MAX_PLUS, MIN_PLUS,
                             NATURAL, RATIONAL, ModularRing)
from repro.serve import QueryService

from tests.util import weighted_graph_structure

E = lambda x, y: Atom("E", (x, y))
w = lambda x, y: Weight("w", (x, y))

EDGE_SUM = Sum(("x", "y"), Bracket(E("x", "y")) * w("x", "y"))
DEGREE = Sum("y", Bracket(E("x", "y")) * w("x", "y"))

#: Every shipped semiring, with a converter from small positive ints.
SHIPPED = [
    ("N", NATURAL, lambda v: v),
    ("Z", INTEGER, lambda v: v - 2),
    ("Q", RATIONAL, lambda v: Fraction(v, 3)),
    ("float", FLOAT, lambda v: v / 2.0),
    ("min-plus", MIN_PLUS, lambda v: v),
    ("max-plus", MAX_PLUS, lambda v: v),
    ("B", BOOLEAN, lambda v: v > 1),
    ("Z7", ModularRing(7), lambda v: v % 7),
]


def shipped_params():
    return pytest.mark.parametrize(
        "sr,conv", [(sr, conv) for _, sr, conv in SHIPPED],
        ids=[name for name, _, _ in SHIPPED])


def build(conv, side=3, seed=5):
    return weighted_graph_structure(triangulated_grid(side, side),
                                    seed=seed, conv=conv, wmax=6)


class TestResultEquivalence:
    @shipped_params()
    def test_closed_value_and_batch(self, sr, conv):
        structure = build(conv)
        edges = sorted(structure.relations["E"])[:3]
        scenarios = [{}] + [{("w", "w", edge): sr.zero} for edge in edges]

        old_compiled = compile_structure_query(structure.copy(), EDGE_SUM)
        old_value = old_compiled.evaluate(sr)
        old_batch = old_compiled.evaluate_batch(sr, scenarios)

        with Database(structure.copy()) as db:
            prepared = db.prepare(EDGE_SUM)
            assert sr.eq(prepared.value(sr), old_value)
            for mine, theirs in zip(prepared.batch(scenarios, sr), old_batch):
                assert sr.eq(mine, theirs)

    @shipped_params()
    def test_point_queries_engine_vs_bind(self, sr, conv):
        structure = build(conv)
        probes = structure.domain[::3]

        with WeightedQueryEngine(structure.copy(), DEGREE, sr) as engine:
            old_points = [engine.query(v) for v in probes]
            old_batch = engine.query_batch([(v,) for v in probes])

        with Database(structure.copy()) as db:
            prepared = db.prepare(DEGREE)
            for probe, theirs in zip(probes, old_points):
                assert sr.eq(prepared.bind(probe).value(sr), theirs)
            for mine, theirs in zip(
                    prepared.batch([(v,) for v in probes], sr), old_batch):
                assert sr.eq(mine, theirs)

    @shipped_params()
    def test_maintained_updates_dynamic_vs_maintain(self, sr, conv):
        structure = build(conv)
        edge = sorted(structure.relations["E"])[0]
        new_value = conv(6)

        old_compiled = compile_structure_query(structure.copy(), EDGE_SUM)
        old_dynamic = old_compiled.dynamic(sr)
        old_dynamic.update_weight("w", edge, new_value)
        old_after = old_dynamic.value()

        with Database(structure.copy()) as db:
            maintained = db.prepare(EDGE_SUM).maintain(sr)
            maintained.update_weight("w", edge, new_value)
            assert sr.eq(maintained.value(), old_after)

    @shipped_params()
    def test_service_vs_db_serve(self, sr, conv):
        structure = build(conv)
        probes = structure.domain[:4]

        with QueryService(structure.copy(), DEGREE, sr) as old_service:
            old_results = old_service.query_batch([(v,) for v in probes])

        with Database(structure.copy()) as db:
            with db.serve(DEGREE, sr) as service:
                for probe, theirs in zip(probes, old_results):
                    assert sr.eq(service.query(probe), theirs)
