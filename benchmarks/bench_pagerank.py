"""E-EX9 (Example 9): PageRank round — constant-time maintenance."""

import random

import pytest

from repro.engine import WeightedQueryEngine
from repro.logic import Atom, Bracket, Sum, WConst, Weight
from repro.semirings import FLOAT
from repro.structures import graph_structure
from repro.graphs import triangulated_grid

from common import report, timed


def pagerank_engine(side, damping=0.85):
    graph = triangulated_grid(side, side)
    structure = graph_structure(graph)
    rng = random.Random(0)
    for v in structure.domain:
        # w(y)/l(y) stored as one weight, as in the paper (no division).
        structure.set_weight("wl", (v,), rng.random() / graph.degree(v))
    n = len(structure.domain)
    E = lambda x, y: Atom("E", (x, y))
    expr = WConst((1 - damping) / n) + WConst(damping) * Sum(
        "y", Bracket(E("y", "x")) * Weight("wl", ("y",)))
    # The layer engine: this bench measures the Theorem 8 machinery
    # itself, below the repro.api facade (which adds bind/caching).
    return structure, WeightedQueryEngine(structure, expr, FLOAT)


@pytest.mark.parametrize("side", [5, 7])
def test_pagerank_point_query(benchmark, side):
    structure, engine = pagerank_engine(side)
    rng = random.Random(1)
    benchmark(lambda: engine.query(rng.choice(structure.domain)))


@pytest.mark.parametrize("side", [5, 7])
def test_pagerank_weight_update(benchmark, side):
    structure, engine = pagerank_engine(side)
    rng = random.Random(2)
    nodes = structure.domain
    benchmark(lambda: engine.update_weight("wl", (rng.choice(nodes),),
                                           rng.random()))


def test_pagerank_update_flat_table(capsys):
    rows = []
    for side in (5, 7, 9):
        structure, engine = pagerank_engine(side)
        rng = random.Random(3)
        nodes = structure.domain

        def storm():
            for _ in range(100):
                engine.update_weight("wl", (rng.choice(nodes),),
                                     rng.random())

        _, update_time = timed(storm)
        _, query_time = timed(engine.query, nodes[0])
        rows.append([len(nodes), update_time / 100, query_time])
    with capsys.disabled():
        report("E-EX9: PageRank per-update / per-query seconds",
               ["n", "update", "query"], rows)
