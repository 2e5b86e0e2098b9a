"""E-A1 (Theorem 8): factorized vs naive weighted evaluation, crossover."""

import os

import pytest

from repro.baselines import StructureModel, eval_expression
# The layer compile entry: this bench measures the evaluators
# themselves, below the repro.api facade.
from repro.core import compile_structure_query
from repro.semirings import NATURAL

from common import TRIANGLE, report, timed, triangle_workload

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))


@pytest.mark.parametrize("side", [4] if FAST else [4, 6])
def test_factorized_triangle(benchmark, side):
    structure = triangle_workload(side)
    compiled = compile_structure_query(structure, TRIANGLE)
    benchmark(lambda: compiled.evaluate(NATURAL))


@pytest.mark.parametrize("side", [3] if FAST else [3, 4])
def test_naive_triangle(benchmark, side):
    structure = triangle_workload(side)
    model = StructureModel(structure, 0)
    benchmark.pedantic(
        lambda: eval_expression(TRIANGLE, model, NATURAL),
        rounds=1, iterations=1)


def test_crossover_table(capsys):
    """Who wins: naive O(n^3) vs compile+evaluate O(n * constants)."""
    rows = []
    for side in (3, 4) if FAST else (3, 4, 5, 6):
        structure = triangle_workload(side)
        n = len(structure.domain)
        model = StructureModel(structure, 0)
        naive_value, naive_time = timed(
            eval_expression, TRIANGLE, model, NATURAL)
        compiled, compile_time = timed(
            compile_structure_query, structure, TRIANGLE)
        value, eval_time = timed(compiled.evaluate, NATURAL)
        assert value == naive_value
        rows.append([n, round(naive_time, 4),
                     round(compile_time + eval_time, 4),
                     round(eval_time, 4)])
    with capsys.disabled():
        report("E-A1: naive vs factorized triangle evaluation (seconds)",
               ["n", "naive", "compile+eval", "re-eval"], rows)
