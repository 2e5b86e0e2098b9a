"""Build a plan-store corpus for the CI ``analysis`` job.

Compiles the plan-store test queries (triangle count and edge sum over
a triangulated grid, plus a star query whose compiled circuit retains
real multi-row ``PermGate``s) once per shipped semiring — every entry
of ``SEMIRING_CASES`` from ``tests/test_plan_store.py``, i.e. every
semiring with a serializable carrier — and persists each compiled plan
into a :class:`repro.serve.PlanStore` directory.  ``python -m
repro.analysis verify-store`` then audits the whole corpus: the IR
verifier must accept every plan the real pipeline produces.

Usage: ``python .github/scripts/build_plan_corpus.py [STORE_DIR]``
(default ``.plan-corpus``).  Exits non-zero if any compilation fails
to persist.
"""

from __future__ import annotations

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, REPO_ROOT)

from repro.core import compile_structure_query  # noqa: E402
from repro.logic import Atom, Bracket, Sum, Weight  # noqa: E402
from repro.serve import PlanStore  # noqa: E402

from tests.test_plan_store import (EDGE_SUM, SEMIRING_CASES,  # noqa: E402
                                   TRIANGLE, weighted_structure)


def _star():
    def edge(x, y):
        return Atom("E", (x, y))

    def weight(x, y):
        return Weight("w", (x, y))

    return Sum(("x", "y", "z"),
               Bracket(edge("x", "y") & edge("x", "z"))
               * weight("x", "y") * weight("x", "z"))


QUERIES = [("triangle", TRIANGLE), ("edge-sum", EDGE_SUM),
           ("star", _star())]


def main(argv):
    directory = argv[1] if len(argv) > 1 else ".plan-corpus"
    store = PlanStore(directory, max_entries=4096)
    failures = 0
    for name, _semiring, conv in SEMIRING_CASES:
        structure = weighted_structure(conv)
        for query_name, expr in QUERIES:
            # Some semirings map the test weights to identical carrier
            # values (e.g. Z_7 and N agree on 0..4), so their plans
            # share a store entry: a hit is as good as a save.
            before = store.saves + store.hits
            compile_structure_query(structure, expr, plan_store=store)
            if store.saves + store.hits == before:
                failures += 1
                print(f"FAIL {name}/{query_name}: plan was not persisted")
            else:
                print(f"ok   {name}/{query_name}")
    stats = store.stats()
    print(f"plan corpus: {stats['entries']} entries "
          f"({stats['bytes']} bytes) in {directory}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
