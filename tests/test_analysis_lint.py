"""The project-invariant linter: real tree clean, every rule fires.

Two guarantees, both load-bearing:

* the shipped source tree (``src/``, ``tests/`` outside the fixtures,
  ``benchmarks/``, ``examples/``) has zero violations — the invariants
  the linter encodes actually hold today;
* every rule is *demonstrated*: its negative fixture fires exactly that
  rule, its positive fixture is clean — so a refactor of the linter
  cannot silently neuter a rule.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis import lint_file, lint_paths, lint_source
from repro.analysis.lint import RULES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "tests", "lint_fixtures")

#: rule -> (negative fixture, positive fixture) relative to FIXTURES.
FIXTURE_OF = {
    "REP001": ("bad/locks_rep001.py", "good/locks.py"),
    "REP002": ("bad/locks_rep002.py", "good/locks.py"),
    "REP003": ("bad/api/prepared_rep003.py", "good/api/prepared.py"),
    "REP005": ("bad/plan_store.py", "good/serialize.py"),
    "REP006": ("bad/cluster/gateway_rep006.py", "good/cluster/gateway.py"),
    "REP007": ("bad/api/database_rep007.py", "good/api/database.py"),
}


def test_every_rule_has_a_fixture_pair():
    assert set(FIXTURE_OF) == set(RULES)
    for bad, good in FIXTURE_OF.values():
        assert os.path.exists(os.path.join(FIXTURES, bad))
        assert os.path.exists(os.path.join(FIXTURES, good))


@pytest.mark.parametrize("rule", sorted(RULES))
def test_rule_fires_on_its_negative_fixture(rule):
    bad, _ = FIXTURE_OF[rule]
    violations = lint_file(os.path.join(FIXTURES, bad))
    assert violations, f"{rule} did not fire on {bad}"
    assert {v.rule for v in violations} == {rule}, violations
    for violation in violations:
        assert violation.line > 0
        assert str(violation)  # renders path:line:col: RULE message


@pytest.mark.parametrize("rule", sorted(RULES))
def test_rule_is_quiet_on_its_positive_fixture(rule):
    _, good = FIXTURE_OF[rule]
    violations = lint_file(os.path.join(FIXTURES, good))
    assert violations == [], violations


def test_shipped_tree_is_clean():
    paths = [os.path.join(ROOT, "src"),
             os.path.join(ROOT, "benchmarks"),
             os.path.join(ROOT, "examples")]
    paths = [path for path in paths if os.path.isdir(path)]
    violations = lint_paths(paths)
    assert violations == [], "\n".join(str(v) for v in violations)


def test_test_suite_is_clean_outside_the_fixtures():
    tests_dir = os.path.join(ROOT, "tests")
    violations = [v for v in lint_paths([tests_dir])
                  if "lint_fixtures" not in v.path]
    assert violations == [], "\n".join(str(v) for v in violations)


def test_fixture_corpus_fires_every_rule():
    # Linting the whole fixture tree yields exactly the rule set —
    # nothing silent, nothing spurious.
    violations = lint_paths([FIXTURES])
    assert {v.rule for v in violations} == set(RULES)
    good = [v for v in violations
            if os.sep + "good" + os.sep in v.path]
    assert good == [], good


def test_lint_source_path_scoping():
    # REP003 applies only under api/serve layers: the same source is
    # clean elsewhere.
    with open(os.path.join(FIXTURES, "bad", "api",
                           "prepared_rep003.py")) as handle:
        source = handle.read()
    assert lint_source(source, "src/repro/serve/thing.py")
    assert lint_source(source, "src/repro/core/thing.py") == []
    # REP005 applies only to serialize/cache-key module basenames.
    with open(os.path.join(FIXTURES, "bad", "plan_store.py")) as handle:
        source = handle.read()
    assert lint_source(source, "pkg/result_cache.py")
    assert lint_source(source, "pkg/misc_helpers.py") == []
    # REP007 applies only in the update-routing layers: the structures
    # package itself (where full_fingerprint/rehash live) is exempt.
    with open(os.path.join(FIXTURES, "bad", "api",
                           "database_rep007.py")) as handle:
        source = handle.read()
    assert lint_source(source, "src/repro/cluster/worker.py")
    assert lint_source(source, "src/repro/structures/structure.py") == []


def test_cli_lint_exit_codes(capsys):
    from repro.analysis.cli import main
    assert main(["lint", os.path.join(FIXTURES, "good")]) == 0
    assert main(["lint", os.path.join(FIXTURES, "bad")]) == 1
    out = capsys.readouterr().out
    assert "REP001" in out and "violation" in out
    assert main(["rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule in out
