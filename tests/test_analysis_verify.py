"""The IR verifier: every seeded corruption rejected, every real plan passed.

Three families:

* pipeline plans are clean — every plan the compile pipeline produces,
  across all 13 shipped semirings, optimized and raw, passes
  ``verify_plan`` and ``verify_plan_state``;
* seeded mutations are rejected — flipped gate ids, dangling outputs,
  unary additions, truncated permanent rows, inconsistent input tables,
  reordered/incomplete/duplicated schedule layers, dropped serialized
  fields, missing recorded entries, undeclared forest colors, and
  unserialized dataclass fields: each a distinct corruption class, each
  rejected with a precise :class:`PlanVerifyError`;
* the trust seams hold — a corrupted ``.plan-store`` entry is a counted
  ``rejected`` miss that falls back to recompile (never a crash), the
  ``REPRO_VERIFY_PLANS``/``ExecOptions(verify=...)`` hook runs at
  compile time, and the ``verify-store`` CLI audits directories.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.analysis import (PlanVerifyError, verification_enabled,
                            verify_circuit, verify_plan, verify_plan_state,
                            verify_schedule)
from repro.circuits import (AddGate, Circuit, InputGate, MulGate, PermGate,
                            build_schedule, dump_plan_bytes, load_plan_bytes)
from repro.circuits.schedule import LayerSchedule
from repro.core import CompiledQuery, compile_structure_query, plan_cache_key
from repro.semirings import NATURAL
from repro.serve import PlanStore

from repro.logic import Atom, Bracket, Sum, Weight

from tests.test_plan_store import (EDGE_SUM, SEMIRING_CASES, TRIANGLE,
                                   weighted_structure)
from tests.util import compile_verified

#: A star query: two independent branches below ``x`` make the forest
#: compiler emit genuine multi-row permanent gates.
_E = lambda x, y: Atom("E", (x, y))  # noqa: E731
_w = lambda x, y: Weight("w", (x, y))  # noqa: E731
STAR = Sum(("x", "y", "z"),
           Bracket(_E("x", "y") & _E("x", "z")) * _w("x", "y") * _w("x", "z"))


def triangle_plan(optimize=True):
    return compile_structure_query(weighted_structure(), TRIANGLE,
                                   optimize=optimize)


def clone_circuit(circuit):
    return Circuit(list(circuit.gates), circuit.output,
                   dict(circuit.inputs))


# -- pipeline plans are clean ----------------------------------------------------


@pytest.mark.parametrize("sr,conv",
                         [(sr, conv) for _, sr, conv in SEMIRING_CASES],
                         ids=[name for name, _, _ in SEMIRING_CASES])
@pytest.mark.parametrize("expr", [TRIANGLE, EDGE_SUM],
                         ids=["triangle", "edge-sum"])
@pytest.mark.parametrize("optimize", [True, False],
                         ids=["optimized", "raw"])
def test_pipeline_plans_verify_clean(sr, conv, expr, optimize):
    plan = compile_structure_query(weighted_structure(conv), expr,
                                   optimize=optimize)
    verify_plan(plan)
    # The serialized form passes the no-structure (store/CLI) entry too.
    verify_plan_state(plan.to_state())


def test_schedule_verifies_against_its_circuit():
    plan = triangle_plan()
    verify_schedule(plan.schedule(), plan.circuit)
    other = triangle_plan()
    with pytest.raises(PlanVerifyError, match="different circuit"):
        verify_schedule(plan.schedule(), other.circuit)


# -- seeded mutations: circuit ---------------------------------------------------


def test_mutation_flipped_gate_id_breaks_topological_order():
    plan = triangle_plan()
    circuit = clone_circuit(plan.circuit)
    victim = next(i for i, g in enumerate(circuit.gates)
                  if isinstance(g, (AddGate, MulGate)))
    gate = circuit.gates[victim]
    # Flip one child to reference the gate itself (a forward edge).
    flipped = type(gate)((victim,) + tuple(gate.children[1:]))
    circuit.gates[victim] = flipped
    with pytest.raises(PlanVerifyError, match="topological"):
        verify_circuit(circuit)


def test_mutation_dangling_output():
    plan = triangle_plan()
    circuit = clone_circuit(plan.circuit)
    circuit.output = len(circuit.gates) + 7
    with pytest.raises(PlanVerifyError, match="output gate"):
        verify_circuit(circuit)


def test_mutation_unary_add_gate():
    plan = triangle_plan()
    circuit = clone_circuit(plan.circuit)
    victim = next(i for i, g in enumerate(circuit.gates)
                  if isinstance(g, AddGate))
    circuit.gates[victim] = AddGate(circuit.gates[victim].children[:1])
    with pytest.raises(PlanVerifyError, match="fan-in"):
        verify_circuit(circuit)


def test_mutation_truncated_perm_row_rejected_at_construction():
    # PermGate.__post_init__ is the first line of defense: a ragged
    # matrix cannot even be constructed.
    with pytest.raises(ValueError, match="not rectangular"):
        PermGate(((1, 2), (3,)))
    with pytest.raises(ValueError, match="not a gate id"):
        PermGate(((1, -2),))


def test_mutation_truncated_perm_row_in_state():
    plan = compile_structure_query(weighted_structure(), STAR,
                                   optimize=False)
    verify_plan(plan)
    state = plan.to_state()
    mutated = False
    for gate_state in state["circuit"]["gates"]:
        if gate_state[0] == "p" and len(gate_state[1][-1]) >= 2:
            gate_state[1][-1].pop()  # truncate the last row
            mutated = True
            break
    assert mutated, "expected a permanent gate in the raw star plan"
    with pytest.raises(PlanVerifyError):
        verify_plan_state(state)


def test_mutation_input_table_points_at_wrong_gate():
    plan = triangle_plan()
    circuit = clone_circuit(plan.circuit)
    key = next(iter(circuit.inputs))
    wrong = next(i for i, g in enumerate(circuit.gates)
                 if not (isinstance(g, InputGate) and g.key == key))
    circuit.inputs[key] = wrong
    with pytest.raises(PlanVerifyError, match="input table"):
        verify_circuit(circuit)


def test_mutation_duplicate_live_input_keys():
    plan = triangle_plan()
    circuit = clone_circuit(plan.circuit)
    key = next(k for k, gate_id in circuit.inputs.items()
               if gate_id in circuit.live_gates())
    # A second gate with the same key, fed into a new output add gate so
    # both duplicates are live.
    clone = len(circuit.gates)
    circuit.gates.append(InputGate(key))
    circuit.gates.append(AddGate((circuit.output, clone)))
    circuit.output = clone + 1
    with pytest.raises(PlanVerifyError, match="duplicate live input"):
        verify_circuit(circuit)


# -- seeded mutations: schedule --------------------------------------------------


def reindexed(layers):
    return tuple(replace(layer, index=i) for i, layer in enumerate(layers))


def with_layers(schedule, layers):
    layer_of = {gate_id: layer.index for layer in layers
                for group in layer.groups for gate_id in group.gate_ids}
    return LayerSchedule(schedule.circuit, tuple(layers), layer_of,
                         schedule.input_gates, schedule.const_gates)


def test_mutation_reordered_layers():
    plan = triangle_plan()
    schedule = build_schedule(plan.circuit)
    layers = list(schedule.layers)
    assert len(layers) >= 2
    layers[0], layers[-1] = layers[-1], layers[0]
    with pytest.raises(PlanVerifyError, match="strictly earlier"):
        verify_schedule(with_layers(schedule, reindexed(layers)))


def test_mutation_dropped_layer_breaks_coverage():
    plan = triangle_plan()
    schedule = build_schedule(plan.circuit)
    layers = reindexed(list(schedule.layers)[1:])
    with pytest.raises(PlanVerifyError):
        verify_schedule(with_layers(schedule, layers))


def test_mutation_gate_scheduled_twice():
    plan = triangle_plan()
    schedule = build_schedule(plan.circuit)
    layers = list(schedule.layers)
    layers.append(replace(layers[-1], index=len(layers)))
    with pytest.raises(PlanVerifyError, match="scheduled twice"):
        verify_schedule(with_layers(schedule, layers))


def test_mutation_wrong_group_fan_in():
    plan = triangle_plan()
    schedule = build_schedule(plan.circuit)
    layers = []
    mutated = False
    for layer in schedule.layers:
        groups = []
        for group in layer.groups:
            if not mutated and group.fan_in is not None:
                group = replace(group, fan_in=group.fan_in + 1)
                mutated = True
            groups.append(group)
        layers.append(replace(layer, groups=tuple(groups)))
    assert mutated, "expected an add/mul group to mutate"
    with pytest.raises(PlanVerifyError, match="fan-in"):
        verify_schedule(with_layers(schedule, layers))


def test_mutation_reordered_layer_in_state():
    plan = triangle_plan()
    plan.schedule()
    state = plan.to_state()
    assert state["schedule"] and len(state["schedule"]) >= 2
    state["schedule"].reverse()
    with pytest.raises(PlanVerifyError):
        verify_plan_state(state)


# -- seeded mutations: serialized state ------------------------------------------


def test_mutation_dropped_state_field():
    state = triangle_plan().to_state()
    del state["recorded"]
    with pytest.raises(PlanVerifyError, match="missing"):
        verify_plan_state(state)


def test_mutation_unexpected_state_field():
    state = triangle_plan().to_state()
    state["extra"] = 1
    with pytest.raises(PlanVerifyError, match="unexpected"):
        verify_plan_state(state)


def test_mutation_missing_recorded_entry():
    state = triangle_plan().to_state()
    assert state["recorded"], "triangle plan records inputs"
    state["recorded"] = state["recorded"][1:]
    with pytest.raises(PlanVerifyError, match="recorded"):
        verify_plan_state(state)


def test_mutation_undeclared_forest_colors():
    plan = triangle_plan()
    assert plan.forests
    colors, forest = plan.forests[0]
    plan.forests[0] = (colors | {999}, forest)
    with pytest.raises(PlanVerifyError, match="color"):
        verify_plan(plan)


def test_unserialized_dataclass_field_is_flagged():
    # A CompiledQuery variant grows a field without touching the
    # serializer: the completeness check must trip, naming the field.
    @dataclasses.dataclass
    class Extended(CompiledQuery):
        shiny_new_field: int = 0

    plan = triangle_plan()
    extended = Extended(**{f.name: getattr(plan, f.name)
                           for f in dataclasses.fields(CompiledQuery)})
    with pytest.raises(PlanVerifyError, match="shiny_new_field"):
        verify_plan(extended)


# -- the trust seams -------------------------------------------------------------


def corrupt_store_entry(store, key):
    """Rewrite the entry so it decodes cleanly but violates the IR
    contract (one recorded entry dropped) — the container checksum is
    regenerated, so only the verifier can catch it."""
    path = store._entry_path(key)
    with open(path, "rb") as handle:
        container = load_plan_bytes(handle.read())
    container["plan"]["recorded"] = container["plan"]["recorded"][1:]
    with open(path, "wb") as handle:
        handle.write(dump_plan_bytes(container))


def test_corrupted_store_entry_falls_back_to_recompile(tmp_path):
    structure = weighted_structure()
    store = PlanStore(tmp_path)
    compiled = compile_structure_query(structure, TRIANGLE,
                                       plan_store=store)
    key = plan_cache_key(structure, TRIANGLE, frozenset(), True)
    corrupt_store_entry(store, key)

    # Direct load: a counted rejection, never a crash, entry removed.
    assert store.load(key, weighted_structure(), TRIANGLE) is None
    assert store.stats()["rejected"] == 1
    assert len(store) == 0

    # Through the compile pipeline: transparent recompile + re-save.
    corrupt = PlanStore(tmp_path)
    compile_structure_query(structure, TRIANGLE, plan_store=corrupt)
    recompiled = compile_structure_query(weighted_structure(), TRIANGLE,
                                         plan_store=corrupt)
    assert recompiled.evaluate(NATURAL) == compiled.evaluate(NATURAL)
    stats = corrupt.stats()
    assert stats["rejected"] == 0 and stats["hits"] == 1


def test_rejected_store_load_recompiles_and_heals(tmp_path):
    structure = weighted_structure()
    store = PlanStore(tmp_path)
    compiled = compile_structure_query(structure, TRIANGLE,
                                       plan_store=store)
    key = plan_cache_key(structure, TRIANGLE, frozenset(), True)
    corrupt_store_entry(store, key)
    recompiled = compile_structure_query(weighted_structure(), TRIANGLE,
                                         plan_store=store)
    assert recompiled.evaluate(NATURAL) == compiled.evaluate(NATURAL)
    stats = store.stats()
    assert stats["rejected"] == 1
    assert stats["saves"] == 2  # the recompile healed the entry
    assert store.load(key, weighted_structure(), TRIANGLE) is not None


def test_compile_verify_hook_opt_in(monkeypatch):
    monkeypatch.delenv("REPRO_VERIFY_PLANS", raising=False)
    assert not verification_enabled()
    assert verification_enabled(True)
    assert not verification_enabled(False)
    monkeypatch.setenv("REPRO_VERIFY_PLANS", "1")
    assert verification_enabled()
    assert not verification_enabled(False)  # explicit beats the env
    monkeypatch.setenv("REPRO_VERIFY_PLANS", "off")
    assert not verification_enabled()


def test_compile_verified_helper_runs_the_verifier():
    plan = compile_verified(weighted_structure(), TRIANGLE)
    assert plan.evaluate(NATURAL) == triangle_plan().evaluate(NATURAL)


def test_exec_options_carry_verify():
    from repro.api import Database, ExecOptions
    assert ExecOptions().verify is None
    opts = ExecOptions(verify=True)
    db = Database(weighted_structure(), options=opts)
    try:
        assert db.prepare(TRIANGLE).value(NATURAL) \
            == triangle_plan().evaluate(NATURAL)
    finally:
        db.close()


def test_verify_store_cli(tmp_path):
    structure = weighted_structure()
    store = PlanStore(tmp_path)
    compile_structure_query(structure, TRIANGLE, plan_store=store)
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.path.join(root, "src") \
        + os.pathsep + env.get("PYTHONPATH", "")
    ok = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "verify-store",
         str(tmp_path)], capture_output=True, text=True, env=env)
    assert ok.returncode == 0, ok.stdout + ok.stderr
    assert "0 failed" in ok.stdout

    key = plan_cache_key(structure, TRIANGLE, frozenset(), True)
    corrupt_store_entry(store, key)
    bad = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "verify-store",
         str(tmp_path)], capture_output=True, text=True, env=env)
    assert bad.returncode == 1, bad.stdout + bad.stderr
    assert "FAIL" in bad.stdout and "recorded" in bad.stdout
