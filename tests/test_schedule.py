"""Layer schedules: the layer invariant, kind grouping, and caching."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import (AddGate, CircuitBuilder, ConstGate, InputGate,
                            MulGate, PermGate, StaticEvaluator,
                            build_schedule, co_occurring_inputs,
                            gate_parents, input_cone_masks,
                            optimize_circuit)
from repro.core import compile_structure_query
from repro.graphs import path_graph, triangulated_grid
from repro.logic import Atom, Bracket, Sum, Weight
from repro.semirings import FreeSemiring

from tests.test_properties import circuits
from tests.util import weighted_graph_structure

E = lambda x, y: Atom("E", (x, y))
w = lambda x, y: Weight("w", (x, y))

TRIANGLE = Sum(("x", "y", "z"),
               Bracket(E("x", "y") & E("y", "z") & E("z", "x"))
               * w("x", "y") * w("y", "z") * w("z", "x"))


def random_circuit(seed: int, n_inputs: int = 8, n_ops: int = 40):
    """A random well-formed circuit mixing all gate kinds."""
    rng = random.Random(seed)
    builder = CircuitBuilder()
    pool = [builder.input(("in", i)) for i in range(n_inputs)]
    pool.append(builder.const(rng.randint(0, 3)))
    for _ in range(n_ops):
        kind = rng.choice(("add", "mul", "mul", "perm"))
        if kind == "perm":
            n_rows = rng.randint(2, 3)
            n_cols = rng.randint(n_rows, n_rows + 2)
            gate = builder.perm(
                [[rng.choice(pool) if rng.random() < 0.85 else None
                  for _ in range(n_cols)] for _ in range(n_rows)])
        else:
            children = [rng.choice(pool) for _ in range(rng.randint(2, 4))]
            gate = (builder.add if kind == "add" else builder.mul)(children)
        if gate is not None:
            pool.append(gate)
    return builder.build(builder.add(pool[-5:]))


@pytest.mark.parametrize("seed", range(6))
def test_layer_invariant_random_circuits(seed):
    circuit = random_circuit(seed)
    schedule = build_schedule(circuit)
    schedule.validate()
    # Every live gate is scheduled exactly once, in its lowest legal layer.
    assert schedule.live_count() == len(circuit.live_gates())
    for layer in schedule.layers:
        for group in layer.groups:
            for gate_id in group.gate_ids:
                children = circuit.children_of(circuit.gates[gate_id])
                expected = (1 + max(schedule.layer_of[c] for c in children)
                            if children else 0)
                assert schedule.layer_of[gate_id] == layer.index == expected


def test_groups_are_kind_and_fanin_uniform():
    circuit = random_circuit(99)
    schedule = build_schedule(circuit)
    kind_of = {AddGate: "add", MulGate: "mul", PermGate: "perm",
               InputGate: "input", ConstGate: "const"}
    for layer in schedule.layers:
        for group in layer.groups:
            for position, gate_id in enumerate(group.gate_ids):
                gate = circuit.gates[gate_id]
                assert kind_of[type(gate)] == group.kind
                if group.kind in ("add", "mul"):
                    assert len(gate.children) == group.fan_in
                    assert group.children[position] == gate.children


def test_inputs_and_consts_in_layer_zero():
    circuit = random_circuit(7)
    schedule = build_schedule(circuit)
    assert schedule.input_gates
    for gate_id, key in schedule.input_gates:
        assert schedule.layer_of[gate_id] == 0
        assert circuit.gates[gate_id].key == key
    for gate_id, raw in schedule.const_gates:
        assert schedule.layer_of[gate_id] == 0
        assert circuit.gates[gate_id].value == raw


def test_schedule_covers_only_live_gates():
    builder = CircuitBuilder()
    a, b = builder.input("a"), builder.input("b")
    builder.add([a, b])           # dead: not reachable from the output
    out = builder.mul([a, b])
    schedule = build_schedule(builder.build(out))
    scheduled = {g for layer in schedule.layers
                 for group in layer.groups for g in group.gate_ids}
    assert scheduled == set(builder.build(out).live_gates())


@pytest.mark.parametrize("optimize", [False, True])
def test_compiled_query_schedules(optimize):
    structure = weighted_graph_structure(triangulated_grid(3, 3), seed=5)
    compiled = compile_structure_query(structure, TRIANGLE, optimize=optimize)
    schedule = compiled.schedule()
    schedule.validate()
    # Cached: the same object comes back (circuits are immutable).
    assert compiled.schedule() is schedule
    stats = schedule.stats()
    assert stats["live_gates"] == compiled.circuit.stats()["gates"]
    assert stats["layers"] == len(schedule.layers) > 1
    assert stats["inputs"] == compiled.circuit.stats()["inputs"]


def test_optimized_circuit_schedule_no_staler_than_raw():
    structure = weighted_graph_structure(path_graph(6), seed=1)
    compiled = compile_structure_query(structure, TRIANGLE, optimize=False)
    optimized = optimize_circuit(compiled.circuit).circuit
    raw, opt = build_schedule(compiled.circuit), build_schedule(optimized)
    raw.validate()
    opt.validate()
    assert opt.live_count() <= raw.live_count()


# -- co-occurrence analysis --------------------------------------------------------


def full_walk_co_occurring(schedule, key):
    """Reference analysis: visit *every* MUL/PERM gate of the circuit and
    collect the operands multiplied against an operand holding ``key``."""
    slots = {k: slot for slot, (_, k) in enumerate(schedule.input_gates)}
    if key not in slots:
        return frozenset()
    bit = 1 << slots[key]
    masks = input_cone_masks(schedule)
    circuit = schedule.circuit
    met = 0
    for gate_id in circuit.live_gates():
        gate = circuit.gates[gate_id]
        if not isinstance(gate, (MulGate, PermGate)):
            continue
        child_masks = [masks[c] for c in circuit.children_of(gate)]
        for index, mask in enumerate(child_masks):
            if mask & bit:
                for other_index, other in enumerate(child_masks):
                    if other_index != index:
                        met |= other
    return frozenset(k for slot, (_, k) in enumerate(schedule.input_gates)
                     if met >> slot & 1) - {key}


@st.composite
def low_degree_circuits(draw):
    """Random circuits with perm gates whose polynomial stays small
    enough to expand: MUL/PERM operands are drawn only from gates of
    degree <= 2, so no monomial exceeds degree 6."""
    builder = CircuitBuilder()
    keys = [("in", index) for index in range(draw(st.integers(1, 5)))]
    degree = {builder.input(key): 1 for key in keys}
    degree[builder.const(draw(st.integers(0, 2)))] = 0
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("add", "mul", "perm")))
        gates = sorted(degree)
        small = [g for g in gates if degree[g] <= 2]
        if kind == "perm":
            rows = draw(st.integers(2, 3))
            cols = draw(st.integers(rows, 4))
            entries = [[draw(st.one_of(st.none(), st.sampled_from(small)))
                        for _ in range(cols)] for _ in range(rows)]
            gate = builder.perm(entries)
            bound = sum(max((degree[e] for e in row if e is not None),
                            default=0) for row in entries)
        elif kind == "mul":
            children = [draw(st.sampled_from(small))
                        for _ in range(draw(st.integers(2, 3)))]
            gate = builder.mul(children)
            bound = sum(degree[c] for c in children)
        else:
            children = [draw(st.sampled_from(gates))
                        for _ in range(draw(st.integers(2, 4)))]
            gate = builder.add(children)
            bound = max(degree[c] for c in children)
        if gate is not None:
            degree[gate] = max(degree.get(gate, 0), bound)
    top = sorted(degree)[-3:]
    return builder.build(builder.add(top)), keys


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cone_walk_matches_the_full_circuit_walk(data):
    circuit, keys = data.draw(circuits())
    schedule = build_schedule(circuit)
    for key in keys + [("in", "dead")]:
        assert co_occurring_inputs(schedule, key) \
            == full_walk_co_occurring(schedule, key)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_co_occurrence_covers_every_shared_monomial(data):
    """Soundness against the provenance polynomial: expanded in the free
    semiring, every monomial's inputs co-occur pairwise."""
    circuit, keys = data.draw(low_degree_circuits())
    schedule = build_schedule(circuit)
    free = FreeSemiring()
    polynomial = StaticEvaluator(circuit, free, free.generator).value()
    co_occurring = {key: co_occurring_inputs(schedule, key) for key in keys}
    for key in keys:
        assert co_occurring[key] == full_walk_co_occurring(schedule, key)
    for monomial in polynomial.terms:
        for a, b in itertools.permutations(set(monomial), 2):
            assert b in co_occurring[a], (a, b, polynomial)


def test_co_occurrence_on_a_compiled_circuit():
    structure = weighted_graph_structure(triangulated_grid(3, 3), seed=5)
    schedule = compile_structure_query(structure, TRIANGLE).schedule()
    keys = [key for _, key in schedule.input_gates]
    assert any(co_occurring_inputs(schedule, key) for key in keys)
    for key in keys:
        assert co_occurring_inputs(schedule, key) \
            == full_walk_co_occurring(schedule, key)


def test_gate_parents_invert_children():
    circuit = random_circuit(3)
    schedule = build_schedule(circuit)
    parents = gate_parents(schedule)
    assert gate_parents(schedule) is parents  # memoized on the schedule
    assert set(parents) == set(circuit.live_gates())
    assert parents[circuit.output] == ()
    for gate_id in circuit.live_gates():
        for child in circuit.children_of(circuit.gates[gate_id]):
            assert gate_id in parents[child]
        for parent in parents[gate_id]:
            assert gate_id in circuit.children_of(circuit.gates[parent])
