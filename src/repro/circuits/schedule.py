"""Layered evaluation schedules: topological partition of a circuit.

A :class:`LayerSchedule` partitions a circuit's live gates into *layers*
subject to the **layer invariant**:

    every child of a gate in layer ``i`` lies in a layer ``j < i``;
    gates without children (inputs and constants) occupy layer 0.

Each gate is placed in the lowest layer the invariant allows (its depth:
``1 + max(layer of children)``), so all gates within one layer are
mutually independent and a whole layer can be evaluated at once from the
values of earlier layers.  Within a layer, gates are grouped into
:class:`GateGroup` buckets by kind — and, for additions and
multiplications, by fan-in — so a batched backend can evaluate an entire
group with a single rectangular reduction (stack the children of all
gates in the group into a ``(gates, fan_in, batch)`` tensor and reduce
over the fan-in axis).  This is what :mod:`repro.circuits.vectorized`
consumes.

The schedule is a pure-Python structure (no NumPy dependency), derived
once per circuit and cacheable: circuits are immutable after
construction/optimization, so a schedule never goes stale.
``CompiledQuery.schedule()`` memoizes it per compiled query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Tuple

from .gates import (AddGate, Circuit, ConstGate, GateId, InputGate, MulGate,
                    PermGate)

#: Group kinds, in the order they appear inside a layer.
KIND_INPUT = "input"
KIND_CONST = "const"
KIND_ADD = "add"
KIND_MUL = "mul"
KIND_PERM = "perm"


@dataclass(frozen=True)
class GateGroup:
    """A same-kind bucket of gates inside one layer.

    ``fan_in`` is the uniform child count for ``add``/``mul`` groups and
    ``None`` otherwise; ``children[i]`` lists the child gate ids of
    ``gate_ids[i]`` (``None`` for inputs, constants and permanent gates,
    whose operands are read from the gate itself).
    """

    kind: str
    fan_in: Optional[int]
    gate_ids: Tuple[GateId, ...]
    children: Optional[Tuple[Tuple[GateId, ...], ...]] = None


@dataclass(frozen=True)
class Layer:
    """One topological stratum: mutually independent gates."""

    index: int
    groups: Tuple[GateGroup, ...]

    def gate_count(self) -> int:
        return sum(len(group.gate_ids) for group in self.groups)


class LayerSchedule:
    """The layered, kind-grouped evaluation plan of one circuit."""

    def __init__(self, circuit: Circuit, layers: Tuple[Layer, ...],
                 layer_of: Dict[GateId, int],
                 input_gates: Tuple[Tuple[GateId, Hashable], ...],
                 const_gates: Tuple[Tuple[GateId, Any], ...]):
        self.circuit = circuit
        self.layers = layers
        self.layer_of = layer_of
        #: live input gates as ``(gate_id, key)`` pairs, in gate-id order.
        self.input_gates = input_gates
        #: live constant gates as ``(gate_id, raw value)`` pairs.
        self.const_gates = const_gates
        # Static-topology indexes, built on first use and kept: the
        # schedule is immutable, so they never go stale.
        self._input_cones: Optional[Dict[GateId, int]] = None
        self._parents: Optional[Dict[GateId, Tuple[GateId, ...]]] = None
        self._input_slots: Optional[Dict[Hashable, int]] = None

    def __len__(self) -> int:
        return len(self.layers)

    def live_count(self) -> int:
        return len(self.layer_of)

    def stats(self) -> Dict[str, Any]:
        widest = max((layer.gate_count() for layer in self.layers), default=0)
        groups = sum(len(layer.groups) for layer in self.layers)
        kinds: Dict[str, int] = {}
        reducible = 0
        for layer in self.layers:
            for group in layer.groups:
                kinds[group.kind] = kinds.get(group.kind, 0) \
                    + len(group.gate_ids)
                if group.kind in (KIND_ADD, KIND_MUL):
                    reducible += len(group.gate_ids)
        return {
            "layers": len(self.layers),
            "live_gates": self.live_count(),
            "widest_layer": widest,
            "groups": groups,
            "inputs": len(self.input_gates),
            #: per-kind gate counts — the group metadata the guarded
            #: kernels reduce over (add/mul are the checked reductions).
            "gate_kinds": kinds,
            "reducible_gates": reducible,
        }

    def validate(self) -> None:
        """Assert the layer invariant (test/debug helper)."""
        seen_once: Dict[GateId, int] = {}
        circuit = self.circuit
        for layer in self.layers:
            for group in layer.groups:
                for gate_id in group.gate_ids:
                    assert gate_id not in seen_once, \
                        f"gate {gate_id} scheduled twice"
                    seen_once[gate_id] = layer.index
                    for child in circuit.children_of(circuit.gates[gate_id]):
                        assert self.layer_of[child] < layer.index, (
                            f"gate {gate_id} (layer {layer.index}) depends "
                            f"on {child} (layer {self.layer_of[child]})")
        assert set(seen_once) == set(circuit.live_gates()), \
            "schedule does not cover exactly the live gates"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<LayerSchedule layers={len(self.layers)} "
                f"gates={self.live_count()}>")


def input_cone_masks(schedule: LayerSchedule) -> Dict[GateId, int]:
    """Per-gate bitmask of the input slots in the gate's input cone.

    Slot ``i`` is position ``i`` of ``schedule.input_gates``; the mask
    of a gate is the OR of its children's masks (inputs contribute their
    own slot bit).  Memoized on the schedule — schedules are immutable,
    so the cones never go stale.  The walk relies on the builder's
    topological gate-id order (children precede parents), the property
    every evaluator already assumes.
    """
    masks = schedule._input_cones
    if masks is None:
        slot_of = {gate_id: slot for slot, (gate_id, _)
                   in enumerate(schedule.input_gates)}
        circuit = schedule.circuit
        masks = {}
        for gate_id in circuit.live_gates():
            mask = 0
            for child in circuit.children_of(circuit.gates[gate_id]):
                mask |= masks[child]
            slot = slot_of.get(gate_id)
            if slot is not None:
                mask |= 1 << slot
            masks[gate_id] = mask
        schedule._input_cones = masks
    return masks


def gate_parents(schedule: LayerSchedule) -> Dict[GateId, Tuple[GateId, ...]]:
    """Per-gate tuple of the live gates that read it, in gate-id order.

    The upward counterpart of :func:`input_cone_masks`: following
    parents from an input gate visits exactly its upward cone, the gates
    whose value can change when that input is written.  The output gate
    has no parents.  Memoized on the schedule.
    """
    parents = schedule._parents
    if parents is None:
        circuit = schedule.circuit
        live = circuit.live_gates()
        readers: Dict[GateId, List[GateId]] = {gate_id: [] for gate_id in live}
        for gate_id in live:
            for child in dict.fromkeys(
                    circuit.children_of(circuit.gates[gate_id])):
                readers[child].append(gate_id)
        parents = {gate_id: tuple(ids) for gate_id, ids in readers.items()}
        schedule._parents = parents
    return parents


def co_occurring_inputs(schedule: LayerSchedule, key: Hashable) -> frozenset:
    """The input keys that share a product monomial with input ``key``.

    Two inputs co-occur when some multiplication combines them: a MUL
    (or permanent) gate with ``key`` in one operand's input cone and the
    other input in a *different* operand's cone.  Every monomial of the
    polynomial the circuit computes multiplies its inputs together at
    such a gate, so this is a sound overapproximation of "appears in a
    common monomial" — the analysis behind touched-group-only result
    invalidation (an update to ``key`` can only change point queries
    whose selector inputs co-occur with it).  An unknown/dead ``key``
    returns the empty set (the circuit provably never reads it).

    Only the MUL/PERM gates of ``key``'s upward cone (see
    :func:`gate_parents`) can hold ``key`` in an operand, so the walk
    visits that cone and nothing else: its cost follows the cone, not
    the circuit.  The per-gate cones and parents are memoized on the
    schedule; the walk itself is not.
    """
    slots = schedule._input_slots
    if slots is None:
        slots = schedule._input_slots = {
            k: slot for slot, (_, k) in enumerate(schedule.input_gates)}
    slot = slots.get(key)
    if slot is None:
        return frozenset()
    masks = input_cone_masks(schedule)
    parents = gate_parents(schedule)
    inputs = schedule.input_gates
    gates = schedule.circuit.gates
    children_of = schedule.circuit.children_of
    bit = 1 << slot
    met = 0
    seen = {inputs[slot][0]}
    stack = [inputs[slot][0]]
    while stack:
        for parent in parents[stack.pop()]:
            if parent in seen:
                continue
            seen.add(parent)
            stack.append(parent)
            gate = gates[parent]
            if not isinstance(gate, (MulGate, PermGate)):
                continue
            child_masks = [masks[child] for child in children_of(gate)]
            for index, mask in enumerate(child_masks):
                if mask & bit:
                    # Operands other than the one holding ``key``
                    # multiply against it in some monomial.  (A
                    # permanent gate's sum-of-products pairs every
                    # operand with operands of the other rows, which
                    # the all-pairs treatment overapproximates.)
                    for j, other in enumerate(child_masks):
                        if j != index:
                            met |= other
    keys = []
    while met:
        low = (met & -met).bit_length() - 1
        keys.append(inputs[low][1])
        met &= met - 1
    return frozenset(keys) - {key}


def _kind_key(gate: Any) -> Tuple[str, Optional[int]]:
    if isinstance(gate, InputGate):
        return KIND_INPUT, None
    if isinstance(gate, ConstGate):
        return KIND_CONST, None
    if isinstance(gate, AddGate):
        return KIND_ADD, len(gate.children)
    if isinstance(gate, MulGate):
        return KIND_MUL, len(gate.children)
    if isinstance(gate, PermGate):
        return KIND_PERM, None
    raise TypeError(f"unknown gate {gate!r}")


def build_schedule(circuit: Circuit) -> LayerSchedule:
    """Partition the circuit's live gates into kind-grouped layers.

    Relies on the builder's topological gate-id order (children precede
    parents), the same property every evaluator already assumes.
    """
    layer_of: Dict[GateId, int] = {}
    # layer index -> (kind, fan_in) -> ([gate ids], [children tuples])
    buckets: Dict[int, Dict[Tuple[str, Optional[int]],
                            Tuple[List[GateId], List[Tuple[GateId, ...]]]]] = {}
    input_gates: List[Tuple[GateId, Hashable]] = []
    const_gates: List[Tuple[GateId, Any]] = []
    for gate_id in circuit.live_gates():
        gate = circuit.gates[gate_id]
        children = circuit.children_of(gate)
        index = (1 + max(layer_of[c] for c in children)) if children else 0
        layer_of[gate_id] = index
        kind, fan_in = _kind_key(gate)
        if kind == KIND_INPUT:
            input_gates.append((gate_id, gate.key))
        elif kind == KIND_CONST:
            const_gates.append((gate_id, gate.value))
        ids, kids = buckets.setdefault(index, {}).setdefault(
            (kind, fan_in), ([], []))
        ids.append(gate_id)
        kids.append(tuple(children))
    layers = []
    for index in range(max(buckets, default=-1) + 1):
        groups = []
        for (kind, fan_in), (ids, kids) in sorted(
                buckets.get(index, {}).items(),
                key=lambda item: (item[0][0], item[0][1] or 0)):
            groups.append(GateGroup(
                kind=kind, fan_in=fan_in, gate_ids=tuple(ids),
                children=(tuple(kids) if kind in (KIND_ADD, KIND_MUL)
                          else None)))
        layers.append(Layer(index=index, groups=tuple(groups)))
    return LayerSchedule(circuit, tuple(layers), layer_of,
                         tuple(input_gates), tuple(const_gates))
