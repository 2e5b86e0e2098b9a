"""Theorems 22 and 24: provenance enumeration and FO answer enumeration.

*Theorem 24* (dynamic query enumeration): for a quantifier-free formula
``φ(x)`` — after quantifier elimination, see ``repro.qe`` — build the
weighted expression ``Σ_x [φ(x)] · w_1(x_1) ··· w_k(x_k)`` whose weights
are unique generators ``e^i_a`` of the free semiring; the circuit's value
is the formal sum with exactly one monomial per answer (the shape
decomposition is mutually exclusive), and the enumeration context yields a
constant-delay, bi-directional, repetition-free enumerator.  Updates that
preserve the Gaifman graph (declared dynamic relations) are constant-time
support flips.

*Theorem 22* (provenance): the same machinery with user-supplied weight
values in the free semiring (Poly objects, generator ids, or explicit
monomial lists).
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from ..core import CompiledQuery, compile_structure_query
from ..logic.fo import Formula, is_quantifier_free
from ..logic.weighted import Bracket, Sum, WExpr, WMul, Weight
from ..semirings import NATURAL, Poly
from ..structures import Structure
from .context import EnumerationContext
from .iterators import Cursor, Monomial

ENUM_WEIGHT = "_answer"


def _monomials_of(value: Any) -> List[Monomial]:
    """Interpret a stored weight value as a list of monomials."""
    if isinstance(value, Poly):
        return list(value.monomials())
    if isinstance(value, list):
        return [tuple(m) for m in value]
    if isinstance(value, bool):
        return [()] if value else []
    if isinstance(value, int):
        return [()] * max(0, value)
    # A bare hashable is a single generator.
    return [(value,)]


def _base_valuation(compiled: CompiledQuery) -> Dict[Hashable, List[Monomial]]:
    base: Dict[Hashable, List[Monomial]] = {}
    for key, (kind, raw) in compiled.recorded.items():
        if kind == "b":
            base[key] = [()] if raw else []
        else:
            base[key] = _monomials_of(raw)
    return base


class ProvenanceEnumerator:
    """Theorem 22: constant-delay enumeration of a query's provenance.

    ``structure`` carries free-semiring weight values; the enumerator
    yields the monomials of ``f_A(w)`` (with repetition multiplicities,
    as in the paper).
    """

    def __init__(self, structure: Structure, expr: WExpr,
                 dynamic_relations: Sequence[str] = (),
                 optimize: bool = True, verify: Optional[bool] = None):
        self.compiled = compile_structure_query(
            structure, expr, dynamic_relations=dynamic_relations,
            optimize=optimize, verify=verify)
        self.context = EnumerationContext(self.compiled.circuit,
                                          _base_valuation(self.compiled))

    def is_zero(self) -> bool:
        return not self.context.supported()

    def cursor(self) -> Cursor:
        return self.context.cursor()

    def monomials(self) -> Iterator[Monomial]:
        """One full enumeration round (sorted generators per monomial)."""
        if self.is_zero():
            return
        cursor = self.cursor()
        while True:
            yield tuple(sorted(cursor.current(), key=repr))
            if cursor.advance():
                return

    def update_weight(self, name: str, tup: Tuple, value: Any) -> int:
        """Replace a weight's free-semiring value (iterator swap)."""
        compiled = self.compiled
        tup = tuple(tup)
        if tup not in compiled.structure.weights.get(name, {}):
            raise KeyError(f"{name}{tup} was not declared at compile time")
        # Through set_weight so the structure's content caches stay
        # honest, and with the input-gate invalidation hook so the
        # memoized batched-evaluation base goes stale with us.
        compiled.structure.set_weight(name, tup, value)
        key = ("w", name, tup)
        if key not in compiled.recorded:
            return 0
        compiled.recorded[key] = ("w", value)
        compiled._invalidate_inputs()
        return self.context.set_input(key, _monomials_of(value))

    def set_relation(self, name: str, tup: Tuple, present: bool) -> int:
        touched = 0
        for key, state in self.compiled.mark_relation(name, tup, present):
            touched += self.context.set_input(key, [()] if state else [])
        return touched


class AnswerEnumerator:
    """Theorem 24: enumerate the answers of a quantifier-free ``φ(x)``.

    Constant-delay, repetition-free, bi-directional; supports
    Gaifman-preserving updates for relations declared dynamic.  The same
    compiled circuit evaluated in (N, +, ·) counts the answers.
    """

    def __init__(self, structure: Structure, formula: Formula,
                 free_order: Optional[Sequence[str]] = None,
                 dynamic_relations: Sequence[str] = (),
                 optimize: bool = True, verify: Optional[bool] = None):
        if not is_quantifier_free(formula):
            raise ValueError("Theorem 24 applies after quantifier "
                             "elimination; see repro.qe")
        self.vars: Tuple[str, ...] = tuple(
            free_order if free_order is not None
            else sorted(formula.free_vars()))
        if set(self.vars) != set(formula.free_vars()):
            raise ValueError("free_order must list the formula's free "
                             "variables")
        if not self.vars:
            raise ValueError("boolean sentences have no answers to "
                             "enumerate; evaluate [φ] in B instead")
        weight_names = [(ENUM_WEIGHT, i) for i in range(len(self.vars))]
        for name in weight_names:
            for element in structure.domain:
                structure.set_weight(name, (element,), 1)
        expr = Sum(self.vars, WMul(
            (Bracket(formula),)
            + tuple(Weight(name, (var,))
                    for name, var in zip(weight_names, self.vars))))
        self.compiled = compile_structure_query(
            structure, expr, dynamic_relations=dynamic_relations,
            optimize=optimize, verify=verify)
        base = {}
        for key, (kind, raw) in self.compiled.recorded.items():
            if kind == "b":
                base[key] = [()] if raw else []
            else:
                _, name, tup = key
                if isinstance(name, tuple) and name[0] == ENUM_WEIGHT:
                    base[key] = [((name[1], tup[0]),)]
                else:  # pragma: no cover - φ contains no other weights
                    raise AssertionError(f"unexpected weight input {key!r}")
        self.context = EnumerationContext(self.compiled.circuit, base)

    # -- enumeration -------------------------------------------------------------

    def _decode(self, monomial: Monomial) -> Tuple:
        by_index = dict(monomial)
        return tuple(by_index[i] for i in range(len(self.vars)))

    def has_answers(self) -> bool:
        return self.context.supported()

    def cursor(self) -> "AnswerCursor":
        return AnswerCursor(self.context.cursor(), self._decode)

    def __iter__(self) -> Iterator[Tuple]:
        if not self.has_answers():
            return
        cursor = self.context.cursor()
        while True:
            yield self._decode(cursor.current())
            if cursor.advance():
                return

    def count(self) -> int:
        """Answer count via the same circuit in (N, +, ·)."""
        return self.compiled.evaluate(NATURAL)

    # -- dynamics ----------------------------------------------------------------

    def set_relation(self, name: str, tup: Tuple, present: bool) -> int:
        """Gaifman-preserving update; constant-time support maintenance.
        Outstanding cursors are invalidated (obtain a fresh one)."""
        touched = 0
        for key, state in self.compiled.mark_relation(name, tup, present):
            touched += self.context.set_input(key, [()] if state else [])
        return touched


class AnswerCursor:
    """Bi-directional cursor decoding monomials into answer tuples."""

    def __init__(self, cursor: Cursor, decode):
        self._cursor = cursor
        self._decode = decode

    def current(self) -> Tuple:
        return self._decode(self._cursor.current())

    def advance(self) -> bool:
        return self._cursor.advance()

    def retreat(self) -> bool:
        return self._cursor.retreat()
