"""Reaching definitions.

A *definition* is a pair ``(var, sid)``.  Element stores (``d[k] = v``)
are weak updates: they generate a definition of ``d`` but do **not**
kill earlier definitions, because only part of the value changed.
Whole-variable stores kill every earlier definition of the variable.

A synthetic definition site :data:`INITIAL` represents values flowing in
from outside the analysed block: function parameters, module globals and
anything else live-on-entry.

Definitions are indexed once into bit positions, so a fact is an
``int`` and the solver (:func:`~repro.dataflow.framework.solve`) never
builds a set; :class:`ReachingMasks` answers per-use queries straight
off the masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.cfg.graph import CFG
from repro.dataflow.framework import Masks, bits, solve
from repro.lang.ir import SAssign, Stmt, call_mutated_names, stmt_defs, stmt_scope_names

#: Synthetic sid for definitions that reach from outside the block.
INITIAL = -100

Definition = Tuple[str, int]
Facts = FrozenSet[Definition]


def _strong_defs(stmt: Stmt) -> Set[str]:
    """Variables *strongly* (whole-value) defined by ``stmt``."""
    if not isinstance(stmt, SAssign):
        return set()
    # An augmented assign still replaces the whole value of an LName;
    # a mutating method call on the target only changes part of it.
    return stmt_scope_names(stmt) - call_mutated_names(stmt.value)


@dataclass
class ReachingMasks:
    """Solved reaching definitions: bit ``i`` is definition ``defs[i]``."""

    before: Masks
    after: Masks
    defs: List[Definition]
    var_bits: Dict[str, int]

    def sites(self, node: int, var: str) -> Set[int]:
        """Definition sites of ``var`` reaching the entry of ``node``."""
        mask = self.before.get(node, 0) & self.var_bits.get(var, 0)
        return {self.defs[i][1] for i in bits(mask)}

    def facts(self, masks: Masks) -> Dict[int, Facts]:
        """Expand per-node masks into ``(var, sid)`` fact sets."""
        return {n: frozenset(self.defs[i] for i in bits(m)) for n, m in masks.items()}


def solve_reaching(
    cfg: CFG,
    defs: Dict[int, Iterable[str]],
    strong: Dict[int, Iterable[str]],
    entry_vars: Iterable[str],
) -> ReachingMasks:
    """Reaching definitions over explicit per-node def and strong-def sets.

    A node with no definitions passes facts through unchanged; one with
    definitions kills every definition of its ``strong`` variables and
    generates its own.
    """
    index: List[Definition] = [(v, INITIAL) for v in sorted(set(entry_vars))]
    boundary = (1 << len(index)) - 1
    gen: Masks = {}
    for sid, names in defs.items():
        first = len(index)
        index.extend((v, sid) for v in sorted(set(names)))
        gen[sid] = (1 << len(index)) - (1 << first)
    var_bits: Dict[str, int] = {}
    for i, (var, _) in enumerate(index):
        var_bits[var] = var_bits.get(var, 0) | (1 << i)
    kill: Masks = {}
    for sid, mask in gen.items():
        if mask:
            for var in strong.get(sid, ()):
                kill[sid] = kill.get(sid, 0) | var_bits.get(var, 0)
    before, after = solve(cfg, gen, kill, boundary)
    return ReachingMasks(before, after, index, var_bits)


def stmt_reaching(
    cfg: CFG, stmts: Dict[int, Stmt], entry_vars: Iterable[str]
) -> ReachingMasks:
    """:func:`solve_reaching` with the statements' own def/strong sets."""
    defs = {sid: stmt_defs(s) for sid, s in stmts.items()}
    strong = {sid: _strong_defs(s) for sid, s in stmts.items() if defs[sid]}
    return solve_reaching(cfg, defs, strong, entry_vars)


def reaching_definitions(
    cfg: CFG,
    stmts: Dict[int, Stmt],
    entry_vars: Set[str],
) -> Tuple[Dict[int, Facts], Dict[int, Facts]]:
    """Solve reaching definitions; returns ``(in, out)`` fact maps.

    ``entry_vars`` should contain every variable that may hold a value
    when the block starts (parameters and globals); their definitions
    appear with the synthetic sid :data:`INITIAL`.
    """
    rd = stmt_reaching(cfg, stmts, entry_vars)
    return rd.facts(rd.before), rd.facts(rd.after)
