"""Live-variable analysis (backward may)."""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Set, Tuple

from repro.cfg.graph import CFG
from repro.dataflow.framework import bits, solve
from repro.dataflow.reaching import _strong_defs
from repro.lang.ir import Stmt, stmt_uses

Facts = FrozenSet[str]


def live_variables(
    cfg: CFG,
    stmts: Dict[int, Stmt],
    live_out_exit: Set[str] = frozenset(),
) -> Tuple[Dict[int, Facts], Dict[int, Facts]]:
    """Solve liveness; returns ``(live_out, live_in)`` per node.

    ``live_out_exit`` lists the variables observable after the block —
    for a packet callback, the module-level state variables.
    live-in = uses ∪ (live-out − strong defs); weak updates keep the
    base live because the old value flows through.
    """
    uses = {sid: stmt_uses(s) for sid, s in stmts.items()}
    strong = {sid: _strong_defs(s) for sid, s in stmts.items()}
    names = sorted(set(live_out_exit).union(*uses.values(), *strong.values()))
    bit = {v: 1 << i for i, v in enumerate(names)}

    def mask(vs: Iterable[str]) -> int:
        return sum(bit[v] for v in set(vs))

    gen = {sid: mask(vs) for sid, vs in uses.items()}
    kill = {sid: mask(vs) for sid, vs in strong.items()}
    live_out, live_in = solve(cfg, gen, kill, mask(live_out_exit), forward=False)

    def decode(masks: Dict[int, int]) -> Dict[int, Facts]:
        return {n: frozenset(names[i] for i in bits(m)) for n, m in masks.items()}

    return decode(live_out), decode(live_in)
