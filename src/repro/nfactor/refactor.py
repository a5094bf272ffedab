"""Refining execution paths into model entries (Algorithm 1, lines 11–16)
and building executable slice programs.

``executable_slice`` turns a dependence-closed sid set into a runnable
block: it filters the structured IR to the sliced statements and keeps
the jump statements (``return``/``break``/``continue``) whose guarding
branches survive — dropping an unsliced ``return`` would otherwise let
control fall through into code the original program skipped (the
Ball–Horwitz jump problem; the pseudo-edges in the CFG give jumps the
right control dependences, and this pass enforces executability).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.lang.ir import (
    Block,
    SAssign,
    SBreak,
    SContinue,
    SDelete,
    SExpr,
    SIf,
    SPass,
    SReturn,
    SWhile,
    Stmt,
    iter_block,
)
from repro.model.matchaction import NFModel, TableEntry, split_constraints
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.pdg.pdg import PDG
from repro.symbolic.expr import SApp, canon
from repro.symbolic.state import PathResult

_JUMPS = (SReturn, SBreak, SContinue)
_STRAIGHT = (SAssign, SExpr, SDelete)


def augment_with_jumps(block: Block, sids: Set[int], pdg: PDG) -> Set[int]:
    """Add jump statements whose control context is fully in the slice."""
    out = set(sids)
    changed = True
    while changed:
        changed = False
        for stmt in iter_block(block):
            if stmt.sid in out or not isinstance(stmt, _JUMPS):
                continue
            ctrl = pdg.control_preds.get(stmt.sid, set())
            if ctrl and ctrl <= out:
                out.add(stmt.sid)
                changed = True
    return out


def filter_block(block: Sequence[Stmt], keep: Set[int]) -> Block:
    """Project a structured block onto the kept sids."""
    out: Block = []
    for stmt in block:
        if stmt.sid not in keep:
            continue
        if isinstance(stmt, SIf):
            out.append(
                SIf(
                    sid=stmt.sid,
                    line=stmt.line,
                    cond=stmt.cond,
                    then=filter_block(stmt.then, keep),
                    orelse=filter_block(stmt.orelse, keep),
                )
            )
        elif isinstance(stmt, SWhile):
            out.append(
                SWhile(
                    sid=stmt.sid,
                    line=stmt.line,
                    cond=stmt.cond,
                    body=filter_block(stmt.body, keep),
                )
            )
        else:
            out.append(stmt)
    return out


def executable_slice(block: Block, sids: Set[int], pdg: PDG) -> Tuple[Block, Set[int]]:
    """An executable projection of ``block`` onto slice ``sids``.

    Returns ``(sliced_block, kept_sids)`` where ``kept_sids`` is the
    input slice plus the jump statements required for control fidelity.
    """
    kept = augment_with_jumps(block, sids, pdg)
    return filter_block(block, kept), kept


# ---------------------------------------------------------------------------
# Paths → model
# ---------------------------------------------------------------------------


def build_model(
    name: str,
    paths: Sequence[PathResult],
    stmts: Dict[int, Stmt],
    pkt_slice: Set[int],
    state_slice: Set[int],
    ois_vars: Optional[Set[str]] = None,
) -> NFModel:
    """Assemble the match/action model from finished execution paths.

    Per Algorithm 1: for each path, the condition conjunction splits
    into config / flow match / state match; the action is the path's
    executed statements intersected with the packet slice (packet
    action) and the state slice (state transition).  The replayable
    ``action_stmts`` keep the whole union so data dependences between
    the two halves survive; ``state_action_stmts`` is narrowed to the
    statements that actually write output-impacting state, which is
    what the FSM view and the Figure-6 rendering want.
    """
    from repro.lang.ir import stmt_defs

    span = obs_trace.span("refactor.build_model", nf=name, paths=len(paths))
    with span:
        model = _build_model(
            name, paths, stmts, pkt_slice, state_slice, ois_vars, stmt_defs
        )
        span.set(entries=model.n_entries)
    obs_metrics.counter("model.entries").inc(model.n_entries)
    return model


def _share(value: Any, shared: Dict[str, SApp]) -> Any:
    """``value`` with every subtree canonically equal to one seen before
    replaced by that one.  Paths evaluate the same branch conditions
    separately, so without this a model's guards hold many equal copies
    of each subtree, and the stored model pickles every copy."""
    if not isinstance(value, SApp):
        return value
    key = canon(value)
    node = shared.get(key)
    if node is None:
        args = tuple(_share(a, shared) for a in value.args)
        node = value
        if any(a is not b for a, b in zip(args, value.args)):
            node = SApp(value.op, args)
        shared[key] = node
    return node


def _build_model(
    name: str,
    paths: Sequence[PathResult],
    stmts: Dict[int, Stmt],
    pkt_slice: Set[int],
    state_slice: Set[int],
    ois_vars: Optional[Set[str]],
    stmt_defs,
) -> NFModel:
    model = NFModel(name=name)
    model.ois_vars = set(ois_vars or set())
    union = pkt_slice | state_slice
    entry_id = 0
    shared: Dict[str, SApp] = {}
    for path in paths:
        if path.status != "done":
            continue
        entry_id += 1
        config, flow, state = split_constraints(
            [_share(c, shared) for c in path.constraints]
        )
        action: List[Stmt] = []
        pkt_action: List[Stmt] = []
        state_action: List[Stmt] = []
        for sid in path.executed:
            stmt = stmts.get(sid)
            if stmt is None or not isinstance(stmt, _STRAIGHT):
                continue
            if sid not in union:
                continue
            action.append(stmt)
            if sid in pkt_slice:
                pkt_action.append(stmt)
            if sid in state_slice and (
                ois_vars is None or (stmt_defs(stmt) & ois_vars)
            ):
                state_action.append(stmt)
        model.add_entry(
            TableEntry(
                entry_id=entry_id,
                config=config,
                match_flow=flow,
                match_state=state,
                action_stmts=action,
                pkt_action_stmts=pkt_action,
                state_action_stmts=state_action,
                sent=list(path.sent),
                path_id=path.path_id,
                priority=entry_id,
            )
        )
    return model
