"""An executable semantics for synthesized models.

The simulator runs an :class:`~repro.model.matchaction.NFModel` against
concrete packets and concrete state, which is what the paper's accuracy
experiment needs (§5: "we generate random inputs to both NFactor model
and the original program, and test whether they output the same
result").

Semantics: for each packet, find the entry whose guard (config ∧ flow
match ∧ state match) holds under the current state, then execute its
action program — the ordered slice statements of that path — with the
concrete interpreter.  If no entry matches, the packet takes the
low-priority default action, drop (paper §3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.interp.interpreter import Env, Interpreter, NFRuntimeError
from repro.model.matchaction import CONFIG_NS, NFModel, STATE_NS, TableEntry
from repro.net.packet import Packet
from repro.symbolic.expr import SApp, SDictVal, SVar, Sym, _apply_concrete


class GuardEvalError(Exception):
    """A guard could not be evaluated (treated as not matching)."""


def eval_symbolic(value: Any, state: Dict[str, Any], pkt: Packet) -> Any:
    """Evaluate a symbolic tree under concrete state and packet."""
    if isinstance(value, SVar):
        name = value.name
        if name.startswith("pkt") and "." in name:
            fieldname = name.split(".", 1)[1]
            return getattr(pkt, fieldname)
        if name.startswith(CONFIG_NS):
            return _lookup(state, name[len(CONFIG_NS):])
        if name.startswith(STATE_NS):
            return _lookup(state, name[len(STATE_NS):])
        return _lookup(state, name)
    if isinstance(value, SDictVal):
        if value.key is None:
            raise GuardEvalError(f"dict value {value!r} has no key expression")
        holder = _lookup(state, value.dict_name)
        key = eval_symbolic(value.key, state, pkt)
        key = tuple(key) if isinstance(key, list) else key
        if key not in holder:
            raise GuardEvalError(f"key {key!r} not in {value.dict_name}")
        out = holder[key]
        for idx in value.path:
            out = out[idx]
        return out
    if isinstance(value, SApp):
        if value.op == "member":
            dict_name, key_sym = value.args
            holder = _lookup(state, dict_name)
            key = eval_symbolic(key_sym, state, pkt)
            key = tuple(key) if isinstance(key, list) else key
            return key in holder
        if value.op == "dictlen":
            return len(_lookup(state, value.args[0]))
        # Short-circuit forms must stay lazy: the untaken arm of a
        # conditional read (alias chains from the symbolic engine) may
        # reference a dict key that does not exist in this state.
        if value.op == "cond":
            test = bool(eval_symbolic(value.args[0], state, pkt))
            return eval_symbolic(value.args[1 if test else 2], state, pkt)
        if value.op == "and":
            result: Any = True
            for arm in value.args:
                result = eval_symbolic(arm, state, pkt)
                if not result:
                    return result
            return result
        if value.op == "or":
            result = False
            for arm in value.args:
                result = eval_symbolic(arm, state, pkt)
                if result:
                    return result
            return result
        args = tuple(eval_symbolic(a, state, pkt) for a in value.args)
        try:
            return _apply_concrete(value.op, args)
        except (TypeError, ValueError, IndexError, KeyError, ZeroDivisionError) as exc:
            raise GuardEvalError(f"op {value.op} failed: {exc}") from None
    if isinstance(value, tuple):
        return tuple(eval_symbolic(v, state, pkt) for v in value)
    if isinstance(value, list):
        return [eval_symbolic(v, state, pkt) for v in value]
    return value


def _lookup(state: Dict[str, Any], name: str) -> Any:
    if name not in state:
        raise GuardEvalError(f"state variable {name!r} missing")
    return state[name]


@dataclass
class SimStats:
    """Counters for one simulator lifetime."""

    packets: int = 0
    forwarded: int = 0
    dropped_default: int = 0
    dropped_entry: int = 0
    #: Full-guard evaluations.
    guard_evals: int = 0
    #: Dispatch-tree walks by the compiled simulator (always 0 here).
    compiled_dispatches: int = 0
    matched_entries: Dict[int, int] = field(default_factory=dict)


class ModelSimulator:
    """Executes a synthesized model over concrete packets.

    The interpreter reference: each packet scans the entries in
    priority (insertion) order and walks each guard tree with
    :func:`eval_symbolic` until one holds.  The compiled simulator
    (:mod:`repro.model.compile`) must reproduce its outcomes exactly.
    """

    def __init__(
        self, model: NFModel, init_state: Dict[str, Any], pkt_param: str = "pkt"
    ) -> None:
        self.model = model
        self.state = init_state
        self.pkt_param = pkt_param
        self.stats = SimStats()
        self._entries = model.all_entries()

    def match_entry(self, pkt: Packet) -> Optional[TableEntry]:
        """The first entry whose guard holds for ``pkt`` and current state."""
        for entry in self._entries:
            if self._guard_holds(entry, pkt):
                return entry
        return None

    def _guard_holds(self, entry: TableEntry, pkt: Packet) -> bool:
        self.stats.guard_evals += 1
        try:
            return all(
                bool(eval_symbolic(c, self.state, pkt)) for c in entry.guard()
            )
        except GuardEvalError:
            return False

    def process(self, pkt: Packet) -> List[Tuple[Packet, Optional[int]]]:
        """Run one packet through the model; returns the packets sent."""
        self.stats.packets += 1
        entry = self.match_entry(pkt)
        if entry is None:
            self.stats.dropped_default += 1
            return []
        self.stats.matched_entries[entry.entry_id] = (
            self.stats.matched_entries.get(entry.entry_id, 0) + 1
        )
        sent = self._apply(entry, pkt)
        if sent:
            self.stats.forwarded += 1
        else:
            self.stats.dropped_entry += 1
        return sent

    def _apply(
        self, entry: TableEntry, pkt: Packet
    ) -> List[Tuple[Packet, Optional[int]]]:
        """Execute the entry's action program on the live state."""
        interp = Interpreter()
        env = Env(globals=self.state)
        self.state[self.pkt_param] = pkt.copy()
        try:
            interp.exec_block(entry.action_stmts, env, None)
        except NFRuntimeError as exc:
            raise NFRuntimeError(
                f"model action of entry {entry.entry_id} failed: {exc}"
            ) from exc
        finally:
            self.state.pop(self.pkt_param, None)
        return interp.sent
