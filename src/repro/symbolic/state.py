"""Symbolic execution state and finished-path records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.symbolic.expr import Sym, SymDict, SymPacket, canon

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.symbolic.solver import SolverContext


def sym_copy(value: Any) -> Any:
    """Fork-copy a symbolic runtime value.

    Immutable symbolic trees are shared; containers, packets and state
    dicts are copied so forked paths cannot see each other's writes.
    """
    if isinstance(value, SymPacket):
        return value.copy()
    if isinstance(value, SymDict):
        return value.copy()
    if isinstance(value, list):
        return [sym_copy(v) for v in value]
    if isinstance(value, dict):
        return {k: sym_copy(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return tuple(sym_copy(v) for v in value)
    return value


@dataclass
class SymState:
    """One in-flight symbolic execution path."""

    pc: int
    env: Dict[str, Any]
    constraints: List[Any] = field(default_factory=list)
    executed: List[int] = field(default_factory=list)
    branches: List[Tuple[int, bool]] = field(default_factory=list)
    sent: List[Tuple[Dict[str, Any], Optional[Any]]] = field(default_factory=list)
    state_writes: List[Tuple[int, str]] = field(default_factory=list)
    loop_counts: Dict[int, int] = field(default_factory=dict)
    steps: int = 0
    status: str = "live"  # live | done | pruned | truncated | error
    note: str = ""
    #: Incrementally-propagated solver knowledge covering a prefix of
    #: ``constraints`` (see :class:`repro.symbolic.solver.SolverContext`).
    #: Owned by this state: never shared between live paths.  The engine
    #: installs the branch-arm context after each fork, so it is *not*
    #: copied here (a fork's context differs from its parent's by
    #: exactly the committed arm).
    solver_ctx: Optional["SolverContext"] = field(default=None, repr=False, compare=False)
    #: A concrete assignment known to satisfy the whole path condition
    #: (every constraint evaluates true under it, unassigned leaves
    #: taking :func:`repro.symbolic.expr.eval_sym`'s defaults) that some
    #: dict state realizes (:func:`repro.symbolic.solver.consistent_witness`),
    #: or None when the last feasibility answer was "unknown".  Maintained by
    #: the engine's witness shortcut; never mutated in place (always
    #: replaced), so forks may share the reference.
    witness: Optional[Dict[str, Any]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def fork(self) -> "SymState":
        """An independent copy for the other branch arm.

        ``witness`` is deliberately *not* inherited: the fork's path
        condition will gain the opposite branch arm, which the parent's
        witness need not satisfy.  The engine assigns both sides'
        witnesses right after the fork.
        """
        return SymState(
            pc=self.pc,
            env={k: sym_copy(v) for k, v in self.env.items()},
            constraints=list(self.constraints),
            executed=list(self.executed),
            branches=list(self.branches),
            sent=[(dict(fields), port) for fields, port in self.sent],
            state_writes=list(self.state_writes),
            loop_counts=dict(self.loop_counts),
            steps=self.steps,
            status=self.status,
            note=self.note,
            witness=None,
        )

    def __getstate__(self) -> Dict[str, Any]:
        # Solver contexts are in-process propagation caches — cheap to
        # rebuild and not designed to cross a process boundary (frontier
        # workers re-derive them from the constraint prefix).
        state = dict(self.__dict__)
        state["solver_ctx"] = None
        return state


@dataclass
class PathResult:
    """A finished execution path (one model-table-entry candidate).

    ``constraints`` is the path condition; ``sent`` the symbolic packets
    emitted (empty ⇒ the path's action is the implicit *drop*, paper
    §3.2); ``state_writes`` the (sid, var) writes to watched state;
    ``env`` the final environment (symbolic state values included).
    """

    path_id: int
    status: str
    constraints: List[Any]
    executed: List[int]
    branches: List[Tuple[int, bool]]
    sent: List[Tuple[Dict[str, Any], Optional[Any]]]
    state_writes: List[Tuple[int, str]]
    env: Dict[str, Any]
    note: str = ""

    @property
    def drops(self) -> bool:
        """True when the path emits nothing (implicit drop)."""
        return not self.sent

    def executed_set(self) -> frozenset:
        return frozenset(self.executed)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "drop" if self.drops else f"send×{len(self.sent)}"
        return (
            f"PathResult(#{self.path_id} {self.status} {kind} "
            f"|pc|={len(self.constraints)} |stmts|={len(self.executed)})"
        )


# ---------------------------------------------------------------------------
# State signatures (duplicate-state detection)
# ---------------------------------------------------------------------------


class _Unsignable(Exception):
    """The environment holds a value the signature cannot canonicalize."""


def state_signature(state: SymState) -> Optional[Tuple[Any, ...]]:
    """A canonical signature of everything that steers future execution.

    Two live states with equal signatures — same program counter, same
    loop counters, and deeply-canonical-equal environments with
    *isomorphic aliasing* of mutable containers — execute identically
    from here on (up to solver feasibility of their differing path
    conditions, which the subsumption replay re-checks).  The path
    prefix (constraints/executed/sent/…) is deliberately excluded: it
    is history, not future.

    Aliasing matters because two env slots can reference the *same*
    ``SymDict``/list/dict object: a write through one is visible through
    the other.  Mutable objects are therefore numbered in traversal
    order and revisits emit a back-reference, so signatures agree only
    when the object graphs are isomorphic.

    Returns ``None`` when the environment holds a value the signature
    cannot soundly canonicalize (such states are simply never deduped).
    """
    parts: List[str] = []
    memo: Dict[int, int] = {}
    try:
        for name in sorted(state.env):
            parts.append(f"n:{name}")
            _sig_value(state.env[name], parts, memo)
    except _Unsignable:
        return None
    return (
        state.pc,
        tuple(sorted(state.loop_counts.items())),
        tuple(parts),
    )


def _sig_ref(value: Any, parts: List[str], memo: Dict[int, int]) -> bool:
    """Emit a back-reference for an already-seen mutable; True if seen."""
    index = memo.get(id(value))
    if index is not None:
        parts.append(f"ref:{index}")
        return True
    memo[id(value)] = len(memo)
    return False


_SIG_SCALARS = (bool, int, float, str, type(None))


def _all_scalar(values: Any) -> bool:
    return all(isinstance(v, _SIG_SCALARS) for v in values)


def _sig_value(value: Any, parts: List[str], memo: Dict[int, int]) -> None:
    from repro.net.packet import Packet

    if isinstance(value, Sym):
        # Immutable trees: structural identity is the whole story.
        parts.append(canon(value))
        return
    # Fast paths: scalars and flat scalar containers (counters and
    # configuration tables — rule lists, port maps — dominate NF
    # environments) stringify via one C-level repr instead of the
    # generic recursion.  repr keeps types apart (True/1/'1'/1.0).
    if isinstance(value, _SIG_SCALARS):
        parts.append(repr(value))
        return
    if isinstance(value, tuple) and _all_scalar(value):
        parts.append(f"tu:{value!r}")
        return
    if isinstance(value, list) and _all_scalar(value):
        if not _sig_ref(value, parts, memo):
            parts.append(f"li:{value!r}")
        return
    if isinstance(value, list) and all(
        type(v) is tuple and _all_scalar(v) for v in value
    ):
        if not _sig_ref(value, parts, memo):
            parts.append(f"lt:{value!r}")
        return
    if isinstance(value, SymDict):
        if _sig_ref(value, parts, memo):
            return
        parts.append(f"sd:{value.name}:{int(value.cleared)}")
        for key, val in value.entries:  # order-sensitive: newest wins
            parts.append(f"e:{canon(key)}")
            _sig_value(val, parts, memo)
        for key_c, present in sorted(value.assumed.items()):
            parts.append(f"a:{key_c}={int(present)}")
        for key_c in sorted(set(value.deleted)):
            parts.append(f"x:{key_c}")
        return
    if isinstance(value, SymPacket):
        if _sig_ref(value, parts, memo):
            return
        parts.append(f"sp:{value.label}")
        for fname in sorted(value.fields):
            parts.append(f"f:{fname}")
            _sig_value(value.fields[fname], parts, memo)
        return
    if isinstance(value, Packet):
        if _sig_ref(value, parts, memo):
            return
        parts.append("pk")
        for fname, fval in sorted(value.to_dict().items()):
            parts.append(f"f:{fname}={fval!r}")
        return
    if isinstance(value, list):
        if _sig_ref(value, parts, memo):
            return
        parts.append(f"li:{len(value)}")
        for item in value:
            _sig_value(item, parts, memo)
        return
    if isinstance(value, dict):
        if _sig_ref(value, parts, memo):
            return
        parts.append(f"di:{len(value)}")
        for key, val in value.items():  # insertion order: .keys() order matters
            if not isinstance(key, (str, int, bool, float, tuple, frozenset, type(None))):
                raise _Unsignable(f"dict key {type(key).__name__}")
            parts.append(f"k:{key!r}")
            _sig_value(val, parts, memo)
        return
    if isinstance(value, tuple):
        parts.append(f"tu:{len(value)}")
        for item in value:
            _sig_value(item, parts, memo)
        return
    if value is None or isinstance(value, (bool, int, float, str)):
        parts.append(canon(value))
        return
    raise _Unsignable(type(value).__name__)
