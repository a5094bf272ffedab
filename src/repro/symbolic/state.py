"""Symbolic execution state and finished-path records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.symbolic.expr import SymDict, SymPacket

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

