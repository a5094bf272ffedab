"""Stateful network verification on synthesized models (paper §4).

Two verification styles from the paper:

1. **Extending stateless verification** — each model entry is a network
   transfer function ``T(h, p, s)``: :class:`NetworkVerifier` pushes
   symbolic header spaces through a chain of models, with state
   predicates (dict-membership atoms) carried as free decision
   variables, HSA-style but stateful.

2. **Model checking speedup** — checking a property against the model
   costs one solver call per table entry, versus re-running symbolic
   execution over the whole NF program; the benchmark harness
   (bench_applications) measures that gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.model.matchaction import NFModel, TableEntry
from repro.nfactor.algorithm import SynthesisResult
from repro.symbolic.expr import SApp, SDictVal, SVar, Sym, canon, sym_vars
from repro.symbolic.solver import Solver


def subst_fields(value: Any, fields: Dict[str, Any], ns: str = "") -> Any:
    """Substitute packet-field variables in a symbolic tree.

    ``fields`` maps field name → replacement value (symbolic over the
    chain's *input* variables).  ``ns`` disambiguates state leaves of
    different chain hops by prefixing dict/state names.
    """
    if isinstance(value, SVar):
        if value.name.startswith("pkt") and "." in value.name:
            fieldname = value.name.split(".", 1)[1]
            if fieldname in fields:
                return fields[fieldname]
        if ns and value.name.startswith("st."):
            return SVar(f"st.{ns}{value.name[3:]}", value.lo, value.hi, value.boolean)
        return value
    if isinstance(value, SDictVal):
        key = subst_fields(value.key, fields, ns) if value.key is not None else None
        return SDictVal(f"{ns}{value.dict_name}", canon(key), value.path, key=key)
    if isinstance(value, SApp):
        if value.op == "member":
            dict_name, key = value.args
            new_key = subst_fields(key, fields, ns)
            return SApp("member", (f"{ns}{dict_name}", new_key))
        return SApp(
            value.op, tuple(subst_fields(a, fields, ns) for a in value.args)
        )
    if isinstance(value, tuple):
        return tuple(subst_fields(v, fields, ns) for v in value)
    if isinstance(value, list):
        return [subst_fields(v, fields, ns) for v in value]
    return value


@dataclass
class HeaderSpace:
    """A symbolic set of packets at one point in the network.

    ``fields`` gives each header field as a symbolic expression over
    the chain-input packet variables; ``constraints`` restricts the
    input space (and records state assumptions made along the way).
    ``trace`` lists the (nf, entry_id) hops taken.
    """

    fields: Dict[str, Any]
    constraints: List[Any] = field(default_factory=list)
    trace: List[Tuple[str, int]] = field(default_factory=list)

    @classmethod
    def universe(cls) -> "HeaderSpace":
        """The all-packets space: every field a free variable."""
        from repro.net.packet import FIELD_DOMAINS

        return cls(
            fields={
                name: SVar(f"pkt.{name}", lo, hi)
                for name, (lo, hi) in FIELD_DOMAINS.items()
            }
        )

    def constrained(self, *constraints: Any) -> "HeaderSpace":
        """A copy with extra input constraints."""
        return HeaderSpace(
            fields=dict(self.fields),
            constraints=list(self.constraints) + list(constraints),
            trace=list(self.trace),
        )


def push_space(
    model: NFModel, space: HeaderSpace, ns: str, solver: Solver
) -> List[HeaderSpace]:
    """All output spaces one model produces from ``space``.

    The per-edge transfer function shared by the linear
    :class:`NetworkVerifier` and the DAG :class:`repro.netverify`
    verifier (which memoizes its results per ``(model, space)`` pair):
    every entry whose guard is feasible against the input space yields
    one output space with the entry's rewrites applied and the guard
    recorded as extra input/state constraints.  ``ns`` namespaces the
    model's state leaves so the same NF at two points in the network
    keeps distinct state.
    """
    out: List[HeaderSpace] = []
    for entry in model.all_entries():
        guard = [subst_fields(c, space.fields, ns) for c in entry.guard()]
        combined = space.constraints + guard
        if not solver.check(combined).feasible:
            continue
        if entry.drops:
            continue
        rewritten = dict(space.fields)
        for name, value in entry.flow_transform().items():
            rewritten[name] = subst_fields(value, space.fields, ns)
        out.append(
            HeaderSpace(
                fields=rewritten,
                constraints=combined,
                trace=space.trace + [(model.name, entry.entry_id)],
            )
        )
    return out


class NetworkVerifier:
    """Pushes header spaces through a chain of synthesized models."""

    def __init__(self, chain: Sequence[Tuple[str, NFModel]], solver: Optional[Solver] = None) -> None:
        self.chain = list(chain)
        self.solver = solver or Solver()

    def step(
        self, model: NFModel, space: HeaderSpace, ns: str
    ) -> List[HeaderSpace]:
        """All output spaces one model produces from ``space``."""
        return push_space(model, space, ns, self.solver)

    def reachable(self, space: Optional[HeaderSpace] = None) -> List[HeaderSpace]:
        """Spaces that traverse the whole chain (none ⇒ chain blackholes)."""
        spaces = [space or HeaderSpace.universe()]
        for hop, (name, model) in enumerate(self.chain):
            nxt: List[HeaderSpace] = []
            ns = f"{name}#{hop}."
            for s in spaces:
                nxt.extend(self.step(model, s, ns))
            spaces = nxt
            if not spaces:
                break
        return spaces

    def can_reach(self, space: Optional[HeaderSpace] = None) -> bool:
        """True when at least one packet can traverse the chain."""
        return bool(self.reachable(space))


def initial_state_constraints(result: SynthesisResult) -> List[Any]:
    """Pin scalar state variables (``st.*``) to their initial values.

    Useful for questions about a *freshly started* NF — e.g. test
    generation, whose sequences begin from initial state.  Dict state
    is handled separately through membership atoms.
    """
    out: List[Any] = []
    from repro.symbolic.expr import mk_app

    for var, sym in result.sym_env.items():
        if isinstance(sym, SVar) and sym.name == f"st.{var}":
            value = result.module_env.get(var)
            if isinstance(value, (bool, int)):
                out.append(mk_app("==", sym, int(value)))
    return out


def _empty_state_constraints(entry: TableEntry) -> List[Any]:
    """Negate every membership atom in the guard (state tables empty)."""
    out: List[Any] = []
    for c in entry.guard():
        for leaf in sym_vars(c):
            if isinstance(leaf, SApp) and leaf.op == "member":
                out.append(SApp("not", (leaf,)))
    return out


def find_forwarding_witness(
    model: NFModel,
    extra_constraints: Sequence[Any] = (),
    solver: Optional[Solver] = None,
    empty_state: bool = False,
) -> Optional[Tuple[TableEntry, Dict[str, Any]]]:
    """A (entry, witness) pair proving some packet is forwarded.

    ``extra_constraints`` narrows the packet/state space — e.g. assert a
    property's *negation* and a returned witness is a counterexample.
    ``empty_state`` evaluates against freshly-initialised state (every
    state-table membership atom forced false).
    """
    solver = solver or Solver()
    for entry in model.all_entries():
        if entry.drops:
            continue
        constraints = list(extra_constraints) + entry.guard()
        if empty_state:
            constraints += _empty_state_constraints(entry)
        result = solver.check(constraints)
        if result.status == "sat":
            return entry, result.assignment or {}
    return None


def check_drop_invariant(
    model: NFModel,
    forbidden: Sequence[Any],
    solver: Optional[Solver] = None,
    empty_state: bool = False,
) -> Optional[Tuple[TableEntry, Dict[str, Any]]]:
    """Verify "packets satisfying ``forbidden`` are never forwarded".

    Returns None when the invariant holds, else the violating entry and
    a concrete witness packet assignment.
    """
    return find_forwarding_witness(model, forbidden, solver, empty_state)


def model_check_entries(model: NFModel, solver: Optional[Solver] = None) -> int:
    """Feasibility-check every entry guard (the model-checking workload).

    Returns the number of satisfiable entries; used by the benchmark to
    time model-based checking against whole-program symbolic execution.
    """
    solver = solver or Solver()
    return sum(
        1 for entry in model.all_entries() if solver.check(entry.guard()).feasible
    )
