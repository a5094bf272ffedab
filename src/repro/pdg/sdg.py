"""The system dependence graph (Horwitz–Reps–Binkley).

The flat-view pipeline inlines calls, which is exact but can duplicate
code exponentially in pathological call structures.  The SDG is the
scalable alternative the paper cites ([13] interprocedural slicing):
per-function PDGs stitched together with call, parameter-in/out and
*summary* edges, sliced with the two-pass algorithm.

Model
-----
* Parameters are passed by position (``FORMAL_IN``/``ACTUAL_IN``);
  return values flow through the pseudo-variable ``__ret``
  (``FORMAL_OUT``/``ACTUAL_OUT``).
* Global variables a callee may read/write (transitively — MOD/REF
  analysis) are modelled as additional in/out parameters at every call
  site, so state flowing through NF helper functions slices correctly.
* NFPy call graphs are DAGs, so one reverse-topological pass computes
  exact summary edges (the general HRB worklist is unnecessary).

Two-pass slicing: pass 1 walks everything except parameter-out edges
(never descends into callees, ascends to callers, crosses summaries);
pass 2 walks everything except call/parameter-in edges (descends,
never re-ascends).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.cfg.builder import build_cfg
from repro.cfg.control_dependence import control_dependence
from repro.cfg.graph import CFG, ENTRY
from repro.dataflow.reaching import INITIAL, solve_reaching
from repro.lang.ir import (
    Block,
    ECall,
    Function,
    Program,
    Stmt,
    iter_block,
    stmt_calls,
    stmt_defs,
    stmt_scope_names,
    stmt_uses,
)
from repro.lang.parser import call_graph

RET = "__ret"

# Node kinds.
K_STMT = "stmt"
K_ENTRY = "entry"
K_FORMAL_IN = "formal_in"
K_FORMAL_OUT = "formal_out"
K_ACTUAL_IN = "actual_in"
K_ACTUAL_OUT = "actual_out"

# Edge kinds.
E_INTRA = "intra"  # data or control inside one procedure
E_CALL = "call"
E_PARAM_IN = "param_in"
E_PARAM_OUT = "param_out"
E_SUMMARY = "summary"


@dataclass(frozen=True)
class SDGNode:
    """One SDG vertex."""

    kind: str
    func: str
    sid: int = -1  # statement sid (call site sid for actual-in/out)
    var: str = ""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.kind == K_STMT:
            return f"<{self.func}:{self.sid}>"
        return f"<{self.kind} {self.func}:{self.sid}:{self.var}>"


class SDG:
    """The assembled system dependence graph."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.preds: Dict[SDGNode, Dict[SDGNode, str]] = {}
        self.nodes: Set[SDGNode] = set()

    def add_edge(self, src: SDGNode, dst: SDGNode, kind: str) -> None:
        """Dependence edge: ``dst`` depends on ``src``."""
        self.nodes.add(src)
        self.nodes.add(dst)
        self.preds.setdefault(dst, {})[src] = kind

    def dep_preds(self, node: SDGNode) -> Dict[SDGNode, str]:
        return self.preds.get(node, {})

    # -- slicing ------------------------------------------------------------

    def backward_slice(self, criteria: Iterable[SDGNode]) -> Set[SDGNode]:
        """Two-pass HRB backward slice."""
        phase1 = self._walk(criteria, skip={E_PARAM_OUT})
        phase2 = self._walk(phase1, skip={E_PARAM_IN, E_CALL})
        return phase1 | phase2

    def _walk(self, seeds: Iterable[SDGNode], skip: Set[str]) -> Set[SDGNode]:
        out: Set[SDGNode] = set()
        work = list(seeds)
        while work:
            node = work.pop()
            if node in out:
                continue
            out.add(node)
            for pred, kind in self.dep_preds(node).items():
                if kind in skip:
                    continue
                if pred not in out:
                    work.append(pred)
        return out

    def slice_sids(self, criteria: Iterable[SDGNode]) -> Set[int]:
        """Statement sids in the slice (parameter nodes dropped)."""
        return {
            n.sid for n in self.backward_slice(criteria) if n.kind == K_STMT and n.sid >= 0
        }

    def stmt_node(self, func: str, sid: int) -> SDGNode:
        return SDGNode(K_STMT, func, sid)


# ---------------------------------------------------------------------------
# MOD/REF analysis
# ---------------------------------------------------------------------------


def _function_locals(fn: Function) -> Set[str]:
    names: Set[str] = set(fn.params)
    for stmt in iter_block(fn.body):
        names |= stmt_scope_names(stmt)
    return names - fn.global_names


def mod_ref(program: Program) -> Tuple[Dict[str, Set[str]], Dict[str, Set[str]]]:
    """Transitive global MOD/REF sets per function."""
    graph = call_graph(program)
    order = _reverse_topological(graph)
    mods: Dict[str, Set[str]] = {}
    refs: Dict[str, Set[str]] = {}
    for fname in order:
        fn = program.functions[fname]
        local = _function_locals(fn)
        mod: Set[str] = set()
        ref: Set[str] = set()
        for stmt in iter_block(fn.body):
            mod |= {v for v in stmt_defs(stmt) if v not in local}
            ref |= {v for v in stmt_uses(stmt) if v not in local}
            for call in stmt_calls(stmt):
                if not call.method and call.func in program.functions:
                    mod |= mods.get(call.func, set())
                    ref |= refs.get(call.func, set())
        mods[fname] = mod
        refs[fname] = ref
    return mods, refs


def _reverse_topological(graph: Dict[str, Set[str]]) -> List[str]:
    """Callees before callers (graph is a DAG — frontend enforced)."""
    order: List[str] = []
    state: Dict[str, int] = {}

    def visit(node: str) -> None:
        if state.get(node) == 1:
            return
        state[node] = 0
        for callee in sorted(graph.get(node, ())):
            visit(callee)
        state[node] = 1
        order.append(node)

    for fname in sorted(graph):
        visit(fname)
    return order


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def build_sdg(program: Program) -> SDG:
    """Assemble the SDG of a whole program.

    The module body is treated as the body of a pseudo-function
    ``<module>`` that initialises globals; the entry function's
    parameters are its formal-ins.
    """
    sdg = SDG(program)
    mods, refs = mod_ref(program)

    functions: Dict[str, Tuple[str, Block, Tuple[str, ...], Set[str]]] = {}
    for fname, fn in program.functions.items():
        functions[fname] = (fname, fn.body, fn.params, _function_locals(fn))
    functions["<module>"] = ("<module>", program.module_body, (), set())

    # Build every per-function graph first, then add summary edges
    # callees-first so each summary walk sees complete callee graphs.
    call_sites: Dict[str, Dict[int, ECall]] = {}
    for fname, (name, body, params, local) in functions.items():
        call_sites[name] = _build_function(
            sdg, program, name, body, params, local, mods, refs
        )
    graph = call_graph(program)
    graph["<module>"] = {
        c.func
        for s in program.module_body
        for c in stmt_calls(s)
        if not c.method and c.func in program.functions
    }
    for fname in _reverse_topological(graph):
        _add_summary_edges(sdg, program, fname, call_sites.get(fname, {}), refs, mods)

    # Link module-level global initialisation to every function that
    # reads the global: the module body is the implicit first "caller".
    module_defs: Dict[str, List[int]] = {}
    for stmt in iter_block(program.module_body):
        for var in stmt_defs(stmt):
            module_defs.setdefault(var, []).append(stmt.sid)
    for fname in program.functions:
        for var, def_sids in module_defs.items():
            fi = SDGNode(K_FORMAL_IN, fname, var=var)
            if fi in sdg.nodes:
                for def_sid in def_sids:
                    sdg.add_edge(
                        SDGNode(K_STMT, "<module>", def_sid), fi, E_PARAM_IN
                    )
    return sdg


def _call_of(stmt: Stmt, program: Program) -> Optional[ECall]:
    for call in stmt_calls(stmt):
        if not call.method and call.func in program.functions:
            return call
    return None


def _build_function(
    sdg: SDG,
    program: Program,
    fname: str,
    body: Block,
    params: Tuple[str, ...],
    local: Set[str],
    mods: Dict[str, Set[str]],
    refs: Dict[str, Set[str]],
) -> Dict[int, ECall]:
    cfg = build_cfg(body)
    stmts = {s.sid: s for s in iter_block(body)}
    entry_node = SDGNode(K_ENTRY, fname)

    # Call-aware def/use sets per statement.
    aug_defs: Dict[int, Set[str]] = {}
    aug_uses: Dict[int, Set[str]] = {}
    calls: Dict[int, ECall] = {}
    for sid, stmt in stmts.items():
        defs = set(stmt_defs(stmt))
        uses = set(stmt_uses(stmt))
        call = _call_of(stmt, program)
        if call is not None:
            calls[sid] = call
            defs |= mods.get(call.func, set())
            uses |= refs.get(call.func, set())
        aug_defs[sid] = defs
        aug_uses[sid] = uses

    entry_vars = set(params) | {
        v for uses in aug_uses.values() for v in uses if v not in local
    }
    strong = {sid: stmt_scope_names(s) for sid, s in stmts.items()}
    reaching = solve_reaching(cfg, aug_defs, strong, entry_vars)

    # Formal-in nodes for params and referenced globals.
    formal_in: Dict[str, SDGNode] = {}
    for var in sorted(entry_vars):
        node = SDGNode(K_FORMAL_IN, fname, var=var)
        formal_in[var] = node
        sdg.add_edge(entry_node, node, E_INTRA)

    # Uses routed through actual-in nodes instead of the call statement
    # itself (HRB precision: otherwise every argument of a call would be
    # pulled into every slice crossing the call).  Routing applies when
    # the call is the statement's whole value.
    routed_uses: Dict[int, Set[str]] = {}
    from repro.lang.ir import SAssign as _SAssign, SExpr as _SExpr, expr_names

    for sid, call in calls.items():
        stmt = stmts[sid]
        whole = (
            isinstance(stmt, _SAssign) and stmt.value is call and stmt.aug is None
        ) or (isinstance(stmt, _SExpr) and stmt.value is call)
        if whole:
            names: Set[str] = set()
            for arg in call.args:
                names |= expr_names(arg)
            names |= refs.get(call.func, set())
            routed_uses[sid] = names
        else:
            routed_uses[sid] = set()

    def wire_var_deps(var: str, sid: int, target: SDGNode) -> None:
        for def_sid in reaching.sites(sid, var):
            if def_sid == INITIAL:
                if var in formal_in:
                    sdg.add_edge(formal_in[var], target, E_INTRA)
            elif def_sid != sid:
                sdg.add_edge(SDGNode(K_STMT, fname, def_sid), target, E_INTRA)

    # Data dependences.
    for sid, stmt in stmts.items():
        snode = SDGNode(K_STMT, fname, sid)
        sdg.add_edge(entry_node, snode, E_INTRA)
        for var in aug_uses[sid] - routed_uses.get(sid, set()):
            wire_var_deps(var, sid, snode)

    # Control dependences.
    cdeps = control_dependence(cfg)
    for sid in stmts:
        for dep in cdeps.get(sid, set()):
            if dep in stmts:
                sdg.add_edge(
                    SDGNode(K_STMT, fname, dep), SDGNode(K_STMT, fname, sid), E_INTRA
                )

    # Formal-out nodes: returns + modified globals.
    from repro.lang.ir import SReturn

    out_vars = sorted(
        {v for defs in aug_defs.values() for v in defs if v not in local} | {RET}
    )
    for var in out_vars:
        fo = SDGNode(K_FORMAL_OUT, fname, var=var)
        sdg.add_edge(entry_node, fo, E_INTRA)
        if var == RET:
            for sid, stmt in stmts.items():
                if isinstance(stmt, SReturn):
                    sdg.add_edge(SDGNode(K_STMT, fname, sid), fo, E_INTRA)
        else:
            for sid in stmts:
                if var in aug_defs[sid]:
                    sdg.add_edge(SDGNode(K_STMT, fname, sid), fo, E_INTRA)
            if var in formal_in:
                sdg.add_edge(formal_in[var], fo, E_INTRA)

    # Call sites.
    for sid, call in calls.items():
        callee = call.func
        call_node = SDGNode(K_STMT, fname, sid)
        callee_entry = SDGNode(K_ENTRY, callee)
        sdg.add_edge(call_node, callee_entry, E_CALL)
        routed = routed_uses.get(sid, set())
        ctrl = [SDGNode(K_STMT, fname, d) for d in cdeps.get(sid, set()) if d in stmts]

        def wire_ai(ai: SDGNode, used_names: Set[str]) -> None:
            # An actual-in depends on the definitions of the names in
            # its argument expression and on the call's control context.
            for var in used_names:
                if var in routed:
                    wire_var_deps(var, sid, ai)
            for c in ctrl:
                sdg.add_edge(c, ai, E_INTRA)
            if not routed:
                # Conservative fallback (compound call expression): the
                # actual-in shares the call node's dependences.
                sdg.add_edge(call_node, ai, E_INTRA)

        callee_fn = program.functions[callee]
        # Positional parameters.
        for pos, param in enumerate(callee_fn.params):
            ai = SDGNode(K_ACTUAL_IN, fname, sid, f"arg{pos}")
            names = expr_names(call.args[pos]) if pos < len(call.args) else set()
            wire_ai(ai, names)
            sdg.add_edge(ai, SDGNode(K_FORMAL_IN, callee, var=param), E_PARAM_IN)
        # Globals the callee reads.
        for var in sorted(refs.get(callee, set())):
            ai = SDGNode(K_ACTUAL_IN, fname, sid, var)
            wire_ai(ai, {var})
            sdg.add_edge(ai, SDGNode(K_FORMAL_IN, callee, var=var), E_PARAM_IN)
        # Globals the callee writes + the return value.
        for var in sorted(mods.get(callee, set()) | {RET}):
            ao = SDGNode(K_ACTUAL_OUT, fname, sid, var)
            sdg.add_edge(SDGNode(K_FORMAL_OUT, callee, var=var), ao, E_PARAM_OUT)
            sdg.add_edge(ao, call_node, E_INTRA)

    return calls


def _add_summary_edges(
    sdg: SDG,
    program: Program,
    fname: str,
    calls: Dict[int, ECall],
    refs: Dict[str, Set[str]],
    mods: Dict[str, Set[str]],
) -> None:
    """Actual-in → actual-out edges from callee transitive dependences.

    Because the call graph is a DAG and we build bottom-up-independent
    per-function graphs, a conservative summary — every actual-out
    depends on every actual-in of the same call — would be sound but
    imprecise.  Instead we run a backward walk inside the callee from
    each formal-out to find which formal-ins it transitively needs.
    """
    for sid, call in calls.items():
        callee = call.func
        callee_fn = program.functions[callee]
        out_vars = sorted(mods.get(callee, set()) | {RET})
        for var in out_vars:
            fo = SDGNode(K_FORMAL_OUT, callee, var=var)
            needed = sdg._walk([fo], skip={E_CALL})  # descend via summaries/params
            for node in needed:
                if node.kind != K_FORMAL_IN or node.func != callee:
                    continue
                ao = SDGNode(K_ACTUAL_OUT, fname, sid, var)
                if node.var in callee_fn.params:
                    pos = callee_fn.params.index(node.var)
                    ai = SDGNode(K_ACTUAL_IN, fname, sid, f"arg{pos}")
                else:
                    ai = SDGNode(K_ACTUAL_IN, fname, sid, node.var)
                sdg.add_edge(ai, ao, E_SUMMARY)
