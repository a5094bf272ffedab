"""A model compiler: lower an :class:`NFModel` to fast Python closures.

:class:`~repro.model.simulator.ModelSimulator` interprets every guard
AST node-by-node via ``eval_symbolic`` on every packet.  This module
lowers the model **once**, at build time, into a form where the
per-packet work is a handful of compiled-function calls:

1. **Decision-tree dispatch** — an exact-match index as a nested
   tree: each inner node tests one packet field and branches on its
   concrete value; entries that
   pin that field to a different value can never match and are absent
   from the branch.  Pins come from ``pkt.f == const`` conjuncts
   (directly, inside positive ``and`` chains, or implied by a closed
   ``lo <= pkt.f <= lo`` interval).

2. **Guard compilation** — each entry's guard conjunction is
   code-generated into one Python function (``compile()``-ed source),
   preserving the interpreter's semantics *exactly*: lazy
   ``and``/``or``/``cond``, ``GuardEvalError`` on missing
   state/dict-keys/failed ops (guard → no match), and — crucially —
   **raw propagation** of errors the interpreter does not catch
   (dict-value path indexing, ``in`` on a non-container).  The
   :class:`_Raw` wrapper carries those across the generated
   ``try``/``except`` so they re-raise unchanged.  Config conjuncts of
   a parametric model (``NFactorConfig.parametric``) are compiled like
   any other conjunct and read config from the state at run time; the
   default deployed-config model has none.

3. **Guard code shipped as an artifact** — the generated module's code
   object (guards and actions) is marshalled into the artifact store's
   ``guards`` tier (:func:`compiled_model_cached`), keyed on the model,
   the Python bytecode magic number and the generators' own source.
   Every later miss, in any process, loads it instead of generating and
   ``compile()``-ing source again.

4. **Action precompilation** — each entry's action is lowered by
   :mod:`repro.model.actions` into the same generated module as the
   guards: one function per *distinct* action statement object (loop
   unrolling shares them across entries), and an entry's action is the
   tuple of those functions, run in order.  The generated code keeps
   the interpreter's value semantics; on any error it re-runs the one
   failing statement in the reference interpreter, so failures raise
   the same ``NFRuntimeError`` with no partial effect of their own.
   A statement outside the lowered surface is a compile error, never
   an interpreter fallback.  :meth:`CompiledSimulator.process_many`
   runs a packet vector without per-packet attribute lookups.

The contract is byte-identity of *outcome* with ``ModelSimulator``:
same matched entry ids, same sent packets, same state evolution, and
same ``SimStats`` counts for ``packets``/``forwarded``/
``dropped_default``/``dropped_entry``/``matched_entries``.  Only
``guard_evals`` legitimately differs (the whole point is doing fewer
of them); ``compiled_dispatches`` counts tree walks instead.
"""

from __future__ import annotations

import hashlib
import importlib.util
import marshal
import time
import types
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import cache as artifact_cache
from repro.interp.interpreter import NFRuntimeError
from repro.model import actions as action_gen
from repro.model.matchaction import CONFIG_NS, NFModel, STATE_NS, TableEntry
from repro.model.simulator import GuardEvalError, SimStats, _lookup
from repro.net.packet import PACKET_FIELDS, Packet
from repro.obs import metrics as obs_metrics
from repro.symbolic.expr import SApp, SDictVal, SVar, _hashable
from repro.util.hashing import stable_hash

#: Artifact kind holding a model's ``(marshal.dumps(code), consts)`` pair.
GUARDS_KIND = "guards"

#: Digest of the code generators' source (this module and
#: :mod:`repro.model.actions`), taken once at import: an edit to either
#: derives new guard keys, so stale code is never loaded.
_GENERATOR_DIGEST = hashlib.blake2b(
    Path(__file__).read_bytes() + Path(action_gen.__file__).read_bytes(),
    digest_size=16,
).hexdigest()


class _Raw(Exception):
    """Carries an exception the interpreter would propagate *uncaught*.

    ``eval_symbolic`` converts op-application failures to
    ``GuardEvalError`` but lets dict-value path indexing errors and
    ``in``-on-non-container ``TypeError``s escape raw.  A generated
    guard wraps its whole body in one ``try``, so those raw errors are
    smuggled past its ``except`` clauses inside ``_Raw`` and re-raised
    unchanged.
    """

    def __init__(self, original: BaseException) -> None:
        super().__init__(repr(original))
        self.original = original


def _member(state: Dict[str, Any], name: str, key: Any) -> bool:
    """``member`` op: key presence with the interpreter's exact errors."""
    holder = _lookup(state, name)
    if isinstance(key, list):
        key = tuple(key)
    try:
        return key in holder
    except TypeError as exc:
        raise _Raw(exc) from None


def _dv(state: Dict[str, Any], name: str, key: Any, path: Tuple[int, ...]) -> Any:
    """``SDictVal`` read: presence check then raw path indexing."""
    holder = _lookup(state, name)
    if isinstance(key, list):
        key = tuple(key)
    try:
        present = key in holder
    except TypeError as exc:
        raise _Raw(exc) from None
    if not present:
        raise GuardEvalError(f"key {key!r} not in {name}")
    try:
        out = holder[key]
        for idx in path:
            out = out[idx]
    except Exception as exc:  # the interpreter propagates these raw
        raise _Raw(exc) from None
    return out


def _hash(value: Any) -> int:
    return stable_hash(_hashable(value))


def _nokey(name: str) -> Any:
    raise GuardEvalError(f"dict value of {name!r} has no key expression")


def _badop(op: str, *args: Any) -> Any:
    raise GuardEvalError(f"op {op} failed: cannot fold operator {op!r}")


#: Binary operators that lower to the identical Python operator text.
_BINOPS = frozenset(
    ("+", "-", "*", "/", "//", "%", "<<", ">>", "&", "|", "^", "**",
     "==", "!=", "<", "<=", ">", ">=")
)

#: Scalar immutables emitted as inline literals instead of pool slots.
_LITERAL = (bool, int, str, type(None))


class _GuardGen:
    """Code generator for one compiled model's guard module."""

    def __init__(self) -> None:
        self.consts: List[Any] = []
        self._const_index: Dict[Any, int] = {}

    def const(self, value: Any) -> str:
        """A reference to ``value`` — inline literal or pool slot."""
        if type(value) in _LITERAL:
            return f"({value!r})"
        try:
            idx = self._const_index[value]
        except (KeyError, TypeError):
            idx = len(self.consts)
            self.consts.append(value)
            try:
                self._const_index[value] = idx
            except TypeError:
                pass  # unhashable: pool without dedup
        return f"_K[{idx}]"

    def gen(self, value: Any) -> str:
        """Python source for ``eval_symbolic(value, state, p)``."""
        if isinstance(value, SVar):
            return self._gen_var(value)
        if isinstance(value, SDictVal):
            if value.key is None:
                return f"_nokey({value.dict_name!r})"
            return (
                f"_dv(state, {value.dict_name!r}, "
                f"{self.gen(value.key)}, {value.path!r})"
            )
        if isinstance(value, SApp):
            return self._gen_app(value)
        if isinstance(value, tuple):
            inner = "".join(f"{self.gen(v)}, " for v in value)
            return f"({inner})"
        if isinstance(value, list):
            return "[" + ", ".join(self.gen(v) for v in value) + "]"
        return self.const(value)

    def _gen_var(self, value: SVar) -> str:
        name = value.name
        if name.startswith("pkt") and "." in name:
            fieldname = name.split(".", 1)[1]
            if fieldname in PACKET_FIELDS or fieldname.isidentifier():
                return f"p.{fieldname}"
            return f"getattr(p, {fieldname!r})"
        for ns in (CONFIG_NS, STATE_NS):
            if name.startswith(ns):
                return f"_sv(state, {name[len(ns):]!r})"
        return f"_sv(state, {name!r})"

    def _gen_app(self, value: SApp) -> str:
        op, args = value.op, value.args
        if op == "member":
            dict_name, key_sym = args
            return f"_member(state, {dict_name!r}, {self.gen(key_sym)})"
        if op == "dictlen":
            return f"len(_sv(state, {args[0]!r}))"
        if op == "cond":
            return (
                f"({self.gen(args[1])} if {self.gen(args[0])}"
                f" else {self.gen(args[2])})"
            )
        if op in ("and", "or"):
            joiner = f" {op} "
            return "(" + joiner.join(self.gen(a) for a in args) + ")"
        if op in _BINOPS and len(args) == 2:
            return f"({self.gen(args[0])} {op} {self.gen(args[1])})"
        if op == "neg":
            return f"(-{self.gen(args[0])})"
        if op == "~":
            return f"(~{self.gen(args[0])})"
        if op == "not":
            return f"(not {self.gen(args[0])})"
        if op == "getitem":
            return f"({self.gen(args[0])}[{self.gen(args[1])}])"
        if op in ("len", "abs"):
            return f"{op}({self.gen(args[0])})"
        if op in ("min", "max"):
            return f"{op}(" + ", ".join(self.gen(a) for a in args) + ")"
        if op == "hash":
            return f"_hash({self.gen(args[0])})"
        # Unknown op: eval args (error order parity), then GuardEvalError
        # like _apply_concrete's ValueError would become.
        arglist = "".join(f", {self.gen(a)}" for a in args)
        return f"_badop({op!r}{arglist})"

    def guard_source(self, fn_name: str, conjuncts: List[Any]) -> str:
        """One guard function: lazy conjunction, interpreter error rules."""
        if conjuncts:
            body = " and ".join(f"bool({self.gen(c)})" for c in conjuncts)
        else:
            body = "True"
        return (
            f"def {fn_name}(state, p, _sv=_sv, _dv=_dv, _member=_member,"
            f" _hash=_hash, _K=_K):\n"
            f"    try:\n"
            f"        return {body}\n"
            f"    except _Raw as exc:\n"
            f"        raise exc.original from None\n"
            f"    except GuardEvalError:\n"
            f"        return False\n"
            f"    except (TypeError, ValueError, IndexError, KeyError,"
            f" ZeroDivisionError):\n"
            f"        return False\n"
        )


# ---------------------------------------------------------------------------
# Dispatch-tree construction
# ---------------------------------------------------------------------------

_FLIP = {"==": "==", "<=": ">=", ">=": "<=", "<": ">", ">": "<"}


def _entry_pins(entry: TableEntry) -> Dict[str, int]:
    """Packet fields the flow match pins to one concrete value.

    Besides top-level ``pkt.f == const`` conjuncts it descends into
    positive ``and`` chains (every arm must hold for the guard to
    hold) and closes ``lo <= pkt.f`` ∧ ``pkt.f <= lo`` intervals into
    equalities.  Sound for *skipping*: a pin that is false for a
    packet means the guard evaluates false (or errors → no match).
    """

    def packet_field(value: Any) -> Optional[str]:
        if isinstance(value, SVar) and value.name.startswith("pkt") \
                and "." in value.name:
            return value.name.split(".", 1)[1]
        return None

    eq: Dict[str, int] = {}
    lo: Dict[str, int] = {}
    hi: Dict[str, int] = {}

    def visit(c: Any) -> None:
        if not isinstance(c, SApp):
            return
        if c.op == "and":
            for arm in c.args:
                visit(arm)
            return
        if c.op not in _FLIP or len(c.args) != 2:
            return
        lhs, rhs = c.args
        for var, value, rel in ((lhs, rhs, c.op), (rhs, lhs, _FLIP[c.op])):
            fieldname = packet_field(var)
            if fieldname is None or type(value) is not int:
                continue
            # rel reads with the packet field on the left: pkt.f REL value
            if rel == "==":
                eq.setdefault(fieldname, value)
            elif rel == "<=":
                hi[fieldname] = min(hi.get(fieldname, value), value)
            elif rel == ">=":
                lo[fieldname] = max(lo.get(fieldname, value), value)
            elif rel == "<":
                hi[fieldname] = min(hi.get(fieldname, value - 1), value - 1)
            elif rel == ">":
                lo[fieldname] = max(lo.get(fieldname, value + 1), value + 1)

    for c in entry.match_flow:
        visit(c)
    for fieldname, bound in lo.items():
        if hi.get(fieldname) == bound:
            eq.setdefault(fieldname, bound)
    return eq


class CompiledEntry:
    """One table entry with its compiled guard and action functions."""

    __slots__ = ("entry", "entry_id", "guard", "actions")

    def __init__(
        self,
        entry: TableEntry,
        guard: Callable[..., bool],
        actions: Tuple[Callable[..., None], ...],
    ) -> None:
        self.entry = entry
        self.entry_id = entry.entry_id
        self.guard = guard
        self.actions = actions


class _Node:
    """Dispatch-tree node: inner (field/branches/miss) or leaf (entries)."""

    __slots__ = ("field", "branches", "miss", "entries")

    def __init__(self) -> None:
        self.field: Optional[str] = None
        self.branches: Dict[int, "_Node"] = {}
        self.miss: Optional["_Node"] = None
        self.entries: Tuple[CompiledEntry, ...] = ()


_Item = Tuple[int, CompiledEntry, Dict[str, int]]


def _merge_by_position(bucket: List[_Item], residual: List[_Item]) -> List[_Item]:
    """Merge two position-sorted item lists, preserving priority order."""
    merged: List[_Item] = []
    i = j = 0
    while i < len(bucket) and j < len(residual):
        if bucket[i][0] < residual[j][0]:
            merged.append(bucket[i])
            i += 1
        else:
            merged.append(residual[j])
            j += 1
    merged.extend(bucket[i:])
    merged.extend(residual[j:])
    return merged


def _best_field(coverage: Dict[str, int]) -> Optional[str]:
    if not coverage:
        return None
    max_cov = max(coverage.values())
    if max_cov < 2:
        return None  # a split over one entry saves nothing
    return min(name for name, n in coverage.items() if n == max_cov)


def _build_tree(items: List[_Item], used: frozenset) -> _Node:
    node = _Node()
    coverage: Dict[str, int] = {}
    for _pos, _ce, pins in items:
        for name in pins:
            if name not in used:
                coverage[name] = coverage.get(name, 0) + 1
    split = _best_field(coverage) if len(items) > 1 else None
    if split is None:
        node.entries = tuple(ce for _pos, ce, _pins in items)
        return node
    node.field = split
    buckets: Dict[int, List[_Item]] = {}
    residual: List[_Item] = []
    for item in items:
        pins = item[2]
        if split in pins:
            buckets.setdefault(pins[split], []).append(item)
        else:
            residual.append(item)
    child_used = used | {split}
    node.miss = _build_tree(residual, child_used)
    node.branches = {
        value: _build_tree(_merge_by_position(bucket, residual), child_used)
        for value, bucket in buckets.items()
    }
    return node


def _tree_shape(node: _Node) -> Tuple[int, int]:
    """(depth, n_leaves) of a dispatch tree."""
    if node.field is None:
        return 1, 1
    children = list(node.branches.values()) + [node.miss]
    shapes = [_tree_shape(c) for c in children if c is not None]
    return 1 + max(d for d, _ in shapes), sum(n for _, n in shapes)


# ---------------------------------------------------------------------------
# The compiled model
# ---------------------------------------------------------------------------


@dataclass
class CompiledModel:
    """An :class:`NFModel` lowered to compiled guards + dispatch tree.

    Built once via :func:`compile_model`; spawn any number of
    independent :class:`CompiledSimulator` instances from it (one per
    concrete state).  Not picklable — the guards are live function
    objects — but :attr:`code` is: the serve tier stores it in the
    ``guards`` artifact tier and rebuilds the model from it elsewhere.
    """

    model: NFModel
    pkt_param: str
    n_entries: int
    compile_seconds: float
    dispatch: bool
    tree_depth: int
    tree_leaves: int
    _code: types.CodeType = field(repr=False)
    _consts: Tuple[Any, ...] = field(repr=False)
    _entries: Tuple[CompiledEntry, ...] = field(repr=False)
    _root: _Node = field(repr=False)

    @property
    def code(self) -> Tuple[bytes, Tuple[Any, ...]]:
        """The ``(marshal.dumps(code), consts)`` pair :func:`compile_model`
        accepts back as ``code=``."""
        return marshal.dumps(self._code), self._consts

    def simulator(self, init_state: Dict[str, Any]) -> "CompiledSimulator":
        return CompiledSimulator(self, init_state)


class GuardCodeError(ValueError):
    """A stored guard-code pair that does not fit the model."""


def _load_code(code: Any) -> Tuple[types.CodeType, Tuple[Any, ...]]:
    """Unpack a stored pair; any mismatch raises (marshal errors too)."""
    if not (isinstance(code, tuple) and len(code) == 2):
        raise GuardCodeError("guard code is not a (code, consts) pair")
    blob, consts = code
    if not isinstance(blob, bytes) or not isinstance(consts, tuple):
        raise GuardCodeError("guard code pair has the wrong types")
    code_obj = marshal.loads(blob)
    if not isinstance(code_obj, types.CodeType):
        raise GuardCodeError("guard code does not unmarshal to a code object")
    return code_obj, consts


def compile_model(
    model: NFModel,
    pkt_param: str = "pkt",
    dispatch: bool = True,
    code: Optional[Tuple[bytes, Tuple[Any, ...]]] = None,
) -> CompiledModel:
    """Lower ``model`` once; the result depends on the model alone.

    ``dispatch=False`` keeps the flat priority scan (every entry in one
    leaf).  A parametric model's config conjuncts are compiled into the
    guards like any other conjunct, so they are evaluated against the
    simulator's state at run time.  Entry actions are lowered by
    :mod:`repro.model.actions` into the same generated module, one
    function per distinct statement object; a statement outside the
    lowered surface raises :class:`~repro.model.actions.ActionCompileError`.

    ``code`` is a :attr:`CompiledModel.code` pair stored for this very
    model: source generation and ``compile()`` are skipped and the
    unmarshalled module runs in the same helper namespace.  A pair that
    does not fit (bad marshal bytes, wrong shape, a consts pool of the
    wrong size, missing guards or action functions) raises instead of
    returning a model.
    """
    t0 = time.perf_counter()
    entries = model.all_entries()
    names = [f"_g{i}" for i in range(len(entries))]
    stmts = action_gen.distinct_statements([e.action_stmts for e in entries])
    act_names = [f"_a{i}" for i in range(len(stmts))]
    if code is None:
        # One generated module holding every guard and action function,
        # headed by a check that the consts pool and the statement list
        # it is run with have its sizes.
        gen = _GuardGen()
        chunks = [
            gen.guard_source(name, entry.guard())
            for name, entry in zip(names, entries)
        ]
        acts = action_gen.ActionGen(gen.const)
        chunks.extend(
            acts.stmt_source(name, i, stmt)
            for i, (name, stmt) in enumerate(zip(act_names, stmts))
        )
        consts = tuple(gen.consts)
        header = (
            f"if len(_K) != {len(consts)}:\n"
            f"    raise GuardCodeError('consts pool size')\n"
            f"if len(_S) != {len(stmts)}:\n"
            f"    raise GuardCodeError('action statement count')\n"
        )
        source = header + "\n".join(chunks)
        code_obj = compile(source, "<repro.model.compile>", "exec")
    else:
        code_obj, consts = _load_code(code)
    namespace: Dict[str, Any] = action_gen.namespace()
    namespace.update(
        GuardEvalError=GuardEvalError,
        GuardCodeError=GuardCodeError,
        _Raw=_Raw,
        _sv=_lookup,
        _dv=_dv,
        _member=_member,
        _hash=_hash,
        _nokey=_nokey,
        _badop=_badop,
        _K=consts,
        _S=tuple(stmts),
    )
    exec(code_obj, namespace)
    guards = [namespace.get(name) for name in names]
    fns = [namespace.get(name) for name in act_names]
    if (
        f"_g{len(entries)}" in namespace
        or f"_a{len(stmts)}" in namespace
        or not all(isinstance(f, types.FunctionType) for f in guards + fns)
    ):
        raise GuardCodeError("guard code defines the wrong functions")
    fn_of = {id(stmt): fn for stmt, fn in zip(stmts, fns)}

    compiled: List[CompiledEntry] = [
        CompiledEntry(
            entry, guard, tuple(fn_of[id(s)] for s in entry.action_stmts)
        )
        for guard, entry in zip(guards, entries)
    ]
    items: List[_Item] = [
        (pos, ce, _entry_pins(ce.entry)) for pos, ce in enumerate(compiled)
    ]
    if dispatch:
        root = _build_tree(items, frozenset())
    else:
        root = _Node()
        root.entries = tuple(ce for _pos, ce, _pins in items)
    depth, leaves = _tree_shape(root)
    return CompiledModel(
        model=model,
        pkt_param=pkt_param,
        n_entries=len(entries),
        compile_seconds=time.perf_counter() - t0,
        dispatch=dispatch,
        tree_depth=depth,
        tree_leaves=leaves,
        _code=code_obj,
        _consts=consts,
        _entries=tuple(compiled),
        _root=root,
    )


def guard_key(sim_key: str) -> str:
    """The ``guards``-tier key of the model stored under ``sim_key``.

    The bytecode magic number and the generator digest are part of the
    key, so neither another Python version nor an edited code generator
    can load code it did not write.
    """
    return artifact_cache.artifact_key(
        GUARDS_KIND, (sim_key, importlib.util.MAGIC_NUMBER, _GENERATOR_DIGEST)
    )


def compiled_model_cached(
    model: NFModel, pkt_param: str, sim_key: Optional[str]
) -> CompiledModel:
    """``model`` compiled once per model and Python version.

    Loads the guard code stored under :func:`guard_key` when the
    artifact store has it (``sim.guard_loads``); otherwise compiles
    (``sim.compile_seconds`` observes only these) and stores the code.
    A stored pair that fails to load is a logged store miss
    (``kind.guards.misses``, not a hit) and a recompile.
    With no ``sim_key`` (artifact cache off) it simply compiles.
    """
    store = artifact_cache.get_store()
    key = guard_key(sim_key) if sim_key is not None else None
    if key is not None:
        loaded = store.get_object(
            GUARDS_KIND,
            key,
            decode=lambda pair: compile_model(model, pkt_param=pkt_param, code=pair),
        )
        if loaded is not None:
            obs_metrics.counter("sim.guard_loads").inc()
            return loaded
    compiled = compile_model(model, pkt_param=pkt_param)
    obs_metrics.histogram("sim.compile_seconds").observe(
        compiled.compile_seconds
    )
    if key is not None:
        store.put_object(GUARDS_KIND, key, compiled.code)
    return compiled


class CompiledSimulator:
    """Drop-in :class:`ModelSimulator` replacement over a compiled model.

    Same public surface — ``process``/``match_entry``/``stats``/
    ``state``/``model``/``pkt_param`` — plus :meth:`process_many`.
    ``stats.guard_evals`` counts compiled-guard calls (fewer than the
    interpreter's, by design) and ``stats.compiled_dispatches`` counts
    dispatch-tree walks.  Actions run as generated code: no interpreter
    is involved unless a statement fails.
    """

    compiled = True

    def __init__(self, compiled_model: CompiledModel, init_state: Dict[str, Any]) -> None:
        self.compiled_model = compiled_model
        self.model = compiled_model.model
        self.state = init_state
        self.pkt_param = compiled_model.pkt_param
        self.stats = SimStats()
        self._root = compiled_model._root

    def match_entry(self, pkt: Packet) -> Optional[TableEntry]:
        """First entry whose compiled guard holds (priority order)."""
        ce = self._match(pkt)
        return None if ce is None else ce.entry

    def _match(self, pkt: Packet) -> Optional[CompiledEntry]:
        node = self._root
        while node.field is not None:
            node = node.branches.get(getattr(pkt, node.field), node.miss)
        stats = self.stats
        stats.compiled_dispatches += 1
        state = self.state
        for ce in node.entries:
            stats.guard_evals += 1
            if ce.guard(state, pkt):
                return ce
        return None

    def process(self, pkt: Packet) -> List[Tuple[Packet, Optional[int]]]:
        """Run one packet; identical outcome to ``ModelSimulator.process``."""
        stats = self.stats
        stats.packets += 1
        ce = self._match(pkt)
        if ce is None:
            stats.dropped_default += 1
            return []
        matched = stats.matched_entries
        matched[ce.entry_id] = matched.get(ce.entry_id, 0) + 1
        sent = self._apply(ce, pkt)
        if sent:
            stats.forwarded += 1
        else:
            stats.dropped_entry += 1
        return sent

    def process_many(
        self, packets: List[Packet]
    ) -> List[List[Tuple[Packet, Optional[int]]]]:
        """Batch API: one sent-list per input packet, stats identical
        to processing them one at a time."""
        out: List[List[Tuple[Packet, Optional[int]]]] = []
        append = out.append
        state = self.state
        stats = self.stats
        root = self._root
        apply = self._apply
        matched = stats.matched_entries
        n = fwd = dde = den = evals = walks = 0
        try:
            for pkt in packets:
                n += 1
                node = root
                while node.field is not None:
                    node = node.branches.get(getattr(pkt, node.field), node.miss)
                walks += 1
                hit = None
                for ce in node.entries:
                    evals += 1
                    if ce.guard(state, pkt):
                        hit = ce
                        break
                if hit is None:
                    dde += 1
                    append([])
                    continue
                eid = hit.entry_id
                matched[eid] = matched.get(eid, 0) + 1
                sent = apply(hit, pkt)
                if sent:
                    fwd += 1
                else:
                    den += 1
                append(sent)
        finally:
            stats.packets += n
            stats.forwarded += fwd
            stats.dropped_default += dde
            stats.dropped_entry += den
            stats.guard_evals += evals
            stats.compiled_dispatches += walks
        return out

    def _apply(
        self, ce: CompiledEntry, pkt: Packet
    ) -> List[Tuple[Packet, Optional[int]]]:
        state = self.state
        sent: List[Tuple[Packet, Optional[int]]] = []
        state[self.pkt_param] = pkt.copy()
        try:
            for action in ce.actions:
                action(state, sent)
        except NFRuntimeError as exc:
            raise NFRuntimeError(
                f"model action of entry {ce.entry_id} failed: {exc}"
            ) from exc
        finally:
            state.pop(self.pkt_param, None)
        return sent
