"""Symbolic values and expressions.

A *symbolic value* flowing through the engine is one of:

* a concrete Python value (int/bool/str/None/float),
* a :class:`Sym` expression tree (:class:`SVar`, :class:`SApp`,
  :class:`SDictVal`),
* a structural container — tuple/list of symbolic values — kept
  componentwise so indexing with concrete indices stays precise,
* a :class:`SymPacket` (per-field symbolic packet), or
* a :class:`SymDict` (state dictionary with lazy membership — §2.4's
  "whether a flow's 4-tuple is stored in the dictionary is a state").

``eval_sym`` evaluates a tree under an assignment of symbolic leaves to
concrete values — used both for witness checking in the solver and for
test-packet generation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from repro.util.hashing import stable_hash

# ---------------------------------------------------------------------------
# Symbolic expression trees
# ---------------------------------------------------------------------------


class Sym:
    """Base class of symbolic expression nodes (immutable)."""

    __slots__ = ()

    def __getstate__(self) -> Dict[str, Any]:
        # The memos (see canon / _leaves_of) are derived
        # state, and a leaf's _leaves_memo frozenset contains the leaf
        # itself — a cycle through a hashable container that pickle
        # cannot rebuild. Ship nodes bare; memos regrow on first use.
        state = dict(self.__dict__)
        state.pop("_canon_memo", None)
        state.pop("_leaves_memo", None)
        return state


@dataclass(frozen=True)
class SVar(Sym):
    """A free symbolic variable with an integer (or boolean) domain."""

    name: str
    lo: int = 0
    hi: int = (1 << 32) - 1
    boolean: bool = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"${self.name}"


@dataclass(frozen=True)
class SApp(Sym):
    """An operator applied to symbolic/concrete arguments."""

    op: str
    args: Tuple[Any, ...]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"({self.op} {' '.join(map(repr, self.args))})"


@dataclass(frozen=True)
class SDictVal(Sym):
    """The unknown value stored in a state dict under an assumed key.

    ``path`` records component selection: ``d[k][2]`` is
    ``SDictVal(d, canon(k), (2,))``.  Each distinct (dict, key, path)
    triple is an independent solver variable.  ``key`` carries the
    symbolic key expression itself (identity is still the canonical
    string) so the model simulator can evaluate the read concretely.
    """

    dict_name: str
    key_canon: str
    path: Tuple[int, ...] = ()
    key: Any = field(default=None, compare=False, hash=False)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        suffix = "".join(f"[{i}]" for i in self.path)
        return f"${self.dict_name}[{self.key_canon}]{suffix}"


# ---------------------------------------------------------------------------
# Structured runtime containers
# ---------------------------------------------------------------------------


class SymPacket:
    """A packet whose fields are symbolic values.

    Unlike :class:`repro.net.packet.Packet` there is no domain check on
    writes — fields may hold arbitrary symbolic trees.
    """

    __slots__ = ("fields", "label")

    def __init__(self, fields: Dict[str, Any], label: str = "pkt") -> None:
        self.fields = fields
        self.label = label

    @classmethod
    def fresh(cls, label: str = "pkt") -> "SymPacket":
        """A packet with every field an independent symbolic variable."""
        from repro.net.packet import FIELD_DOMAINS

        return cls(
            {
                name: SVar(f"{label}.{name}", lo, hi)
                for name, (lo, hi) in FIELD_DOMAINS.items()
            },
            label,
        )

    def get(self, name: str) -> Any:
        if name not in self.fields:
            raise KeyError(f"unknown packet field {name!r}")
        return self.fields[name]

    def set(self, name: str, value: Any) -> None:
        if name not in self.fields:
            raise KeyError(f"unknown packet field {name!r}")
        self.fields[name] = value

    def copy(self) -> "SymPacket":
        return SymPacket(dict(self.fields), self.label)

    def snapshot(self) -> Dict[str, Any]:
        """An immutable view of the current fields."""
        return dict(self.fields)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SymPacket({self.label})"


class SymDict:
    """A state dictionary with lazily-decided membership.

    ``entries`` are writes performed along the current path (ordered,
    newest wins).  ``assumed`` records membership decisions taken for
    keys *not* written on the path: canonical key → bool.  Reads of an
    assumed-present key produce :class:`SDictVal` placeholders.
    """

    __slots__ = ("name", "entries", "assumed", "deleted", "cleared")

    def __init__(
        self,
        name: str,
        entries: Optional[List[Tuple[Any, Any]]] = None,
        assumed: Optional[Dict[str, bool]] = None,
        deleted: Optional[List[str]] = None,
        cleared: bool = False,
    ) -> None:
        self.name = name
        self.entries: List[Tuple[Any, Any]] = entries if entries is not None else []
        self.assumed: Dict[str, bool] = assumed if assumed is not None else {}
        self.deleted: List[str] = deleted if deleted is not None else []
        #: True once the path executed ``clear()``: membership of any
        #: key not re-written afterwards is definitely False.
        self.cleared = cleared

    def copy(self) -> "SymDict":
        return SymDict(
            self.name,
            [(k, v) for k, v in self.entries],
            dict(self.assumed),
            list(self.deleted),
            self.cleared,
        )

    def clear(self) -> None:
        """Empty the dict on this path (``d.clear()``)."""
        self.entries = []
        self.assumed = {}
        self.deleted = []
        self.cleared = True

    def written_value(self, key: Any) -> Optional[Tuple[bool, Any]]:
        """Latest write for a syntactically-equal key, if any.

        Returns ``(True, value)`` when found, ``None`` otherwise.  A
        delete of the key after the write hides it.
        """
        key_c = canon(key)
        for entry_key, value in reversed(self.entries):
            if canon(entry_key) == key_c:
                return (True, value)
        return None

    def store(self, key: Any, value: Any) -> None:
        self.entries.append((key, value))
        key_c = canon(key)
        if key_c in self.deleted:
            self.deleted.remove(key_c)

    def delete(self, key: Any) -> None:
        key_c = canon(key)
        self.entries = [(k, v) for k, v in self.entries if canon(k) != key_c]
        self.deleted.append(key_c)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SymDict({self.name}, {len(self.entries)} writes)"


# ---------------------------------------------------------------------------
# Canonicalisation and inspection
# ---------------------------------------------------------------------------


def canon(value: Any) -> str:
    """A canonical string for a symbolic value (structural identity).

    Results are memoized onto the (immutable) expression nodes
    themselves: ``canon``/``leaf_key`` run in the solver's innermost
    loops (cache keying, complement detection, domain lookup), and a
    node's canonical form never changes, so each tree is stringified at
    most once per node.
    """
    if isinstance(value, Sym):
        memo = getattr(value, "_canon_memo", None)
        if memo is not None:
            return memo
        if isinstance(value, SVar):
            result = f"v:{value.name}"
        elif isinstance(value, SDictVal):
            path = ",".join(map(str, value.path))
            result = f"dv:{value.dict_name}:{value.key_canon}:{path}"
        else:  # SApp (or a future Sym node with args)
            inner = ",".join(canon(a) for a in value.args)
            result = f"a:{value.op}({inner})"
        # Frozen dataclasses forbid plain attribute writes; the memo is
        # derived state, not a field, so bypassing is sound.
        object.__setattr__(value, "_canon_memo", result)
        return result
    if isinstance(value, tuple):
        return "t(" + ",".join(canon(v) for v in value) + ")"
    if isinstance(value, list):
        return "l(" + ",".join(canon(v) for v in value) + ")"
    if isinstance(value, SymPacket):
        inner = ",".join(f"{k}={canon(v)}" for k, v in sorted(value.fields.items()))
        return f"p({inner})"
    if isinstance(value, SymDict):
        return f"d:{value.name}"
    if isinstance(value, bool):
        return f"b:{value}"
    return f"c:{type(value).__name__}:{value!r}"


def is_concrete(value: Any) -> bool:
    """True if ``value`` contains no symbolic leaves."""
    if isinstance(value, Sym):
        return False
    if isinstance(value, (tuple, list)):
        return all(is_concrete(v) for v in value)
    if isinstance(value, SymPacket):
        return all(is_concrete(v) for v in value.fields.values())
    if isinstance(value, SymDict):
        return False
    if isinstance(value, dict):
        return all(is_concrete(k) and is_concrete(v) for k, v in value.items())
    return True


def sym_vars(value: Any) -> Set[Sym]:
    """All symbolic leaves (SVar / SDictVal / member atoms) in ``value``.

    Per-node results are memoized (like :func:`canon`): subtrees are
    shared heavily across path constraints, so each node's leaf set is
    computed once and reused as a frozen set.
    """
    if isinstance(value, Sym):
        return set(_leaves_of(value))
    out: Set[Sym] = set()
    _collect_leaves(value, out)
    return out


def _leaves_of(node: Sym) -> frozenset:
    memo = getattr(node, "_leaves_memo", None)
    if memo is not None:
        return memo
    out: Set[Sym] = set()
    if isinstance(node, (SVar, SDictVal)):
        out.add(node)
    elif isinstance(node, SApp):
        if node.op in ("member", "dictlen"):
            out.add(node)
        for a in node.args:
            _collect_leaves(a, out)
    result = frozenset(out)
    object.__setattr__(node, "_leaves_memo", result)
    return result


def _collect_leaves(value: Any, out: Set[Sym]) -> None:
    if isinstance(value, Sym):
        out |= _leaves_of(value)
    elif isinstance(value, (tuple, list)):
        for v in value:
            _collect_leaves(v, out)
    elif isinstance(value, SymPacket):
        for v in value.fields.values():
            _collect_leaves(v, out)


# ---------------------------------------------------------------------------
# Construction with constant folding
# ---------------------------------------------------------------------------


_ARITH: Dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "//": lambda a, b: a // b,
    "%": lambda a, b: a % b,
    "<<": lambda a, b: a << b,
    ">>": lambda a, b: a >> b,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "**": lambda a, b: a**b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


_NEG = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


def mk_app(op: str, *args: Any) -> Any:
    """Build ``SApp(op, args)``, folding when all arguments are concrete.

    Construction applies eager simplification: constant folding,
    ``not``-pushing, boolean identity/absorption, duplicate-literal and
    complement elimination inside ``and``/``or``, syntactic-identity
    comparisons (``x == x``) and degenerate conditionals.  Every rule
    is semantics-preserving AND representation-preserving for the
    serialized model (guard text is printed from these trees, so rules
    that rewrite arithmetic shapes — ``x + 0 → x`` — are deliberately
    absent: they would change model bytes).
    """
    if all(is_concrete(a) for a in args):
        return _apply_concrete(op, args)
    if op in ("==", "<=", ">=", "!=", "<", ">") and len(args) == 2:
        # Syntactic identity: leaves are deterministic, so x == x.
        if canon(args[0]) == canon(args[1]):
            return op in ("==", "<=", ">=")
    if op == "not":
        (a,) = args
        if isinstance(a, SApp) and a.op == "not":
            return a.args[0]
        if isinstance(a, SApp) and a.op in _NEG:
            return SApp(_NEG[a.op], a.args)
        return SApp("not", (a,))
    if op in ("and", "or"):
        flat: List[Any] = []
        seen: Set[str] = set()
        for a in args:
            if isinstance(a, bool):
                if op == "and":
                    if not a:
                        return False
                    continue  # True is the identity of `and`
                if a:
                    return True
                continue  # False is the identity of `or`
            key = canon(a)
            if key in seen:
                continue  # idempotence: a ∧ a = a, a ∨ a = a
            seen.add(key)
            flat.append(a)
        for a in flat:
            negated = mk_app("not", a)
            if not isinstance(negated, bool) and canon(negated) in seen:
                return op == "or"  # complement: a ∧ ¬a / a ∨ ¬a
        if not flat:
            return op == "and"
        if len(flat) == 1:
            return flat[0]
        return SApp(op, tuple(flat))
    if op == "cond" and len(args) == 3 and canon(args[1]) == canon(args[2]):
        return args[1]  # both arms equal: the test is irrelevant
    return SApp(op, tuple(args))


def _apply_concrete(op: str, args: Tuple[Any, ...]) -> Any:
    if op in _ARITH:
        return _ARITH[op](args[0], args[1])
    if op == "neg":
        return -args[0]
    if op == "~":
        return ~args[0]
    if op == "not":
        return not args[0]
    if op == "and":
        result: Any = True
        for a in args:
            result = a
            if not a:
                return a
        return result
    if op == "or":
        result = False
        for a in args:
            result = a
            if a:
                return a
        return result
    if op == "getitem":
        return args[0][args[1]]
    if op == "len":
        return len(args[0])
    if op == "hash":
        return stable_hash(_hashable(args[0]))
    if op == "abs":
        return abs(args[0])
    if op == "min":
        return min(*args)
    if op == "max":
        return max(*args)
    if op == "cond":
        return args[1] if args[0] else args[2]
    raise ValueError(f"cannot fold operator {op!r}")


def _hashable(value: Any) -> Any:
    if isinstance(value, tuple):
        return tuple(_hashable(v) for v in value)
    if isinstance(value, list):
        return tuple(_hashable(v) for v in value)
    return value


# ---------------------------------------------------------------------------
# Evaluation under an assignment
# ---------------------------------------------------------------------------

Assignment = Dict[str, Any]  # canonical leaf name → concrete value


def leaf_key(leaf: Sym) -> str:
    """The assignment key for a symbolic leaf."""
    return canon(leaf)


def eval_sym(value: Any, assignment: Assignment) -> Any:
    """Evaluate a symbolic value to a concrete one under ``assignment``.

    Unassigned leaves evaluate to 0 (False for member atoms), which is
    harmless for witness *checking* because the solver always samples
    every leaf it collected.
    """
    if isinstance(value, SVar):
        return assignment.get(leaf_key(value), value.lo)
    if isinstance(value, SDictVal):
        return assignment.get(leaf_key(value), 0)
    if isinstance(value, SApp):
        if value.op == "member":
            return bool(assignment.get(leaf_key(value), False))
        if value.op == "dictlen":
            return assignment.get(leaf_key(value), 0)
        args = tuple(eval_sym(a, assignment) for a in value.args)
        return _apply_concrete(value.op, args)
    if isinstance(value, tuple):
        return tuple(eval_sym(v, assignment) for v in value)
    if isinstance(value, list):
        return [eval_sym(v, assignment) for v in value]
    if isinstance(value, SymPacket):
        return {k: eval_sym(v, assignment) for k, v in value.fields.items()}
    return value
