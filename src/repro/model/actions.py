"""Lower a model's entry actions to generated Python.

An entry's action is the ordered list of slice statements its path
executed.  Loop unrolling shares statement objects between entries
(snortlite's 2,849 action statements over 69 entries are 48 distinct
objects), so :class:`ActionGen` emits **one function per distinct
statement object**, ``_a<i>(state, sent)``, and an entry's compiled
action is the tuple of those functions, run in order.  The functions
live in the same generated module as the guards
(:mod:`repro.model.compile`), so one ``compile()`` and one marshalled
code object cover both halves of the model.

The lowered surface is exactly what the synthesized actions use:

* ``SAssign`` to ``LName`` (also ``+=``/``-=`` and the other augmented
  operators), ``LSub``, ``LAttr`` and ``LTuple`` targets;
* ``SDelete`` of a subscript;
* ``SExpr``;
* every expression form, calls to the NFPy builtins and method
  intrinsics, and ``send_packet``.

Anything else (a control-flow statement, ``recv_packet``, an unknown
function, an effectful call nested inside an expression) raises
:class:`ActionCompileError` at compile time; there is no interpreter
fallback for a statement the generator does not know.

**Semantics.**  Generated code reads and writes names in the simulator
state dict, exactly as the reference interpreter's ``Env(globals=state)``
does, and keeps its value semantics: Python truthiness and the operand
``and``/``or`` return, lazy conditionals, ``a op= b`` as ``a = a op b``
(never in place), ``send_packet`` appending a ``deep_copy``.

**Errors.**  Each function first evaluates every side-effect-free part
of its statement (value, subscript bases and keys, tuple unpacking),
then performs the effects, of which only the first may fail.  Any
exception therefore leaves the state as the statement found it, and
the ``except`` clause re-runs that one statement in the reference
:class:`~repro.interp.interpreter.Interpreter`, which raises exactly the
``NFRuntimeError`` (text and line) or raw exception it always raised.
A statement whose effects cannot be ordered that way (a second fallible
effect, or an effect before a fallible read) is a compile error.
"""

from __future__ import annotations

import builtins
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.interp.builtins import BUILTINS, METHODS, PKT_OUTPUT_FUNC
from repro.interp.interpreter import Env, Interpreter
from repro.interp.values import deep_copy
from repro.lang.ir import (
    EAttr,
    EBin,
    EBool,
    ECall,
    ECmp,
    ECond,
    EConst,
    EDict,
    EList,
    EName,
    ESub,
    ETuple,
    EUn,
    Expr,
    LAttr,
    LName,
    LSub,
    LTuple,
    LValue,
    SAssign,
    SDelete,
    SExpr,
    Stmt,
)


class ActionCompileError(ValueError):
    """An action statement outside the lowered surface."""


#: Method intrinsics that mutate their receiver.
_EFFECT_METHODS = frozenset(("append", "pop", "clear", "insert", "remove"))

_BINOPS = frozenset(
    ("+", "-", "*", "/", "//", "%", "<<", ">>", "&", "|", "^", "**")
)
_CMPOPS = {
    "==": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
    "in": "in", "notin": "not in", "is": "is", "isnot": "is not",
}
_UNOPS = {"-": "-", "+": "+", "~": "~", "not": "not "}


def _rerun(stmt: Stmt, state: Dict[str, Any], sent: List[Any]) -> None:
    """Run one statement in the reference interpreter (the error path)."""
    interp = Interpreter()
    interp.sent = sent
    interp.exec_stmt(stmt, Env(globals=state), None)


def _unpack(value: Any, n: int) -> List[Any]:
    """Tuple-assignment unpacking; raises where the interpreter would."""
    items = list(value)
    if len(items) != n:
        raise ValueError("unpack mismatch")
    return items


def namespace() -> Dict[str, Any]:
    """Helper names the generated action functions refer to."""
    ns: Dict[str, Any] = {
        "_rerun": _rerun,
        "_unpack": _unpack,
        "_copy": deep_copy,
    }
    for name, fn in BUILTINS.items():
        ns[f"_b_{name}"] = fn
    for name, fn in METHODS.items():
        ns[f"_m_{name}"] = fn
    return ns


class ActionGen:
    """Source for one function per distinct action statement.

    ``const`` is the guard generator's constant-pool reference, so
    guards and actions share one ``_K`` pool.
    """

    def __init__(self, const: Callable[[Any], str]) -> None:
        self.const = const

    # -- expressions ----------------------------------------------------------

    def expr(self, e: Expr) -> str:
        """A side-effect-free Python expression with the interpreter's value."""
        if isinstance(e, EConst):
            return self.const(e.value)
        if isinstance(e, EName):
            return f"state[{e.id!r}]"
        if isinstance(e, ETuple):
            return "(" + "".join(f"{self.expr(x)}, " for x in e.elts) + ")"
        if isinstance(e, EList):
            return "[" + ", ".join(self.expr(x) for x in e.elts) + "]"
        if isinstance(e, EDict):
            return "{" + ", ".join(
                f"{self.expr(k)}: {self.expr(v)}" for k, v in e.items
            ) + "}"
        if isinstance(e, EBin) and e.op in _BINOPS:
            return f"({self.expr(e.left)} {e.op} {self.expr(e.right)})"
        if isinstance(e, EUn) and e.op in _UNOPS:
            return f"({_UNOPS[e.op]}{self.expr(e.operand)})"
        if isinstance(e, ECmp) and e.op in _CMPOPS:
            return f"({self.expr(e.left)} {_CMPOPS[e.op]} {self.expr(e.right)})"
        if isinstance(e, EBool) and e.op in ("and", "or"):
            return "(" + f" {e.op} ".join(self.expr(x) for x in e.values) + ")"
        if isinstance(e, ECond):
            return (
                f"({self.expr(e.body)} if {self.expr(e.test)}"
                f" else {self.expr(e.orelse)})"
            )
        if isinstance(e, ESub):
            return f"{self.expr(e.base)}[{self.expr(e.index)}]"
        if isinstance(e, EAttr):
            return f"{self.expr(e.base)}.{_attr(e.attr)}"
        if isinstance(e, ECall):
            if _is_effect_call(e):
                raise ActionCompileError(
                    f"effectful call {e.func}() inside an expression"
                )
            return self._call(e)
        raise ActionCompileError(f"cannot lower expression {e!r}")

    def _call(self, e: ECall) -> str:
        args = ", ".join(self.expr(a) for a in e.args)
        if e.method:
            if e.func not in METHODS:
                raise ActionCompileError(f"unknown method {e.func!r}")
            return f"_m_{e.func}({args})"
        if e.func not in BUILTINS:
            raise ActionCompileError(f"cannot lower call to {e.func!r}")
        if BUILTINS[e.func] is getattr(builtins, e.func, None):
            return f"{e.func}({args})"
        return f"_b_{e.func}({args})"

    def _effect_call(self, e: Expr) -> List[str]:
        """Lines for a top-level call that may mutate state or send a
        packet; the last line is the call expression itself."""
        assert isinstance(e, ECall)
        if e.method:
            return [self._call(e)]
        if not e.args:
            raise ActionCompileError("send_packet() needs a packet")
        args = [self.expr(a) for a in e.args]
        # Extra arguments are evaluated, then ignored.
        extra = [f"_x = ({', '.join(args[2:])},)"] if len(args) > 2 else []
        port = args[1] if len(args) > 1 else "None"
        return extra + [f"sent.append((_copy({args[0]}), {port}))"]

    # -- statements -------------------------------------------------------------

    def stmt_source(self, fn_name: str, index: int, stmt: Stmt) -> str:
        """``def fn_name(state, sent)`` running ``stmt``; ``_S[index]`` is
        the statement itself, re-run by the interpreter on any error."""
        body = self._stmt_lines(stmt)
        lines = "".join(f"        {line}\n" for line in body)
        return (
            f"def {fn_name}(state, sent):\n"
            f"    try:\n"
            f"{lines}"
            f"    except Exception:\n"
            f"        _rerun(_S[{index}], state, sent)\n"
        )

    def _stmt_lines(self, stmt: Stmt) -> List[str]:
        if isinstance(stmt, SExpr):
            if _is_effect_call(stmt.value):
                return self._effect_call(stmt.value)
            return [self.expr(stmt.value)]
        if isinstance(stmt, SDelete) and stmt.target is not None:
            target = stmt.target
            return [f"del state[{target.base!r}][{self.expr(target.index)}]"]
        if isinstance(stmt, SAssign) and stmt.targets:
            if stmt.aug is not None:
                return self._aug_lines(stmt)
            return self._assign_lines(stmt)
        raise ActionCompileError(
            f"line {stmt.line}: cannot lower {type(stmt).__name__} in an action"
        )

    def _aug_lines(self, stmt: SAssign) -> List[str]:
        if stmt.aug not in _BINOPS or len(stmt.targets) != 1:
            raise ActionCompileError(f"line {stmt.line}: bad augmented assignment")
        target, op = stmt.targets[0], stmt.aug
        value = self.expr(stmt.value)
        if isinstance(target, LName):
            slot = f"state[{target.id!r}]"
            return [f"{slot} = {slot} {op} {value}"]
        if isinstance(target, LSub):
            return [
                f"_b = state[{target.base!r}]",
                f"_k = {self.expr(target.index)}",
                f"_b[_k] = _b[_k] {op} {value}",
            ]
        if isinstance(target, LAttr):
            attr = _attr(target.attr)
            return [
                f"_b = state[{target.base!r}]",
                f"_b.{attr} = _b.{attr} {op} {value}",
            ]
        raise ActionCompileError(f"line {stmt.line}: cannot augment a tuple")

    def _assign_lines(self, stmt: SAssign) -> List[str]:
        effect_value = _is_effect_call(stmt.value)
        if (
            len(stmt.targets) == 1
            and isinstance(stmt.targets[0], LName)
            and not effect_value
        ):
            return [f"state[{stmt.targets[0].id!r}] = {self.expr(stmt.value)}"]
        if effect_value:
            *head, call = self._effect_call(stmt.value)
            value = head + [f"_v = {call}"]
        else:
            value = [f"_v = {self.expr(stmt.value)}"]
        # Side-effect-free reads hoisted ahead of the stores, and the
        # stores as (fallible, line) in the interpreter's order; local
        # names are numbered by the read that binds them.
        pure: List[str] = []
        stores: List[Tuple[bool, str]] = []

        def plan(target: LValue, source: str) -> None:
            n = len(pure)
            if isinstance(target, LName):
                stores.append((False, f"state[{target.id!r}] = {source}"))
            elif isinstance(target, LSub):
                pure.append(f"_b{n} = state[{target.base!r}]")
                pure.append(f"_k{n} = {self.expr(target.index)}")
                stores.append((True, f"_b{n}[_k{n}] = {source}"))
            elif isinstance(target, LAttr):
                pure.append(f"_b{n} = state[{target.base!r}]")
                stores.append((True, f"_b{n}.{_attr(target.attr)} = {source}"))
            elif isinstance(target, LTuple):
                items = f"_u{n}"
                pure.append(f"{items} = _unpack({source}, {len(target.elts)})")
                for i, sub in enumerate(target.elts):
                    plan(sub, f"{items}[{i}]")
            else:
                raise ActionCompileError(
                    f"line {stmt.line}: cannot store to {type(target).__name__}"
                )

        for target in stmt.targets:
            plan(target, "_v")
        # Only the first effect may fail: no fallible store after another
        # store, and nothing to read or unpack after an effectful call.
        if any(fallible for fallible, _line in stores[1:]) or (
            effect_value and pure
        ):
            raise ActionCompileError(
                f"line {stmt.line}: a fallible step follows an effect"
            )
        return value + pure + [line for _fallible, line in stores]


def _is_effect_call(e: Expr) -> bool:
    return isinstance(e, ECall) and (
        (e.method and e.func in _EFFECT_METHODS)
        or (not e.method and e.func == PKT_OUTPUT_FUNC)
    )


def _attr(name: str) -> str:
    if not name.isidentifier():
        raise ActionCompileError(f"cannot lower attribute {name!r}")
    return name


def distinct_statements(actions: Sequence[Sequence[Stmt]]) -> List[Stmt]:
    """Every distinct statement object, in first-occurrence order."""
    seen: Dict[int, Stmt] = {}
    for block in actions:
        for stmt in block:
            seen.setdefault(id(stmt), stmt)
    return list(seen.values())
