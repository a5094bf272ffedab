"""Content-addressed cache keys (BLAKE2 over canonical encodings).

Every artifact in the store is addressed by a digest of *what went into
computing it*: the artifact kind, the input content (NF source text or
an upstream artifact's key), the relevant configuration fingerprint and
the cache schema version.  Two consequences:

- an unchanged input re-derives the same key, so re-synthesis of an
  unchanged NF is a pure lookup;
- *any* change — a source edit, a config knob, a schema bump — derives
  a different key, so stale entries are unreachable rather than
  invalidated.  Old entries age out by garbage collection
  (``repro cache clear``), never by being wrong.

:data:`SCHEMA_VERSION` must be bumped whenever the *meaning* of a
cached artifact changes (pipeline semantics, pickle layout of cached
types, key material).  The package version is mixed in as well, so a
release bump conservatively invalidates everything.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import fields, is_dataclass
from functools import lru_cache
from typing import Any, Dict, List, Optional, Tuple

#: Bump on any semantic change to cached artifacts (see module docstring).
#: 2: SynthesisStats grew the engine cold-path counters (§9).
#: 3: frontend keys switched to function-level source units (§15), so an
#:    edit to one handler no longer invalidates siblings in the same file.
#: 4: synthesis defaults to the deployed configuration (cfgVars stay
#:    concrete), and SynthesisStats grew solver_unknowns/paths_truncated.
#: 5: parametric int ``cfg.*`` leaves span their deployed value, so cached
#:    parametric models and solver answers over them changed meaning.
#: 6: the solver draws free ``member`` atoms and accepts only functionally
#:    consistent witnesses, so persisted answers for existing keys changed.
#: 7: the solver refutes nested ``not(and(and ..) ..)`` shapes it left
#:    ``unknown``, so a cached model may hold a path that is now pruned.
SCHEMA_VERSION = 7


def _encode(value: Any, out: bytearray) -> None:
    """Append a canonical, type-tagged encoding of ``value`` to ``out``.

    Collisions between values of different types are impossible (every
    branch emits a distinct tag) and container encodings are
    order-canonical (sets/dicts are sorted), so the digest of the
    encoding is a stable fingerprint across processes and platforms.
    """
    if value is None:
        out.append(0x00)
    elif isinstance(value, bool):
        out.append(0x01)
        out.append(1 if value else 0)
    elif isinstance(value, int):
        out.append(0x02)
        out.extend(str(value).encode("ascii"))
        out.append(0x3B)
    elif isinstance(value, float):
        out.append(0x07)
        out.extend(value.hex().encode("ascii"))
        out.append(0x3B)
    elif isinstance(value, str):
        out.append(0x03)
        encoded = value.encode("utf-8")
        out.extend(str(len(encoded)).encode("ascii"))
        out.append(0x3A)
        out.extend(encoded)
    elif isinstance(value, bytes):
        out.append(0x08)
        out.extend(str(len(value)).encode("ascii"))
        out.append(0x3A)
        out.extend(value)
    elif isinstance(value, (tuple, list)):
        out.append(0x04 if isinstance(value, tuple) else 0x09)
        for item in value:
            _encode(item, out)
        out.append(0x3B)
    elif isinstance(value, (set, frozenset)):
        out.append(0x05)
        for item in sorted(value, key=repr):
            _encode(item, out)
        out.append(0x3B)
    elif isinstance(value, dict):
        out.append(0x06)
        for key in sorted(value, key=repr):
            _encode(key, out)
            _encode(value[key], out)
        out.append(0x3B)
    elif is_dataclass(value) and not isinstance(value, type):
        out.append(0x0A)
        _encode(type(value).__name__, out)
        for f in fields(value):
            _encode(f.name, out)
            _encode(getattr(value, f.name), out)
        out.append(0x3B)
    else:
        raise TypeError(f"cache key cannot encode {type(value).__name__}")


def stable_fingerprint(value: Any) -> str:
    """A short hex digest of any canonically-encodable value."""
    h = hashlib.blake2b(digest_size=16)
    buf = bytearray()
    _encode(value, buf)
    h.update(bytes(buf))
    return h.hexdigest()


def artifact_key(kind: str, material: Any) -> str:
    """The content address of one artifact.

    ``kind`` partitions the key space (a ``frontend`` artifact can never
    collide with a ``model`` artifact of the same input); ``material``
    is the canonically-encodable description of everything the artifact
    depends on.  The schema and package versions are always mixed in.
    """
    from repro import __version__

    h = hashlib.blake2b(digest_size=16)
    buf = bytearray()
    _encode((kind, SCHEMA_VERSION, __version__, material), buf)
    h.update(bytes(buf))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Function-level source units (frontend key material)
# ---------------------------------------------------------------------------
#
# Keying the frontend tier on the raw source text means *any* edit to a
# multi-handler file invalidates every target synthesized from it.  The
# watch loop needs finer grain: split the source into *units* — the
# module body plus each top-level function — and key each target on only
# the units it can transitively reference.  Editing one handler then
# leaves sibling targets' keys unchanged, so they stay pure model-tier
# hits.
#
# The split is conservative by construction.  Whenever precise unit
# extraction is not possible (syntax error, duplicate defs, decorators,
# no resolvable entry), the material degrades to the whole source text —
# exactly the pre-§15 behaviour, never an over-hit.


def _is_main_guard(node: ast.stmt) -> bool:
    # Mirrors repro.lang.lower.is_main_guard: the NFPy parser skips the
    # guard entirely, so its text can never influence an artifact.
    if not isinstance(node, ast.If):
        return False
    test = node.test
    return (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Name)
        and test.left.id == "__name__"
    )


def _segment(lines: List[str], node: ast.stmt) -> str:
    return "".join(lines[node.lineno - 1 : node.end_lineno])


def _referenced_names(node: ast.AST, candidates: Dict[str, ast.FunctionDef]) -> set:
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in candidates:
            refs.add(sub.id)
    return refs


def _detect_sniff_callback(
    tree: ast.Module, functions: Dict[str, ast.FunctionDef]
) -> Optional[str]:
    # ``sniff(IFACE, handler)`` registers ``handler`` as the entry (the
    # NFPy "callback" entry shape).  Only an unambiguous single match
    # counts; anything else falls back to all-functions material.
    found = set()
    for sub in ast.walk(tree):
        if not (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "sniff"
        ):
            continue
        for arg in sub.args:
            if isinstance(arg, ast.Name) and arg.id in functions:
                found.add(arg.id)
    return found.pop() if len(found) == 1 else None


@lru_cache(maxsize=128)
def _split_source(
    source: str,
) -> Optional[Tuple[str, Tuple[Tuple[str, str, frozenset], ...], frozenset, Optional[str]]]:
    """Parse ``source`` once, shared by every entry in the same file.

    A multi-handler file is watched as many targets; caching the split
    per *source* (not per ``(source, entry)``) keeps the N-targets poll
    path to one ast parse.  Returns ``(module_text, fn_units,
    module_refs, sniff_entry)`` where each fn unit is ``(name, text,
    referenced_function_names)``, or ``None`` when the source cannot be
    split precisely (syntax error, duplicate defs, decorators).
    """
    try:
        tree = ast.parse(source)
    except (SyntaxError, ValueError):
        return None
    lines = source.splitlines(keepends=True)
    functions: Dict[str, ast.FunctionDef] = {}
    module_nodes: List[ast.stmt] = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            if node.name in functions or node.decorator_list:
                return None
            functions[node.name] = node
        elif _is_main_guard(node):
            continue
        else:
            module_nodes.append(node)
    module_refs: set = set()
    for node in module_nodes:
        module_refs |= _referenced_names(node, functions)
    fn_units = tuple(
        (
            node.name,
            _segment(lines, node),
            frozenset(_referenced_names(node, functions)),
        )
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    )
    module_text = "".join(_segment(lines, node) for node in module_nodes)
    sniff = _detect_sniff_callback(tree, functions)
    return (module_text, fn_units, frozenset(module_refs), sniff)


@lru_cache(maxsize=512)
def source_units(source: str, entry: Optional[str] = None) -> Tuple[Any, ...]:
    """Split ``source`` into the units the target ``entry`` can read.

    Returns a tuple of ``("module", text)`` followed by
    ``("fn", name, text)`` units in source order, restricted to the
    module body plus functions transitively reachable from the entry
    (any by-name reference counts as an edge — NFPy has no indirect
    calls beyond passing a function by name).  When the entry cannot be
    pinned down, every function is included; when the source cannot be
    split at all, the fallback is ``(("source", text),)``.
    """
    split = _split_source(source)
    if split is None:
        return (("source", source),)
    module_text, fn_units, module_refs, sniff = split
    refs = {name: fn_refs for name, _, fn_refs in fn_units}
    root = entry if entry in refs else None
    if root is None and entry is None:
        root = sniff
    if root is None:
        # No precise target (auto-detected loop entries, unknown entry
        # name): every function is potentially live.
        reachable = set(refs)
    else:
        # Seed with the entry plus anything the module body references
        # (init-time calls, callback registrations), then close over
        # by-name references between functions.
        frontier = {root} | set(module_refs)
        reachable = set()
        while frontier:
            name = frontier.pop()
            if name in reachable:
                continue
            reachable.add(name)
            frontier |= refs[name]
    units: List[Tuple[Any, ...]] = [("module", module_text)]
    for name, text, _ in fn_units:
        if name in reachable:
            units.append(("fn", name, text))
    return tuple(units)


def frontend_key_material(
    source: str, name: str, entry: Optional[str]
) -> Tuple[Any, ...]:
    """The frontend tier's key material for one synthesis target."""
    return ("units-v1", source_units(source, entry), name, entry)


def changed_units(
    old_source: str, new_source: str, entry: Optional[str] = None
) -> List[str]:
    """Human-readable names of units that differ between two sources.

    Used by the watch daemon to report *which* handlers an edit touched
    (``["fn:lookup", "module"]``).  Compares the full unit split (no
    entry restriction unless given) so the answer is target-independent.
    """
    old = {u[:2] if u[0] == "fn" else (u[0],): u for u in source_units(old_source, entry)}
    new = {u[:2] if u[0] == "fn" else (u[0],): u for u in source_units(new_source, entry)}
    names = []
    for key in sorted(set(old) | set(new), key=repr):
        if old.get(key) != new.get(key):
            names.append(":".join(key))
    return names
