"""Path-condition satisfiability and witness generation.

This is the constraint-solving layer under symbolic execution — the
role KLEE delegates to an SMT solver.  NF path conditions are shallow:
(in)equalities between packet fields and constants, arithmetic over
counters, membership decisions for state dictionaries, and occasional
hash/modulo expressions.  The solver therefore combines

1. **structural propagation** — intervals, pinned values and forbidden
   sets per symbolic leaf, plus a union-find over leaf equalities;
2. **guided concrete sampling** — deterministic randomized assignments
   drawn from the propagated domains, checked by direct evaluation
   (:func:`repro.symbolic.expr.eval_sym`).  ``member`` atoms that
   propagation leaves free are drawn too (``False`` in the first,
   deterministic draw; a seeded coin flip in every randomized one).

A witness is accepted only when it satisfies every conjunct *and* is
functionally consistent (:func:`consistent_witness`): two ``member``
atoms, or two value leaves ``d[k1]``/``d[k2]``, of one dict whose keys
evaluate equal carry the same value, so some dict state realizes it.

The result is *sound for UNSAT* only when propagation finds a direct
conflict; otherwise sampling either proves SAT with a witness or
returns ``unknown``.  Callers treat ``unknown`` as feasible, which can
only add spurious paths, never lose real ones.

Performance layer (docs/internals.md §7):

* **Constraint-set memoization** — every non-trivial check is keyed by
  the ordered, deduplicated canonical forms of its conjuncts (plus the
  solver's seed/sample-budget fingerprint) and served from a bounded
  process-wide LRU (:class:`ConstraintCache`).  A fresh solve is a
  pure function of that key, so cached and re-solved results are
  identical — models are byte-identical with the cache on and off.
  The process-wide instance additionally persists through the artifact
  store (:mod:`repro.cache`): solved answers are loaded on first miss
  and flushed write-behind, so they survive process restarts
  (docs/internals.md §8).
* **Incremental propagation** — a :class:`SolverContext` carries the
  expanded conjuncts, canonical set, propagated domains and union-find
  of a path's constraint prefix, so each branch check extends the
  parent's context with one atom (:meth:`Solver.check_extended`)
  instead of re-propagating the whole prefix.  The context falls back
  to full re-propagation whenever leaf-equality classes merge, because
  class-wide domain intersection is not expressible as a single-atom
  update.  A caller that probes many extensions of one prefix —
  ``apps/verify.push_space`` checks one input space against every
  table entry — absorbs the prefix once
  (:meth:`Solver.absorb_into`) and checks each extension on a copy
  (:meth:`Solver.check_assuming`).
"""

from __future__ import annotations

import atexit
import random
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro import cache as artifact_cache
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import Histogram, TIME_BUCKETS
from repro.symbolic.expr import (
    Assignment,
    SApp,
    SDictVal,
    SVar,
    Sym,
    canon,
    eval_sym,
    is_concrete,
    leaf_key,
    mk_app,
    sym_vars,
)

_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}

#: Default randomized-sampling budget per check.  The single source of
#: truth: :class:`repro.symbolic.engine.EngineConfig.solver_samples`
#: defaults to this same constant.
DEFAULT_MAX_SAMPLES = 120

#: Default capacity of the process-wide constraint cache.
DEFAULT_CACHE_SIZE = 4096


@dataclass
class _Domain:
    """Propagated knowledge about one symbolic leaf."""

    lo: int = 0
    hi: int = (1 << 32) - 1
    forbidden: Set[int] = field(default_factory=set)
    boolean: bool = False
    #: ``(mask, required)`` pairs from ``(x & mask) == required`` atoms:
    #: samples are adjusted to satisfy them (prefix-match constraints).
    masks: List[Tuple[int, int]] = field(default_factory=list)
    #: candidate values harvested from disjunctions (``x == c or ...``):
    #: uniform sampling would almost never hit them.
    suggestions: Set[int] = field(default_factory=set)

    def copy(self) -> "_Domain":
        return _Domain(
            self.lo,
            self.hi,
            set(self.forbidden),
            self.boolean,
            list(self.masks),
            set(self.suggestions),
        )

    def apply_masks(self, value: int) -> int:
        for mask, required in self.masks:
            value = (value & ~mask) | required
        return value

    def pin(self, value: int) -> bool:
        """Constrain to exactly ``value``; False on conflict."""
        if value < self.lo or value > self.hi or value in self.forbidden:
            return False
        self.lo = self.hi = value
        return True

    def exclude(self, value: int) -> bool:
        if self.lo == self.hi == value:
            return False
        self.forbidden.add(value)
        return True

    def upper(self, value: int) -> bool:
        self.hi = min(self.hi, value)
        return self.lo <= self.hi

    def lower(self, value: int) -> bool:
        self.lo = max(self.lo, value)
        return self.lo <= self.hi

    def consistent(self) -> bool:
        if self.lo > self.hi:
            return False
        span = self.hi - self.lo + 1
        if span <= len(self.forbidden):
            # Small enough to check exhaustively: is any value allowed?
            if all(v in self.forbidden for v in range(self.lo, self.hi + 1)):
                return False
        return True

    def sample_pool(self) -> List[int]:
        """Interesting candidate values inside the domain."""
        pool = [v for v in sorted(self.suggestions) if self.lo <= v <= self.hi]
        pool += [self.lo, self.hi, (self.lo + self.hi) // 2]
        for delta in (1, 2, 3):
            pool.append(min(self.hi, self.lo + delta))
            pool.append(max(self.lo, self.hi - delta))
        return [v for v in dict.fromkeys(pool) if v not in self.forbidden]


@dataclass
class SolverResult:
    """Outcome of a satisfiability check.

    ``cached`` is provenance: True when the result was served from the
    constraint cache rather than solved afresh (the payload is
    identical either way — solving is deterministic per cache key).
    """

    status: str  # "sat" | "unsat" | "unknown"
    assignment: Optional[Assignment] = None
    cached: bool = False

    @property
    def feasible(self) -> bool:
        """Treat unknown as feasible (see module docstring)."""
        return self.status != "unsat"


class _UnionFind:
    __slots__ = ("_parent", "merges")

    def __init__(self) -> None:
        self._parent: Dict[str, str] = {}
        #: Number of class merges performed; non-zero means domains may
        #: need class-wide intersection (see SolverContext.dirty).
        self.merges = 0

    def find(self, key: str) -> str:
        parent = self._parent.setdefault(key, key)
        if parent == key:
            return key
        # Iterative path walk + compression: deep equality chains would
        # blow Python's recursion limit with the naive recursive form.
        root = parent
        while True:
            nxt = self._parent.setdefault(root, root)
            if nxt == root:
                break
            root = nxt
        while key != root:
            self._parent[key], key = root, self._parent[key]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb
            self.merges += 1

    def copy(self) -> "_UnionFind":
        out = _UnionFind()
        out._parent = dict(self._parent)
        out.merges = self.merges
        return out


#: Write-behind flush threshold for persistent caches: after this many
#: new entries the in-memory state is merged onto disk.  A final flush
#: runs at interpreter exit (and after every synthesis, see
#: :meth:`repro.nfactor.algorithm.NFactor.synthesize`).
PERSIST_FLUSH_EVERY = 256

#: Sentinel: "no persistence load has been attempted yet".
_NEVER_LOADED = object()


class ConstraintCache:
    """A bounded, thread-safe LRU of solver results.

    Keys are ``(seed, max_samples, canonical conjunct tuple)``; values
    are ``(status, assignment)`` pairs.  One process-wide instance
    (:func:`global_cache`) is shared by default so repeated syntheses —
    warm benchmark runs, batch mode, re-checks of finished path
    conditions during model refactoring — hit instead of re-solving.

    With ``persistent=True`` (the process-wide instance) the cache is
    backed by the artifact store (:mod:`repro.cache`): the first miss
    loads the on-disk snapshot (lazily, and again after the store is
    reconfigured), and writes flush behind — every
    :data:`PERSIST_FLUSH_EVERY` new entries, on :meth:`flush`, and at
    interpreter exit.  Flushing merges with the current disk contents
    before the atomic replace, so concurrent processes lose at most a
    race's worth of freshly-solved entries, never the file's
    consistency.  Persisted answers are pure functions of their keys,
    so loading them can only skip work, never change results.
    """

    __slots__ = (
        "maxsize",
        "_data",
        "_lock",
        "hits",
        "misses",
        "persistent",
        "_persist_token",
        "_dirty",
        "_atexit_registered",
    )

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE, persistent: bool = False) -> None:
        if maxsize <= 0:
            raise ValueError("cache maxsize must be positive")
        self.maxsize = maxsize
        self._data: "OrderedDict[Any, Tuple[str, Optional[Assignment]]]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.persistent = persistent
        self._persist_token: Any = _NEVER_LOADED
        self._dirty = 0
        self._atexit_registered = False

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get(self, key: Any) -> Optional[Tuple[str, Optional[Assignment]]]:
        with self._lock:
            entry = self._data.get(key)
            if entry is None and self.persistent and self._load_locked():
                entry = self._data.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: Any, status: str, assignment: Optional[Assignment]) -> None:
        with self._lock:
            self._data[key] = (status, dict(assignment) if assignment is not None else None)
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
            if self.persistent:
                self._dirty += 1
                if not self._atexit_registered:
                    atexit.register(self.flush)
                    self._atexit_registered = True
                if self._dirty >= PERSIST_FLUSH_EVERY:
                    self._flush_locked()

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0
            self._dirty = 0
            self._persist_token = _NEVER_LOADED

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def stats(self) -> Tuple[int, int, int]:
        """One atomic snapshot of ``(hits, misses, entries)``."""
        with self._lock:
            return self.hits, self.misses, len(self._data)

    # -- persistence (write-behind through repro.cache) ---------------------

    @staticmethod
    def _blob_name() -> str:
        return f"solver-constraints-v{artifact_cache.SCHEMA_VERSION}"

    def _load_locked(self) -> bool:
        """Load the disk snapshot on first miss (or after reconfiguration).

        Returns True when a load actually merged entries, so the caller
        can retry its lookup.  Already-present entries win over disk
        ones (they are identical by determinism anyway).
        """
        token = artifact_cache.store_token()
        if token == self._persist_token:
            return False
        self._persist_token = token
        if token is None:
            return False
        payload = artifact_cache.get_store().load_blob(self._blob_name())
        if not isinstance(payload, dict) or not payload:
            return False
        for key, value in payload.items():
            self._data.setdefault(key, value)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
        return True

    def flush(self) -> None:
        """Write-behind flush: merge in-memory entries onto disk now."""
        if not self.persistent:
            return
        with self._lock:
            self._flush_locked()

    def _flush_locked(self) -> None:
        if self._dirty == 0:
            return
        token = artifact_cache.store_token()
        if token is None:
            return
        store = artifact_cache.get_store()
        existing = store.load_blob(self._blob_name())
        merged: Dict[Any, Tuple[str, Optional[Assignment]]] = (
            dict(existing) if isinstance(existing, dict) else {}
        )
        merged.update(self._data)
        if len(merged) > self.maxsize:
            overflow = len(merged) - self.maxsize
            for key in list(merged):
                if overflow == 0:
                    break
                if key not in self._data:
                    del merged[key]
                    overflow -= 1
        store.save_blob(self._blob_name(), merged)
        self._dirty = 0
        self._persist_token = token


_GLOBAL_CACHE = ConstraintCache(persistent=True)


def global_cache() -> ConstraintCache:
    """The process-wide constraint cache shared by default."""
    return _GLOBAL_CACHE


def clear_global_cache() -> None:
    """Empty the process-wide cache (cold-start for benchmarks/tests)."""
    _GLOBAL_CACHE.clear()


class SolverContext:
    """Incrementally-propagated solver state for one constraint prefix.

    Covers ``covered`` leading entries of a path's raw constraint list.
    ``residual`` is the expanded, canonically-deduplicated conjunct
    list; ``domains``/``members``/``uf`` the propagated knowledge.

    Invariants (the incrementality contract, docs/internals.md §7):

    * absorbing the same raw constraints in the same order always
      produces the same ``residual`` — so a context-extended check and
      a from-scratch :meth:`Solver.check` of the full list share one
      cache key and one (deterministic) answer;
    * once leaf-equality classes merge (``uf.merges > 0``), per-atom
      domain updates stop being exact and the context marks itself
      ``dirty``; the next check re-propagates everything from
      ``residual``, restoring class-wide domain intersection.
    """

    __slots__ = (
        "covered",
        "residual",
        "canon_set",
        "canon_list",
        "leaves",
        "domains",
        "members",
        "uf",
        "conflict",
        "dirty",
        "ors",
        "notands",
    )

    def __init__(self) -> None:
        self.covered = 0
        self.residual: List[Any] = []
        self.canon_set: Set[str] = set()
        self.canon_list: List[str] = []
        self.leaves: Set[Sym] = set()
        self.domains: Dict[str, _Domain] = {}
        self.members: Dict[str, bool] = {}
        self.uf = _UnionFind()
        self.conflict = False
        self.dirty = False
        #: Watched complement shapes: asserted ``or``/``not(and ..)``
        #: conjuncts whose syntactic refutation may be completed by a
        #: later atom (see _absorb_piece); a ``not(and ..)`` as its
        #: flattened conjuncts' canonical keys.
        self.ors: List[SApp] = []
        self.notands: List[Tuple[str, ...]] = []

    def copy(self) -> "SolverContext":
        out = SolverContext.__new__(SolverContext)
        out.covered = self.covered
        out.residual = list(self.residual)
        out.canon_set = set(self.canon_set)
        out.canon_list = list(self.canon_list)
        out.leaves = set(self.leaves)
        out.domains = {k: d.copy() for k, d in self.domains.items()}
        out.members = dict(self.members)
        out.uf = self.uf.copy()
        out.conflict = self.conflict
        out.dirty = self.dirty
        out.ors = list(self.ors)
        out.notands = list(self.notands)
        return out


class Solver:
    """A deterministic propagate-and-sample constraint solver."""

    def __init__(
        self,
        seed: int = 0,
        max_samples: int = DEFAULT_MAX_SAMPLES,
        cache: Union[ConstraintCache, bool, None] = True,
    ) -> None:
        self.seed = seed
        self.max_samples = max_samples
        #: ``True`` → the shared process-wide cache; ``False``/``None``
        #: → caching off; a ConstraintCache instance → use that one.
        if cache is True:
            self.cache: Optional[ConstraintCache] = _GLOBAL_CACHE
        elif cache is False or cache is None:
            self.cache = None
        else:
            self.cache = cache
        #: Per-check latency histogram; its count doubles as the old
        #: ``checks`` counter (kept below as a compatibility property).
        self.check_hist = Histogram("solver.check_seconds", buckets=TIME_BUCKETS)
        self.sat_hits = 0
        self.unsat_hits = 0
        self.unknown_hits = 0
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def checks(self) -> int:
        """Number of ``check()`` calls (compatibility view of the histogram)."""
        return self.check_hist.count

    # -- public -----------------------------------------------------------

    def check(self, constraints: Sequence[Any]) -> SolverResult:
        """Decide satisfiability of a conjunction of symbolic booleans.

        Every call is timed into ``check_hist`` and, when an ambient
        metrics registry is installed (:mod:`repro.obs.metrics`), into
        the ``solver.checks`` counter / ``solver.check_seconds``
        histogram plus a per-status counter.
        """
        t0 = time.perf_counter()
        ctx = SolverContext()
        for c in constraints:
            self._absorb(ctx, c)
            if ctx.conflict:
                break
        return self._finish(ctx, t0)

    def context(self) -> SolverContext:
        """A fresh (empty-prefix) incremental context."""
        return SolverContext()

    def check_extended(
        self,
        prefix: Sequence[Any],
        ctx: SolverContext,
        extra: Any,
    ) -> Tuple[SolverResult, SolverContext]:
        """Check ``prefix + [extra]`` by extending an incremental context.

        ``ctx`` is caught up in place over any raw constraints appended
        to ``prefix`` since it was last used; the returned child context
        covers ``prefix + [extra]`` and can be installed on the state
        that commits ``extra`` to its path condition.
        """
        t0 = time.perf_counter()
        if not ctx.conflict:
            for c in prefix[ctx.covered:]:
                self._absorb(ctx, c)
                if ctx.conflict:
                    break
        ctx.covered = len(prefix)
        child = ctx.copy()
        if not child.conflict:
            self._absorb(child, extra)
        child.covered += 1
        return self._finish(child, t0), child

    def model(self, constraints: Sequence[Any]) -> Optional[Assignment]:
        """A concrete witness for the constraints, or None."""
        result = self.check(constraints)
        return result.assignment if result.status == "sat" else None

    def absorb_into(self, ctx: SolverContext, constraints: Sequence[Any]) -> None:
        """Fold ``constraints`` into ``ctx`` in order (stops on conflict).

        Lets a caller build a reusable propagated base for a shared
        constraint prefix — ``push_space`` absorbs its input space once
        for every table entry (:meth:`check_assuming`).
        """
        for c in constraints:
            if ctx.conflict:
                return
            self._absorb(ctx, c)

    def check_assuming(self, ctx: SolverContext, extras: Sequence[Any]) -> SolverResult:
        """Decide ``ctx``'s absorbed conjunction extended by ``extras``.

        ``ctx`` is left untouched (the check runs on a copy), so one
        propagated prefix can serve any number of assumption probes.
        The result — status and assignment — is identical to
        :meth:`check` on the full list, since absorption order is
        prefix-then-extras either way; ``push_space`` carries the
        assignment as its outputs' witness on that basis.
        """
        t0 = time.perf_counter()
        child = ctx.copy()
        self.absorb_into(child, extras)
        return self._finish(child, t0)

    # -- incremental absorption -------------------------------------------

    def _absorb(self, ctx: SolverContext, c: Any) -> None:
        """Fold one raw constraint into the context (expand + propagate)."""
        if isinstance(c, bool):
            if not c:
                ctx.conflict = True
            return
        if is_concrete(c):
            if not c:
                ctx.conflict = True
            return
        pieces: List[Any] = []
        _expand_conjunction(c, pieces)
        for piece in pieces:
            self._absorb_piece(ctx, piece)
            if ctx.conflict:
                return

    def _absorb_piece(self, ctx: SolverContext, piece: Any) -> None:
        if isinstance(piece, bool) or is_concrete(piece):
            if not piece:
                ctx.conflict = True
            return
        if not sym_vars(piece):
            # Leaf-free tree (e.g. after substitution): decidable by
            # direct evaluation.
            if not _eval_bool(piece, {}):
                ctx.conflict = True
            return
        key = canon(piece)
        if key in ctx.canon_set:
            return  # structurally identical conjunct already absorbed

        # Syntactic complement detection, incremental form: adding this
        # piece refutes the set iff (a) its negated twin is present,
        # (b) it completes an ``or``/``not(and ..)`` complement — its
        # own shape against the set, or a previously watched shape.
        negated = mk_app("not", piece)
        if not isinstance(negated, bool) and canon(negated) in ctx.canon_set:
            ctx.conflict = True
            return

        ctx.canon_set.add(key)
        ctx.canon_list.append(key)
        ctx.residual.append(piece)

        if isinstance(piece, SApp) and piece.op == "not":
            inner = piece.args[0]
            if isinstance(inner, SApp) and inner.op == "and":
                # Flattened the way asserted conjunctions are, once, so
                # ``not(and(and(a, b), c))`` is refuted by ``a, b, c``.
                # A literal False conjunct makes the piece a tautology.
                conjuncts: List[Any] = []
                _expand_conjunction(inner, conjuncts)
                if not any(a is False for a in conjuncts):
                    ctx.notands.append(
                        tuple(canon(a) for a in conjuncts if a is not True)
                    )
        elif isinstance(piece, SApp) and piece.op == "or":
            ctx.ors.append(piece)
        if self._complement_watch(ctx):
            ctx.conflict = True
            return

        new_leaves = sym_vars(piece) - ctx.leaves
        for leaf in new_leaves:
            ctx.leaves.add(leaf)
            if isinstance(leaf, SVar):
                ctx.domains[leaf_key(leaf)] = _Domain(
                    leaf.lo, leaf.hi, boolean=leaf.boolean
                )
            elif isinstance(leaf, SDictVal):
                ctx.domains[leaf_key(leaf)] = _Domain(0, (1 << 32) - 1)
            # member atoms handled separately

        if ctx.dirty:
            # Equality classes already merged: single-atom updates are
            # no longer exact.  Leave propagation to the next check's
            # full rebuild (_repropagate).
            return
        merges_before = ctx.uf.merges
        if not self._propagate_one(piece, ctx.domains, ctx.members, ctx.uf):
            ctx.conflict = True
            return
        if ctx.uf.merges != merges_before or ctx.uf.merges:
            # A class merged (or had merged before): class-wide domain
            # intersection is pending — fall back to full propagation.
            ctx.dirty = True

    def _complement_watch(self, ctx: SolverContext) -> bool:
        """True when a watched ``or``/``not(and ..)`` shape is refuted."""
        for conjuncts in ctx.notands:
            if all(key in ctx.canon_set for key in conjuncts):
                return True
        for watched in ctx.ors:
            negs = [mk_app("not", a) for a in watched.args]
            if all(
                (isinstance(n, bool) and not n) or (canon(n) in ctx.canon_set)
                for n in negs
            ):
                return True
        return False

    def _repropagate(self, ctx: SolverContext) -> None:
        """Full re-propagation of ``ctx.residual`` (the merge fallback)."""
        domains, members, uf, conflict = self._propagate(ctx.residual, ctx.leaves)
        ctx.domains, ctx.members, ctx.uf = domains, members, uf
        ctx.dirty = False
        if conflict:
            ctx.conflict = True

    # -- finishing a check -------------------------------------------------

    def _finish(self, ctx: SolverContext, t0: float) -> SolverResult:
        result = self._decide(ctx)
        elapsed = time.perf_counter() - t0
        self.check_hist.observe(elapsed)
        registry = obs_metrics.active()
        if registry.enabled:
            registry.counter("solver.checks").inc()
            registry.counter(f"solver.{result.status}").inc()
            registry.histogram("solver.check_seconds", TIME_BUCKETS).observe(elapsed)
        return result

    def _decide(self, ctx: SolverContext) -> SolverResult:
        if ctx.conflict:
            self.unsat_hits += 1
            return SolverResult("unsat")
        if not ctx.residual:
            self.sat_hits += 1
            return SolverResult("sat", {})

        key = None
        if self.cache is not None:
            key = (self.seed, self.max_samples, tuple(ctx.canon_list))
            entry = self.cache.get(key)
            if entry is not None:
                self.cache_hits += 1
                registry = obs_metrics.active()
                if registry.enabled:
                    registry.counter("solver.cache_hits").inc()
                status, assignment = entry
                self._count_status(status)
                return SolverResult(
                    status,
                    dict(assignment) if assignment is not None else None,
                    cached=True,
                )
            self.cache_misses += 1
            registry = obs_metrics.active()
            if registry.enabled:
                registry.counter("solver.cache_misses").inc()

        if ctx.dirty:
            self._repropagate(ctx)
            if ctx.conflict:
                # Deterministic per key: a rebuilt-and-conflicting
                # context is unsat however it was reached.
                if key is not None:
                    self.cache.put(key, "unsat", None)
                self.unsat_hits += 1
                return SolverResult("unsat")
        for dom in ctx.domains.values():
            if not dom.consistent():
                if key is not None:
                    self.cache.put(key, "unsat", None)
                self.unsat_hits += 1
                return SolverResult("unsat")

        witness = self._search(ctx.residual, ctx.leaves, ctx.domains, ctx.members, ctx.uf)
        if witness is not None:
            if key is not None:
                self.cache.put(key, "sat", witness)
            self.sat_hits += 1
            return SolverResult("sat", witness)
        if key is not None:
            self.cache.put(key, "unknown", None)
        self.unknown_hits += 1
        return SolverResult("unknown")

    def _count_status(self, status: str) -> None:
        if status == "sat":
            self.sat_hits += 1
        elif status == "unsat":
            self.unsat_hits += 1
        else:
            self.unknown_hits += 1

    # -- propagation ------------------------------------------------------

    def _propagate(
        self, constraints: List[Any], leaves: Set[Sym]
    ) -> Tuple[Dict[str, _Domain], Dict[str, bool], _UnionFind, bool]:
        domains: Dict[str, _Domain] = {}
        for leaf in leaves:
            if isinstance(leaf, SVar):
                domains[leaf_key(leaf)] = _Domain(leaf.lo, leaf.hi, boolean=leaf.boolean)
            elif isinstance(leaf, SDictVal):
                domains[leaf_key(leaf)] = _Domain(0, (1 << 32) - 1)
            # member atoms handled separately

        members: Dict[str, bool] = {}
        uf = _UnionFind()

        for c in constraints:
            if not self._propagate_one(c, domains, members, uf):
                return domains, members, uf, True

        # Merge domains across equality classes.
        roots: Dict[str, List[str]] = {}
        for key in domains:
            roots.setdefault(uf.find(key), []).append(key)
        for keys in roots.values():
            if len(keys) < 2:
                continue
            lo = max(domains[k].lo for k in keys)
            hi = min(domains[k].hi for k in keys)
            forbidden: Set[int] = set()
            for k in keys:
                forbidden |= domains[k].forbidden
            for k in keys:
                domains[k].lo, domains[k].hi = lo, hi
                domains[k].forbidden = forbidden
                if not domains[k].consistent():
                    return domains, members, uf, True

        for dom in domains.values():
            if not dom.consistent():
                return domains, members, uf, True
        return domains, members, uf, False

    def _propagate_one(
        self,
        c: Any,
        domains: Dict[str, _Domain],
        members: Dict[str, bool],
        uf: _UnionFind,
    ) -> bool:
        """Absorb one constraint; returns False on direct conflict."""
        if isinstance(c, SApp) and c.op == "member":
            key = leaf_key(c)
            if members.get(key) is False:
                return False
            members[key] = True
            return True
        if isinstance(c, SApp) and c.op == "not":
            inner = c.args[0]
            if isinstance(inner, SApp) and inner.op == "member":
                key = leaf_key(inner)
                if members.get(key) is True:
                    return False
                members[key] = False
            return True
        if isinstance(c, SApp) and c.op == "or":
            # Harvest equality disjuncts as sampling suggestions.
            for arm in c.args:
                if isinstance(arm, SApp) and arm.op == "==":
                    left, right = arm.args
                    if _is_leaf(right) and isinstance(left, (int, bool)):
                        left, right = right, left
                    if _is_leaf(left) and isinstance(right, (int, bool)):
                        dom = domains.get(leaf_key(left))
                        if dom is not None:
                            dom.suggestions.add(int(right))
            return True
        if isinstance(c, (SVar, SDictVal)):
            dom = domains.get(leaf_key(c))
            if dom is not None and dom.boolean:
                return dom.pin(1)
            return True
        if not isinstance(c, SApp) or c.op not in _FLIP:
            return True

        left, right = c.args
        op = c.op
        # Mask-equality hint: (leaf & M) == C — guide sampling to values
        # whose masked bits equal C (subnet matches, flag tests).
        if op == "==":
            for a, b in ((left, right), (right, left)):
                if (
                    isinstance(a, SApp)
                    and a.op == "&"
                    and isinstance(b, int)
                    and len(a.args) == 2
                ):
                    base, mask = a.args
                    if isinstance(mask, int) and _is_leaf(base):
                        dom = domains.get(leaf_key(base))
                        if dom is not None:
                            if (b & ~mask) != 0:
                                return False  # required bits outside mask
                            dom.masks.append((mask, b))
                        return True
        if _is_leaf(right) and is_concrete(left):
            left, right = right, left
            op = _FLIP[op]
        if not (_is_leaf(left) and is_concrete(right) and isinstance(right, (int, bool))):
            if _is_leaf(left) and _is_leaf(right) and op == "==":
                uf.union(leaf_key(left), leaf_key(right))
            return True

        dom = domains.get(leaf_key(left))
        if dom is None:
            return True
        value = int(right)
        if op == "==":
            return dom.pin(value)
        if op == "!=":
            return dom.exclude(value)
        if op == "<":
            return dom.upper(value - 1)
        if op == "<=":
            return dom.upper(value)
        if op == ">":
            return dom.lower(value + 1)
        if op == ">=":
            return dom.lower(value)
        return True

    # -- witness search -----------------------------------------------------

    def _search(
        self,
        constraints: List[Any],
        leaves: Set[Sym],
        domains: Dict[str, _Domain],
        members: Dict[str, bool],
        uf: _UnionFind,
    ) -> Optional[Assignment]:
        leaf_keys = sorted({leaf_key(l) for l in leaves if not _is_member(l)})
        member_keys = sorted({leaf_key(l) for l in leaves if _is_member(l)})

        # Per-key domain resolution, roots and candidate pools computed
        # once per search: domains are immutable while sampling, so
        # rebuilding pools inside every draw (the old hot spot — ~50%
        # of solver time) only repeated identical work.
        default_dom = _Domain()
        doms: Dict[str, _Domain] = {}
        roots: Dict[str, str] = {}
        pools: Dict[str, List[int]] = {}
        for key in leaf_keys:
            root = uf.find(key)
            roots[key] = root
            dom = domains.get(key) or domains.get(root) or default_dom
            doms[key] = dom
            pools[key] = dom.sample_pool()

        groups = _dict_groups(leaves)

        # Representative-per-class assignment honouring the union-find.
        # Member atoms that propagation left free take ``draw_member()``.
        def assign(draw, draw_member) -> Assignment:
            by_root: Dict[str, int] = {}
            assignment: Assignment = {}
            for key in leaf_keys:
                root = roots[key]
                if root not in by_root:
                    by_root[root] = draw(key, doms[key])
                assignment[key] = by_root[root]
            for key in member_keys:
                pinned = members.get(key)
                assignment[key] = draw_member() if pinned is None else pinned
            return assignment

        hint = [0]  # see _accepts

        def ok(assignment: Assignment) -> bool:
            return _accepts(constraints, assignment, hint) and (
                _groups_consistent(groups, assignment)
            )

        # Attempt 1: the deterministic "pool" assignment.
        def pool_draw(key: str, dom: _Domain) -> int:
            pool = pools[key]
            value = pool[0] if pool else dom.lo
            return dom.apply_masks(value)

        candidate = assign(pool_draw, lambda: False)
        if ok(candidate):
            return candidate

        # Randomized attempts, seeded deterministically.  The seed is a
        # function of the canonical conjunct set only (leaf keys +
        # residual size), so any two checks of the same set — plain,
        # incremental or cached — draw identical samples.
        rng = random.Random((self.seed, len(constraints), tuple(leaf_keys)).__repr__())

        def rand_draw(key: str, dom: _Domain) -> int:
            if dom.boolean:
                return rng.randint(0, 1)
            pool = pools[key]
            if pool and rng.random() < 0.5:
                return dom.apply_masks(rng.choice(pool))
            span = dom.hi - dom.lo
            if span <= 0:
                return dom.apply_masks(dom.lo)
            for _ in range(4):
                value = dom.apply_masks(dom.lo + rng.randint(0, span))
                if value not in dom.forbidden and dom.lo <= value <= dom.hi:
                    return value
            return dom.apply_masks(dom.lo)

        def rand_member() -> bool:
            return rng.random() < 0.5

        for _ in range(self.max_samples):
            candidate = assign(rand_draw, rand_member)
            if ok(candidate):
                return candidate
        return None


def _accepts(constraints: List[Any], assignment: Assignment, hint: List[int]) -> bool:
    """Whether every conjunct holds under ``assignment``.

    ``hint[0]`` is the index of the conjunct that rejected the previous
    candidate of the same search.  It is evaluated first, because it is
    the likeliest to reject this candidate too, and each rejection
    moves it.  :func:`_eval_bool` is pure, so the order changes what a
    check costs, never what it answers.
    """
    first = hint[0]
    if constraints and not _eval_bool(constraints[first], assignment):
        return False
    for i, c in enumerate(constraints):
        if i != first and not _eval_bool(c, assignment):
            hint[0] = i
            return False
    return True


def _eval_bool(c: Any, assignment: Assignment) -> bool:
    """``bool(eval_sym(...))`` with evaluation failures counting as False.

    A sampled candidate can drive a concrete fold outside its partial
    function's domain — e.g. a ``getitem`` whose index draw exceeds the
    tuple it indexes (deep NF compositions substitute free index
    expressions into concrete backend tuples).  Such a candidate does
    not satisfy the constraint; rejecting it is the correct and
    deterministic outcome, crashing the check is not.
    """
    try:
        return bool(eval_sym(c, assignment))
    except Exception:
        return False


def consistent_witness(leaves: Iterable[Sym], assignment: Assignment) -> bool:
    """True when some dict state realizes ``assignment`` over ``leaves``.

    Two ``member`` atoms of one dict whose keys evaluate equal must
    carry the same value; so must two value leaves ``d[k1]`` and
    ``d[k2]`` with the same component path.  Leaves are evaluated with
    :func:`eval_sym`, so unassigned ones take its defaults (``0`` /
    ``False``) — the same values a caller evaluating a constraint on a
    partial witness relies on.
    """
    return _groups_consistent(_dict_groups(leaves), assignment)


def _dict_groups(leaves: Iterable[Sym]) -> List[List[Tuple[Any, Sym]]]:
    """``(key expression, leaf)`` pairs that may name one dict slot.

    ``member`` atoms group by dict, value leaves by dict and component
    path; only groups of two or more can disagree, so only those are
    kept.
    """
    slots: Dict[Tuple[Any, ...], List[Tuple[Any, Sym]]] = {}
    for leaf in leaves:
        if isinstance(leaf, SDictVal):
            if leaf.key is not None:
                slot = ("value", leaf.dict_name, leaf.path)
                slots.setdefault(slot, []).append((leaf.key, leaf))
        elif _is_member(leaf):
            slots.setdefault(("member", leaf.args[0]), []).append((leaf.args[1], leaf))
    return [group for group in slots.values() if len(group) > 1]


def _groups_consistent(
    groups: List[List[Tuple[Any, Sym]]], assignment: Assignment
) -> bool:
    for group in groups:
        seen: Dict[Any, Any] = {}
        for key_expr, leaf in group:
            try:
                key = eval_sym(key_expr, assignment)
                value = eval_sym(leaf, assignment)
                if seen.setdefault(key, value) != value:
                    return False
            except Exception:
                continue  # an unevaluable or unhashable key names no slot
    return True


def _expand_conjunction(c: Any, out: List[Any]) -> None:
    """Flatten asserted conjunctions (and de-Morgan'd disjunctions)."""
    if isinstance(c, SApp) and c.op == "and":
        for a in c.args:
            _expand_conjunction(a, out)
        return
    if isinstance(c, SApp) and c.op == "not":
        inner = c.args[0]
        if isinstance(inner, SApp) and inner.op == "or":
            for a in inner.args:
                _expand_conjunction(mk_app("not", a), out)
            return
    out.append(c)


def _is_leaf(value: Any) -> bool:
    return isinstance(value, (SVar, SDictVal))


def _is_member(leaf: Sym) -> bool:
    return isinstance(leaf, SApp) and leaf.op == "member"
