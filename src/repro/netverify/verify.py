"""Graph verification with a per-edge transfer-summary cache.

The unit of work (and of caching) is the **edge task**: push one input
header space through one node's model.  Its result — the symbolic
output spaces with their accumulated state predicates — depends only on

* the node's model (content-addressed by :attr:`GraphNode.model_key`),
* the node's state namespace, and
* the input space itself (canonically printed fields, plus the rolling
  digest of its ordered constraints that each space carries),

so the summary is memoized in the artifact store under the ``edge``
kind keyed on exactly that material.  A summary stores only what its
edge added to each output (field updates, guard conjuncts, trace
delta, decided flag, the output's constraint digest and its witness),
and the store's memory tier keeps it decoded, so a hit costs a dict
merge and a list concatenation however long the path behind it.
Consequences:

* **warm re-verification is pure lookup** — no solver call runs: each
  output space carries its last guard check's assignment, which is
  the verdict's witness for it;
* **incremental re-verify is automatic** — editing one NF (or rewiring
  upstream topology) changes that node's ``model_key`` (or its input
  fingerprints), so precisely the edges downstream of the dirty node
  miss and recompute, while untouched branches keep hitting.  There is
  no explicit invalidation: stale summaries are simply unreachable;
* **cluster shards share warmth** — the ``edge`` tier rides the same
  CAS framing as every other artifact kind, so shards peer-fill each
  other's summaries (docs/internals.md §13).

Determinism (byte-identity across cache on/off/warm and sequential vs
parallel exploration) holds because summaries record *what the solver
decided*, never *how long it took*: nodes are processed in sorted
topological-level order, a node's inputs are gathered in (level, node
name) arrival order, entries are scanned in model order, and the
parallel path only relocates :func:`compute_edge_summary` calls into
worker processes — each is a pure function of its payload (the solver
draws its samples from a seed derived from the constraint set, PR 2).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import cache as artifact_cache
from repro.apps.verify import HeaderSpace, push_space, witness_pairs
from repro.cache.keys import stable_fingerprint
from repro.netverify.graph import ServiceGraph
from repro.obs import metrics as obs_metrics
from repro.symbolic.expr import canon
from repro.symbolic.solver import Solver

#: Bump to invalidate every persisted edge summary (layout changes).
#: 2: each output carries its guard check's decided flag.
#: 3: outputs store only what the edge added, plus their constraint
#:    digest and witness; keys use the input's digest.
EDGE_SUMMARY_VERSION = 3

#: ``repro verify`` / ``repro verify-graph`` exit status per verdict
#: status (2 stays argparse's usage error).
EXIT_CODES = {"reaches": 0, "blackholed": 1, "may-reach": 3, "incomplete": 4}


def space_fingerprint(space: HeaderSpace) -> str:
    """Canonical content identity of one header space.

    Fields are order-insensitive (sorted); constraints are **ordered**
    — the solver absorbs them in sequence and derives its witness
    samples from the ordered canon tuple, so two spaces with permuted
    constraints are distinct cache keys (identical results would not be
    guaranteed byte-for-byte).  They enter through the space's rolling
    digest, a function of the ordered canon list alone, so the key
    costs O(fields) however long the list.  The trace, the decided flag
    and the witness are deliberately excluded: none influences the
    transfer function (:meth:`EdgeSummary.apply` re-applies the input's
    own trace and flag).  The sorted fields are joined into one
    NUL-separated string (names and ``canon`` prints hold no NUL), which
    encodes in one step rather than two per field.
    """
    fields = "\0".join(
        f"{k}\0{canon(v)}" for k, v in sorted(space.fields.items())
    )
    return stable_fingerprint((fields, space.digest))


def edge_key(model_key: str, ns: str, space: HeaderSpace) -> str:
    """The artifact-store key of one edge task's summary."""
    return artifact_cache.artifact_key(
        "edge",
        (EDGE_SUMMARY_VERSION, model_key, ns, space_fingerprint(space)),
    )


@dataclass(frozen=True)
class EdgeSummary:
    """Memoized outputs of one edge task.

    Each output is ``(field updates, guard conjuncts, trace delta,
    decided, constraint digest, witness)``: only what the edge added to
    its input — the ``(name, value)`` pairs it rewrote, the conjuncts it
    appended, its ``(nf, entry_id)`` hops, the guard check's own
    decided flag (two inputs identical up to trace and flag share one
    summary) — plus the output's digest and witness
    (:class:`HeaderSpace`).  Everything is tuples of symbolic trees, so
    a summary is an immutable value: the store's memory tier hands the
    same object to every hit, and :meth:`apply` copies what it hands
    out.
    """

    outputs: Tuple[Tuple[Any, ...], ...]

    def apply(self, space: HeaderSpace) -> List[HeaderSpace]:
        """Materialize output spaces downstream of ``space``."""
        return [
            HeaderSpace(
                fields={**space.fields, **dict(updates)},
                constraints=space.constraints + list(guard),
                trace=space.trace + list(delta),
                decided=space.decided and decided,
                digest=digest,
                witness=witness,
            )
            for updates, guard, delta, decided, digest, witness in self.outputs
        ]


def compute_edge_summary(
    model: Any, ns: str, space: HeaderSpace, solver: Solver
) -> EdgeSummary:
    """Run the transfer function for one edge task (the cache filler)."""
    # Pushed with an empty trace and a decided flag, so the outputs
    # carry exactly this edge's trace delta and guard-check flags.
    probe = HeaderSpace(
        fields=space.fields, constraints=space.constraints, digest=space.digest
    )
    n = len(space.constraints)
    return EdgeSummary(
        outputs=tuple(
            (
                # push_space copies the fields it does not rewrite by
                # reference, so these are exactly its rewrites.
                tuple(
                    (k, v) for k, v in out.fields.items()
                    if space.fields.get(k) is not v
                ),
                tuple(out.constraints[n:]),
                tuple(out.trace),
                out.decided,
                out.digest,
                out.witness,
            )
            for out in push_space(model, probe, ns, solver)
        )
    )


@dataclass
class GraphVerifyConfig:
    """Knobs of one verification run.

    Everything here is perf-only except ``max_spaces_per_node``, which
    caps the header-space fan-in a node will push (deterministic
    truncation of the arrival-ordered list; any truncation makes the
    verdict ``incomplete``, with per-node counts in
    :attr:`VerifyStats.node_truncated`).  The cap is applied when a
    node *gathers* its inputs, so it is not part of the edge key.
    """

    #: Consult/fill the artifact store's ``edge`` tier.
    use_cache: bool = True
    #: Worker processes for edge tasks within one topological level
    #: (1 = in-process; results are byte-identical either way).
    jobs: int = 1
    #: Per-node input-space cap (see class docstring).
    max_spaces_per_node: int = 64
    #: Concrete witness packets extracted from reaching spaces.
    max_witnesses: int = 8
    #: Thread the process-global solver constraint cache through edge
    #: computations (off = every check pays full price; benchmarks use
    #: this to keep cold/warm timings honest).
    solver_cache: bool = True


@dataclass
class VerifyStats:
    """What one run did (only :attr:`node_truncated` is in the verdict bytes)."""

    #: Edge tasks (one per input space per node), not graph edges.
    edges: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Edge tasks actually recomputed (== misses when the cache is on;
    #: every edge when it is off).
    dirty_edges: int = 0
    truncated_spaces: int = 0
    #: Input spaces dropped per node by ``max_spaces_per_node``.  A
    #: function of graph and models alone, so it is part of the verdict.
    node_truncated: Dict[str, int] = field(default_factory=dict)
    #: Solver ``unknown`` answers in the edge tasks this run computed
    #: (cache hits run no solver).
    solver_unknowns: int = 0
    elapsed_s: float = 0.0
    #: Per-node hit/recompute counts (dirty-region introspection).
    node_hits: Dict[str, int] = field(default_factory=dict)
    node_dirty: Dict[str, int] = field(default_factory=dict)


def _space_payload(space: HeaderSpace) -> Dict[str, Any]:
    """The canonical JSON view of one header space (verdict bytes)."""
    return {
        "fields": {k: canon(v) for k, v in sorted(space.fields.items())},
        "constraints": [canon(c) for c in space.constraints],
        "trace": [[nf, entry_id] for nf, entry_id in space.trace],
        "decided": space.decided,
    }


@dataclass
class GraphVerdict:
    """The outcome of one graph verification.

    :meth:`to_json` is the canonical serialization the byte-identity
    guarantees are stated over: it covers the graph fingerprint, the
    status, the per-node truncation counts, the reachable spaces per
    sink and the witnesses — and excludes the rest of :attr:`stats`,
    which legitimately varies across cache states.
    """

    graph_fingerprint: str
    #: Reachable spaces per sink node name (sorted sink order).
    reachable: Dict[str, List[HeaderSpace]]
    #: Concrete witness assignments, one per reaching space (capped).
    witnesses: List[Dict[str, Any]]
    stats: VerifyStats = field(default_factory=VerifyStats)

    @property
    def n_spaces(self) -> int:
        return sum(len(spaces) for spaces in self.reachable.values())

    @property
    def can_reach(self) -> bool:
        return any(self.reachable.values())

    @property
    def complete(self) -> bool:
        return not self.stats.node_truncated

    @property
    def status(self) -> str:
        """``incomplete`` (some node dropped spaces at its cap, so nothing
        is proven), else ``reaches`` (a decided space reaches a sink),
        ``may-reach`` (only spaces resting on a solver ``unknown`` do)
        or ``blackholed``."""
        if not self.complete:
            return "incomplete"
        spaces = [s for ss in self.reachable.values() for s in ss]
        if any(s.decided for s in spaces):
            return "reaches"
        return "may-reach" if spaces else "blackholed"

    def to_json(self) -> str:
        payload = {
            "graph": self.graph_fingerprint,
            "status": self.status,
            "complete": self.complete,
            "truncated": dict(sorted(self.stats.node_truncated.items())),
            "can_reach": self.can_reach,
            "n_spaces": self.n_spaces,
            "sinks": {
                sink: [_space_payload(s) for s in spaces]
                for sink, spaces in self.reachable.items()
            },
            "witnesses": self.witnesses,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def traces(self, limit: int = 10) -> List[List[Tuple[str, int]]]:
        """The first ``limit`` end-to-end traces across all sinks."""
        out: List[List[Tuple[str, int]]] = []
        for sink in sorted(self.reachable):
            for space in self.reachable[sink]:
                out.append(list(space.trace))
                if len(out) >= limit:
                    return out
        return out

    def summary(self) -> str:
        s = self.stats
        lines = [
            f"graph {self.graph_fingerprint[:12]}: {self.status} "
            f"({self.n_spaces} space(s) across {len(self.reachable)} sink(s)); "
            f"{s.edges} edge tasks, {s.cache_hits} cache hits, "
            f"{s.dirty_edges} recomputed, {s.solver_unknowns} solver unknown(s), "
            f"{s.elapsed_s * 1000:.1f} ms"
        ]
        if s.node_truncated:
            dropped = ", ".join(
                f"{node} {n}" for node, n in sorted(s.node_truncated.items())
            )
            lines.append(
                f"  incomplete: {s.truncated_spaces} input space(s) dropped "
                f"at the per-node cap ({dropped})"
            )
        lines.append(
            "  state leaves are free: a reaching space holds for some NF "
            "state, not every one"
        )
        return "\n".join(lines)


class GraphVerifier:
    """Forward reachability over a :class:`ServiceGraph` (see module doc)."""

    def __init__(
        self,
        graph: ServiceGraph,
        solver: Optional[Solver] = None,
        config: Optional[GraphVerifyConfig] = None,
    ) -> None:
        self.graph = graph
        self.config = config or GraphVerifyConfig()
        self.solver = solver or Solver(cache=self.config.solver_cache)

    # -- internals ----------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        registry = obs_metrics.active()
        if registry.enabled:
            registry.counter(name).inc(n)

    def _lookup(self, key: str) -> Optional[EdgeSummary]:
        hit = artifact_cache.get_store().get_object("edge", key)
        if isinstance(hit, EdgeSummary) and isinstance(hit.outputs, tuple):
            return hit
        return None

    # -- public -------------------------------------------------------------

    def verify(self, space: Optional[HeaderSpace] = None) -> GraphVerdict:
        """Push ``space`` (default: all packets) through the whole DAG."""
        t0 = time.perf_counter()
        config = self.config
        stats = VerifyStats()
        unknowns_before = self.solver.unknown_hits
        init = space or HeaderSpace.universe()
        store = artifact_cache.get_store()
        use_cache = config.use_cache and store.enabled

        inbox: Dict[str, List[HeaderSpace]] = {
            name: [] for name in self.graph.nodes
        }
        for source in self.graph.sources():
            inbox[source].append(init)
        outputs: Dict[str, List[HeaderSpace]] = {}

        for level in self.graph.topo_levels():
            # Phase 1: gather inputs, serve cache hits, collect misses.
            pending: List[Tuple[str, int, HeaderSpace, Optional[str]]] = []
            served: Dict[Tuple[str, int], List[HeaderSpace]] = {}
            for name in level:
                node = self.graph.nodes[name]
                inputs = inbox[name]
                dropped = len(inputs) - config.max_spaces_per_node
                if dropped > 0:
                    stats.truncated_spaces += dropped
                    stats.node_truncated[name] = dropped
                    inputs = inputs[: config.max_spaces_per_node]
                for idx, inp in enumerate(inputs):
                    stats.edges += 1
                    key: Optional[str] = None
                    if use_cache:
                        key = edge_key(node.model_key, node.ns, inp)
                        summary = self._lookup(key)
                        if summary is not None:
                            stats.cache_hits += 1
                            stats.node_hits[name] = (
                                stats.node_hits.get(name, 0) + 1
                            )
                            served[(name, idx)] = summary.apply(inp)
                            continue
                        stats.cache_misses += 1
                    stats.dirty_edges += 1
                    stats.node_dirty[name] = stats.node_dirty.get(name, 0) + 1
                    pending.append((name, idx, inp, key))

            # Phase 2: compute the misses — in worker processes when
            # asked, in-process otherwise.  Same bytes either way.
            if config.jobs > 1 and len(pending) > 1:
                from repro.parallel import compute_edge_summaries

                payloads = [
                    (
                        self.graph.nodes[name].model,
                        self.graph.nodes[name].ns,
                        inp,
                        config.solver_cache,
                    )
                    for name, _idx, inp, _key in pending
                ]
                summaries = []
                for summary, unknowns in compute_edge_summaries(payloads, config.jobs):
                    summaries.append(summary)
                    stats.solver_unknowns += unknowns
            else:
                summaries = [
                    compute_edge_summary(
                        self.graph.nodes[name].model, self.graph.nodes[name].ns,
                        inp, self.solver,
                    )
                    for name, _idx, inp, _key in pending
                ]
            for (name, idx, inp, key), summary in zip(pending, summaries):
                if key is not None:
                    store.put_object("edge", key, summary)
                served[(name, idx)] = summary.apply(inp)

            # Phase 3: deterministic merge + fan-out to successors.
            for name in level:
                outs: List[HeaderSpace] = []
                idx = 0
                while (name, idx) in served:
                    outs.extend(served[(name, idx)])
                    idx += 1
                outputs[name] = outs
                for dst in self.graph.successors(name):
                    inbox[dst].extend(outs)

        stats.solver_unknowns += self.solver.unknown_hits - unknowns_before
        reachable = {sink: outputs.get(sink, []) for sink in self.graph.sinks()}
        witnesses = self._witnesses(reachable, config.max_witnesses)
        stats.elapsed_s = time.perf_counter() - t0
        self._count("verify.edges", stats.edges)
        self._count("verify.cache.hits", stats.cache_hits)
        self._count("verify.cache.misses", stats.cache_misses)
        self._count("verify.dirty_edges", stats.dirty_edges)
        return GraphVerdict(
            graph_fingerprint=self.graph.fingerprint(),
            reachable=reachable,
            witnesses=witnesses,
            stats=stats,
        )

    def _witnesses(
        self, reachable: Dict[str, List[HeaderSpace]], cap: int
    ) -> List[Dict[str, Any]]:
        """Concrete witness packets for the first ``cap`` reaching spaces.

        Each space carries its last guard check's assignment, which a
        from-scratch check of its whole constraint list would return
        too (``Solver.check_assuming``), so witnesses are identical
        whether the spaces came out of the cache or a live computation.
        Only a space that has passed no hop is checked here.
        """
        out: List[Dict[str, Any]] = []
        for sink in sorted(reachable):
            for space in reachable[sink]:
                if len(out) >= cap:
                    return out
                witness = space.witness
                if witness is None and not space.trace:
                    witness = witness_pairs(self.solver.check(space.constraints))
                if witness is None:
                    continue
                out.append(
                    {
                        "sink": sink,
                        "trace": [[nf, e] for nf, e in space.trace],
                        "assignment": dict(witness),
                    }
                )
        return out


def verdict_payload(
    verdict: GraphVerdict,
    graph: ServiceGraph,
    max_traces: int = 10,
    max_witnesses: int = 8,
    chain: Optional[List[str]] = None,
) -> Dict[str, Any]:
    """The JSON envelope ``repro verify``, ``repro verify-graph``,
    ``/v1/verify`` and ``/v1/verify_graph`` answer with (``chain``, the
    NF names of a path graph, only for the two chain entry points).

    ``n_edges`` counts the graph's edges; ``cache.edges`` counts the
    run's edge tasks (one per input space per node)."""
    stats = verdict.stats
    payload: Dict[str, Any] = {
        "graph": verdict.graph_fingerprint,
        "n_nodes": graph.n_nodes,
        "n_edges": graph.n_edges,
        "sinks": sorted(verdict.reachable),
        "status": verdict.status,
        "complete": verdict.complete,
        "can_reach": verdict.can_reach,
        "n_spaces": verdict.n_spaces,
        "truncated_spaces": stats.truncated_spaces,
        "node_truncated": dict(sorted(stats.node_truncated.items())),
        "solver_unknowns": stats.solver_unknowns,
        "traces": [
            [[name, entry_id] for name, entry_id in trace]
            for trace in verdict.traces(limit=max_traces)
        ],
        "witnesses": verdict.witnesses[:max_witnesses],
        "cache": {
            "edges": stats.edges,
            "hits": stats.cache_hits,
            "misses": stats.cache_misses,
            "dirty_edges": stats.dirty_edges,
        },
    }
    if chain is not None:
        payload["chain"] = chain
    return payload
