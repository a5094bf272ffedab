"""``verify-incremental``: cold graph verification, then single-node edits re-verified.

A replay starts from an empty private artifact directory: the DAG is
verified cold (``pass_s``), then the edit script runs through the
edge-summary tier.  An edit swaps one node's NF for another pool NF
(``ServiceGraph.replace_model``), re-verifies, swaps it back and
re-verifies again; its latency covers both re-verifications.  The
script holds one edit per node (the node's NF replaced by the next NF
of the pool), in an order drawn from the seed; the run replays it as
often as replays fit in its time, at least three times, and each figure
is the median of
an edit's (or the cold verify's) replays, so a stretch of slow machine
time moves a figure only when it covers most replays.

The topology and the edit set are fixed (``generate_graph(8, seed=1,
width=4)``: 8 nodes, 6 graph edges, 72 edge tasks, 1.7-3.5 s cold on
2 CPUs, depending on the machine's load).  Topologies drawn from the seed were not used because their
cold cost ranges from 0.1 s to over 10 s across seeds, and a swap near
the sources dirties a downstream cone costing up to ten times the
median edit, so edit sets drawn from the seed would differ as much;
larger fixed graphs (12 nodes, width 4: 175-305 edge tasks, 3.5-9.5 s
cold) leave no room for replays in a run.  The solver constraint cache
is off, as in the repository's own verification benchmark, so every
edge task pays its solver checks.

Checks: every revert must give back the cold verdict byte for byte
(``GraphVerdict.to_json``), every cold verdict must equal the first,
and, after the timed window, the last swapped graph's verdict must
equal a fresh no-cache recompute.
"""

from __future__ import annotations

import gc
import random
import shutil
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro import obs

from common import (
    Outcome, another_fits, median, more_setup, p99, ratio, self_peak_rss_mb,
)
from tracing import LayerTrace, mean_ms

N_NODES, GRAPH_SEED, WIDTH = 8, 1, 4
MIN_REPLAYS = 3

EDGE, SOLVER = "netverify.edge_compute", "symbolic.solver"
EDGE_GET, EDGE_PUT = "cache.edge.get", "cache.edge.put"
REPLAY = "verify.replay"


def _layer_trace() -> LayerTrace:
    from repro.cache.store import ArtifactStore
    from repro.netverify import verify
    from repro.symbolic.solver import Solver

    def edge_kind(store, kind, *args, **kwargs):
        return kind == "edge"

    trace = LayerTrace()
    trace.wrap(verify, "compute_edge_summary", EDGE)
    trace.wrap(ArtifactStore, "get_object", EDGE_GET, when=edge_kind)
    trace.wrap(ArtifactStore, "put_object", EDGE_PUT, when=edge_kind)
    for method in ("check", "check_extended", "check_assuming"):
        trace.wrap(Solver, method, SOLVER)
    return trace


def _setup():
    """Synthesize the NF pool and build the graph, artifact store off.

    The store is off so that set-up time is synthesis alone, not the
    latency of the disk under the store.
    """
    from repro import cache as artifact_cache
    from repro.netverify import generate_graph
    from repro.netverify.graph import DEFAULT_NF_POOL
    from repro.nfactor.algorithm import synthesize_model_cached, target_artifact_keys
    from repro.nfs import get_nf

    with artifact_cache.override(enabled=False):
        pool = {}
        for nf in DEFAULT_NF_POOL:
            spec = get_nf(nf)
            model = synthesize_model_cached(spec.source, name=spec.name, entry=spec.entry).model
            pool[nf] = (model, target_artifact_keys(spec.source, spec.name, spec.entry)["model"])
        graph = generate_graph(N_NODES, seed=GRAPH_SEED, width=WIDTH)
    return graph, pool


def _verify(graph, use_cache: bool = True):
    from repro.netverify import GraphVerifier, GraphVerifyConfig

    config = GraphVerifyConfig(use_cache=use_cache, solver_cache=False)
    return GraphVerifier(graph, config=config).verify()


def run(seed: int, seconds: float, traced: bool, workdir: Path):
    from repro import cache as artifact_cache

    out = Outcome()
    setup: List[float] = []
    while more_setup(setup):
        t0 = time.perf_counter()
        graph, pool = _setup()
        setup.append(time.perf_counter() - t0)

    nfs = sorted(pool)
    edits = []
    for node in sorted(graph.nodes):
        current = nfs.index(graph.nodes[node].model.name)
        edits.append((node, nfs[(current + 1) % len(nfs)]))
    rng = random.Random(f"verify-incremental:{seed}")
    cold_s: List[float] = []
    replay_s: List[float] = []
    edit_ms: Dict[Tuple[str, str], List[float]] = {edit: [] for edit in edits}
    cold_json: Optional[str] = None
    # Per replay: (edge-cache hits, edges recomputed, bytes written).
    counts: List[Tuple[int, int, int]] = []
    replays: List[Any] = []
    last_swap: Optional[Tuple[str, str, str]] = None

    trace = _layer_trace() if traced else None
    with trace or nullcontext():
        deadline = time.perf_counter() + seconds
        while len(replay_s) < MIN_REPLAYS or another_fits(deadline, replay_s):
            t_replay = time.perf_counter()
            directory = workdir / f"replay-{len(replay_s)}"
            with artifact_cache.override(directory=str(directory), enabled=True), \
                    obs.trace.span(REPLAY) as replay:
                replays.append(replay)
                # As in synth-cold: each timed operation starts from a
                # collected heap, so a full collection falls into it only
                # when its own allocations trigger one.
                gc.collect()
                t0 = time.perf_counter()
                cold = _verify(graph)
                cold_s.append(time.perf_counter() - t0)
                # Every cold verdict repeats the first one exactly.
                if cold_json is None:
                    cold_json, truncated = cold.to_json(), cold.stats.truncated_spaces
                elif cold.to_json() != cold_json:
                    out.failed += 1
                hits = dirty = 0
                for node, nf in rng.sample(edits, len(edits)):
                    original = graph.nodes[node]
                    gc.collect()
                    t0 = time.perf_counter()
                    graph.replace_model(node, *pool[nf])
                    swapped = _verify(graph)
                    graph.replace_model(node, original.model, model_key=original.model_key)
                    reverted = _verify(graph)
                    edit_ms[(node, nf)].append(1000.0 * (time.perf_counter() - t0))
                    out.attempted += 1
                    if reverted.to_json() != cold_json:
                        out.failed += 1
                    for verdict in (swapped, reverted):
                        hits += verdict.stats.cache_hits
                        dirty += verdict.stats.dirty_edges
                    last_swap = (node, nf, swapped.to_json())
                written = artifact_cache.get_store().counters.get("disk.bytes_written", 0)
                counts.append((hits, dirty, written))
            shutil.rmtree(directory, ignore_errors=True)
            replay_s.append(time.perf_counter() - t_replay)
        rss = self_peak_rss_mb()

    # Untimed: the last swapped graph against a fresh no-cache recompute.
    node, nf, swapped_json = last_swap
    original = graph.nodes[node]
    graph.replace_model(node, *pool[nf])
    with artifact_cache.override(enabled=False):
        if _verify(graph, use_cache=False).to_json() != swapped_json:
            out.failed += 1
    graph.replace_model(node, original.model, model_key=original.model_key)

    # Each edit's median over the replays; the script of these medians
    # is the median script, and its edits the latency distribution.
    typical_ms = [median(v) for v in edit_ms.values()]
    n = len(cold_s)
    out.e2e = {
        "setup_s": median(setup),
        "pass_s": median(cold_s),
        "op_p50_ms": median(typical_ms),
        "op_p99_ms": p99(typical_ms),
        "ops_per_s": 1000.0 * len(typical_ms) / sum(typical_ms),
        "peak_rss_mb": rss,
    }
    out.named = {
        "verify_cold_s": (out.e2e["pass_s"], "s"),
        "reverify_total_s": (sum(typical_ms) / 1000.0, "s"),
    }
    out.notes = {"replays": n, "edits": out.attempted, "edge_tasks": cold.stats.edges}
    if traced:
        # Counts come from the first replay, whose edit order the seed
        # fixes, so they repeat exactly; times are means over replays.
        first = replays[0]
        hits, dirty, written = counts[0]
        checks = trace.count(SOLVER, under=first)
        unknown = trace.count(SOLVER, under=first, status="unknown")
        out.layers = {
            "netverify.edges_computed": trace.count(EDGE, under=first),
            "netverify.cache_hits": hits,
            "netverify.dirty_edges": dirty,
            "netverify.edge_compute_ms": mean_ms(trace, EDGE),
            "netverify.truncated_spaces": truncated,
            "symbolic.solver.check_s": trace.total([SOLVER]) / n,
            "symbolic.solver.checks": checks,
            "symbolic.solver.unknown": unknown,
            "symbolic.solver.decided_ratio": ratio(checks - unknown, checks),
            "cache.edge.get_ms": mean_ms(trace, EDGE_GET),
            "cache.edge.put_ms": mean_ms(trace, EDGE_PUT),
            "cache.edge.bytes_written": written,
        }
    return out, trace
