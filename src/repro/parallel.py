"""Parallel corpus synthesis (the batch front-end).

One NF synthesis is a deterministic, CPU-bound pipeline with no shared
mutable state, which makes a corpus of them embarrassingly parallel:
:func:`synthesize_many` fans the targets out over a
``ProcessPoolExecutor`` and returns per-target outcomes **in input
order**, so a parallel batch is byte-for-byte the same as a sequential
one — only faster.  Used by the ``repro batch`` CLI subcommand and by
the benchmark harness (:mod:`benchmarks.common`) to warm its
per-process synthesis cache.

Each worker runs observed (:mod:`repro.obs`) and ships its metrics
snapshot home; the parent folds the snapshots into its own ambient
registry (:meth:`repro.obs.metrics.MetricsRegistry.merge`) so a batch
run still produces one coherent profile.

Workers solve with their own process-wide constraint cache
(:mod:`repro.symbolic.solver`) and share the parent's persistent
artifact store directory (:mod:`repro.cache`): artifact writes are
atomic renames of content-addressed files, so concurrent workers need
no cross-process locks — two writers racing on one key write identical
bytes and last-writer-wins is correct.  Caching never changes results,
so parallel/sequential and warm/cold runs all agree.

``model_only=True`` is the batch fast path: workers go through the
model tier (:func:`repro.nfactor.algorithm.synthesize_model_cached`),
return the serialized model + stats instead of pickling a full
:class:`SynthesisResult` across the process boundary, and an unchanged
NF costs one cache lookup.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro import cache as artifact_cache
from repro.nfactor.algorithm import (
    NFactor,
    NFactorConfig,
    SynthesisResult,
    SynthesisStats,
    synthesize_model_cached,
)
from repro.symbolic.engine import EngineConfig

__all__ = [
    "BatchTarget",
    "BatchOutcome",
    "synthesize_many",
    "resolve_targets",
    "compute_edge_summaries",
    "observed_call",
    "default_jobs",
]

#: Per-tier hit counters surfaced per outcome (``repro batch`` summary).
CACHE_TIER_COUNTERS = {
    "model": "cache.kind.model.hits",
    "disk": "cache.disk.hits",
    "mem": "cache.mem.hits",
    "solver": "solver.cache_hits",
}


@dataclass(frozen=True)
class BatchTarget:
    """One synthesis job: a named NF source with an optional entry."""

    name: str
    source: str
    entry: Optional[str] = None


@dataclass
class BatchOutcome:
    """What one batch job produced (order matches the input order).

    Full-result mode populates ``result`` (and derives ``stats`` from
    it); model-only mode populates ``model_json``/``stats`` and leaves
    ``result`` None — on a model-tier cache hit there is nothing else
    to materialize.  ``cache_tiers`` counts this job's cache hits per
    tier (model / disk / mem / solver).
    """

    name: str
    elapsed_s: float = 0.0
    result: Optional[SynthesisResult] = None
    model_json: Optional[str] = None
    stats: Optional[SynthesisStats] = None
    metrics: Dict[str, Any] = field(default_factory=dict)
    cache_tiers: Dict[str, int] = field(default_factory=dict)
    model_cached: bool = False
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error and (
            self.result is not None or self.model_json is not None
        )


def resolve_targets(names: Sequence[Union[str, BatchTarget]]) -> List[BatchTarget]:
    """Corpus names (or ready-made targets) → :class:`BatchTarget` list."""
    from repro.nfs import get_nf

    out: List[BatchTarget] = []
    for item in names:
        if isinstance(item, BatchTarget):
            out.append(item)
        else:
            spec = get_nf(item)
            out.append(BatchTarget(name=item, source=spec.source, entry=spec.entry))
    return out


def _run_one(
    target: BatchTarget,
    max_paths: int,
    solver_cache: bool,
    model_only: bool = False,
    use_artifact_cache: bool = True,
) -> BatchOutcome:
    """Synthesize one target, observed; never raises (errors are data)."""
    from repro import obs
    from repro.model.serialize import model_to_json

    t0 = time.perf_counter()
    try:
        config = NFactorConfig(
            engine=EngineConfig(max_paths=max_paths, solver_cache=solver_cache),
            artifact_cache=use_artifact_cache,
        )
        with obs.observed() as (_tracer, registry):
            if model_only:
                cached = synthesize_model_cached(
                    target.source, name=target.name, entry=target.entry,
                    config=config,
                )
                result = None
                model_json, stats = cached.model_json, cached.stats
                model_cached = cached.cached
            else:
                result = NFactor(
                    target.source, name=target.name, entry=target.entry,
                    config=config,
                ).synthesize()
                model_json, stats = model_to_json(result.model), result.stats
                model_cached = False
            snapshot = registry.snapshot()
        counters = snapshot.get("counters", {})
        return BatchOutcome(
            name=target.name,
            elapsed_s=time.perf_counter() - t0,
            result=result,
            model_json=model_json,
            stats=stats,
            metrics=snapshot,
            cache_tiers={
                tier: counters.get(counter, 0)
                for tier, counter in CACHE_TIER_COUNTERS.items()
            },
            model_cached=model_cached,
        )
    except Exception:
        return BatchOutcome(
            name=target.name,
            elapsed_s=time.perf_counter() - t0,
            error=traceback.format_exc(limit=8),
        )


def _worker(payload: Tuple[BatchTarget, int, bool, bool, bool]) -> BatchOutcome:
    target, max_paths, solver_cache, model_only, use_cache = payload
    if use_cache:
        return _run_one(target, max_paths, solver_cache, model_only)
    # --no-cache (or a disabled parent store) must bind the workers too:
    # disable the ambient store for the duration of this job.
    with artifact_cache.override(enabled=False):
        return _run_one(
            target, max_paths, solver_cache, model_only, use_artifact_cache=False
        )


def default_jobs(n_targets: int) -> int:
    """Worker-count default: one per target, capped by the CPU count."""
    return max(1, min(n_targets, os.cpu_count() or 1))


def observed_call(
    fn,
    *args,
    trace_context: Optional[Any] = None,
    collector: Optional[Dict[str, Any]] = None,
    span_limit: Optional[int] = None,
    **kwargs,
) -> Tuple[Any, Dict[str, Any], List[Dict[str, Any]]]:
    """Run ``fn`` under a fresh observer; returns (value, metrics, spans).

    The worker-process idiom shared by batch synthesis, graph-verify
    edge tasks and the serve pool (:mod:`repro.serve.jobs`): a child
    runs its work observed and ships the registry snapshot plus its
    span batch home, where the parent folds the metrics in via
    :meth:`MetricsRegistry.merge` and stitches the spans into the
    request's tree.

    ``trace_context`` (a :class:`repro.obs.context.TraceContext`) is
    installed as the **ambient context** for the call, so structured
    log lines and the worker tracer carry the request's trace id.
    ``span_limit`` caps the exported batch; ``span_limit=0`` skips span
    export entirely (tracing disabled — metrics only).

    ``collector`` (when given) receives ``{"metrics": ..., "spans":
    ...}`` even when ``fn`` raises — populated in a ``finally`` so a
    deadline kill (:class:`repro.serve.jobs.JobTimeout`) still recovers
    the partial trace: spans close during exception unwinding, so the
    export sees everything that finished before the alarm fired.
    """
    from repro import obs
    from repro.obs import context as obs_context

    tracer = obs.Tracer(trace_id=getattr(trace_context, "trace_id", None))
    snapshot: Dict[str, Any] = {}
    spans: List[Dict[str, Any]] = []
    with obs_context.bound(trace_context):
        with obs.observed(tracer=tracer) as (_tracer, registry):
            try:
                value = fn(*args, **kwargs)
            finally:
                snapshot.update(registry.snapshot())
                if span_limit != 0:
                    spans.extend(tracer.export_spans(limit=span_limit))
                if collector is not None:
                    collector["metrics"] = snapshot
                    collector["spans"] = spans
    return value, snapshot, spans


# ---------------------------------------------------------------------------
# Graph-verification edge workers (repro.netverify)
# ---------------------------------------------------------------------------


def _edge_worker(payload: Tuple[Any, ...]) -> Tuple[Any, int, Dict[str, Any], str]:
    """Compute one edge transfer summary in a fresh solver.

    The payload is ``(model, ns, space, solver_cache)``; the summary is
    a pure function of it (the solver derives its samples from the
    constraint set, not from process state), so relocating the call
    into a worker cannot change the bytes.  The solver's ``unknown``
    count comes home beside it.  Never raises — errors come home as
    formatted tracebacks for the parent to surface coherently.
    """
    from repro import obs
    from repro.netverify.verify import compute_edge_summary
    from repro.symbolic.solver import Solver

    model, ns, space, solver_cache = payload
    try:
        with obs.observed() as (_tracer, registry):
            solver = Solver(cache=solver_cache)
            summary = compute_edge_summary(model, ns, space, solver)
            snapshot = registry.snapshot()
        return summary, solver.unknown_hits, snapshot, ""
    except Exception:
        return None, 0, {}, traceback.format_exc(limit=8)


def compute_edge_summaries(
    payloads: Sequence[Tuple[Any, ...]], jobs: int
) -> List[Tuple[Any, int]]:
    """Fan edge tasks out over a process pool; ``(summary, solver
    unknowns)`` pairs in input order.

    Worker metrics snapshots fold into the parent's ambient registry,
    a worker failure raises in the parent, and ``jobs<=1`` degenerates to the in-process loop so
    the parallel path has a same-code-path determinism reference.
    """
    from repro.obs import metrics as obs_metrics

    jobs = min(len(payloads), max(1, jobs))
    if jobs <= 1:
        raw = [_edge_worker(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            raw = list(pool.map(_edge_worker, payloads))

    registry = obs_metrics.active()
    out: List[Tuple[Any, int]] = []
    for summary, unknowns, snapshot, error in raw:
        if error:
            raise RuntimeError(f"edge worker failed:\n{error}")
        if registry.enabled and snapshot:
            registry.merge(snapshot)
        out.append((summary, unknowns))
    return out


def synthesize_many(
    targets: Sequence[Union[str, BatchTarget]],
    jobs: Optional[int] = None,
    max_paths: int = 16384,
    solver_cache: bool = True,
    merge_metrics: bool = True,
    model_only: bool = False,
    use_artifact_cache: Optional[bool] = None,
) -> List[BatchOutcome]:
    """Synthesize many NFs, optionally across worker processes.

    ``jobs=None`` picks :func:`default_jobs`; ``jobs<=1`` runs in-process
    (the degenerate batch — same code path minus the pool, so ``-j 1``
    is the determinism reference for ``-j N``).  Outcomes preserve input
    order regardless of completion order.  A worker failure is reported
    in that target's :attr:`BatchOutcome.error`; it never aborts the
    rest of the batch.

    ``model_only=True`` returns serialized models + stats without full
    :class:`SynthesisResult` payloads (see the module docstring).
    ``use_artifact_cache=None`` inherits the parent's store enablement,
    so a ``--no-cache`` parent disables the workers' stores as well.

    When the parent runs under an ambient metrics registry and
    ``merge_metrics`` is true, each child's metrics snapshot is folded
    into it.
    """
    resolved = resolve_targets(targets)
    if jobs is None:
        jobs = default_jobs(len(resolved))
    if use_artifact_cache is None:
        use_artifact_cache = artifact_cache.is_enabled()

    payloads = [
        (t, max_paths, solver_cache, model_only, use_artifact_cache)
        for t in resolved
    ]
    if jobs <= 1 or len(resolved) <= 1:
        outcomes = [_worker(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_worker, payloads))

    if merge_metrics:
        from repro.obs import metrics as obs_metrics

        registry = obs_metrics.active()
        if registry.enabled:
            for outcome in outcomes:
                if outcome.metrics:
                    registry.merge(outcome.metrics)
    return outcomes
