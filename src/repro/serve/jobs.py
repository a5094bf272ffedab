"""Worker-side request handlers for :mod:`repro.serve`.

Everything here runs inside a ``ProcessPoolExecutor`` worker process
(:func:`run_job` is the single pool entry point, so it must stay
module-level and picklable).  Each job:

1. arms a **deadline alarm** (``signal.setitimer``/``SIGALRM``) for its
   remaining time budget — CPython delivers signals between bytecodes,
   so a CPU-bound synthesis is genuinely interrupted *mid-run* and the
   worker is free for the next request (real cancellation, not
   abandonment);
2. runs observed (:func:`repro.parallel.observed_call`) and ships its
   metrics snapshot home for the server to fold into its registry;
3. never raises: failures come back as structured ``{"status": ...}``
   dicts (the same errors-are-data discipline as
   :func:`repro.parallel.synthesize_many`).

The synthesize hot path goes through the artifact cache's model tier
(:func:`repro.nfactor.algorithm.synthesize_model_cached`); simulate
adds its own ``sim`` artifact kind — ``(model, module_env, pkt_param)``
— so a warm simulate skips the pipeline entirely, and loads the model's
compiled guard code from the ``guards`` kind instead of compiling it.
A worker keeps the compiled models it served last in memory, so a
repeat simulate there reads neither tier.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import cache as artifact_cache

#: Env var gating the test-only ops (``sleep``) used by the lifecycle
#: tests to occupy workers deterministically.  Off in production.
TEST_OPS_ENV = "REPRO_SERVE_TEST_OPS"


class JobTimeout(BaseException):
    """Raised inside the worker when the request deadline fires.

    Deliberately a ``BaseException``: the pipeline's errors-are-data
    layers (the engine's witness checks, cache tiers, batch outcomes) wrap
    work in ``except Exception`` — a deadline that happens to fire
    inside one of those blocks must cancel the job, not be folded into
    a partial result and kept running.  Only :func:`run_job` catches
    it.
    """


#: Retry cadence for the deadline timer (see :class:`_deadline_alarm`).
ALARM_RETRY_INTERVAL_S = 0.05

# True only between __enter__ and __exit__ of the active alarm; a tick
# that lands after disarm (the flag was already tripped when setitimer
# cleared) must be a no-op, not a JobTimeout escaping run_job's handler.
# Workers are single-threaded, so a plain module flag is enough.
_alarm_active = False


def _alarm_handler(signum, frame):  # pragma: no cover - signal plumbing
    if _alarm_active:
        raise JobTimeout()


class _deadline_alarm:
    """Arm SIGALRM for ``budget_s`` seconds (no-op when unusable).

    Usable only on the main thread of a POSIX process — exactly what a
    ``ProcessPoolExecutor`` worker is.  Previous handler and timer are
    restored on exit so nested/looped jobs compose.

    The timer repeats every :data:`ALARM_RETRY_INTERVAL_S` after the
    budget expires.  A one-shot alarm is lossy: if the tick happens to
    land while the interpreter is running a weakref callback or
    ``__del__`` (GC housekeeping — surprisingly common mid-synthesis),
    the raised :class:`JobTimeout` is *unraisable* — CPython swallows
    it and the job keeps running.  With an interval timer the next tick
    simply tries again until one lands in ordinary code and propagates.
    """

    def __init__(self, budget_s: Optional[float]) -> None:
        self.budget_s = budget_s
        self.armed = False
        self._previous: Any = None

    def __enter__(self) -> "_deadline_alarm":
        usable = (
            self.budget_s is not None
            and hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread()
        )
        if usable:
            if self.budget_s <= 0:
                raise JobTimeout()
            global _alarm_active
            self._previous = signal.signal(signal.SIGALRM, _alarm_handler)
            _alarm_active = True
            signal.setitimer(
                signal.ITIMER_REAL, self.budget_s, ALARM_RETRY_INTERVAL_S
            )
            self.armed = True
        return self

    def __exit__(self, *exc) -> None:
        if self.armed:
            global _alarm_active
            _alarm_active = False
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        return None


# -- target resolution -------------------------------------------------------


def _resolve_target(body: Dict[str, Any]) -> Tuple[str, str, Optional[str]]:
    """(name, source, entry) from ``{"nf": ...}`` or ``{"source": ...}``."""
    source = body.get("source")
    name = body.get("nf") or body.get("name")
    entry = body.get("entry")
    if source is not None:
        if not isinstance(source, str):
            raise ValueError("'source' must be a string of NFPy code")
        return str(name or "<request>"), source, entry
    if not name:
        raise ValueError("request needs 'nf' (corpus name) or 'source'")
    from repro.nfs import get_nf, nf_names

    try:
        spec = get_nf(str(name))
    except KeyError:
        raise ValueError(
            f"unknown NF {name!r} (corpus: {', '.join(nf_names())})"
        )
    return spec.name, spec.source, entry or spec.entry


def _stats_dict(stats: Any) -> Dict[str, Any]:
    return {
        "n_paths": stats.n_paths,
        "n_entries": stats.n_entries,
        "source_loc": stats.source_loc,
        "slice_loc": stats.slice_loc,
        "solver_checks": stats.solver_checks,
        "solver_cache_hits": stats.solver_cache_hits,
        "solver_unknowns": stats.solver_unknowns,
        "paths_truncated": stats.paths_truncated,
        "states_explored": stats.states_explored,
    }


# -- op handlers -------------------------------------------------------------


def _op_synthesize(body: Dict[str, Any]) -> Dict[str, Any]:
    from repro.nfactor.algorithm import synthesize_model_cached

    name, source, entry = _resolve_target(body)
    ms = synthesize_model_cached(source, name=name, entry=entry)
    out = {
        "name": name,
        "model": json.loads(ms.model_json),
        "cached": ms.cached,
        "stats": _stats_dict(ms.stats),
    }
    if "model_version" in body:
        # Stamped at admission by the hot-swap registry; echoing it
        # back lets callers observe the exact old->new flip boundary.
        out["model_version"] = body["model_version"]
    return out


def _sim_key(name: str, source: str, entry: Optional[str]) -> Optional[str]:
    """The ``sim``-tier key of one target (None with the cache off).

    Key = the model-tier key, so source/config/schema-version changes
    invalidate both tiers together.  The key also identifies the
    in-process simulation memo and derives the ``guards``-tier key of
    the model's stored guard code.
    """
    from repro.nfactor.algorithm import NFactorConfig, _model_key

    config = NFactorConfig()
    if not config.artifact_cache:
        return None
    return artifact_cache.artifact_key(
        "sim", (_model_key(source, name, entry, config),)
    )


def _sim_bundle(
    body: Dict[str, Any],
) -> Tuple[Optional[str], Tuple[Any, Dict[str, Any], str]]:
    """(sim key, (model, module_env, pkt_param)) from the ``sim`` tier,
    or from synthesis on a miss."""
    from repro.nfactor.algorithm import NFactor

    name, source, entry = _resolve_target(body)
    key = _sim_key(name, source, entry)
    store = artifact_cache.get_store()
    if key is not None:
        hit = store.get_object("sim", key)
        if hit is not None:
            return key, hit
    result = NFactor(source, name=name, entry=entry).synthesize()
    bundle = (result.model, result.module_env, result.pkt_param)
    if key is not None:
        store.put_object("sim", key, bundle)
    return key, bundle


class _LruMemo:
    """A small LRU memo for per-worker compiled models.

    Replaces the earlier FIFO eviction: under FIFO, a hot model that a
    shard serves on every request was evicted by arrival order the
    moment eight one-off models passed through, forcing a recompile of
    the *busiest* model.  Here :meth:`get` refreshes recency, so steady
    traffic pins its model and eviction lands on the coldest entry.
    """

    __slots__ = ("capacity", "_items")

    def __init__(self, capacity: int) -> None:
        from collections import OrderedDict

        self.capacity = max(1, capacity)
        self._items: "OrderedDict[str, Any]" = OrderedDict()

    def get(self, key: str) -> Optional[Any]:
        try:
            self._items.move_to_end(key)
        except KeyError:
            return None
        return self._items[key]

    def put(self, key: str, value: Any) -> None:
        if key in self._items:
            self._items.move_to_end(key)
        elif len(self._items) >= self.capacity:
            self._items.popitem(last=False)
        self._items[key] = value

    def clear(self) -> None:
        self._items.clear()

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: str) -> bool:
        return key in self._items


#: Per-worker memo of ``(compiled model, module_env, name)``, keyed on
#: the sim-tier key.  Bounded: a worker serves a handful of distinct
#: models at a time.
_COMPILED_MEMO_MAX = 8
_COMPILED_MEMO = _LruMemo(_COMPILED_MEMO_MAX)


def _simulation(body: Dict[str, Any]) -> Tuple[Any, Dict[str, Any], str]:
    """(compiled model, module_env, model name) for a simulate request.

    Memoized per worker process: a hit reads neither the artifact store
    nor the compiler.  A miss reads the ``sim`` tier (or synthesizes)
    and loads the model's guard code from the ``guards`` tier, so only
    the first miss anywhere compiles.  Callers simulate on a copy of
    ``module_env``; the memoized one is never mutated.
    """
    from repro.model.compile import compiled_model_cached

    key = _sim_key(*_resolve_target(body))
    hit = _COMPILED_MEMO.get(key) if key is not None else None
    if hit is not None:
        return hit
    key, (model, module_env, pkt_param) = _sim_bundle(body)
    entry = (compiled_model_cached(model, pkt_param, key), module_env, model.name)
    if key is not None:
        _COMPILED_MEMO.put(key, entry)
    return entry


def _op_simulate(body: Dict[str, Any]) -> Dict[str, Any]:
    from repro.interp.values import deep_copy
    from repro.net.packet import Packet
    from repro.obs import metrics as obs_metrics

    raw_packets = body.get("packets")
    if not isinstance(raw_packets, list) or not raw_packets:
        raise ValueError("'packets' must be a non-empty list of field objects")
    if len(raw_packets) > 10_000:
        raise ValueError("at most 10000 packets per simulate request")
    packets: List[Packet] = []
    for i, fields in enumerate(raw_packets):
        if not isinstance(fields, dict):
            raise ValueError(f"packet #{i} is not a field object")
        try:
            packets.append(Packet.from_dict(fields))
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValueError(f"packet #{i}: {exc}")

    compiled, module_env, name = _simulation(body)
    sim = compiled.simulator(deep_copy(module_env))
    sent_lists = sim.process_many(packets)
    obs_metrics.counter("sim.compiled").inc()
    outputs = [
        {
            "forwarded": bool(sent),
            "sent": [
                {"packet": out.to_dict(), "port": port} for out, port in sent
            ],
        }
        for sent in sent_lists
    ]
    stats = sim.stats
    obs_metrics.counter("sim.packets").inc(stats.packets)
    obs_metrics.counter("sim.guard_evals").inc(stats.guard_evals)
    obs_metrics.counter("sim.compiled_dispatches").inc(
        stats.compiled_dispatches
    )
    out = {
        "name": name,
        "compiled": True,
        "outputs": outputs,
        "stats": {
            "packets": stats.packets,
            "forwarded": stats.forwarded,
            "dropped_default": stats.dropped_default,
            "dropped_entry": stats.dropped_entry,
            "guard_evals": stats.guard_evals,
            "compiled_dispatches": stats.compiled_dispatches,
        },
    }
    if "model_version" in body:
        out["model_version"] = body["model_version"]
    return out


def _chain_models(names: Any, what: str) -> List[Tuple[str, Any]]:
    from repro.nfactor.algorithm import synthesize_model_cached

    if not isinstance(names, list) or not names:
        raise ValueError(f"{what!r} must be a non-empty list of NF names")
    chain = []
    for name in names:
        nf_name, source, entry = _resolve_target({"nf": name})
        ms = synthesize_model_cached(source, name=nf_name, entry=entry)
        chain.append((nf_name, ms.model))
    return chain


def _verify_graph(
    body: Dict[str, Any], graph: Any, chain: Optional[List[str]] = None
) -> Dict[str, Any]:
    """Verify ``graph`` in this worker and build the response payload."""
    from repro.netverify import GraphVerifier, GraphVerifyConfig, verdict_payload

    # jobs pinned to 1: this already runs inside a pool worker, and
    # daemonic pool processes cannot fork grandchildren.  The serve
    # tier's parallelism is across requests/shards, not within one.
    config = GraphVerifyConfig(use_cache=bool(body.get("cache", True)), jobs=1)
    verdict = GraphVerifier(graph, config=config).verify()
    max_traces = int(body.get("max_traces", 10))
    max_witnesses = int(body.get("max_witnesses", 8))
    return verdict_payload(verdict, graph, max_traces, max_witnesses, chain)


def _op_verify(body: Dict[str, Any]) -> Dict[str, Any]:
    from repro.netverify import path_graph

    chain = _chain_models(body.get("chain"), "chain")
    return _verify_graph(body, path_graph(chain), [name for name, _ in chain])


def _graph_from_body(body: Dict[str, Any]) -> Any:
    """A :class:`~repro.netverify.graph.ServiceGraph` from request JSON.

    Two shapes: explicit ``{"nodes": [[name, nf], ...], "edges":
    [[src, dst], ...]}``, or ``{"generate": {"n": N, "seed": S,
    "width": W}}`` for the seeded benchmark topology.  Graph-shape
    errors (unknown NF, dangling edge, cycle) surface as 400s.
    """
    from repro.netverify import build_graph, generate_graph

    gen = body.get("generate")
    if gen is not None:
        if not isinstance(gen, dict):
            raise ValueError("'generate' must be an object")
        n = int(gen.get("n", 12))
        if not 1 <= n <= 200:
            raise ValueError("'generate.n' must be in [1, 200]")
        return generate_graph(
            n, seed=int(gen.get("seed", 7)), width=int(gen.get("width", 5))
        )
    nodes = body.get("nodes")
    edges = body.get("edges", [])
    if not isinstance(nodes, list) or not nodes:
        raise ValueError(
            "request needs 'nodes' ([[name, nf], ...]) or 'generate'"
        )
    if not isinstance(edges, list):
        raise ValueError("'edges' must be a list of [src, dst] pairs")
    try:
        node_pairs = [(str(n), str(nf)) for n, nf in nodes]
        edge_pairs = [(str(a), str(b)) for a, b in edges]
    except (TypeError, ValueError):
        raise ValueError("'nodes'/'edges' entries must be 2-element pairs")
    return build_graph(node_pairs, edge_pairs)


def _op_verify_graph(body: Dict[str, Any]) -> Dict[str, Any]:
    return _verify_graph(body, _graph_from_body(body))


def _op_compose(body: Dict[str, Any]) -> Dict[str, Any]:
    from repro.apps.compose import compose_chains, compose_payload

    chain_a = _chain_models(body.get("chain_a"), "chain_a")
    chain_b = _chain_models(body.get("chain_b"), "chain_b")
    return compose_payload(compose_chains(chain_a, chain_b))


def _op_testgen(body: Dict[str, Any]) -> Dict[str, Any]:
    from repro.apps.testing import generate_tests, validate_suite
    from repro.nfactor.algorithm import NFactor

    name, source, entry = _resolve_target(body)
    result = NFactor(source, name=name, entry=entry).synthesize()
    suite = generate_tests(result)
    report = validate_suite(suite, result)
    return {
        "name": name,
        "summary": suite.summary(),
        "n_cases": len(suite.cases),
        "n_packets": suite.n_packets,
        "uncovered_entries": suite.uncovered_entries,
        "cases": [
            {
                "name": case.name,
                "target_entry": case.target_entry,
                "packets": [pkt.to_dict() for pkt in case.packets],
                "expectations": case.expectations,
            }
            for case in suite.cases
        ],
        "validation": {
            "summary": report.summary(),
            "all_passed": report.all_passed,
            "n_cases": report.n_cases,
            "n_passed": report.n_passed,
        },
    }


def _op_sleep(body: Dict[str, Any]) -> Dict[str, Any]:
    """Test-only: hold a worker for ``seconds`` (deadline-interruptible)."""
    if os.environ.get(TEST_OPS_ENV, "") != "1":
        raise ValueError("unknown op 'sleep'")
    seconds = float(body.get("seconds", 0.1))
    deadline = time.monotonic() + min(seconds, 60.0)
    while time.monotonic() < deadline:
        time.sleep(0.005)
    return {"slept_s": seconds}


OPS: Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]] = {
    "synthesize": _op_synthesize,
    "simulate": _op_simulate,
    "verify": _op_verify,
    "verify_graph": _op_verify_graph,
    "compose": _op_compose,
    "testgen": _op_testgen,
    "sleep": _op_sleep,
}


def run_job(
    payload: Tuple[str, Dict[str, Any], Optional[float], Optional[Dict[str, Any]]],
) -> Dict[str, Any]:
    """Pool entry point: run one op under a deadline, observed.

    Returns ``{"status", "result"|"error", "metrics", "spans",
    "elapsed_s"}``; status mirrors the HTTP code the server will send
    (200/400/500/504).  ``where: "worker"`` on a 504 records that the
    alarm interrupted the job *inside* the worker (vs. the server's
    backstop timeout).

    The payload may carry a 5th element: the absolute
    ``time.monotonic()`` deadline stamped by the server at dispatch.
    CLOCK_MONOTONIC is system-wide, so it is meaningful in a forked
    worker — the alarm is armed for the time *actually left*, not the
    budget as of dispatch.  A job that spent its whole budget queued
    behind a busy CPU then times out immediately here (``where:
    "worker"``) instead of arming a stale full-length alarm and losing
    the race to the parent's backstop.

    ``trace`` (the 4th payload element) is the request's serialized
    :class:`~repro.obs.context.TraceContext` — installed as the worker's
    ambient context so every pipeline span and log line lands under the
    request's trace — or None when tracing is off, in which case span
    collection is skipped entirely and only metrics ship home.  On
    failure the partial span batch is recovered from the collector, so
    a 504 still reports the phases that ran before the alarm fired.
    """
    from repro.obs.context import TraceContext
    from repro.obs.recorder import MAX_SPANS_PER_REQUEST, phases_from_spans
    from repro.parallel import observed_call

    op, body, budget_s, trace = payload[:4]
    deadline = payload[4] if len(payload) > 4 else None
    if deadline is not None and budget_s is not None:
        budget_s = deadline - time.monotonic()
    tracing = trace is not None
    ctx = TraceContext.from_dict(trace) if tracing else None
    handler = OPS.get(op)
    collector: Dict[str, Any] = {}
    t0 = time.perf_counter()
    if handler is None:
        return {
            "status": 404,
            "error": f"unknown op {op!r}",
            "metrics": {},
            "spans": None,
            "elapsed_s": 0.0,
        }

    def _partial_spans():
        spans = collector.get("spans") or []
        return spans if tracing else None

    try:
        with _deadline_alarm(budget_s):
            result, snapshot, spans = observed_call(
                handler,
                body,
                trace_context=ctx,
                collector=collector,
                span_limit=MAX_SPANS_PER_REQUEST if tracing else 0,
            )
        return {
            "status": 200,
            "result": result,
            "metrics": snapshot,
            "spans": spans if tracing else None,
            "elapsed_s": time.perf_counter() - t0,
        }
    except JobTimeout:
        spans = _partial_spans()
        return {
            "status": 504,
            "error": f"deadline exceeded after {max(budget_s, 0.0):.3f}s",
            "where": "worker",
            "metrics": collector.get("metrics") or {},
            "spans": spans,
            "phases": phases_from_spans(spans),
            "elapsed_s": time.perf_counter() - t0,
        }
    except ValueError as exc:
        return {
            "status": 400,
            "error": str(exc),
            "metrics": collector.get("metrics") or {},
            "spans": _partial_spans(),
            "elapsed_s": time.perf_counter() - t0,
        }
    except Exception:
        return {
            "status": 500,
            "error": traceback.format_exc(limit=8),
            "metrics": collector.get("metrics") or {},
            "spans": _partial_spans(),
            "elapsed_s": time.perf_counter() - t0,
        }
