"""Rendering collected traces and metrics into profiles.

:func:`collect_profile` folds a :class:`~repro.obs.trace.Tracer`'s span
collection and a :class:`~repro.obs.metrics.MetricsRegistry` snapshot
into one machine-readable dict; :func:`render_profile` turns that dict
into the human-readable per-phase table the CLI prints for
``--profile`` / ``python -m repro profile <nf>``.

The per-phase table groups spans named ``phase.<name>`` (the pipeline
phases opened by :class:`~repro.nfactor.algorithm.NFactor`); *self*
time is a span's duration minus its children's, so a phase that mostly
waits on sub-spans (e.g. ``symbolic`` on ``se.explore``) reads near
zero self time.  ``se.explore`` itself is split into two rows: solver
time, the ``solver.check_seconds`` histogram sum, and engine time, the
rest of the span.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import PHASE_PREFIX, Tracer

__all__ = [
    "collect_profile",
    "render_profile",
    "render_phase_timings",
    "render_prometheus",
]


#: The exploration span and the solver-time histogram it is split by.
EXPLORE_SPAN = "se.explore"
SOLVER_CHECK_HISTOGRAM = "solver.check_seconds"


def _span_aggregates(tracer: Tracer) -> List[Dict[str, Any]]:
    """Per-name aggregates (count/total/self), in first-start order."""
    spans = sorted(tracer.spans, key=lambda s: (s.start, s.span_id))
    child_time: Dict[int, float] = {}
    for s in spans:
        if s.parent_id is not None:
            child_time[s.parent_id] = child_time.get(s.parent_id, 0.0) + s.duration

    rows: Dict[str, Dict[str, Any]] = {}
    order: List[str] = []
    for s in spans:
        row = rows.get(s.name)
        if row is None:
            row = rows[s.name] = {"name": s.name, "count": 0, "total_s": 0.0, "self_s": 0.0}
            order.append(s.name)
        row["count"] += 1
        row["total_s"] += s.duration
        row["self_s"] += max(0.0, s.duration - child_time.get(s.span_id, 0.0))
    return [rows[name] for name in order]


def collect_profile(
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
    phase_timings: Optional[Mapping[str, float]] = None,
) -> Dict[str, Any]:
    """Fold trace + metrics into one machine-readable profile dict.

    Phases come from ``phase.*`` spans when a tracer is given, else from
    an explicit ``phase_timings`` mapping (``SynthesisStats``'s field).
    """
    spans = _span_aggregates(tracer) if tracer is not None else []
    phases = [
        {
            "name": row["name"][len(PHASE_PREFIX):],
            "count": row["count"],
            "total_s": row["total_s"],
            "self_s": row["self_s"],
        }
        for row in spans
        if row["name"].startswith(PHASE_PREFIX)
    ]
    if not phases and phase_timings:
        phases = [
            {"name": name, "count": 1, "total_s": t, "self_s": t}
            for name, t in phase_timings.items()
        ]
    return {
        "phases": phases,
        "spans": spans,
        "metrics": registry.snapshot() if registry is not None else {},
    }


def _table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> List[str]:
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return lines


def _ms(seconds: float) -> str:
    return f"{seconds * 1000.0:.2f}"


def render_phase_timings(phase_timings: Mapping[str, float]) -> str:
    """The per-phase table straight from ``SynthesisStats.phase_timings``."""
    return render_profile(collect_profile(phase_timings=phase_timings))


def render_profile(profile: Mapping[str, Any]) -> str:
    """The human-readable profile: phase table, hot spans, metrics."""
    out: List[str] = []

    phases = profile.get("phases") or []
    total = sum(p["total_s"] for p in phases) or 1.0
    out.append("Per-phase profile")
    if phases:
        out.extend(
            _table(
                ["phase", "calls", "total ms", "self ms", "share"],
                [
                    [
                        p["name"],
                        p["count"],
                        _ms(p["total_s"]),
                        _ms(p["self_s"]),
                        f"{100.0 * p['total_s'] / total:5.1f}%",
                    ]
                    for p in phases
                ],
            )
        )
    else:
        out.append("  (no phase spans recorded)")

    inner = [s for s in profile.get("spans", []) if not s["name"].startswith(PHASE_PREFIX)]
    if inner:
        histograms = (profile.get("metrics") or {}).get("histograms") or {}
        checks = histograms.get(SOLVER_CHECK_HISTOGRAM)
        rows = []
        for s in inner:
            rows.append([s["name"], s["count"], _ms(s["total_s"]), _ms(s["self_s"])])
            if s["name"] == EXPLORE_SPAN and checks is not None:
                solver_s = checks["sum"] or 0.0
                engine_s = max(0.0, s["total_s"] - solver_s)
                rows.append(["  engine", "", _ms(engine_s), _ms(engine_s)])
                rows.append(["  solver", checks["count"], _ms(solver_s), _ms(solver_s)])
        out.append("")
        out.append("Spans")
        out.extend(_table(["span", "calls", "total ms", "self ms"], rows))

    metrics = profile.get("metrics") or {}
    counters = metrics.get("counters") or {}
    gauges = metrics.get("gauges") or {}
    if counters or gauges:
        out.append("")
        out.append("Counters / gauges")
        rows = [[name, value] for name, value in counters.items()]
        rows += [[name, value] for name, value in gauges.items()]
        out.extend(_table(["metric", "value"], rows))

    histograms = metrics.get("histograms") or {}
    if histograms:
        out.append("")
        out.append("Histograms")
        rows = []
        for name, h in histograms.items():
            # Latency histograms (named *_seconds) read best in ms;
            # size/count histograms keep their raw unit.
            if name.endswith("_seconds"):
                fmt, unit = (lambda v: _ms(v or 0.0)), " (ms)"
            else:
                fmt, unit = (lambda v: f"{(v or 0):g}"), ""
            rows.append(
                [
                    name + unit,
                    h["count"],
                    fmt(h["mean"]),
                    fmt(h["max"]),
                    fmt(h["sum"]),
                ]
            )
        out.extend(_table(["histogram", "count", "mean", "max", "total"], rows))

    return "\n".join(out)


# ---------------------------------------------------------------------------
# Prometheus exposition (the serve /metrics endpoint)
# ---------------------------------------------------------------------------

#: ``# HELP`` text per dotted metric family.  Families not listed here
#: get a generated fallback; add entries as metrics become load-bearing.
METRIC_HELP: Dict[str, str] = {
    "serve.requests_total": "HTTP requests received by the serve tier.",
    "serve.request_seconds": "End-to-end request latency (admission to response).",
    "serve.endpoint_seconds": "Per-endpoint request latency, labeled by endpoint and status.",
    "serve.queue_wait_seconds": "Time jobs spent waiting in the admission queue.",
    "serve.queue_depth": "Requests currently waiting in the admission queue.",
    "serve.inflight": "Requests currently executing in workers.",
    "serve.workers": "Worker processes in the pool.",
    "serve.rejected_queue_full": "Requests rejected with 429 (queue at capacity).",
    "serve.deadline_exceeded": "Requests killed by their deadline (504).",
    "serve.loop_lag_seconds": "Event-loop scheduling lag samples.",
    "serve.loop_lag_max_seconds": "Maximum observed event-loop scheduling lag.",
    "serve.traced_requests": "Requests recorded with a full stitched span tree.",
    "solver.check_seconds": "Wall time of individual solver feasibility checks.",
    "solver.cache_hits": "Constraint-cache hits.",
    "solver.cache_misses": "Constraint-cache misses.",
    "cache.disk.errors": "Artifact-store disk failures (store degraded to memory-only).",
}


def _prom_name(name: str) -> str:
    """Dotted metric family names → Prometheus-legal identifiers."""
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    sanitized = "".join(out)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return f"repro_{sanitized}"


def _split_labels(name: str) -> Tuple[str, str]:
    """``family{k="v",...}`` → ``(family, 'k="v",...')``; no-label → ``""``.

    The inverse of :func:`repro.obs.metrics.labeled`: registries store
    labeled instruments under flat composite names, and this peels the
    label set back off for proper Prometheus exposition.
    """
    if name.endswith("}"):
        brace = name.find("{")
        if brace > 0:
            return name[:brace], name[brace + 1:-1]
    return name, ""


def _prom_number(value: Any) -> str:
    if value == float("inf"):
        return "+Inf"
    return repr(float(value)) if isinstance(value, float) else str(value)


def render_prometheus(snapshot: Mapping[str, Any]) -> str:
    """A registry snapshot as Prometheus text exposition (version 0.0.4).

    Counters/gauges become single samples; histograms expand into
    cumulative ``_bucket{le=...}`` series plus ``_count`` and ``_sum``,
    matching the ``le`` semantics :class:`~repro.obs.metrics.Histogram`
    already uses.  Instruments named via
    :func:`repro.obs.metrics.labeled` (``family{k="v"}``) are exposed
    as one metric family with proper label sets; every family gets
    ``# HELP`` and ``# TYPE`` metadata exactly once.  Used by
    ``repro serve``'s ``/metrics`` endpoint.
    """
    lines: List[str] = []
    described: set = set()

    def meta(family: str, metric: str, kind: str) -> None:
        if metric in described:
            return
        described.add(metric)
        help_text = METRIC_HELP.get(family, f"repro {kind} {family}")
        lines.append(f"# HELP {metric} {help_text}")
        lines.append(f"# TYPE {metric} {kind}")

    def sample(metric: str, labels: str, suffix: str, value: Any) -> None:
        label_part = f"{{{labels}}}" if labels else ""
        lines.append(f"{metric}{suffix}{label_part} {_prom_number(value)}")

    for name, value in (snapshot.get("counters") or {}).items():
        family, labels = _split_labels(name)
        metric = _prom_name(family)
        meta(family, metric, "counter")
        sample(metric, labels, "", value)
    for name, value in (snapshot.get("gauges") or {}).items():
        family, labels = _split_labels(name)
        metric = _prom_name(family)
        meta(family, metric, "gauge")
        sample(metric, labels, "", value)
    for name, hist in (snapshot.get("histograms") or {}).items():
        family, labels = _split_labels(name)
        metric = _prom_name(family)
        meta(family, metric, "histogram")
        for le, count in hist.get("buckets") or []:
            le_label = f'le="{_prom_number(le)}"'
            merged = f"{labels},{le_label}" if labels else le_label
            lines.append(f"{metric}_bucket{{{merged}}} {count}")
        sample(metric, labels, "_count", hist.get("count", 0))
        sample(metric, labels, "_sum", hist.get("sum", 0.0))
    return "\n".join(lines) + "\n"
