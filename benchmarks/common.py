"""Shared helpers for the benchmark harness.

Each benchmark regenerates one artifact of the paper's evaluation
(tables/figures, DESIGN.md §4) and prints a paper-style table.  Heavy
syntheses are cached per process so benches can share them;
:func:`warm_cache` pre-fills that cache across worker processes
(:mod:`repro.parallel`).

Syntheses run under an enabled observer (:mod:`repro.obs`), so every
cached :class:`SynthesisResult` carries the per-phase timings and the
full metrics snapshot in ``result.stats.phase_timings`` /
``result.stats.metrics`` — benchmark rows can report *where* the time
went, not just how much there was.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from repro import obs
from repro.nfactor.algorithm import NFactor, NFactorConfig, SynthesisResult
from repro.nfs import get_nf
from repro.symbolic.engine import EngineConfig

_CACHE: Dict[Tuple[str, bool], SynthesisResult] = {}


def synthesize(
    name: str, max_paths: int = 16384, parametric: bool = False
) -> SynthesisResult:
    """Synthesize (and cache) the model of a corpus NF, observed.

    ``parametric=True`` keeps branch-read config free (the per-config
    tables of the paper's Fig. 6 and Table 2); the default synthesizes
    for the deployed configuration.  The persistent artifact cache is
    off here: a warm user cache would skip pipeline phases and hollow
    out the per-phase timings these benches report (bench_perf_cache
    measures the cache explicitly).
    """
    key = (name, parametric)
    if key not in _CACHE:
        spec = get_nf(name)
        config = NFactorConfig(
            engine=EngineConfig(max_paths=max_paths),
            parametric=parametric,
            artifact_cache=False,
        )
        with obs.observed():
            _CACHE[key] = NFactor(
                spec.source, name=name, config=config
            ).synthesize()
    return _CACHE[key]


def warm_cache(names: Sequence[str], jobs: int = 0, max_paths: int = 16384) -> None:
    """Pre-fill the synthesis cache for ``names`` across worker processes.

    Benches that need several corpus NFs can warm them in parallel
    instead of synthesizing one-by-one on first use.  Results land in
    the same per-process cache :func:`synthesize` reads, and each
    worker's metrics snapshot is folded into the ambient registry (when
    one is installed), so a parallel warm profiles like a sequential
    one.  ``jobs=0`` picks one worker per missing NF, capped by CPUs.
    """
    from repro.parallel import synthesize_many

    missing = [n for n in names if (n, False) not in _CACHE]
    if not missing:
        return
    outcomes = synthesize_many(
        missing, jobs=jobs or None, max_paths=max_paths,
        use_artifact_cache=False,  # same hermeticity as synthesize() above
    )
    for outcome in outcomes:
        if outcome.result is None:
            raise RuntimeError(
                f"warm_cache: {outcome.name} failed:\n{outcome.error}"
            )
        _CACHE[(outcome.name, False)] = outcome.result


def profile_snapshot(result: SynthesisResult) -> Dict[str, Any]:
    """The per-phase/metric snapshot of one synthesis (bench artifact)."""
    return {
        "phase_timings_s": dict(result.stats.phase_timings),
        "metrics": result.stats.metrics,
    }


def print_phase_profile(results: Dict[str, SynthesisResult]) -> None:
    """Append a per-NF phase-timing table to a bench's output."""
    phases: List[str] = []
    for result in results.values():
        for name in result.stats.phase_timings:
            if name not in phases:
                phases.append(name)
    print_table(
        "Per-phase timings (ms)",
        ["NF"] + phases,
        [
            [name]
            + [
                f"{result.stats.phase_timings.get(p, 0.0) * 1000:.1f}"
                for p in phases
            ]
            for name, result in results.items()
        ],
    )


#: Version of the shared BENCH_*.json envelope.  Bump when the common
#: fields change shape; per-bench payload fields are free to evolve.
BENCH_SCHEMA_VERSION = 1


def write_bench_json(out: Path, bench: str, row: Dict[str, Any]) -> Dict[str, Any]:
    """Write one benchmark's result row as ``BENCH_<name>.json``.

    Every bench artifact shares the same envelope — ``bench`` (the
    benchmark's name), ``schema_version``, and ``run_utc`` — so CI
    consumers can aggregate the uploaded files without per-bench
    special cases.  The bench-specific fields follow verbatim.
    """
    payload = {
        "bench": bench,
        "schema_version": BENCH_SCHEMA_VERSION,
        "run_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        **row,
    }
    out = Path(out)
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out}")
    return payload


def print_table(title: str, headers: Sequence[str], rows: List[Sequence[str]]) -> None:
    """Print an aligned text table (the bench output artifact)."""
    widths = [len(h) for h in headers]
    str_rows = [[str(c) for c in row] for row in rows]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = " | ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in str_rows:
        print(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    print()
