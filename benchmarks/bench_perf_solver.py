"""E7 — solver performance: constraint caching and incremental solving.

Measures the PR-2 perf work end-to-end on the corpus, three ways:

- **baseline** — ``EngineConfig(solver_cache=False)``: every check is a
  fresh propagate-and-sample solve (the seed behaviour, minus this PR's
  canon-memo/sampling wins which have no off switch);
- **cold**    — caching on, process-global constraint cache cleared
  first: in-run duplicate checks hit, everything else misses;
- **warm**    — caching on, cache still warm from the cold run: the
  re-synthesis case (benches, batch re-runs, refactor re-checks).

Caching must never change results, so the three runs' serialized models
are asserted byte-identical before any timing is reported.

Runs two ways:

- as a pytest benchmark: ``pytest benchmarks/bench_perf_solver.py``
  (asserts the acceptance thresholds: warm speedup ≥ 1.5×, combined
  cache hit-rate ≥ 50%);
- as a script: ``python benchmarks/bench_perf_solver.py [--quick]``
  (``--quick`` uses a 3-NF subset and only asserts hit-rate > 0 plus
  model identity — the CI ``perf-smoke`` job).  Both script modes write
  ``BENCH_perf_solver.json``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from common import print_table, write_bench_json
from repro.model.serialize import model_to_json
from repro.nfactor.algorithm import NFactor, NFactorConfig
from repro.nfs import get_nf, nf_names
from repro.symbolic.engine import EngineConfig
from repro.symbolic.solver import clear_global_cache, global_cache

CORPUS_QUICK = ["nat", "firewall", "loadbalancer"]

#: Default output path, anchored at the repo root (not the CWD).
DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_perf_solver.json"


def run_corpus(
    names: List[str], solver_cache: bool
) -> Tuple[Dict[str, str], int, int, float]:
    """Synthesize ``names`` sequentially; returns (models, hits, misses, s)."""
    models: Dict[str, str] = {}
    hits = misses = 0
    t0 = time.perf_counter()
    for name in names:
        spec = get_nf(name)
        # artifact_cache off: this bench isolates the *solver* cache.
        config = NFactorConfig(
            engine=EngineConfig(solver_cache=solver_cache), artifact_cache=False
        )
        result = NFactor(spec.source, name=name, config=config).synthesize()
        models[name] = model_to_json(result.model)
        hits += result.stats.solver_cache_hits
        misses += result.stats.solver_cache_misses
    return models, hits, misses, time.perf_counter() - t0


def measure(names: List[str]) -> Dict[str, object]:
    """The full baseline/cold/warm comparison over ``names``.

    The persistent artifact store (repro.cache) is disabled for the
    duration: it would reload the solver cache from disk and turn the
    "cold" run warm, and memoized pipeline phases would hide the solver
    cost this bench exists to measure.
    """
    from repro import cache as artifact_cache

    with artifact_cache.override(enabled=False):
        return _measure(names)


def _measure(names: List[str]) -> Dict[str, object]:
    clear_global_cache()
    base_models, _, _, t_base = run_corpus(names, solver_cache=False)

    clear_global_cache()
    cold_models, cold_hits, cold_misses, t_cold = run_corpus(names, solver_cache=True)
    warm_models, warm_hits, warm_misses, t_warm = run_corpus(names, solver_cache=True)

    identical = base_models == cold_models == warm_models
    hits = cold_hits + warm_hits
    misses = cold_misses + warm_misses
    return {
        "nfs": names,
        "identical_models": identical,
        "baseline_s": round(t_base, 4),
        "cold_s": round(t_cold, 4),
        "warm_s": round(t_warm, 4),
        "speedup_cold": round(t_base / t_cold, 2) if t_cold else 0.0,
        "speedup_warm": round(t_base / t_warm, 2) if t_warm else 0.0,
        "cold_hits": cold_hits,
        "cold_misses": cold_misses,
        "warm_hits": warm_hits,
        "warm_misses": warm_misses,
        "hit_rate": round(hits / (hits + misses), 4) if hits + misses else 0.0,
        "warm_hit_rate": (
            round(warm_hits / (warm_hits + warm_misses), 4)
            if warm_hits + warm_misses
            else 0.0
        ),
        "cache_entries": len(global_cache()),
    }


def report(row: Dict[str, object]) -> None:
    print_table(
        "Solver caching (baseline / cold / warm)",
        ["NFs", "base", "cold", "warm", "speedup cold", "speedup warm",
         "hit rate", "warm hit rate", "identical"],
        [[
            len(row["nfs"]), f"{row['baseline_s']}s", f"{row['cold_s']}s",
            f"{row['warm_s']}s", f"{row['speedup_cold']}x",
            f"{row['speedup_warm']}x", f"{row['hit_rate']:.0%}",
            f"{row['warm_hit_rate']:.0%}", row["identical_models"],
        ]],
    )


# -- pytest benchmark entry ---------------------------------------------------


def test_perf_solver(benchmark):
    row = benchmark.pedantic(measure, args=(list(nf_names()),), rounds=1, iterations=1)
    for key, value in row.items():
        benchmark.extra_info[key] = value
    report(row)

    assert row["identical_models"], "caching changed a synthesized model"
    assert row["speedup_warm"] >= 1.5, f"warm speedup {row['speedup_warm']}x < 1.5x"
    assert row["hit_rate"] >= 0.5, f"cache hit rate {row['hit_rate']:.0%} < 50%"


# -- script entry (CI perf-smoke) ---------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="3-NF subset; relax thresholds to hit-rate > 0 (CI smoke)",
    )
    parser.add_argument(
        "--out",
        "--json",
        dest="out",
        default=DEFAULT_OUT,
        type=Path,
        help=f"result JSON path (default: {DEFAULT_OUT.name} at the repo root)",
    )
    args = parser.parse_args(argv)

    names = CORPUS_QUICK if args.quick else list(nf_names())
    row = measure(names)
    row["mode"] = "quick" if args.quick else "full"
    report(row)

    write_bench_json(args.out, "perf_solver", row)

    failures = []
    if not row["identical_models"]:
        failures.append("caching changed a synthesized model")
    if row["hit_rate"] <= 0:
        failures.append("cache hit rate is zero")
    if not args.quick:
        if row["speedup_warm"] < 1.5:
            failures.append(f"warm speedup {row['speedup_warm']}x < 1.5x")
        if row["hit_rate"] < 0.5:
            failures.append(f"hit rate {row['hit_rate']:.0%} < 50%")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
