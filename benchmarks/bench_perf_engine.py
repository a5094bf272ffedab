"""E8 — engine cold-path performance: the witness shortcut.

Measures the engine's cold-path stack end-to-end on the corpus with
every cache pinned off (persistent artifact store disabled, solver
constraint cache off): what's left is the raw exploration cost the
cold-path layers attack.

- **baseline**  — the witness shortcut off: every branch arm is a
  fresh solver check;
- **optimized** — the witness shortcut on (the default configuration).

Both produce byte-identical serialized models — that is asserted
before any number is reported.  The check/state reductions are
machine-independent; ``cpu_count`` is recorded beside the wall times.

Runs two ways:

- as a pytest benchmark: ``pytest benchmarks/bench_perf_engine.py``
  (asserts the acceptance thresholds: >=20% fewer solver checks or
  explored states on >=3 NFs, identical models);
- as a script: ``python benchmarks/bench_perf_engine.py [--quick]``
  (``--quick`` uses a 3-NF subset and only asserts model identity plus
  a non-zero reduction somewhere — the CI ``perf-smoke`` job).  Both
  script modes write ``BENCH_perf_engine.json``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import Dict, List

from common import print_table, write_bench_json
from repro.model.serialize import model_to_json
from repro.nfactor.algorithm import NFactor, NFactorConfig
from repro.nfs import get_nf, nf_names
from repro.symbolic.engine import EngineConfig

CORPUS_QUICK = ["nat", "firewall", "snortlite"]

#: Default output path, anchored at the repo root (not the CWD).
DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_perf_engine.json"

BASELINE = dict(witness_shortcut=False)


def run_one(name: str, **engine_kwargs) -> Dict[str, object]:
    """One cold synthesis; returns the model bytes and engine counters."""
    spec = get_nf(name)
    config = NFactorConfig(
        engine=EngineConfig(solver_cache=False, **engine_kwargs),
        artifact_cache=False,
    )
    t0 = time.perf_counter()
    result = NFactor(spec.source, name=name, config=config).synthesize()
    wall_s = time.perf_counter() - t0
    stats = result.stats
    return {
        "model": model_to_json(result.model),
        "wall_s": round(wall_s, 4),
        "solver_checks": stats.solver_checks,
        "states_explored": stats.states_explored,
        "witness_hits": stats.witness_hits,
    }


def measure(names: List[str]) -> Dict[str, object]:
    """Baseline/optimized per NF."""
    from repro import cache as artifact_cache

    with artifact_cache.override(enabled=False):
        return _measure(names)


def _measure(names: List[str]) -> Dict[str, object]:
    per_nf: List[Dict[str, object]] = []
    identical = True
    reduced = 0
    for name in names:
        base = run_one(name, **BASELINE)
        opt = run_one(name)
        identical = identical and base["model"] == opt["model"]
        check_cut = _reduction(base["solver_checks"], opt["solver_checks"])
        state_cut = _reduction(base["states_explored"], opt["states_explored"])
        reduced += max(check_cut, state_cut) >= 0.20
        per_nf.append(
            {
                "nf": name,
                "baseline_wall_s": base["wall_s"],
                "optimized_wall_s": opt["wall_s"],
                "baseline_checks": base["solver_checks"],
                "optimized_checks": opt["solver_checks"],
                "check_reduction": round(check_cut, 4),
                "baseline_states": base["states_explored"],
                "optimized_states": opt["states_explored"],
                "state_reduction": round(state_cut, 4),
                "witness_hits": opt["witness_hits"],
                "identical_model": base["model"] == opt["model"],
            }
        )

    return {
        "nfs": names,
        "cpu_count": os.cpu_count(),
        "identical_models": identical,
        "nfs_with_20pct_reduction": reduced,
        "per_nf": per_nf,
    }


def _reduction(before: int, after: int) -> float:
    return (before - after) / before if before else 0.0


def report(row: Dict[str, object]) -> None:
    print_table(
        "Engine cold path (baseline vs optimized, caches off)",
        ["NF", "base", "opt", "checks", "-> checks", "cut",
         "states", "-> states", "cut", "witness hits", "identical"],
        [[
            r["nf"], f"{r['baseline_wall_s']}s", f"{r['optimized_wall_s']}s",
            r["baseline_checks"], r["optimized_checks"],
            f"{r['check_reduction']:.0%}",
            r["baseline_states"], r["optimized_states"],
            f"{r['state_reduction']:.0%}",
            r["witness_hits"], r["identical_model"],
        ] for r in row["per_nf"]],
    )


# -- pytest benchmark entry ---------------------------------------------------


def test_perf_engine(benchmark):
    row = benchmark.pedantic(
        measure, args=(list(nf_names()),), rounds=1, iterations=1
    )
    for key, value in row.items():
        if key != "per_nf":
            benchmark.extra_info[key] = value
    report(row)

    assert row["identical_models"], "a cold-path layer changed a model"
    assert row["nfs_with_20pct_reduction"] >= 3, (
        f"only {row['nfs_with_20pct_reduction']} NFs saw a >=20% "
        "check/state reduction (need 3)"
    )


# -- script entry (CI perf-smoke) ---------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="3-NF subset; only assert identity + some reduction (CI smoke)",
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

    write_bench_json(args.out, "perf_engine", row)

    failures = []
    if not row["identical_models"]:
        failures.append("a cold-path layer changed a synthesized model")
    if args.quick:
        if row["nfs_with_20pct_reduction"] < 1:
            failures.append("no NF saw a >=20% check/state reduction")
    elif row["nfs_with_20pct_reduction"] < 3:
        failures.append(
            f"only {row['nfs_with_20pct_reduction']} NFs saw a >=20% "
            "check/state reduction (need 3)"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
