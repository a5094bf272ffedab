"""E9 — graph verification at scale: edge-summary cache + incremental re-verify.

Measures :mod:`repro.netverify` on a seeded ~30-NF layered DAG, five
ways, against a private temporary cache directory:

- **no-cache**    — edge cache disabled: every edge's transfer function
  is recomputed (the reference bytes);
- **cold**        — cache enabled over an empty directory: every edge
  misses and its summary is written;
- **warm**        — same directory, in-memory tier dropped (fresh
  process over a warm disk): every edge is a pure summary lookup, each
  distinct summary is read from disk once, and no solver check runs;
- **parallel**    — cache disabled, independent edges fanned over
  worker processes;
- **incremental** — one sink-layer NF is swapped for a different corpus
  NF and the graph re-verified warm: only the dirty region (the edited
  node's edges) recomputes.

Caching and parallelism must never change verdicts: the five runs'
canonical serializations (reachable spaces, traces, witnesses) are
asserted byte-identical — the incremental run against a fresh no-cache
recompute of the *edited* graph — before any timing is reported.

Runs two ways:

- as a pytest benchmark: ``pytest benchmarks/bench_perf_verify.py``
  (asserts the acceptance thresholds: incremental re-verify ≥ 10×
  faster than cold on the ~30-NF graph);
- as a script: ``python benchmarks/bench_perf_verify.py [--quick]``
  (``--quick`` uses a ~12-NF graph and only asserts identity, the warm
  run above and a proper dirty region — the CI ``perf-smoke`` job).  Both
  script modes write ``BENCH_perf_verify.json`` at the repo root.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict

from repro import cache as artifact_cache
from repro.netverify import GraphVerifier, GraphVerifyConfig, generate_graph
from repro.netverify.graph import DEFAULT_NF_POOL, _synthesized
from repro.symbolic.solver import Solver, clear_global_cache

FULL_NODES, FULL_WIDTH = 30, 5
QUICK_NODES, QUICK_WIDTH = 12, 4
SEED = 7

#: Default output path, anchored at the repo root (not the CWD).
DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_perf_verify.json"


def _verify(graph, use_cache: bool, jobs: int = 1):
    """One timed verification (solver cache off: honest cold timings).

    Returns the verdict, its wall time and the in-process solver
    checks it made."""
    clear_global_cache()
    config = GraphVerifyConfig(use_cache=use_cache, jobs=jobs, solver_cache=False)
    solver = Solver(cache=False)
    t0 = time.perf_counter()
    verdict = GraphVerifier(graph, solver=solver, config=config).verify()
    return verdict, time.perf_counter() - t0, solver.checks


def _edit_sink_node(graph) -> str:
    """Swap one last-layer node's NF for a different corpus NF.

    A sink-layer edit has the smallest downstream cone — the
    best case the edge cache is built for (and the common one:
    topology edits land at the leaves far more often than at the
    shared trunk).  Returns the edited node's name.
    """
    victim = graph.topo_levels()[-1][0]
    current = graph.nodes[victim].model.name
    replacement = next(nf for nf in DEFAULT_NF_POOL if nf != current)
    model, key = _synthesized(replacement)
    graph.replace_model(victim, model, model_key=key)
    return victim


def measure(n_nodes: int, width: int) -> Dict[str, object]:
    """The five-way comparison over a private temp cache dir."""
    tmp = tempfile.mkdtemp(prefix="repro-bench-verify-")
    try:
        with artifact_cache.override(directory=tmp, enabled=True):
            graph = generate_graph(n_nodes, seed=SEED, width=width)
            # Pre-synthesize the incremental run's replacement model so
            # model synthesis never pollutes a verification timing.
            for nf in DEFAULT_NF_POOL:
                _synthesized(nf)

            with artifact_cache.override(enabled=False):
                nocache, t_nocache, _ = _verify(graph, use_cache=False)

            cold, t_cold, _ = _verify(graph, use_cache=True)

            # Fresh-process simulation: only the disk tier survives, so
            # the warm run reads each distinct summary from disk once
            # (edge tasks whose input repeats one hit the memory tier).
            store = artifact_cache.get_store()
            summaries = len(store.list_objects(("edge",), limit=cold.stats.edges))
            store.drop_memory()
            disk_hits = store.counters.get("disk.hits", 0)
            warm, t_warm, warm_checks = _verify(graph, use_cache=True)
            warm_disk_hits = store.counters.get("disk.hits", 0) - disk_hits

            with artifact_cache.override(enabled=False):
                par, t_par, _ = _verify(graph, use_cache=False, jobs=4)

            edited = _edit_sink_node(graph)
            incr, t_incr, _ = _verify(graph, use_cache=True)
            with artifact_cache.override(enabled=False):
                fresh, t_fresh, _ = _verify(graph, use_cache=False)
    finally:
        clear_global_cache()
        shutil.rmtree(tmp, ignore_errors=True)

    identical = nocache.to_json() == cold.to_json() == warm.to_json() == par.to_json()
    incr_identical = incr.to_json() == fresh.to_json()
    return {
        "n_nodes": graph.n_nodes,
        "n_graph_edges": graph.n_edges,
        "edges": cold.stats.edges,
        "identical_verdicts": identical,
        "incremental_identical": incr_identical,
        "can_reach": cold.can_reach,
        "n_spaces": cold.n_spaces,
        "nocache_s": round(t_nocache, 4),
        "cold_s": round(t_cold, 4),
        "warm_s": round(t_warm, 4),
        "parallel_s": round(t_par, 4),
        "incremental_s": round(t_incr, 4),
        "fresh_recompute_s": round(t_fresh, 4),
        "warm_hits": warm.stats.cache_hits,
        "summaries": summaries,
        "warm_disk_hits": warm_disk_hits,
        "warm_dirty": warm.stats.dirty_edges,
        "warm_solver_checks": warm_checks,
        "incr_hits": incr.stats.cache_hits,
        "incr_dirty": incr.stats.dirty_edges,
        "edited_node": edited,
        "speedup_warm": round(t_cold / t_warm, 2) if t_warm else 0.0,
        "speedup_incremental": round(t_cold / t_incr, 2) if t_incr else 0.0,
    }


def report(row: Dict[str, object]) -> None:
    from common import print_table

    print_table(
        "Graph verification (cold / warm / incremental)",
        ["nodes", "edges", "cold", "warm", "incr", "warm hits",
         "incr dirty", "speedup warm", "speedup incr", "identical"],
        [[
            row["n_nodes"], row["edges"], f"{row['cold_s']}s",
            f"{row['warm_s']}s", f"{row['incremental_s']}s",
            f"{row['warm_hits']}/{row['edges']}", row["incr_dirty"],
            f"{row['speedup_warm']}x", f"{row['speedup_incremental']}x",
            row["identical_verdicts"] and row["incremental_identical"],
        ]],
    )


def check(row: Dict[str, object], quick: bool) -> list:
    failures = []
    if not row["identical_verdicts"]:
        failures.append("cache/parallel modes changed the verdict bytes")
    if not row["incremental_identical"]:
        failures.append("incremental re-verify diverged from a fresh recompute")
    if not row["can_reach"]:
        failures.append("generated graph unexpectedly blackholes everything")
    if row["warm_hits"] != row["edges"] or row["warm_dirty"] != 0:
        failures.append(
            f"warm run not pure lookup: {row['warm_hits']}/{row['edges']} hits, "
            f"{row['warm_dirty']} recomputed"
        )
    if row["warm_disk_hits"] != row["summaries"]:
        failures.append(
            f"warm run read {row['warm_disk_hits']}/{row['summaries']} "
            "summaries from disk, not each once"
        )
    if row["warm_solver_checks"] != 0:
        failures.append(
            f"warm run made {row['warm_solver_checks']} solver check(s), not 0"
        )
    if not 0 < row["incr_dirty"] < row["edges"]:
        failures.append(
            f"dirty region degenerate: {row['incr_dirty']}/{row['edges']} edges"
        )
    if not quick and row["speedup_incremental"] < 10.0:
        failures.append(
            f"incremental speedup {row['speedup_incremental']}x < 10x"
        )
    return failures


# -- pytest benchmark entry ---------------------------------------------------


def test_perf_verify(benchmark):
    row = benchmark.pedantic(
        measure, args=(FULL_NODES, FULL_WIDTH), rounds=1, iterations=1
    )
    for key, value in row.items():
        benchmark.extra_info[key] = value
    report(row)
    failures = check(row, quick=False)
    assert not failures, "; ".join(failures)


# -- script entry (CI perf-smoke) ---------------------------------------------


def main(argv=None) -> int:
    from common import write_bench_json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="~12-NF graph; only assert identity + warm hits (from disk, "
        "no solver check) + dirty region (CI smoke)",
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

    if args.quick:
        row = measure(QUICK_NODES, QUICK_WIDTH)
    else:
        row = measure(FULL_NODES, FULL_WIDTH)
    row["mode"] = "quick" if args.quick else "full"
    report(row)

    write_bench_json(args.out, "perf_verify", row)

    failures = check(row, quick=args.quick)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
