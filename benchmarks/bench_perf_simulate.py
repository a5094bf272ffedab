"""E9 — simulate-path performance: interpreted vs compiled vs batch.

Measures the serve tier's packet hot path on warm models: the
interpreted :class:`ModelSimulator` (guard ASTs walked per packet via
``eval_symbolic``) against the model compiler
(:mod:`repro.model.compile` — config folding, decision-tree dispatch,
``compile()``-ed guard functions, reused interpreter) in both
single-packet and :meth:`process_many` batch form.

Outcome byte-identity is asserted before any number is reported: all
three runs must produce the same sent packets, the same
matched-entry counts, and the same end state from the same workload.
Cold compile time is reported separately from warm throughput — the
compiler pays its cost once per model, not per packet.

Runs two ways:

- as a pytest benchmark: ``pytest benchmarks/bench_perf_simulate.py``
  (asserts the acceptance thresholds: identical outcomes, >=5x warm
  compiled-batch throughput on snortlite);
- as a script: ``python benchmarks/bench_perf_simulate.py [--quick]``
  (CI ``perf-smoke``: a 3-NF subset with a smaller workload, same
  assertions).  Both script modes write ``BENCH_perf_simulate.json``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Dict, List

from common import print_table, synthesize, write_bench_json
from repro.interp.values import deep_copy
from repro.model.compile import compile_model
from repro.model.simulator import ModelSimulator
from repro.net.generator import TrafficGenerator, WorkloadSpec
from repro.nfs import get_nf

CORPUS = ["nat", "firewall", "balance", "proxycache", "snortlite"]
CORPUS_QUICK = ["nat", "firewall", "snortlite"]

#: The ISSUE's throughput target lives on the largest model.
TARGET_NF = "snortlite"
TARGET_SPEEDUP = 5.0

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_perf_simulate.json"


def _outcome(sim) -> tuple:
    stats = sim.stats
    return (
        stats.packets,
        stats.forwarded,
        stats.dropped_default,
        stats.dropped_entry,
        dict(stats.matched_entries),
    )


def run_one(name: str, n_packets: int) -> Dict[str, object]:
    """Interpreted/compiled/batch over one warm model + one workload."""
    result = synthesize(name)
    spec = get_nf(name)
    workload = WorkloadSpec(
        n_packets=n_packets, seed=1_009, interesting=spec.interesting or {}
    )
    packets = list(TrafficGenerator(workload).packets())

    interp = ModelSimulator(
        result.model, deep_copy(result.module_env), pkt_param=result.pkt_param
    )
    t0 = time.perf_counter()
    out_interp = [interp.process(pkt.copy()) for pkt in packets]
    interp_s = time.perf_counter() - t0

    compiled = compile_model(result.model, pkt_param=result.pkt_param)

    sim_c = compiled.simulator(deep_copy(result.module_env))
    t0 = time.perf_counter()
    out_compiled = [sim_c.process(pkt.copy()) for pkt in packets]
    compiled_s = time.perf_counter() - t0

    sim_b = compiled.simulator(deep_copy(result.module_env))
    batch = [pkt.copy() for pkt in packets]
    t0 = time.perf_counter()
    out_batch = sim_b.process_many(batch)
    batch_s = time.perf_counter() - t0

    identical = (
        out_interp == out_compiled == out_batch
        and _outcome(interp) == _outcome(sim_c) == _outcome(sim_b)
        and interp.state == sim_c.state == sim_b.state
    )
    n = len(packets)
    return {
        "nf": name,
        "n_packets": n,
        "n_entries": compiled.n_entries,
        "tree_depth": compiled.tree_depth,
        "compile_s": round(compiled.compile_seconds, 4),
        "interpreted_pps": round(n / interp_s, 1) if interp_s else 0.0,
        "compiled_pps": round(n / compiled_s, 1) if compiled_s else 0.0,
        "batch_pps": round(n / batch_s, 1) if batch_s else 0.0,
        "compiled_speedup": round(interp_s / compiled_s, 2) if compiled_s else 0.0,
        "batch_speedup": round(interp_s / batch_s, 2) if batch_s else 0.0,
        "interpreted_guard_evals": interp.stats.guard_evals,
        "compiled_guard_evals": sim_c.stats.guard_evals,
        "identical_outcomes": identical,
    }


def measure(names: List[str], n_packets: int) -> Dict[str, object]:
    from repro import cache as artifact_cache

    with artifact_cache.override(enabled=False):
        per_nf = [run_one(name, n_packets) for name in names]
    target = next((r for r in per_nf if r["nf"] == TARGET_NF), None)
    return {
        "nfs": names,
        "n_packets": n_packets,
        "target_nf": TARGET_NF,
        "target_speedup": TARGET_SPEEDUP,
        "target_batch_speedup": target["batch_speedup"] if target else None,
        "identical_outcomes": all(r["identical_outcomes"] for r in per_nf),
        "per_nf": per_nf,
    }


def report(row: Dict[str, object]) -> None:
    print_table(
        "Warm simulate throughput (interpreted vs compiled vs batch)",
        ["NF", "entries", "compile", "interp pps", "compiled pps",
         "batch pps", "speedup", "batch", "identical"],
        [[
            r["nf"], r["n_entries"],
            f"{r['compile_s'] * 1000:.1f}ms",
            r["interpreted_pps"], r["compiled_pps"], r["batch_pps"],
            f"{r['compiled_speedup']}x", f"{r['batch_speedup']}x",
            r["identical_outcomes"],
        ] for r in row["per_nf"]],
    )


def check(row: Dict[str, object]) -> List[str]:
    failures = []
    if not row["identical_outcomes"]:
        failures.append("compiled outcomes diverged from the interpreter")
    target = row["target_batch_speedup"]
    if target is None:
        failures.append(f"{TARGET_NF} missing from the run")
    elif target < TARGET_SPEEDUP:
        failures.append(
            f"{TARGET_NF} compiled-batch speedup {target}x is below the "
            f"{TARGET_SPEEDUP}x target"
        )
    return failures


# -- pytest benchmark entry ---------------------------------------------------


def test_perf_simulate(benchmark):
    row = benchmark.pedantic(
        measure, args=(CORPUS, 3000), rounds=1, iterations=1
    )
    for key, value in row.items():
        if key != "per_nf":
            benchmark.extra_info[key] = value
    report(row)
    failures = check(row)
    assert not failures, "; ".join(failures)


# -- script entry (CI perf-smoke) ---------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="3-NF subset with a smaller workload (CI smoke)",
    )
    parser.add_argument(
        "-n", "--packets", type=int, default=None,
        help="workload size per NF (default: 3000, quick: 1500)",
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

    names = CORPUS_QUICK if args.quick else CORPUS
    n_packets = args.packets or (1500 if args.quick else 3000)
    row = measure(names, n_packets)
    row["mode"] = "quick" if args.quick else "full"
    report(row)

    write_bench_json(args.out, "perf_simulate", row)

    failures = check(row)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
