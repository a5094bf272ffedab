"""``synth-cold``: one client synthesizes the 9-NF corpus back to back, cold.

The artifact store is off and the solver constraint cache is cleared
before every NF, so each synthesis runs every pipeline layer: parse →
normalize → flatten → PDG → slicing → StateAlyzer → symbolic
exploration (engine + solver) → refactor.  Serving and the caches do
nothing here.  snortlite is ~95% of a pass; the other eight NFs expose
the front-end fixed costs it hides, which is what ``op_p50_ms`` (the
median per-NF synthesis latency) shows.

The seed orders each pass and seeds the differential-test traffic; the
work itself is the same corpus on every seed, so figures from
different seeds are comparable.  A pass is one synthesis of every NF;
passes run back to back while another one fits in the run's time.
"""

from __future__ import annotations

import gc
import random
import time
from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

from common import (
    Outcome, another_fits, median, more_setup, p99, ratio, self_peak_rss_mb, timed_python,
)
from tracing import LayerTrace

#: Set-up: a fresh interpreter importing the pipeline and loading the
#: corpus (the cold start every ``repro synthesize`` pays).
SETUP_CODE = (
    "import repro.nfactor.algorithm, repro.equiv.differential\n"
    "from repro.nfs import all_nfs\n"
    "all_nfs()\n"
)

#: Untimed model-vs-program check per NF after the timed passes.
CHECK_PACKETS = 500

#: The NF that dominates a pass; the other eight expose front-end costs.
BIG_NF = "snortlite"

ENGINE, SOLVER = "symbolic.engine", "symbolic.solver"
LAYER_SPANS = (
    "lang.parse", "nfactor.normalize", "pdg.flatten", "pdg.build",
    "slicing.backward", "statealyzer.classify", "nfactor.refactor",
)


def _layer_trace() -> LayerTrace:
    from repro.nfactor import algorithm
    from repro.slicing.static import StaticSlicer
    from repro.symbolic.engine import SymbolicEngine
    from repro.symbolic.solver import Solver

    trace = LayerTrace()
    trace.wrap(algorithm, "parse_program", "lang.parse")
    trace.wrap(algorithm, "unfold_tcp", "nfactor.normalize")
    trace.wrap(algorithm, "normalize_structure", "nfactor.normalize")
    trace.wrap(algorithm, "flatten_program", "pdg.flatten")
    trace.wrap(algorithm, "build_pdg", "pdg.build")
    trace.wrap(StaticSlicer, "backward_many", "slicing.backward")
    trace.wrap(algorithm, "classify_variables", "statealyzer.classify")
    trace.wrap(algorithm, "build_model", "nfactor.refactor")
    trace.wrap(SymbolicEngine, "explore", ENGINE)
    for method in ("check", "check_extended", "check_assuming"):
        trace.wrap(Solver, method, SOLVER)
    return trace


def _signature(result) -> Dict[str, int]:
    """Counts that must repeat exactly on every pass."""
    s = result.stats
    return {
        "states_explored": s.states_explored, "solver_checks": s.solver_checks,
        "entries": s.n_entries, "pruned_subsumed": s.pruned_subsumed,
        "witness_hits": s.witness_hits, "pdg_nodes": len(result.pdg.stmts),
        "pdg_edges": result.pdg.edge_count(),
    }


def run(seed: int, seconds: float, traced: bool, workdir) -> Tuple[Outcome, Optional[LayerTrace]]:
    from repro import cache as artifact_cache
    from repro.equiv.differential import differential_test
    from repro.nfactor.algorithm import NFactor
    from repro.nfs import all_nfs
    from repro.symbolic.solver import clear_global_cache

    out = Outcome()
    setup: List[float] = []
    while more_setup(setup):
        setup.append(timed_python(SETUP_CODE))
    specs = all_nfs()
    rng = random.Random(f"synth-cold:{seed}")
    latencies_ms: Dict[str, List[float]] = {spec.name: [] for spec in specs}
    passes_s: List[float] = []
    first: Dict[str, Dict[str, int]] = {}
    last: Dict[str, object] = {}

    trace = _layer_trace() if traced else None
    with artifact_cache.override(enabled=False), trace or nullcontext():
        deadline = time.perf_counter() + seconds
        while not passes_s or another_fits(deadline, passes_s):
            t_pass = time.perf_counter()
            for spec in rng.sample(specs, len(specs)):
                # Hold one result per NF (and no other reference to one),
                # so peak RSS does not depend on the pass order or count.
                last.pop(spec.name, None)
                clear_global_cache()
                gc.collect()
                t0 = time.perf_counter()
                last[spec.name] = NFactor(spec.source, name=spec.name, entry=spec.entry).synthesize()
                latencies_ms[spec.name].append(1000.0 * (time.perf_counter() - t0))
                out.attempted += 1
                # Determinism is part of correctness: a pass whose counts
                # differ from the first pass's is a wrong output.
                signature = _signature(last[spec.name])
                if first.setdefault(spec.name, signature) != signature:
                    out.failed += 1
            passes_s.append(time.perf_counter() - t_pass)
        rss = self_peak_rss_mb()

    for i, spec in enumerate(specs):
        report = differential_test(
            last[spec.name], n_packets=CHECK_PACKETS, seed=seed * 1000 + i,
            interesting=dict(spec.interesting), compiled=True,
        )
        if not report.identical:
            out.failed += 1

    # Each NF's median over the passes; a pass of these medians is the
    # median pass, and its operations the latency distribution.
    typical_ms = [median(v) for v in latencies_ms.values()]
    n = len(passes_s)
    out.e2e = {
        "setup_s": median(setup),
        "pass_s": sum(typical_ms) / 1000.0,
        "op_p50_ms": median(typical_ms),
        "op_p99_ms": p99(typical_ms),
        "ops_per_s": 1000.0 * len(typical_ms) / sum(typical_ms),
        "peak_rss_mb": rss,
    }
    out.named = {
        "corpus_synth_s": (out.e2e["pass_s"], "s"),
        "small_nf_synth_ms": (sum(
            median(latencies_ms[spec.name]) for spec in specs if spec.name != BIG_NF), "ms"),
        "synth_peak_rss_mb": (rss, "MiB"),
    }
    out.notes = {"passes": n, "samples": out.attempted}
    if traced:
        totals = {k: sum(sig[k] for sig in first.values()) for k in first[specs[0].name]}
        checks = trace.count(SOLVER) / n
        unknown = trace.count(SOLVER, status="unknown") / n
        out.layers = {
            "symbolic.engine.self_s": trace.total([ENGINE], minus=[SOLVER]) / n,
            "symbolic.engine.states_explored": totals["states_explored"],
            "symbolic.engine.forks": trace.counter("se.paths_forked") / n,
            "symbolic.engine.pruned_subsumed": totals["pruned_subsumed"],
            "symbolic.engine.witness_hits": totals["witness_hits"],
            "symbolic.solver.check_s": trace.total([SOLVER]) / n,
            "symbolic.solver.checks": checks,
            "symbolic.solver.unknown": unknown,
            "symbolic.solver.decided_ratio": ratio(checks - unknown, checks),
            "pdg.nodes": totals["pdg_nodes"],
            "pdg.edges": totals["pdg_edges"],
            "model.entries": totals["entries"],
        }
        for name in LAYER_SPANS:
            out.layers[name + "_s"] = trace.total([name]) / n
    return out, trace
