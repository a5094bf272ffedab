#!/usr/bin/env python3
"""perfbench: cold synthesis, warm serving and incremental re-verification.

Run from the repository root::

    python3 perfbench/run.py --workload synth-cold --seed 1 --seconds 30 --trace 0

``--workload`` is one of ``synth-cold``, ``serve-warm`` and
``verify-incremental`` (see ``perfbench/README.md`` for what each
measures and why).  ``--trace 0`` reports the end-to-end metrics named
in ``BENCHMARK.json``; ``--trace 1`` wraps each layer's entry point in
``repro.obs`` spans and reports the per-layer metrics instead, plus
the end-to-end figures measured with tracing on (``traced.*``), whose
ratio to an untraced run is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
result, stamped with the CPU count, Python version, source revision
and seed, is also written to ``.perfbench/results/``, with the spans of
a traced run beside it.  Everything the benchmark writes stays under
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

from common import ROOT, SRC, ratio

BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
WORKLOADS = ("synth-cold", "serve-warm", "verify-incremental")
#: End-to-end figures repeated as ``traced.<name>`` on a traced run.
TRACED_E2E = ("pass_s", "op_p50_ms", "op_p99_ms", "ops_per_s", "peak_rss_mb")


def _revision() -> dict:
    """The git sha when the checkout is a repository, and a source digest."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.blake2b(digest_size=16)
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "source_digest": digest.hexdigest()}


def _definitions() -> tuple:
    """(end-to-end units, per-layer units, per-layer owners) by metric name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((BENCH_DIR / "layers.json").read_text())["metrics"]
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, per_layer, {name: set(info["moves"]) for name, info in layers.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = WORK / "results"
    workdir.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    # Keep every artifact-store write (ours and any child's) in the checkout.
    os.environ["REPRO_CACHE_DIR"] = str(WORK / "cache")
    sys.path.insert(0, str(SRC))

    import serve_warm
    import synth_cold
    import verify_incremental

    module = {
        "synth-cold": synth_cold,
        "serve-warm": serve_warm,
        "verify-incremental": verify_incremental,
    }[args.workload]
    e2e_units, layer_units, owners = _definitions()
    try:
        outcome, trace = module.run(args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = {f"traced.{k}": outcome.e2e[k] for k in TRACED_E2E}
        for name in layer_units:
            if name in outcome.layers:
                metrics[name] = outcome.layers[name]
            elif name not in metrics:
                # A layer this workload does not exercise did no work here.
                if args.workload in owners.get(name, ()):
                    raise RuntimeError(f"{args.workload} did not measure {name}")
                metrics[name] = 0
        units = layer_units
    else:
        metrics = dict(outcome.e2e)
        units = e2e_units
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    # The workload's figures under the names its documentation uses.
    named = {
        "setup_s": (outcome.e2e["setup_s"], "s"),
        **outcome.named,
        "error_rate": (ratio(outcome.failed, outcome.attempted), "ratio"),
    }

    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cpu_count": os.cpu_count(),
        "python": platform.python_version(), **_revision(),
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {**stamp, "attempted": outcome.attempted, "failed": outcome.failed,
              "notes": outcome.notes, "named": named, "metrics": metrics}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True))
    if trace is not None:
        trace.dump(results / f"{stem}.spans.jsonl")

    print("perfbench " + json.dumps(stamp, sort_keys=True))
    print("perfbench notes " + json.dumps(outcome.notes, sort_keys=True))
    for name, (value, unit) in named.items():
        print(f"  {name} = {value:.6g} {unit}")
    for name in sorted(metrics):
        print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
