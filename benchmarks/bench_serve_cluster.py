"""E10 — cluster scaling: warm QPS, stickiness and failover under shards.

Measures the sharded cluster end-to-end over real sockets — an
in-process :class:`~repro.serve.cluster.ClusterHandle` (N shard
servers), driven through :class:`~repro.serve.client.ClusterClient`,
which places each request on its shard by consistent hashing, against
private per-shard cache directories:

- **warm QPS** — single-node warm throughput vs. the same corpus
  through a sharded cluster.  On a box with ``cpu_count >= 4`` the
  4-shard cluster must clear ``2.5x`` the single-node number; on
  smaller boxes (the 1-CPU CI container) the ratio is recorded but not
  gated — shards add nothing when they time-slice one core;
- **stickiness** — every NF's warm requests must land on exactly one
  shard (the ring, not a load balancer, places keys), and the cluster
  warm cache-hit rate must be at least the single-node one: routing
  that sprayed keys across shards would show up here as cold misses;
- **envelopes** — the ``model`` payload served through the cluster
  must be byte-identical to the single-node one for every NF;
- **failover** — killing one shard mid-load must lose nothing: every
  request of the segment still answers 200 (spilled to the next ring
  node) and the client's ``ClusterClient.failovers`` count moves.

Runs two ways:

- as a pytest benchmark: ``pytest benchmarks/bench_serve_cluster.py``;
- as a script: ``python benchmarks/bench_serve_cluster.py [--quick]``
  (the CI ``perf-smoke`` job runs ``--quick``).  Both write
  ``BENCH_serve_cluster.json`` at the repo root.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import print_table, write_bench_json
from repro.serve import (
    ClusterClient,
    ClusterHandle,
    ServeClient,
    ServeConfig,
    ServerHandle,
)

CORPUS_QUICK = ["nat", "firewall", "monitor"]
CORPUS_FULL = ["nat", "firewall", "monitor", "l2switch", "ratelimiter", "balance"]

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_serve_cluster.json"


class _Sample:
    __slots__ = ("name", "status", "cached", "shard", "model_sig")

    def __init__(self, name: str, status: int, cached: bool,
                 shard: Optional[str], model_sig: str) -> None:
        self.name = name
        self.status = status
        self.cached = cached
        self.shard = shard
        self.model_sig = model_sig


def _model_sig(response) -> str:
    return json.dumps(response.payload["result"]["model"], sort_keys=True)


def _fire(client, work: List[str], threads: int) -> Tuple[float, List[_Sample]]:
    """Fire ``work`` synthesize requests from ``threads`` threads sharing
    ``client`` (each thread gets its own connections); wall-time it."""
    samples: List[_Sample] = []
    lock = threading.Lock()
    cursor = iter(work)

    def pump() -> None:
        try:
            while True:
                with lock:
                    name = next(cursor, None)
                if name is None:
                    return
                response = client.synthesize(name)
                response.raise_for_status()
                sample = _Sample(
                    name,
                    response.status,
                    bool(response.payload["result"].get("cached")),
                    response.shard,
                    _model_sig(response),
                )
                with lock:
                    samples.append(sample)
        finally:
            client.close()

    pool = [threading.Thread(target=pump) for _ in range(threads)]
    t0 = time.perf_counter()
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    return time.perf_counter() - t0, samples


def _warm_plan(names: List[str], rounds: int) -> List[str]:
    return [name for _ in range(rounds) for name in names]


def measure_single(names: List[str], rounds: int, threads: int,
                   cache_dir: str) -> Dict[str, object]:
    """Single-node warm QPS + per-NF model signatures (the baseline)."""
    handle = ServerHandle(ServeConfig(port=0, workers=1, cache_dir=cache_dir))
    handle.start()
    try:
        client = ServeClient("127.0.0.1", handle.port, timeout=300)
        _fire(client, list(names), 1)               # cold: fill the cache
        _fire(client, list(names), 1)               # touch: memory tier hot
        elapsed, samples = _fire(client, _warm_plan(names, rounds), threads)
    finally:
        handle.stop()
    sigs = {}
    for sample in samples:
        sigs[sample.name] = sample.model_sig
    hits = sum(1 for s in samples if s.cached)
    return {
        "single_qps": round(len(samples) / elapsed, 1) if elapsed else 0.0,
        "single_warm_hit_rate": round(hits / len(samples), 3) if samples else 0.0,
        "single_sigs": sigs,
    }


def measure_cluster(names: List[str], rounds: int, shards: int,
                    threads: int) -> Dict[str, object]:
    """Cluster warm QPS, stickiness, hit rate and envelope signatures."""
    with ClusterHandle(shards=shards, workers_per_shard=1) as cluster:
        client = ClusterClient(cluster.endpoints, timeout=300)
        _fire(client, list(names), 1)               # cold: fill shard caches
        _fire(client, list(names), 1)               # touch: memory tiers hot
        elapsed, samples = _fire(client, _warm_plan(names, rounds), threads)
    shards_hit: Dict[str, set] = {}
    sigs: Dict[str, str] = {}
    for sample in samples:
        shards_hit.setdefault(sample.name, set()).add(sample.shard)
        sigs[sample.name] = sample.model_sig
    sticky = sum(1 for owners in shards_hit.values() if len(owners) == 1)
    hits = sum(1 for s in samples if s.cached)
    return {
        "shards": shards,
        "cluster_qps": round(len(samples) / elapsed, 1) if elapsed else 0.0,
        "cluster_warm_hit_rate": round(hits / len(samples), 3) if samples else 0.0,
        "sticky_nfs": sticky,
        "total_nfs": len(names),
        "shards_used": len({s.shard for s in samples}),
        "cluster_sigs": sigs,
    }


def measure_failover(names: List[str], shards: int) -> Dict[str, object]:
    """Kill a shard mid-segment; every request must still answer 200.

    The client has no background probes: the dead shard is discovered
    on the request path itself, which is what makes
    ``ClusterClient.failovers`` move.
    """
    with ClusterHandle(shards=shards, workers_per_shard=1) as cluster:
        client = ClusterClient(cluster.endpoints, timeout=300)
        _fire(client, list(names), 1)               # warm every shard
        segment = _warm_plan(names, 4)
        kill_at = len(segment) // 3
        ok = lost = 0
        try:
            # Kill the shard that actually owns the first NF's key —
            # with few shards the ring may leave shard 0 ownerless, and
            # killing a shard nobody routes to exercises nothing.
            probe = client.synthesize(names[0])
            probe.raise_for_status()
            victim = next(
                i for i, h in enumerate(cluster.shard_handles)
                if f"{cluster.host}:{h.port}" == probe.shard
            )
            for i, name in enumerate(segment):
                if i == kill_at:
                    cluster.kill_shard(victim)
                try:
                    response = client.synthesize(name)
                    ok += 1 if response.status == 200 else 0
                    lost += 0 if response.status == 200 else 1
                except Exception:
                    lost += 1
        finally:
            client.close()
    return {
        "failover_requests": len(segment),
        "failover_ok": ok,
        "failover_lost": lost,
        "failover_count": client.failovers,
    }


def measure(names: List[str], rounds: int, shards: int,
            threads: int) -> Dict[str, object]:
    import tempfile

    row: Dict[str, object] = {
        "nfs": list(names),
        "cpu_count": os.cpu_count() or 1,
        "warm_rounds": rounds,
        "threads": threads,
    }
    with tempfile.TemporaryDirectory(prefix="repro-bench-cluster-") as tmp:
        row.update(measure_single(names, rounds, threads, tmp))
    row.update(measure_cluster(names, rounds, shards, threads))
    row.update(measure_failover(names, shards=min(shards, 2)))
    single_sigs = row.pop("single_sigs")
    cluster_sigs = row.pop("cluster_sigs")
    row["envelope_mismatches"] = sum(
        1 for name in names if single_sigs.get(name) != cluster_sigs.get(name)
    )
    single_qps = row["single_qps"]
    row["speedup"] = (
        round(row["cluster_qps"] / single_qps, 2) if single_qps else 0.0
    )
    return row


def check(row: Dict[str, object]) -> List[str]:
    """The acceptance assertions; returns human-readable failures."""
    failures = []
    if row["cpu_count"] >= 4 and row["shards"] >= 4:
        if row["speedup"] < 2.5:
            failures.append(
                f"{row['shards']}-shard warm QPS {row['cluster_qps']} is only "
                f"{row['speedup']}x single-node {row['single_qps']} "
                f"(need 2.5x on {row['cpu_count']} CPUs)"
            )
    if row["sticky_nfs"] != row["total_nfs"]:
        failures.append(
            f"only {row['sticky_nfs']}/{row['total_nfs']} NFs stayed on one "
            "shard (routing is not sticky)"
        )
    if row["cluster_warm_hit_rate"] < row["single_warm_hit_rate"]:
        failures.append(
            f"cluster warm hit rate {row['cluster_warm_hit_rate']} below "
            f"single-node {row['single_warm_hit_rate']}"
        )
    if row["envelope_mismatches"]:
        failures.append(
            f"{row['envelope_mismatches']} NFs served different models "
            "through the cluster than single-node"
        )
    if row["failover_lost"]:
        failures.append(
            f"{row['failover_lost']} requests lost while killing a shard"
        )
    if row["failover_count"] == 0:
        failures.append("shard kill produced no failover")
    return failures


def report(row: Dict[str, object]) -> None:
    print_table(
        f"Cluster warm QPS ({row['shards']} shards vs single node, "
        f"{row['cpu_count']} CPUs)",
        ["NFs", "single QPS", "cluster QPS", "speedup", "hit rate (1 / N)",
         "sticky"],
        [[
            len(row["nfs"]), row["single_qps"], row["cluster_qps"],
            f"{row['speedup']}x",
            f"{row['single_warm_hit_rate']} / {row['cluster_warm_hit_rate']}",
            f"{row['sticky_nfs']}/{row['total_nfs']}",
        ]],
    )
    print_table(
        "Failover segment (one shard killed mid-load)",
        ["requests", "ok", "lost", "failovers", "envelope mismatches"],
        [[
            row["failover_requests"], row["failover_ok"],
            row["failover_lost"], row["failover_count"],
            row["envelope_mismatches"],
        ]],
    )


# -- pytest benchmark entry ---------------------------------------------------


def test_perf_serve_cluster(benchmark):
    row = benchmark.pedantic(
        measure, args=(CORPUS_QUICK, 6, 2, 4), rounds=1, iterations=1
    )
    for key, value in row.items():
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
        help="3 NFs, 2 shards, fewer warm rounds (the CI perf-smoke mode)",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    names = CORPUS_QUICK if args.quick else CORPUS_FULL
    row = measure(
        names,
        rounds=6 if args.quick else 12,
        shards=2 if args.quick else 4,
        threads=4 if args.quick else 8,
    )
    row["mode"] = "quick" if args.quick else "full"
    report(row)
    failures = check(row)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    write_bench_json(args.out, "serve_cluster", row)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
