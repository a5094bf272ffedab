"""``serve-warm``: a ``repro serve --workers 2`` process under 2 closed-loop clients.

Each client thread holds one keep-alive :class:`ServeClient` and runs
rounds: one round is one request for each of the 9 corpus NFs, in a
seeded order; each request is ``/v1/simulate`` on a seeded 32-packet
``TrafficGenerator`` batch (80%) or ``/v1/synthesize`` (20%).  All nine
NFs are in the mix on purpose: that is one more than the per-worker
compiled-model memo holds (``_COMPILED_MEMO_MAX = 8`` in
``serve/jobs.py``), so workers keep recompiling and snortlite's
recompile sets the tail.  ``model.compile.per_1k_requests`` records
that pressure; this benchmark does not fix it.

The server shares an artifact directory that the benchmark fills
beforehand, so start-up reads every model from disk and the synthesis
engine does no work here: the path measured is protocol → queue →
worker → artifact cache → model compiler → compiled simulator.

Every simulate response is checked against a fresh reference
interpreter of the NF program run on the same batch (workers simulate
each batch from the NF's initial state, so the expected outputs are
computed once, before the timed window); every synthesize response
must carry the model synthesized beforehand.  A pass is one round.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import Outcome, child_env, median, more_setup, p99, ratio
from tracing import LayerTrace

WORKERS = 2
CLIENTS = 2
SIMULATE_SHARE = 0.8
BATCH_PACKETS = 32
#: Distinct seeded batches per NF (their reference outputs are precomputed).
BATCHES_PER_NF = 4


class _Server:
    """One ``python -m repro serve`` child process and its worker pool."""

    def __init__(self, cache_dir: Path, log_path: Path) -> None:
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(WORKERS), "--cache-dir", str(cache_dir)],
            env=child_env(), stdout=subprocess.DEVNULL, stderr=self._log,
            start_new_session=True,
        )
        try:
            self.port = self._wait_for_port()
        except BaseException:
            self.stop()
            raise

    def _wait_for_port(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited early, see {self.log_path}")
            for line in self.log_path.read_text(errors="replace").splitlines():
                if '"serve.start"' in line:
                    return int(json.loads(line)["port"])
            time.sleep(0.02)
        raise RuntimeError("repro serve did not report its port in time")

    def peak_rss_mb(self) -> float:
        """Summed peak RSS of the server and its worker processes."""
        pids = [self.proc.pid]
        task_dir = Path(f"/proc/{self.proc.pid}/task")
        for task in task_dir.iterdir():
            pids += [int(p) for p in (task / "children").read_text().split()]
        total_kb = 0
        for pid in pids:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        """Drain the server, then make sure no worker of it outlives it."""
        try:
            self.proc.send_signal(signal.SIGTERM)
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait(timeout=30)
        finally:
            self._log.close()
            _reap_group(self.proc.pid)


def _reap_group(pgid: int, timeout: float = 30.0) -> None:
    """Kill what is left of a process group and wait until it is gone."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    raise RuntimeError(f"process group {pgid} did not exit")


def _prefill(cache_dir: Path, specs, seed: int) -> Dict[str, Dict[str, Any]]:
    """Fill the shared artifact directory; return each NF's expectations.

    Synthesizes every NF once through the model tier and writes its
    sim-tier bundle, so the server loads everything from disk.  The
    expected simulate outputs come from the reference interpreter of
    the NF program (``SynthesisResult.make_reference``).
    """
    from repro import cache as artifact_cache
    from repro.net.generator import TrafficGenerator, WorkloadSpec
    from repro.nfactor.algorithm import synthesize_model_cached, target_artifact_keys

    expected: Dict[str, Dict[str, Any]] = {}
    with artifact_cache.override(directory=str(cache_dir), enabled=True):
        for spec in specs:
            cm = synthesize_model_cached(
                spec.source, name=spec.name, entry=spec.entry, keep_result=True
            )
            result = cm.result
            sim_key = target_artifact_keys(spec.source, spec.name, spec.entry)["sim"]
            artifact_cache.get_store().put_object(
                "sim", sim_key, (result.model, result.module_env, result.pkt_param)
            )
            batches = []
            for b in range(BATCHES_PER_NF):
                batch_seed = random.Random(f"serve-warm:{seed}:{spec.name}:{b}").getrandbits(32)
                packets = list(TrafficGenerator(WorkloadSpec(
                    n_packets=BATCH_PACKETS, seed=batch_seed,
                    interesting=dict(spec.interesting),
                )).packets())
                reference = result.make_reference()
                outputs = [
                    [{"packet": out.to_dict(), "port": port}
                     for out, port in reference.process_packet(pkt.copy())]
                    for pkt in packets
                ]
                batches.append(([p.to_dict() for p in packets], outputs))
            expected[spec.name] = {
                "model": json.loads(cm.model_json), "batches": batches,
            }
    return expected


def _start_and_warm(cache_dir: Path, log_path: Path, expected) -> _Server:
    """Start a server and warm it: synthesize every NF, simulate each per worker."""
    server = _Server(cache_dir, log_path)
    try:
        _warm(server.port, sorted(expected), expected)
    except BaseException:
        server.stop()
        raise
    return server


def _warm(port: int, names: List[str], expected) -> None:
    from repro.serve.client import ServeClient

    clients = [ServeClient("127.0.0.1", port, timeout=120) for _ in range(WORKERS)]
    if not clients[0].wait_until_up(timeout=60):
        raise RuntimeError("repro serve never answered /healthz")
    errors: List[BaseException] = []

    def warm(client, work) -> None:
        try:
            for op, nf in work:
                if op == "synthesize":
                    client.synthesize(nf).raise_for_status()
                else:
                    packets = expected[nf]["batches"][0][0]
                    client.simulate(nf, packets=packets).raise_for_status()
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    # Concurrent pairs land on different workers, so each worker
    # compiles every NF once.
    plans = [
        [("synthesize", nf) for nf in names[i::WORKERS]] + [("simulate", nf) for nf in names]
        for i in range(WORKERS)
    ]
    threads = [threading.Thread(target=warm, args=(c, p)) for c, p in zip(clients, plans)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for c in clients:
        c.close()
    if errors:
        raise errors[0]


def _client_loop(
    port: int, seed: int, idx: int, names: List[str], expected, deadline: float,
    records: List[Tuple], rounds_s: List[float],
) -> None:
    from repro.serve.client import ServeClient, ServeError

    client = ServeClient("127.0.0.1", port, timeout=120)
    rng = random.Random(f"serve-warm:{seed}:{idx}")
    try:
        while time.perf_counter() < deadline:
            t_round = time.perf_counter()
            for nf in rng.sample(names, len(names)):
                if time.perf_counter() >= deadline:
                    return
                simulate = rng.random() < SIMULATE_SHARE
                batch = rng.randrange(BATCHES_PER_NF)
                want = expected[nf]
                t0 = time.perf_counter()
                try:
                    if simulate:
                        resp = client.simulate(nf, packets=want["batches"][batch][0])
                    else:
                        resp = client.synthesize(nf)
                except ServeError:
                    resp = None
                rtt_ms = 1000.0 * (time.perf_counter() - t0)
                ok = resp is not None and resp.ok and _correct(resp.result, want, simulate, batch)
                op = "simulate" if simulate else "synthesize"
                server_ms = resp.elapsed_ms if resp is not None else None
                records.append((op, rtt_ms, server_ms, ok))
            rounds_s.append(time.perf_counter() - t_round)
    finally:
        client.close()


def _correct(result: Any, want: Dict[str, Any], simulate: bool, batch: int) -> bool:
    try:
        if simulate:
            return [o["sent"] for o in result["outputs"]] == want["batches"][batch][1]
        return result["model"] == want["model"]
    except (KeyError, TypeError):
        return False


def _delta(before: Dict[str, Any], after: Dict[str, Any], kind: str, name: str,
           field: Optional[str] = None) -> float:
    def read(snap):
        value = snap.get(kind, {}).get(name, 0)
        return value.get(field, 0) if field else value
    return read(after) - read(before)


def run(seed: int, seconds: float, traced: bool, workdir: Path):
    from repro.nfs import all_nfs
    from repro.serve.client import ServeClient

    specs = all_nfs()
    names = [s.name for s in specs]
    cache_dir = workdir / "cache"
    expected = _prefill(cache_dir, specs, seed)

    out = Outcome()
    setup: List[float] = []
    server: Optional[_Server] = None
    try:
        while more_setup(setup):
            if server is not None:
                server.stop()
            t0 = time.perf_counter()
            server = None
            server = _start_and_warm(cache_dir, workdir / f"serve-{len(setup)}.log", expected)
            setup.append(time.perf_counter() - t0)

        scraper = ServeClient("127.0.0.1", server.port, timeout=60)
        before = scraper.metrics()
        records: List[Tuple] = []
        rounds_s: List[float] = []
        trace = LayerTrace().wrap(ServeClient, "request", "serve.client.request") if traced else None
        threads = [
            threading.Thread(target=_client_loop, args=(
                server.port, seed, i, names, expected,
                time.perf_counter() + seconds, records, rounds_s))
            for i in range(CLIENTS)
        ]
        t_start = time.perf_counter()
        with trace or nullcontext():
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        window_s = time.perf_counter() - t_start
        after = scraper.metrics()
        rss = server.peak_rss_mb()
        scraper.close()
    finally:
        if server is not None:
            server.stop()

    out.attempted = len(records)
    out.failed = sum(1 for r in records if not r[3])
    rtts = [r[1] for r in records]
    out.e2e = {
        "setup_s": median(setup),
        "pass_s": median(rounds_s),
        "op_p50_ms": median(rtts),
        "op_p99_ms": p99(rtts),
        "ops_per_s": len(records) / window_s,
        "peak_rss_mb": rss,
    }
    out.named = {
        "serve_rps": (out.e2e["ops_per_s"], "1/s"),
        "serve_p50_ms": (out.e2e["op_p50_ms"], "ms"),
        "serve_p99_ms": (out.e2e["op_p99_ms"], "ms"),
    }
    out.notes = {"requests": len(records), "rounds": len(rounds_s)}
    if traced:
        out.layers = _layers(records, before, after)
    return out, trace


def _layers(records, before, after) -> Dict[str, float]:
    """Per-layer figures from client timing, envelopes and /metrics deltas."""
    def server_ms(op):
        return median([r[2] for r in records if r[0] == op and r[2] is not None])

    def hit_ratio(prefix):
        hits = _delta(before, after, "counters", f"cache.{prefix}.hits")
        misses = _delta(before, after, "counters", f"cache.{prefix}.misses")
        return ratio(hits, hits + misses)

    packets = _delta(before, after, "counters", "sim.packets")
    compiles = _delta(before, after, "histograms", "sim.compile_seconds", "count")
    waits = _delta(before, after, "histograms", "serve.queue_wait_seconds", "count")
    return {
        "serve.queue.wait_ms": 1000.0 * ratio(
            _delta(before, after, "histograms", "serve.queue_wait_seconds", "sum"), waits),
        "serve.queue.rejected": _delta(before, after, "counters", "serve.rejected_queue_full"),
        "serve.worker.simulate_ms": server_ms("simulate"),
        "serve.worker.synthesize_ms": server_ms("synthesize"),
        "serve.transport_ms": median(
            [r[1] - r[2] for r in records if r[2] is not None]),
        "serve.loop_lag_max_ms": 1000.0 * after["gauges"].get("serve.loop_lag_max_seconds", 0),
        "model.compile.per_1k_requests": 1000.0 * ratio(compiles, len(records)),
        "model.compile_s": ratio(
            _delta(before, after, "histograms", "sim.compile_seconds", "sum"), compiles),
        "model.guard_evals_per_packet": ratio(
            _delta(before, after, "counters", "sim.guard_evals"), packets),
        "model.dispatches_per_packet": ratio(
            _delta(before, after, "counters", "sim.compiled_dispatches"), packets),
        "cache.model.hit_ratio": hit_ratio("kind.model"),
        "cache.sim.hit_ratio": hit_ratio("kind.sim"),
        "cache.mem.hit_ratio": hit_ratio("mem"),
    }
