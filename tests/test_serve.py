"""Lifecycle and protocol tests for the ``repro serve`` subsystem.

The production-shape behaviours under test (ISSUE acceptance):

- queue-full bursts get explicit 429 rejections, never hangs;
- a request deadline *really* cancels the job mid-run inside the
  worker (SIGALRM), freeing the worker for the next request;
- SIGTERM-style drain finishes in-flight work before stopping;
- N concurrent clients each get their own correct response.

Integration tests run a real server on an ephemeral port via
:class:`ServerHandle` with 1-2 workers.  The deterministic ``sleep``
op is gated behind ``REPRO_SERVE_TEST_OPS=1`` (set per-test, inherited
by pool workers).
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.serve import (
    BoundedRequestQueue,
    QueueClosed,
    QueueFull,
    ServeClient,
    ServeConfig,
    Server,
    ServerHandle,
)
import repro
from repro.serve import protocol
from repro.serve.cluster import allocate_ports
from repro.serve.queue import Job


# -- protocol unit tests ------------------------------------------------------


class TestProtocol:
    def test_response_roundtrip(self):
        raw = protocol.json_response(200, protocol.ok_envelope({"x": 1}))
        head, body = raw.split(b"\r\n\r\n", 1)
        assert head.startswith(b"HTTP/1.1 200 ")
        ok, payload = protocol.parse_client_response(200, body)
        assert ok and payload["result"] == {"x": 1}

    def test_error_envelope_codes(self):
        env = protocol.error_envelope(429, "queue full")
        assert env["error"]["code"] == "queue_full"
        assert protocol.error_envelope(504, "x")["error"]["code"] == "deadline_exceeded"

    def test_read_request_rejects_oversized_body(self):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(
                b"POST /v1/synthesize HTTP/1.1\r\n"
                + f"Content-Length: {protocol.MAX_BODY_BYTES + 1}\r\n\r\n".encode()
            )
            with pytest.raises(protocol.ProtocolError) as err:
                await protocol.read_request(reader)
            assert err.value.status == 413

        asyncio.run(run())

    def test_read_request_parses_query(self):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(b"GET /metrics?format=json HTTP/1.1\r\n\r\n")
            reader.feed_eof()
            request = await protocol.read_request(reader)
            assert request.path == "/metrics"
            assert request.query == {"format": "json"}

        asyncio.run(run())


# -- queue unit tests ---------------------------------------------------------


def _mk_job(job_id=1, timeout=60.0):
    now = time.monotonic()
    return Job(
        job_id=job_id, op="sleep", payload={}, arrival=now, deadline=now + timeout
    )


class TestBoundedQueue:
    def test_submit_beyond_capacity_raises(self):
        async def run():
            queue = BoundedRequestQueue(2)
            queue.submit(_mk_job(1))
            queue.submit(_mk_job(2))
            with pytest.raises(QueueFull):
                queue.submit(_mk_job(3))
            assert queue.depth == 2

        asyncio.run(run())

    def test_closed_queue_rejects_and_drains(self):
        async def run():
            queue = BoundedRequestQueue(4)
            queue.submit(_mk_job(1))
            queue.close()
            with pytest.raises(QueueClosed):
                queue.submit(_mk_job(2))
            job = await queue.get()
            assert job is not None and job.job_id == 1
            queue.task_done()
            assert await queue.get() is None  # closed + empty
            assert await queue.join(1.0)

        asyncio.run(run())


# -- server unit tests (no sockets) ------------------------------------------


class TestTimeoutClamp:
    def test_default_and_clamp(self):
        server = Server(ServeConfig(default_timeout_s=5, max_timeout_s=10))
        assert server._timeout_for({}) == 5
        assert server._timeout_for({"timeout_s": 3}) == 3
        assert server._timeout_for({"timeout_s": 99}) == 10

    def test_bad_timeouts_rejected(self):
        server = Server(ServeConfig())
        for bad in (0, -1, "nope", None):
            with pytest.raises(protocol.ProtocolError):
                server._timeout_for({"timeout_s": bad})


# -- integration: a real server on an ephemeral port --------------------------


@contextmanager
def serve(monkeypatch, *, workers=1, queue_size=8, test_ops=True, cache=False,
          **config_kwargs):
    if test_ops:
        monkeypatch.setenv("REPRO_SERVE_TEST_OPS", "1")
    if cache:
        # conftest defaults REPRO_CACHE off (with a tmp REPRO_CACHE_DIR);
        # opt this server's workers back in for warm-path tests.
        monkeypatch.setenv("REPRO_CACHE", "1")
    config = ServeConfig(
        port=0, workers=workers, queue_size=queue_size, **config_kwargs
    )
    handle = ServerHandle(config)
    handle.start()
    try:
        yield handle, ServeClient("127.0.0.1", handle.port, timeout=60)
    finally:
        handle.stop()


def _poll(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def _sleep_op(client, seconds, timeout_s=None):
    body = {"seconds": seconds}
    if timeout_s is not None:
        body["timeout_s"] = timeout_s
    return client.request("POST", "/v1/sleep", body)


class TestServerLifecycle:
    def test_health_metrics_and_gated_ops(self, monkeypatch):
        with serve(monkeypatch, workers=1, test_ops=False) as (handle, client):
            health = client.healthz().raise_for_status().result
            assert health["status"] == "ok"
            assert health["workers"] == 1
            assert health["queue_capacity"] == 8
            # sleep is refused when the test-op gate is off.
            assert _sleep_op(client, 0.01).status == 400
            assert client.request("GET", "/nope").status == 404
            assert client.request("GET", "/v1/synthesize").status == 405
            snapshot = client.metrics()
            assert snapshot["counters"]["serve.requests_total"] >= 4
            text = client.metrics_text()
            assert "repro_serve_workers 1" in text
            assert "repro_serve_requests_total" in text

    def test_queue_full_burst_rejected_explicitly(self, monkeypatch):
        with serve(monkeypatch, workers=1, queue_size=1) as (handle, client):
            statuses = []
            lock = threading.Lock()

            def fire(seconds):
                response = _sleep_op(client, seconds)
                with lock:
                    statuses.append(response.status)

            health = lambda: client.healthz().result  # noqa: E731
            # Occupy the single worker, then the single queue slot.
            t1 = threading.Thread(target=fire, args=(1.5,))
            t1.start()
            assert _poll(lambda: health()["inflight"] == 1)
            t2 = threading.Thread(target=fire, args=(1.5,))
            t2.start()
            assert _poll(lambda: health()["queue_depth"] == 1)
            # This burst has nowhere to go: explicit 429s, immediately.
            burst = [threading.Thread(target=fire, args=(0.1,)) for _ in range(3)]
            t0 = time.monotonic()
            for t in burst:
                t.start()
            for t in burst:
                t.join(10)
            burst_elapsed = time.monotonic() - t0
            t1.join(15)
            t2.join(15)
            assert sorted(statuses) == [200, 200, 429, 429, 429]
            assert burst_elapsed < 5  # rejected, not queued behind sleepers
            counters = handle.registry.snapshot()["counters"]
            assert counters["serve.rejected_queue_full"] == 3

    def test_deadline_cancels_job_inside_worker(self, monkeypatch):
        with serve(monkeypatch, workers=1) as (handle, client):
            t0 = time.monotonic()
            response = _sleep_op(client, seconds=30, timeout_s=0.4)
            elapsed = time.monotonic() - t0
            assert response.status == 504
            assert response.error_code == "deadline_exceeded"
            assert response.payload["error"]["where"] == "worker"
            assert elapsed < 5  # cancelled, not sat out
            # The worker slot is actually free again.
            t0 = time.monotonic()
            assert _sleep_op(client, 0.01).status == 200
            assert time.monotonic() - t0 < 5
            counters = handle.registry.snapshot()["counters"]
            assert counters["serve.deadline_exceeded"] == 1

    def test_deadline_cancels_mid_synthesis(self, monkeypatch):
        # A real CPU-bound pipeline run (cold snortlite takes about half
        # a second) is interrupted by the worker's alarm, not abandoned.
        with serve(monkeypatch, workers=1, test_ops=False) as (handle, client):
            t0 = time.monotonic()
            response = client.synthesize("snortlite", timeout_s=0.1)
            elapsed = time.monotonic() - t0
            assert response.status == 504
            assert response.payload["error"]["where"] == "worker"
            assert elapsed < 6
            # Worker survived the cancellation and still does real work.
            assert client.synthesize("monitor").raise_for_status().result[
                "name"
            ] == "monitor"

    def test_drain_finishes_inflight_work(self, monkeypatch):
        with serve(monkeypatch, workers=1, drain_timeout_s=30) as (handle, client):
            done = {}

            def fire():
                done["response"] = _sleep_op(client, 1.0)

            worker = threading.Thread(target=fire)
            worker.start()
            assert _poll(lambda: client.healthz().result["inflight"] == 1)
            handle.drain()  # what SIGTERM does
            worker.join(20)
            # The in-flight job ran to completion despite the drain.
            assert done["response"].status == 200
            assert done["response"].result["slept_s"] == 1.0
            # And the server is actually gone: new connections fail.
            assert _poll(
                lambda: not ServeClient(
                    "127.0.0.1", handle.port, timeout=1
                ).wait_until_up(timeout=0.2, interval=0.05)
            )
            counters = handle.registry.snapshot()["counters"]
            assert counters["serve.drains"] == 1
            assert "serve.drain_timeouts" not in counters

    def test_verify_endpoints_label_their_verdicts(self, monkeypatch):
        with serve(monkeypatch, workers=1) as (handle, client):
            chain = client.verify(["firewall", "nat"]).raise_for_status().result
            assert chain["chain"] == ["firewall", "nat"]
            assert chain["status"] == "reaches" and chain["complete"] is True
            assert chain["n_spaces"] == 48 and chain["truncated_spaces"] == 0
            graph = client.verify_graph(
                generate={"n": 12, "seed": 7, "width": 4}
            ).raise_for_status().result
            assert graph["status"] == "incomplete"
            assert graph["complete"] is False and graph["truncated_spaces"] > 0

    def test_concurrent_clients_get_their_own_answers(self, monkeypatch):
        with serve(monkeypatch, workers=2, cache=True) as (handle, client):
            results = {}
            lock = threading.Lock()

            def fire(i):
                packets = [
                    {"ip_src": 10 + i, "ip_dst": 20 + i, "dport": 80}
                    for _ in range(i + 1)
                ]
                response = client.simulate(nf="monitor", packets=packets)
                with lock:
                    results[i] = response

            threads = [
                threading.Thread(target=fire, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
            assert sorted(results) == list(range(8))
            for i, response in results.items():
                result = response.raise_for_status().result
                assert result["name"] == "monitor"
                # Each client got exactly its own packet batch back.
                assert len(result["outputs"]) == i + 1
                assert result["stats"]["packets"] == i + 1


# -- orphaned pool workers ------------------------------------------------------


def _children(pid):
    """Pids whose parent is ``pid`` (Linux ``/proc``)."""
    out = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == pid:
            out.append(int(stat.parent.name))
    return out


def _running(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_sigkilled_server_takes_its_pool_workers_along():
    port = allocate_ports(1)[0]
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port),
         "--workers", "2"],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    workers = []
    try:
        client = ServeClient("127.0.0.1", port)
        try:
            assert client.wait_until_up(30)
        finally:
            client.close()
        assert _poll(lambda: len(_children(server.pid)) >= 2, timeout=10)
        workers = _children(server.pid)
        server.send_signal(signal.SIGKILL)
        server.wait(timeout=10)
        assert _poll(
            lambda: not any(_running(pid) for pid in workers), timeout=2.0
        ), [pid for pid in workers if _running(pid)]
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        for pid in workers:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
