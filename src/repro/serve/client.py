"""Blocking client library for :mod:`repro.serve`.

Used by the ``repro query`` CLI subcommand, the lifecycle tests and
``benchmarks/bench_serve.py``.  Connections are **kept alive and
reused** across sequential requests — per *thread*, so N loadgen
threads can still share one :class:`ServeClient` (each gets its own
socket).  A request that trips over a stale socket (server idled it
out, draining server closed it) transparently reconnects and retries
once; every op is a deterministic cached computation, so the retry can
never double-run side effects.

:class:`ClusterClient` does shard placement itself: it keeps one
:class:`ServeClient` per shard and sends each request straight to the
shard that owns its routing key on a consistent-hash ring
(:mod:`repro.serve.ring`), failing over along the ring when a shard is
down or draining.  There is no proxy hop in between.

>>> client = ServeClient("127.0.0.1", 8000)          # doctest: +SKIP
>>> client.synthesize("nat").result["name"]          # doctest: +SKIP
'nat'
>>> cluster = ClusterClient([("127.0.0.1", 8100), ("127.0.0.1", 8101)])  # doctest: +SKIP
>>> cluster.synthesize("nat").shard                  # doctest: +SKIP
'127.0.0.1:8101'
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs import context as obs_context
from repro.serve.protocol import parse_client_response
from repro.serve.ring import HashRing, routing_key

#: Seconds a shard whose connection failed stays at the back of a
#: :class:`ClusterClient`'s preference order.  It is then tried in its
#: ring position again, so a restarted shard gets its keys back within
#: this long.
SHARD_COOLDOWN_S = 1.0


class ServeError(Exception):
    """A transport-level failure (connection refused, timeout, ...)."""


@dataclass
class ServeResponse:
    """One decoded response envelope plus its HTTP status."""

    status: int
    ok: bool
    payload: Dict[str, Any] = field(default_factory=dict)
    #: Server-minted request id (``X-Repro-Request-Id`` / envelope).
    request_id: Optional[str] = None
    #: The distributed trace id this request ran under (the one the
    #: client sent, echoed back in the envelope when tracing is on).
    trace_id: Optional[str] = None
    #: The ``host:port`` of the shard that served this request.
    shard: Optional[str] = None

    @property
    def result(self) -> Any:
        return self.payload.get("result")

    @property
    def error_code(self) -> Optional[str]:
        error = self.payload.get("error") or {}
        return error.get("code")

    @property
    def error_message(self) -> Optional[str]:
        error = self.payload.get("error") or {}
        return error.get("message")

    @property
    def elapsed_ms(self) -> Optional[float]:
        return self.payload.get("elapsed_ms")

    @property
    def retry_after_s(self) -> Optional[float]:
        """The jittered backoff hint on 429/503 rejections."""
        return self.payload.get("retry_after_s")

    def raise_for_status(self) -> "ServeResponse":
        if not self.ok:
            raise ServeError(
                f"HTTP {self.status} [{self.error_code}]: {self.error_message}"
            )
        return self


class _ComputeOps:
    """The compute endpoints, shared by :class:`ServeClient` and
    :class:`ClusterClient`; each builds a request body and hands it to
    the subclass's ``_op``."""

    def _op(self, op: str, body: Dict[str, Any]) -> ServeResponse:
        raise NotImplementedError

    def synthesize(
        self,
        nf: Optional[str] = None,
        source: Optional[str] = None,
        name: Optional[str] = None,
        entry: Optional[str] = None,
        timeout_s: Optional[float] = None,
    ) -> ServeResponse:
        body: Dict[str, Any] = {}
        if nf is not None:
            body["nf"] = nf
        if source is not None:
            body["source"] = source
        if name is not None:
            body["name"] = name
        if entry is not None:
            body["entry"] = entry
        if timeout_s is not None:
            body["timeout_s"] = timeout_s
        return self._op("synthesize", body)

    def simulate(
        self,
        nf: Optional[str] = None,
        packets: Optional[List[Dict[str, int]]] = None,
        source: Optional[str] = None,
        name: Optional[str] = None,
        entry: Optional[str] = None,
        timeout_s: Optional[float] = None,
    ) -> ServeResponse:
        body: Dict[str, Any] = {"packets": packets or []}
        if nf is not None:
            body["nf"] = nf
        if source is not None:
            body["source"] = source
        if name is not None:
            body["name"] = name
        if entry is not None:
            body["entry"] = entry
        if timeout_s is not None:
            body["timeout_s"] = timeout_s
        return self._op("simulate", body)

    def verify(
        self, chain: List[str], timeout_s: Optional[float] = None
    ) -> ServeResponse:
        body: Dict[str, Any] = {"chain": chain}
        if timeout_s is not None:
            body["timeout_s"] = timeout_s
        return self._op("verify", body)

    def verify_graph(
        self,
        nodes: Optional[List[Tuple[str, str]]] = None,
        edges: Optional[List[Tuple[str, str]]] = None,
        generate: Optional[Dict[str, Any]] = None,
        timeout_s: Optional[float] = None,
    ) -> ServeResponse:
        """Verify a DAG service graph (``POST /v1/verify_graph``).

        Either pass ``nodes`` ([(name, corpus_nf), ...]) + ``edges``
        ([(src, dst), ...]), or ``generate`` ({"n": ..., "seed": ...})
        for a seeded topology built server-side.
        """
        body: Dict[str, Any] = {}
        if nodes is not None:
            body["nodes"] = [list(pair) for pair in nodes]
            body["edges"] = [list(pair) for pair in edges or []]
        if generate is not None:
            body["generate"] = generate
        if timeout_s is not None:
            body["timeout_s"] = timeout_s
        return self._op("verify_graph", body)

    def compose(
        self,
        chain_a: List[str],
        chain_b: List[str],
        timeout_s: Optional[float] = None,
    ) -> ServeResponse:
        body: Dict[str, Any] = {"chain_a": chain_a, "chain_b": chain_b}
        if timeout_s is not None:
            body["timeout_s"] = timeout_s
        return self._op("compose", body)

    def testgen(
        self, nf: str, timeout_s: Optional[float] = None
    ) -> ServeResponse:
        body: Dict[str, Any] = {"nf": nf}
        if timeout_s is not None:
            body["timeout_s"] = timeout_s
        return self._op("testgen", body)


class ServeClient(_ComputeOps):
    """A minimal JSON-over-HTTP client for the serve endpoints.

    Every request carries a W3C ``traceparent`` header (unless
    ``tracing=False``): a child of the ambient
    :class:`repro.obs.context.TraceContext` when one is bound — so a
    traced caller's requests join its trace — else a fresh root
    context.  The server echoes the trace/request ids back in the
    envelope (:attr:`ServeResponse.trace_id` /
    :attr:`ServeResponse.request_id`), which is all ``repro trace show``
    needs to pull the stitched span tree from ``/debugz``.
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8000,
        timeout: float = 120.0, tracing: bool = True,
    ) -> None:
        self.host = host
        self.port = port
        #: ``host:port``, stamped on every response as its shard.
        self.address = f"{host}:{port}"
        self.timeout = timeout
        self.tracing = tracing
        self._local = threading.local()

    # -- transport -----------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's kept-alive connection (created on first use)."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self._local.conn = conn
        return conn

    def _drop_connection(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            self._local.conn = None
            try:
                conn.close()
            except (OSError, http.client.HTTPException):
                pass

    def close(self) -> None:
        """Close the calling thread's kept-alive connection (idempotent)."""
        self._drop_connection()

    def request(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None,
        ctx: Optional[obs_context.TraceContext] = None,
    ) -> ServeResponse:
        if ctx is None and self.tracing:
            ambient = obs_context.current()
            ctx = ambient.child() if ambient is not None else obs_context.new_context()
        payload = None
        headers: Dict[str, str] = {}
        if ctx is not None:
            headers[obs_context.TRACEPARENT_HEADER] = ctx.traceparent()
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        # Attempt 0 rides the kept-alive socket; if that socket went
        # stale (idled out, server drained), reconnect and retry once on
        # a fresh one.  Deterministic idempotent ops make this safe.
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
                raw = response.read()
                status = response.status
                request_id = response.getheader("X-Repro-Request-Id")
                if response.will_close:
                    self._drop_connection()
                break
            except (OSError, http.client.HTTPException) as exc:
                self._drop_connection()
                if attempt == 1:
                    raise ServeError(f"{method} {path} failed: {exc}") from exc
        ok, decoded = parse_client_response(status, raw)
        return ServeResponse(
            status=status,
            ok=ok and status == 200,
            payload=decoded,
            request_id=decoded.get("request_id") or request_id,
            trace_id=decoded.get("trace_id")
            or (ctx.trace_id if ctx is not None else None),
            shard=self.address,
        )

    # -- endpoints -----------------------------------------------------------

    def healthz(self) -> ServeResponse:
        return self.request("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        """The metrics snapshot (counters/gauges/histograms dicts)."""
        response = self.request("GET", "/metrics?format=json").raise_for_status()
        return response.result or {}

    def metrics_text(self) -> str:
        """The Prometheus text exposition."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            if response.status != 200:
                raise ServeError(f"GET /metrics -> HTTP {response.status}")
            return response.read().decode("utf-8")
        except (OSError, http.client.HTTPException) as exc:
            raise ServeError(f"GET /metrics failed: {exc}") from exc
        finally:
            conn.close()

    def debugz(
        self,
        kind: str = "requests",
        n: Optional[int] = None,
        request_id: Optional[str] = None,
    ) -> ServeResponse:
        """One flight-recorder view (``requests`` / ``slow`` / ``errors``).

        With ``request_id``, returns that request's detail — summary
        plus the stitched span tree — regardless of ``kind``.
        """
        params = []
        if request_id:
            params.append(f"id={request_id}")
        if n is not None:
            params.append(f"n={n}")
        path = f"/debugz/{kind}" + ("?" + "&".join(params) if params else "")
        return self.request("GET", path)

    def trace_detail(self, request_id: str) -> Dict[str, Any]:
        """The stitched record for one request id (raises if evicted)."""
        return self.debugz(request_id=request_id).raise_for_status().result or {}

    def _op(self, op: str, body: Dict[str, Any]) -> ServeResponse:
        return self.request("POST", f"/v1/{op}", body)

    def reload(
        self,
        name: str,
        source: str,
        entry: Optional[str] = None,
        note: Optional[str] = None,
    ) -> ServeResponse:
        """Hot-swap ``name`` to ``source`` (``POST /v1/reload``).

        The result carries the registered version number and model key;
        ``updated`` is False when the source was already current.
        """
        body: Dict[str, Any] = {"name": name, "source": source}
        if entry is not None:
            body["entry"] = entry
        if note is not None:
            body["note"] = note
        return self.request("POST", "/v1/reload", body)

    def models(self) -> Dict[str, Any]:
        """The shard's loaded model-registry versions (from ``/healthz``).

        ``{name: {"version": ..., "model_key": ..., ...}}`` — comparing
        this across shards confirms a hot-swap landed everywhere.
        """
        response = self.healthz().raise_for_status()
        return (response.result or {}).get("models", {})

    # -- convenience ---------------------------------------------------------

    def wait_until_up(self, timeout: float = 30.0, interval: float = 0.1) -> bool:
        """Poll ``/healthz`` until the server answers (startup races)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                if self.healthz().status == 200:
                    return True
            except ServeError:
                pass
            time.sleep(interval)
        return False


class ClusterClient(_ComputeOps):
    """Sends each compute request to the shard that owns its key.

    One :class:`ServeClient` per shard and a :class:`HashRing` over
    their ``host:port`` names.  A request walks
    ``ring.preference(routing_key(op, body))`` and moves on to the next
    shard (counting one :attr:`failovers`) in two cases only: a
    transport failure (:class:`ServeError`), and a ``503``, which a
    server sends only while draining, before it admits the request.
    Every op is a deterministic computation, so trying it again
    elsewhere is safe.  Any other status is the answer.  When every
    shard fails, the request raises :class:`ServeError`.

    A shard whose connection failed goes to the back of this client's
    preference order for :data:`SHARD_COOLDOWN_S` seconds, so requests
    stop paying a connect attempt to a dead shard first; there is no
    background probing.  Like :class:`ServeClient`, one instance can be
    shared by many threads.
    """

    def __init__(
        self, shards: Iterable[Tuple[str, int]], timeout: float = 120.0
    ) -> None:
        self.clients: Dict[str, ServeClient] = {}
        for host, port in shards:
            client = ServeClient(host, port, timeout=timeout)
            self.clients[client.address] = client
        if not self.clients:
            raise ValueError("ClusterClient needs at least one shard")
        self.ring = HashRing(self.clients)
        #: Requests moved on to the next shard in their preference list.
        self.failovers = 0
        self._cooling: Dict[str, float] = {}
        self._lock = threading.Lock()

    def preference(self, key: str) -> List[str]:
        """The shards to try for ``key``: ring order, cooling shards last."""
        order = self.ring.preference(key)
        now = time.monotonic()
        cooling = {
            name for name, until in self._cooling.items() if until > now
        }
        if not cooling:
            return order
        return [name for name in order if name not in cooling] + [
            name for name in order if name in cooling
        ]

    def _op(self, op: str, body: Dict[str, Any]) -> ServeResponse:
        failure = "no shard tried"
        for attempt, name in enumerate(self.preference(routing_key(op, body))):
            if attempt:
                with self._lock:
                    self.failovers += 1
            try:
                response = self.clients[name].request("POST", f"/v1/{op}", body)
            except ServeError as exc:
                with self._lock:
                    self._cooling[name] = time.monotonic() + SHARD_COOLDOWN_S
                failure = str(exc)
                continue
            if response.status == 503:
                failure = f"{name} is draining"
                continue
            return response
        raise ServeError(f"{op}: every shard failed (last: {failure})")

    def close(self) -> None:
        """Close the calling thread's connection to every shard."""
        for client in self.clients.values():
            client.close()
