"""``repro.serve`` — the online synthesis & model-query service.

The batch pipeline (slice → classify → explore → refactor) answers one
CLI invocation at a time; this package turns it into a long-lived
service the way NFV controllers consume NF models online: a stdlib-only
asyncio JSON-over-HTTP server whose hot path is the persistent artifact
cache (:mod:`repro.cache`), so a warm ``synthesize`` is one cache
lookup away from the wire.

Production shape (docs/internals.md §10):

- a **bounded request queue** with explicit backpressure — a full
  queue rejects immediately with HTTP 429, it never buffers unbounded;
- **per-request deadlines** with real cancellation — an expired job is
  interrupted *inside* the worker process (``SIGALRM``), freeing the
  worker for the next request instead of abandoning it;
- a **process worker pool** (reusing :mod:`repro.parallel` idioms) so
  CPU-bound synthesis never blocks the event loop; each job ships its
  metrics snapshot home and the server folds it into its registry;
- **graceful drain** on SIGTERM — stop accepting, finish in-flight
  requests, flush the persistent constraint cache, exit 0;
- **end-to-end request tracing** (docs/internals.md §11) — every
  request carries a W3C ``traceparent`` context from the client through
  the queue into the worker, whose span batch is stitched into one tree
  and kept in an always-on flight recorder (``GET /debugz/requests``,
  ``repro trace``), with structured JSON logs tagged by request id.

Cluster mode (docs/internals.md §13): ``repro serve --cluster N`` runs
N shards, and the **client** places each request:
:class:`~repro.serve.client.ClusterClient` hashes the request's
artifact-key material onto a consistent-hash ring, so a given model's
traffic always lands on the shard whose caches are hot for it, and
sends it straight there.  Shards **peer-fill** artifact-cache misses
from each other over ``GET /cas/...`` (checksum verified on read —
corruption is a logged miss and a local recompute, never a wrong
answer); a joining shard **warms up** from a peer's ``/registry``; a
dead or draining shard's keys go to the next ring node
(``ClusterClient.failovers``), degraded but never hung.

Modules: :mod:`~repro.serve.protocol` (HTTP/JSON framing),
:mod:`~repro.serve.queue` (admission control),
:mod:`~repro.serve.jobs` (worker-side request handlers),
:mod:`~repro.serve.server` (the asyncio shard server),
:mod:`~repro.serve.ring` (consistent hashing and routing keys),
:mod:`~repro.serve.peers` (cache peer-fill + replica warm-up),
:mod:`~repro.serve.cluster` (the N-shard harness),
:mod:`~repro.serve.client` (blocking single-shard and cluster clients,
used by ``repro query`` and the benchmarks).
"""

from __future__ import annotations

from repro.serve.client import (
    ClusterClient,
    ServeClient,
    ServeError,
    ServeResponse,
)
from repro.serve.cluster import ClusterHandle
from repro.serve.protocol import ProtocolError
from repro.serve.queue import BoundedRequestQueue, QueueClosed, QueueFull
from repro.serve.ring import HashRing
from repro.serve.server import Server, ServeConfig, ServerHandle, run_server

__all__ = [
    "BoundedRequestQueue",
    "ClusterClient",
    "ClusterHandle",
    "HashRing",
    "ProtocolError",
    "QueueClosed",
    "QueueFull",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServeResponse",
    "Server",
    "ServerHandle",
    "run_server",
]
