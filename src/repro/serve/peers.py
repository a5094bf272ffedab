"""Cache peer-fill and replica warm-up (the cluster's CAS exchange).

Shards exchange **raw framed CAS bytes** — the exact
``MAGIC + blake2b + zlib(pickle)`` file framing of
:mod:`repro.cache.store` — over three endpoints the serve tier exposes
(docs/internals.md §13):

=====================  ====================================================
``GET /cas/K/KEY``      one artifact's framed bytes (404 when absent)
``PUT /cas/K/KEY``      push one artifact (receiver checksum-verifies)
``GET /registry``       the shard's recent ``(kind, key)`` artifact list
=====================  ====================================================

The serving side never inspects the bytes (one ``read()`` per fill);
the **receiving** side always runs the checksum, so corruption anywhere
on the path — a truncated read, a bit-flip in transit, a damaged peer
disk — is rejected exactly like local disk damage: a logged miss
(``cache.peer.corrupt``) followed by a local recompute with an
identical result.  That keeps the determinism invariant of
docs/internals.md §8 intact across the cluster: peers change *when*
work happens, never *what* is computed.

Everything here is synchronous :mod:`http.client` by design: the
callers are worker processes (the artifact store's remote tier), the
warm-up background thread and the CLI — never the event loop.
"""

from __future__ import annotations

import http.client
import json
import logging
import re
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cache.store import DEFAULT_PEER_TIMEOUT_S
from repro.obs import log as obs_log

log = obs_log.get_logger("repro.serve.peers")

#: Path-segment validation for CAS requests (both sides): kinds are
#: short identifiers, keys are BLAKE2 hex digests.  Anything else is
#: rejected before it can touch a filesystem path.
KIND_RE = re.compile(r"^[A-Za-z0-9_.-]{1,64}$")
KEY_RE = re.compile(r"^[0-9a-f]{8,128}$")

#: Artifact kinds replica warm-up pulls, hottest first: the model, sim
#: and guard-code tiers are the serving hot path; the upstream tiers
#: make a source-edit resynthesis incremental on the new shard too.
WARMUP_KINDS: Tuple[str, ...] = (
    "model", "sim", "guards", "slices", "prep", "frontend",
)

#: Default cap on artifacts copied per warm-up.
WARMUP_LIMIT = 512


class PeerError(Exception):
    """A transport-level peer failure (refused, timed out, bad status)."""


def valid_cas_path(kind: str, key: str) -> bool:
    return bool(KIND_RE.match(kind)) and bool(KEY_RE.match(key))


def _request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Optional[bytes] = None,
    timeout: float = DEFAULT_PEER_TIMEOUT_S,
) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/octet-stream"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException) as exc:
        raise PeerError(f"{method} {host}:{port}{path}: {exc}") from exc
    finally:
        conn.close()


def fetch_cas_raw(
    host: str,
    port: int,
    kind: str,
    key: str,
    timeout: float = DEFAULT_PEER_TIMEOUT_S,
) -> Optional[bytes]:
    """One artifact's framed bytes from a peer; None when it lacks the key.

    Raises :class:`PeerError` on transport trouble or unexpected
    statuses — the caller (:meth:`ArtifactStore._peer_read`) turns that
    into a counted, logged miss.  The returned bytes are **unverified**:
    checksum verification is the caller's job.
    """
    if not valid_cas_path(kind, key):
        return None
    status, payload = _request(
        host, port, "GET", f"/cas/{kind}/{key}", timeout=timeout
    )
    if status == 200:
        return payload
    if status == 404:
        return None
    raise PeerError(f"GET /cas/{kind}/{key} -> HTTP {status}")


def push_cas_raw(
    host: str,
    port: int,
    kind: str,
    key: str,
    framed: bytes,
    timeout: float = DEFAULT_PEER_TIMEOUT_S,
) -> bool:
    """Push one framed artifact to a peer (it verifies before storing)."""
    if not valid_cas_path(kind, key):
        return False
    status, _payload = _request(
        host, port, "PUT", f"/cas/{kind}/{key}", body=framed, timeout=timeout
    )
    return status == 200


def fetch_registry(
    host: str,
    port: int,
    kinds: Sequence[str] = WARMUP_KINDS,
    limit: int = WARMUP_LIMIT,
    timeout: float = DEFAULT_PEER_TIMEOUT_S,
) -> List[Tuple[str, str]]:
    """A peer's recent ``(kind, key)`` artifact list (``GET /registry``)."""
    path = f"/registry?kinds={','.join(kinds)}&limit={int(limit)}"
    status, payload = _request(host, port, "GET", path, timeout=timeout)
    if status != 200:
        raise PeerError(f"GET /registry -> HTTP {status}")
    try:
        decoded = json.loads(payload.decode("utf-8"))
        entries = decoded["result"]["artifacts"]
    except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
        raise PeerError(f"GET /registry -> undecodable body ({exc})")
    out: List[Tuple[str, str]] = []
    for entry in entries:
        if (
            isinstance(entry, (list, tuple))
            and len(entry) == 2
            and valid_cas_path(str(entry[0]), str(entry[1]))
        ):
            out.append((str(entry[0]), str(entry[1])))
    return out


def warm_from_peers(
    store: Any,
    peers: Sequence[Tuple[str, int]],
    kinds: Sequence[str] = WARMUP_KINDS,
    limit: int = WARMUP_LIMIT,
    timeout: float = DEFAULT_PEER_TIMEOUT_S,
) -> int:
    """Pre-populate ``store`` from the first reachable peer's registry.

    The replica warm-up a joining shard runs in the background: list a
    peer's artifacts, fetch each blob it doesn't already hold, verify,
    store.  Every failure is skipped — a partially warmed shard is
    simply a colder shard, never a broken one.  Returns the number of
    artifacts copied.
    """
    kinds = tuple(kinds)
    for host, port in peers:
        try:
            entries = fetch_registry(
                host, port, kinds=kinds, limit=limit, timeout=timeout
            )
        except PeerError as exc:
            obs_log.log_event(
                log, logging.INFO, "serve.warmup.peer_down",
                f"warm-up: registry of {host}:{port} unavailable ({exc})",
                peer=f"{host}:{port}",
            )
            continue
        copied = 0
        for kind, key in entries:
            if store.get_raw(kind, key) is not None:
                continue
            try:
                raw = fetch_cas_raw(host, port, kind, key, timeout=timeout)
            except PeerError:
                continue
            if raw is not None and store.put_raw(kind, key, raw):
                copied += 1
        obs_log.log_event(
            log, logging.INFO, "serve.warmup.done",
            f"warm-up: copied {copied} artifacts from {host}:{port}",
            peer=f"{host}:{port}", copied=copied, listed=len(entries),
        )
        return copied
    return 0


def start_warmup_thread(
    store: Any,
    peers: Sequence[Tuple[str, int]],
    *,
    on_done: Optional[Any] = None,
    delay_s: float = 0.0,
    limit: int = WARMUP_LIMIT,
) -> threading.Thread:
    """Run :func:`warm_from_peers` on a daemon thread (non-blocking join).

    The shard starts serving immediately; warm-up races it harmlessly —
    both sides write content-addressed artifacts atomically, so the
    worst case is one redundant fetch.
    """

    def runner() -> None:
        if delay_s > 0:
            time.sleep(delay_s)
        copied = warm_from_peers(store, peers, limit=limit)
        if on_done is not None:
            on_done(copied)

    thread = threading.Thread(
        target=runner, name="repro-serve-warmup", daemon=True
    )
    thread.start()
    return thread
