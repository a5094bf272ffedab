"""The two-tier artifact store: in-memory LRU over an on-disk CAS.

Layout of the disk tier (``REPRO_CACHE_DIR``, default
``~/.cache/repro``)::

    objects/<key[:2]>/<kind>-<key>     content-addressed artifacts
    <name>.blob                        named mutable blobs (solver cache)

Every file is framed as ``MAGIC + blake2b-128(payload) + payload``
with the payload zlib-compressed pickle bytes, so truncation and
corruption are detected on read and degrade to a miss (logged via the
``repro.cache`` logger), never to a wrong artifact.  Writes go through
a same-directory temp file and ``os.replace``, so concurrent writers
need no locks: a reader sees either the old complete file or the new
complete file, and two writers racing on one key write identical
content (the key *is* the content address), so last-writer-wins is
correct.

The memory tier fronts the disk with a bounded LRU.  For most kinds it
holds raw pickle bytes — bytes, not objects, so every ``get`` hands out
a fresh deserialization and callers can freely mutate what they
receive without poisoning the cache.  Kinds whose artifacts are
immutable values (:data:`DECODED_KINDS`: edge summaries) are held
decoded instead, so a hit costs no ``pickle.loads`` and every ``get``
of one returns the same object; such an entry weighs its pickled
length in the LRU, and :meth:`ArtifactStore.drop_memory` drops it like
any other.

Determinism invariant (docs/internals.md §8): the store only ever
changes *when* work happens, never *what* is computed.  Any read
failure of any kind is silently a miss and the pipeline recomputes.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
import os
import pickle
import threading
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics

log = logging.getLogger("repro.cache")


def _warn(event: str, msg: str, **fields: Any) -> None:
    """One structured warning (JSON once :func:`repro.obs.log.configure`
    has run; plain-text stdlib logging otherwise)."""
    obs_log.log_event(log, logging.WARNING, event, msg, **fields)

#: File framing: magic + format version byte.
_MAGIC = b"RPAC\x01"
_DIGEST_SIZE = 16
_HEADER_SIZE = len(_MAGIC) + _DIGEST_SIZE

#: Kinds the memory tier keeps decoded (their artifacts are immutable
#: values, so one object can serve every hit; see the module docstring).
DECODED_KINDS = frozenset({"edge"})

#: Memory-tier defaults.
DEFAULT_MEMORY_ENTRIES = 256
DEFAULT_MEMORY_BYTES = 64 << 20

#: Remote-tier default: a peer-fill must be decisively cheaper than a
#: cold synthesis or it is not worth waiting for.
DEFAULT_PEER_TIMEOUT_S = 2.0

_tmp_counter = itertools.count()


def _frame(payload: bytes) -> bytes:
    digest = hashlib.blake2b(payload, digest_size=_DIGEST_SIZE).digest()
    return _MAGIC + digest + payload


def _unframe(
    raw: bytes, origin: str, event: str = "cache.corrupt"
) -> Optional[bytes]:
    """Verify framing + checksum; None (with a warning) on any damage."""
    if len(raw) < _HEADER_SIZE or not raw.startswith(_MAGIC):
        _warn(
            event,
            f"cache: {origin} is truncated or not a cache file; ignoring",
            path=origin, reason="bad_frame",
        )
        return None
    digest, payload = raw[len(_MAGIC):_HEADER_SIZE], raw[_HEADER_SIZE:]
    if hashlib.blake2b(payload, digest_size=_DIGEST_SIZE).digest() != digest:
        _warn(
            event,
            f"cache: {origin} failed its checksum; ignoring",
            path=origin, reason="checksum",
        )
        return None
    return payload


def parse_peers(text: Optional[str]) -> Tuple[Tuple[str, int], ...]:
    """``"host:port,host:port"`` → ((host, port), ...); junk is dropped.

    The format of ``REPRO_CACHE_PEERS`` and the serve-tier ``--join``
    flag.  Tolerant by design: a typo'd peer should degrade to "one
    fewer peer", never break the local cache.
    """
    peers = []
    for part in (text or "").split(","):
        part = part.strip()
        if not part:
            continue
        host, sep, port_text = part.rpartition(":")
        if not sep:
            continue
        try:
            port = int(port_text)
        except ValueError:
            continue
        if host and 0 < port < 65536:
            peers.append((host, port))
    return tuple(peers)


class ArtifactStore:
    """One cache instance: a memory LRU over an optional disk directory.

    A store with no directory (or ``enabled=False``) is inert: every
    ``get`` misses and every ``put`` is a no-op, so call sites need no
    enabled-checks of their own.
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        *,
        enabled: bool = True,
        memory_entries: int = DEFAULT_MEMORY_ENTRIES,
        memory_bytes: int = DEFAULT_MEMORY_BYTES,
        peers: Tuple[Tuple[str, int], ...] = (),
        peer_timeout_s: float = DEFAULT_PEER_TIMEOUT_S,
    ) -> None:
        self.directory: Optional[Path] = Path(directory) if directory else None
        self.enabled = bool(enabled and self.directory is not None)
        self.memory_entries = memory_entries
        self.memory_bytes = memory_bytes
        #: Remote tier: shard peers whose ``GET /cas/<kind>/<key>``
        #: endpoint (docs/internals.md §13) is consulted after a local
        #: miss.  Fetched blobs are checksum-verified here (the peer
        #: serves raw file bytes without looking at them) and filled
        #: into both local tiers; any failure is a logged miss and the
        #: pipeline recomputes locally.
        self.peers = tuple(peers)
        self.peer_timeout_s = peer_timeout_s
        #: key → (pickle bytes, or the object for DECODED_KINDS;
        #: its pickled length, the entry's weight).
        self._mem: "OrderedDict[str, Tuple[Any, int]]" = OrderedDict()
        self._mem_bytes = 0
        self._lock = threading.Lock()
        #: Set on the first failed disk write (read-only or unwritable
        #: ``REPRO_CACHE_DIR``): the store degrades to memory-tier-only
        #: writes — one warning, not one per artifact.  Reads still go
        #: to disk: a read-only directory can serve a warm cache.
        self._disk_write_disabled = False
        #: Session counters, mirrored into the ambient metrics registry
        #: under ``cache.<tier>.<event>`` when one is installed.
        self.counters: Dict[str, int] = {}

    # -- counters -----------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n
        registry = obs_metrics.active()
        if registry.enabled:
            registry.counter(f"cache.{name}").inc(n)

    # -- paths --------------------------------------------------------------

    def _object_path(self, kind: str, key: str) -> Path:
        assert self.directory is not None
        return self.directory / "objects" / key[:2] / f"{kind}-{key}"

    def _blob_path(self, name: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{name}.blob"

    # -- memory tier --------------------------------------------------------

    def _mem_get(self, key: str) -> Optional[Any]:
        with self._lock:
            entry = self._mem.get(key)
            if entry is None:
                return None
            self._mem.move_to_end(key)
            return entry[0]

    def _mem_put(self, key: str, value: Any, size: int) -> None:
        if size > self.memory_bytes:
            return
        with self._lock:
            old = self._mem.pop(key, None)
            if old is not None:
                self._mem_bytes -= old[1]
            self._mem[key] = (value, size)
            self._mem_bytes += size
            while self._mem and (
                len(self._mem) > self.memory_entries
                or self._mem_bytes > self.memory_bytes
            ):
                _, (_, evicted) = self._mem.popitem(last=False)
                self._mem_bytes -= evicted

    def _mem_drop(self, key: str) -> None:
        with self._lock:
            old = self._mem.pop(key, None)
            if old is not None:
                self._mem_bytes -= old[1]

    def drop_memory(self) -> None:
        """Empty the memory tier (simulates a fresh process over a warm disk)."""
        with self._lock:
            self._mem.clear()
            self._mem_bytes = 0

    # -- disk tier ----------------------------------------------------------

    def _disk_read(self, path: Path) -> Optional[bytes]:
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        payload = _unframe(raw, str(path))
        if payload is None:
            return None
        try:
            data = zlib.decompress(payload)
        except zlib.error:
            _warn(
                "cache.corrupt",
                f"cache: {path} failed to decompress; ignoring",
                path=str(path), reason="zlib",
            )
            return None
        self._count("disk.bytes_read", len(raw))
        return data

    def _disk_write(self, path: Path, data: bytes) -> None:
        self._disk_write_framed(path, _frame(zlib.compress(data, 1)))

    def _disk_write_framed(self, path: Path, framed: bytes) -> None:
        if self._disk_write_disabled:
            self._count("disk.errors")
            return
        tmp = path.parent / f".tmp-{os.getpid()}-{next(_tmp_counter)}"
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(framed)
            os.replace(tmp, path)
            self._count("disk.bytes_written", len(framed))
        except OSError as exc:
            self._count("disk.errors")
            self._disk_write_disabled = True
            _warn(
                "cache.disk_degraded",
                f"cache: could not write {path} ({exc}); disk tier is "
                "read-only or unwritable, continuing memory-only",
                path=str(path), error=str(exc),
            )
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass

    # -- remote tier (cache peer-fill) --------------------------------------

    def _peer_read(self, kind: str, key: str) -> Optional[bytes]:
        """Fetch one CAS blob from the first peer that has it.

        The peer serves the raw framed file bytes without inspecting
        them; **this side** verifies the checksum, so a truncated or
        bit-flipped blob from a peer is rejected (``cache.peer.corrupt``)
        exactly like local disk damage — a logged miss, then a local
        recompute.  Network errors are ``cache.peer.errors``; a peer
        that simply doesn't have the key is silent.  Returns the
        decompressed pickle bytes or None.
        """
        if not self.peers:
            return None
        from repro.serve.peers import PeerError, fetch_cas_raw

        for host, port in self.peers:
            origin = f"peer {host}:{port} {kind}-{key}"
            try:
                raw = fetch_cas_raw(
                    host, port, kind, key, timeout=self.peer_timeout_s
                )
            except PeerError as exc:
                self._count("peer.errors")
                _warn(
                    "cache.peer.unreachable",
                    f"cache: {origin} fetch failed ({exc}); trying next peer",
                    peer=f"{host}:{port}", kind=kind, key=key, error=str(exc),
                )
                continue
            if raw is None:
                continue
            payload = _unframe(raw, origin, event="cache.peer.corrupt")
            if payload is None:
                self._count("peer.corrupt")
                continue
            try:
                data = zlib.decompress(payload)
            except zlib.error:
                self._count("peer.corrupt")
                _warn(
                    "cache.peer.corrupt",
                    f"cache: {origin} failed to decompress; ignoring",
                    peer=f"{host}:{port}", kind=kind, key=key, reason="zlib",
                )
                continue
            self._count("peer.hits")
            self._count("peer.bytes_read", len(raw))
            # Fill both local tiers verbatim so the next lookup (and any
            # sibling worker sharing this disk dir) is a local hit.
            self._disk_write_framed(self._object_path(kind, key), raw)
            return data
        self._count("peer.misses")
        return None

    # -- public API ---------------------------------------------------------

    def get_object(
        self,
        kind: str,
        key: str,
        decode: Optional[Callable[[Any], Any]] = None,
    ) -> Optional[Any]:
        """The cached artifact for ``key``, or None (any failure = miss).

        ``decode``, when given, turns the unpickled object into the
        returned one; an exception it raises counts as a failed load,
        so ``kind.<kind>.hits`` only counts artifacts the caller can
        use.  A kind in :data:`DECODED_KINDS` is decoded once per
        memory-tier entry, and the same object is returned to every
        hit on it.
        """
        if not self.enabled:
            return None
        decoded = kind in DECODED_KINDS
        data = self._mem_get(key)
        if data is not None:
            self._count("mem.hits")
            if decoded:
                self._count(f"kind.{kind}.hits")
                return data
        else:
            self._count("mem.misses")
            data = self._disk_read(self._object_path(kind, key))
            if data is None:
                self._count("disk.misses")
                data = self._peer_read(kind, key)
                if data is None:
                    self._count(f"kind.{kind}.misses")
                    return None
            else:
                self._count("disk.hits")
            if not decoded:
                self._mem_put(key, data, len(data))
        try:
            obj = pickle.loads(data)
            if decode is not None:
                obj = decode(obj)
        except Exception as exc:
            _warn(
                "cache.load_failed",
                f"cache: {kind} artifact {key} failed to load ({exc}); ignoring",
                kind=kind, key=key, error=str(exc),
            )
            self._mem_drop(key)
            self._count(f"kind.{kind}.misses")
            return None
        if decoded:
            self._mem_put(key, obj, len(data))
        self._count(f"kind.{kind}.hits")
        return obj

    def put_object(self, kind: str, key: str, obj: Any) -> None:
        """Store an artifact under ``key`` (both tiers; failures are logged)."""
        if not self.enabled:
            return
        try:
            data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            _warn(
                "cache.unpicklable",
                f"cache: {kind} artifact {key} is unpicklable ({exc}); skipping",
                kind=kind, key=key, error=str(exc),
            )
            return
        self._mem_put(key, obj if kind in DECODED_KINDS else data, len(data))
        self._disk_write(self._object_path(kind, key), data)

    # -- raw framed access (what peers exchange) ----------------------------

    def get_raw(self, kind: str, key: str) -> Optional[bytes]:
        """The framed on-disk bytes of one artifact (served to peers).

        Reads the file verbatim — no checksum pass, no decompress — so
        serving a peer-fill costs one ``read()``.  End-to-end integrity
        is the *fetching* side's checksum verification.  Falls back to
        re-framing the memory tier when the disk copy is missing (e.g.
        an unwritable-disk degrade), re-pickling a decoded entry.
        """
        if not self.enabled:
            return None
        if self.directory is not None:
            try:
                return self._object_path(kind, key).read_bytes()
            except OSError:
                pass
        data = self._mem_get(key)
        if data is None:
            return None
        if kind in DECODED_KINDS:
            data = pickle.dumps(data, pickle.HIGHEST_PROTOCOL)
        return _frame(zlib.compress(data, 1))

    def put_raw(self, kind: str, key: str, framed: bytes) -> bool:
        """Store framed bytes pushed by a peer (checksum-verified first).

        The write-side mirror of :meth:`_peer_read`: used by replica
        warm-up (``PUT /cas/...``).  Returns False (and counts
        ``peer.corrupt``) without storing anything if the frame fails
        verification — a peer can never inject damage into this store.
        """
        if not self.enabled:
            return False
        payload = _unframe(
            framed, f"peer push {kind}-{key}", event="cache.peer.corrupt"
        )
        if payload is None:
            self._count("peer.corrupt")
            return False
        try:
            data = zlib.decompress(payload)
        except zlib.error:
            self._count("peer.corrupt")
            return False
        if kind not in DECODED_KINDS:
            # A decoded kind enters the memory tier at its first get.
            self._mem_put(key, data, len(data))
        self._disk_write_framed(self._object_path(kind, key), framed)
        return True

    def list_objects(
        self, kinds: Optional[Tuple[str, ...]] = None, limit: int = 1024
    ) -> "list[Tuple[str, str]]":
        """Up to ``limit`` ``(kind, key)`` pairs from the disk tier.

        The shard-side model registry that replica warm-up pulls
        (``GET /registry``): newest artifacts first, so a bounded warm-up
        copies the entries most likely to be hot.
        """
        if not self.enabled or self.directory is None:
            return []
        objects = self.directory / "objects"
        if not objects.is_dir():
            return []
        found: "list[Tuple[float, str, str]]" = []
        for path in objects.rglob("*"):
            if not path.is_file() or path.name.startswith(".tmp-"):
                continue
            kind, sep, key = path.name.rpartition("-")
            if not sep:
                continue
            if kinds is not None and kind not in kinds:
                continue
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue
            found.append((mtime, kind, key))
        found.sort(reverse=True)
        return [(kind, key) for _, kind, key in found[:limit]]

    def load_blob(self, name: str) -> Optional[Any]:
        """A named mutable blob (e.g. the solver cache), or None."""
        if not self.enabled:
            return None
        data = self._disk_read(self._blob_path(name))
        if data is None:
            return None
        try:
            return pickle.loads(data)
        except Exception as exc:
            _warn(
                "cache.load_failed",
                f"cache: blob {name} failed to load ({exc}); ignoring",
                blob=name, error=str(exc),
            )
            return None

    def save_blob(self, name: str, obj: Any) -> None:
        if not self.enabled:
            return
        try:
            data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            _warn(
                "cache.unpicklable",
                f"cache: blob {name} is unpicklable ({exc}); skipping",
                blob=name, error=str(exc),
            )
            return
        self._disk_write(self._blob_path(name), data)

    # -- maintenance --------------------------------------------------------

    def clear_disk(self) -> int:
        """Remove every artifact and blob; returns the number removed."""
        self.drop_memory()
        if self.directory is None:
            return 0
        removed = 0
        objects = self.directory / "objects"
        if objects.is_dir():
            for path in sorted(objects.rglob("*")):
                if path.is_file():
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        pass
        for path in self.directory.glob("*.blob"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def disk_stats(self) -> Dict[str, Any]:
        """Entry counts and byte totals per artifact kind (plus blobs)."""
        kinds: Dict[str, Dict[str, int]] = {}
        blobs: Dict[str, int] = {}
        total = 0
        if self.directory is not None:
            objects = self.directory / "objects"
            if objects.is_dir():
                for path in objects.rglob("*"):
                    if not path.is_file() or path.name.startswith(".tmp-"):
                        continue
                    kind = path.name.rsplit("-", 1)[0]
                    entry = kinds.setdefault(kind, {"count": 0, "bytes": 0})
                    size = path.stat().st_size
                    entry["count"] += 1
                    entry["bytes"] += size
                    total += size
            for path in self.directory.glob("*.blob"):
                size = path.stat().st_size
                blobs[path.stem] = size
                total += size
        return {
            "directory": str(self.directory) if self.directory else None,
            "enabled": self.enabled,
            "disk_write_disabled": self._disk_write_disabled,
            "kinds": {k: kinds[k] for k in sorted(kinds)},
            "blobs": blobs,
            "total_bytes": total,
            "memory_entries": len(self._mem),
            "memory_bytes": self._mem_bytes,
            "session_counters": dict(sorted(self.counters.items())),
        }


# ---------------------------------------------------------------------------
# Global store (env-configured, override-able)
# ---------------------------------------------------------------------------

_UNSET = object()
_override_dir: Any = _UNSET
_override_enabled: Optional[bool] = None
_override_peers: Any = _UNSET
_store: Optional[ArtifactStore] = None
_store_key: Optional[Tuple[Optional[str], bool, Tuple]] = None
_config_lock = threading.Lock()

_FALSY = {"0", "off", "false", "no"}


def default_directory() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro")


def _resolved_config() -> Tuple[Optional[str], bool, Tuple[Tuple[str, int], ...]]:
    if _override_enabled is not None:
        enabled = _override_enabled
    else:
        enabled = os.environ.get("REPRO_CACHE", "1").strip().lower() not in _FALSY
    if _override_dir is not _UNSET:
        directory = str(_override_dir) if _override_dir else None
    else:
        directory = os.environ.get("REPRO_CACHE_DIR") or default_directory()
    if _override_peers is not _UNSET:
        peers = tuple(_override_peers or ())
    else:
        peers = parse_peers(os.environ.get("REPRO_CACHE_PEERS"))
    return directory, enabled, peers


def get_store() -> ArtifactStore:
    """The ambient artifact store, rebuilt whenever its config changes.

    Configuration is re-resolved on every call (env vars plus any
    :func:`configure` overrides), so tests and CLI flags that flip
    ``REPRO_CACHE``/``REPRO_CACHE_DIR``/``REPRO_CACHE_PEERS`` take
    effect immediately.
    """
    global _store, _store_key
    key = _resolved_config()
    with _config_lock:
        if _store is None or key != _store_key:
            _store = ArtifactStore(key[0], enabled=key[1], peers=key[2])
            _store_key = key
        return _store


def store_token() -> Optional[str]:
    """Identity of the active persistent store: its directory, or None.

    Consumers that attach their own persistence to the store (the
    solver's constraint cache) compare tokens to notice
    reconfiguration; None means "no persistence right now".
    """
    directory, enabled, _peers = _resolved_config()
    return directory if enabled else None


def configure(
    directory: Any = _UNSET,
    enabled: Optional[bool] = None,
    peers: Any = _UNSET,
) -> None:
    """Override (or reset) the ambient store configuration.

    ``configure()`` with no arguments drops all overrides, returning
    control to the environment.  ``directory=None`` disables the disk
    tier outright; ``enabled=False`` disables the store; ``peers`` is a
    sequence of ``(host, port)`` shard peers for the remote tier
    (``peers=()`` explicitly disables peer-fill).
    """
    global _override_dir, _override_enabled, _override_peers, _store, _store_key
    with _config_lock:
        if directory is _UNSET and enabled is None and peers is _UNSET:
            _override_dir = _UNSET
            _override_enabled = None
            _override_peers = _UNSET
        else:
            if directory is not _UNSET:
                _override_dir = directory
            if enabled is not None:
                _override_enabled = enabled
            if peers is not _UNSET:
                _override_peers = tuple(peers or ())
        _store = None
        _store_key = None
