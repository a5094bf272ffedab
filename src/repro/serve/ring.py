"""Shard placement for the serve cluster: the hash ring and routing keys.

:class:`~repro.serve.client.ClusterClient` places every shard on a hash
ring at ``vnodes`` points (virtual nodes smooth the key distribution),
and sends each request to the first shard clockwise from the hash of
its **routing key** (:func:`routing_key`).  Two properties make this
the right structure for a cache-heavy cluster (docs/internals.md §13):

- **stickiness** — a given artifact key always lands on the same shard,
  so that shard's constraint cache, artifact tiers and compiled-model
  memo stay hot for it;
- **minimal disruption** — removing a shard only moves the keys it
  owned (to the next shard clockwise); every other shard's working set
  is untouched, so a failover does not flush the cluster's caches.

Hashing is BLAKE2b over UTF-8 — stable across processes, platforms and
Python releases (``hash()`` is salted per process and useless here).

>>> ring = HashRing(["a:1", "b:2", "c:3"])
>>> ring.node_for("some-artifact-key") in {"a:1", "b:2", "c:3"}
True
>>> pref = ring.preference("some-artifact-key")
>>> sorted(pref) == ["a:1", "b:2", "c:3"]  # every node, primary first
True
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.cache.keys import stable_fingerprint

#: Virtual nodes per shard.  64 keeps the max/min key-share ratio under
#: ~1.6 for small clusters, at negligible memory cost.
DEFAULT_VNODES = 64


def _point(text: str) -> int:
    """A stable 64-bit ring position for ``text``."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """A consistent-hash ring over named nodes (shard addresses)."""

    def __init__(
        self, nodes: Iterable[str] = (), vnodes: int = DEFAULT_VNODES
    ) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._nodes: Dict[str, Tuple[int, ...]] = {}
        self._points: List[int] = []
        self._owners: List[str] = []
        for node in nodes:
            self.add(node)

    # -- membership ----------------------------------------------------------

    def add(self, node: str) -> None:
        """Place ``node`` on the ring (idempotent)."""
        if node in self._nodes:
            return
        points = tuple(
            _point(f"{node}#{i}") for i in range(self.vnodes)
        )
        self._nodes[node] = points
        for point in points:
            idx = bisect.bisect(self._points, point)
            self._points.insert(idx, point)
            self._owners.insert(idx, node)

    def remove(self, node: str) -> None:
        """Take ``node`` off the ring; its keys move to their successors."""
        if node not in self._nodes:
            return
        del self._nodes[node]
        keep = [
            (point, owner)
            for point, owner in zip(self._points, self._owners)
            if owner != node
        ]
        self._points = [point for point, _ in keep]
        self._owners = [owner for _, owner in keep]

    @property
    def nodes(self) -> List[str]:
        return sorted(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    # -- lookup --------------------------------------------------------------

    def node_for(self, key: str) -> Optional[str]:
        """The shard owning ``key`` (None on an empty ring)."""
        if not self._points:
            return None
        idx = bisect.bisect(self._points, _point(key)) % len(self._points)
        return self._owners[idx]

    def preference(self, key: str, n: Optional[int] = None) -> List[str]:
        """Up to ``n`` distinct shards for ``key`` in ring order.

        The first entry is the owner; the rest are the failover chain —
        the shards a dead owner's keys spill to, in the order they
        absorb them.  ``n=None`` returns every node.
        """
        if not self._points:
            return []
        want = len(self._nodes) if n is None else min(n, len(self._nodes))
        out: List[str] = []
        start = bisect.bisect(self._points, _point(key))
        total = len(self._points)
        for step in range(total):
            owner = self._owners[(start + step) % total]
            if owner not in out:
                out.append(owner)
                if len(out) >= want:
                    break
        return out

    # -- introspection -------------------------------------------------------

    def share(self, samples: int = 4096) -> Dict[str, float]:
        """Approximate fraction of the key space each node owns."""
        counts: Dict[str, int] = {node: 0 for node in self._nodes}
        for i in range(samples):
            owner = self.node_for(f"sample-{i}")
            if owner is not None:
                counts[owner] += 1
        return {
            node: count / samples for node, count in sorted(counts.items())
        }


def routing_key(op: str, body: Dict[str, Any]) -> str:
    """The consistent-hash key for one request.

    Mirrors the cache-key material of :mod:`repro.serve.jobs`: two
    requests that would share cached artifacts hash to the same shard.
    Op-independent on purpose — a ``synthesize`` and a ``simulate`` of
    the same NF share the model tier, so they belong together.  A corpus
    name resolves to its source and entry the way the serve jobs resolve
    it, so ``{"nf": name}`` and the ``{"source", "name", "entry"}`` form
    of the same corpus NF land on one shard.
    """
    if op == "verify_graph":
        # Route on topology + model bindings: repeated verifications of
        # one graph land on the shard whose edge-summary cache is hot.
        material: Any = (
            "graph",
            body.get("nodes"),
            body.get("edges"),
            body.get("generate"),
        )
    elif op in ("verify", "compose"):
        material = (
            "chain",
            body.get("chain"),
            body.get("chain_a"),
            body.get("chain_b"),
        )
    else:
        material = _target_material(body)
    try:
        return stable_fingerprint(material)
    except (TypeError, ValueError):
        # Un-encodable bodies (bad request shapes) still need *a* shard
        # to produce the 400; route on the op name.
        return stable_fingerprint(("op", op))


def _target_material(body: Dict[str, Any]) -> Any:
    """The NF-target part of a routing key (see :func:`routing_key`)."""
    name = body.get("nf") or body.get("name")
    source, entry = body.get("source"), body.get("entry")
    if source is None and isinstance(name, str):
        from repro.nfs import get_nf

        try:
            spec = get_nf(name)
        except KeyError:
            pass  # not a corpus name: keyed as sent
        else:
            name, source, entry = spec.name, spec.source, entry or spec.entry
    return ("target", name, source, entry)
