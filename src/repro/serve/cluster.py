"""In-process cluster harness: N shards, one call.

The ``repro serve --cluster N`` entry point and what the cluster tests
and benchmarks drive.  Each shard is a full :class:`~repro.serve.server.
Server` on its own background thread with its **own worker pool and
private artifact-cache directory** (so per-shard cache hit rates are
real, not an artifact of a shared filesystem), wired to every other
shard as a cache peer.  Nothing fronts them: a
:class:`~repro.serve.client.ClusterClient` over :attr:`ClusterHandle.
endpoints` places each request on its shard itself.

Shard ports are fixed before any server starts (``port``, ``port+1``,
... or, with ``port=0``, pre-allocated by binding port 0, reading the
assignment and closing), because every shard needs the *full* peer
list at pool-creation time — worker processes learn their peers through
pool ``initargs``, which are fixed when the pool spawns.  The classic
bind-race caveat does not bite here: allocation and rebind happen
within milliseconds on a loopback interface.

For real deployments the same topology runs as separate OS processes:
``repro serve --port P --join ...`` per shard, queried with ``repro
query --shards ...`` — which is exactly what the CI cluster-smoke job
does so it can ``kill -9`` a shard.
"""

from __future__ import annotations

import socket
import tempfile
from pathlib import Path
from typing import List, Optional, Tuple

from repro.serve.server import ServeConfig, ServerHandle


def allocate_ports(n: int, host: str = "127.0.0.1") -> List[int]:
    """``n`` distinct ephemeral ports, all held open until assigned."""
    sockets = []
    try:
        for _ in range(n):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


class ClusterHandle:
    """N shard servers, each on a background thread.

    ::

        with ClusterHandle(shards=2, workers_per_shard=1) as cluster:
            client = ClusterClient(cluster.endpoints)
            ...

    ``port=0`` gives the shards ephemeral ports; any other ``port``
    puts them on ``port`` ... ``port + shards - 1``.
    ``cache_root=None`` gives every shard a private temp directory
    (cleaned up on stop); pass a path to persist/warm across runs.
    """

    def __init__(
        self,
        shards: int = 2,
        workers_per_shard: int = 1,
        host: str = "127.0.0.1",
        cache_root: Optional[str] = None,
        warmup: bool = False,
        queue_size: int = 64,
        port: int = 0,
        base_config: Optional[ServeConfig] = None,
    ) -> None:
        if shards < 1:
            raise ValueError("cluster needs at least one shard")
        self.n_shards = shards
        self.port = port
        self.workers_per_shard = workers_per_shard
        self.host = host
        self.warmup = warmup
        self.queue_size = queue_size
        self.base_config = base_config
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        self.cache_root = cache_root
        self.shard_handles: List[ServerHandle] = []
        self.shard_ports: List[int] = []

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ClusterHandle":
        if self.cache_root is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-cluster-")
            root = Path(self._tmp.name)
        else:
            root = Path(self.cache_root)
            root.mkdir(parents=True, exist_ok=True)
        if self.port:
            self.shard_ports = [self.port + i for i in range(self.n_shards)]
        else:
            self.shard_ports = allocate_ports(self.n_shards, self.host)
        endpoints = self.endpoints
        try:
            for i, port in enumerate(self.shard_ports):
                peers = tuple(
                    endpoint for j, endpoint in enumerate(endpoints) if j != i
                )
                config = self._shard_config(i, port, peers, root)
                self.shard_handles.append(ServerHandle(config))
            # Fork every shard's worker pool before any listener binds:
            # forked workers inherit open FDs, and a worker holding a
            # *sibling* shard's listener would keep that port accepting
            # after the sibling dies (see Server.prepare_pool).
            for handle in self.shard_handles:
                handle.prepare()
            for handle in self.shard_handles:
                handle.start()
        except BaseException:
            self.stop()
            raise
        return self

    def _shard_config(
        self,
        index: int,
        port: int,
        peers: Tuple[Tuple[str, int], ...],
        root: Path,
    ) -> ServeConfig:
        if self.base_config is not None:
            import dataclasses

            config = dataclasses.replace(self.base_config)
        else:
            config = ServeConfig()
        config.host = self.host
        config.port = port
        config.workers = self.workers_per_shard
        config.queue_size = self.queue_size
        config.peers = peers
        config.cache_dir = str(root / f"shard-{index}")
        config.warmup = self.warmup
        config.shard_name = f"{self.host}:{port}"
        return config

    def stop(self, timeout: float = 60.0) -> None:
        for handle in self.shard_handles:
            try:
                handle.stop(timeout)
            except RuntimeError:
                handle.kill()
        self.shard_handles = []
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    def kill_shard(self, index: int) -> None:
        """Crash one shard abruptly (the failover tests' chaos lever)."""
        self.shard_handles[index].kill()

    # -- introspection -------------------------------------------------------

    @property
    def endpoints(self) -> List[Tuple[str, int]]:
        """``(host, port)`` of every shard, for a ``ClusterClient``."""
        return [(self.host, port) for port in self.shard_ports]

    def shard_registries(self) -> List:
        return [handle.registry for handle in self.shard_handles]

    def __enter__(self) -> "ClusterHandle":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
