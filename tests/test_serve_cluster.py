"""Tests for the sharded serve cluster (ring, cluster client, peer-fill).

The distributed behaviours under test:

- consistent-hash placement in the client is sticky (same key → same
  shard, so that shard's caches stay hot) and spreads distinct keys
  across shards;
- cache peer-fill moves artifacts between shards over ``/cas`` with
  checksum verification on read — a corrupted blob is a logged miss
  (``cache.peer.corrupt``) and a local recompute with an identical
  result, never a wrong answer;
- replica warm-up pre-populates a joining shard from a peer's registry;
- killing a shard mid-load fails its key range over to the next ring
  node (``ClusterClient.failovers``) without losing requests; a
  draining shard's 503 fails over too, and a shard whose connection
  failed is tried last until its cool-down ends.

Integration tests run real servers on ephemeral ports; per-shard
private cache directories make per-shard hit rates meaningful.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import pytest

from repro.cache.keys import artifact_key
from repro.cache.store import ArtifactStore, parse_peers
from repro.nfs import get_nf, nf_names
from repro.serve import ClusterClient, ServeClient, ServeConfig, ServerHandle
from repro.serve import client as client_module
from repro.serve.client import SHARD_COOLDOWN_S, ServeError
from repro.serve.cluster import ClusterHandle, allocate_ports
from repro.serve.jobs import _LruMemo
from repro.serve.queue import (
    RETRY_AFTER_MAX_S,
    RETRY_AFTER_MIN_S,
    retry_after_jitter,
)
from repro.serve.ring import HashRing, routing_key


# -- consistent hashing -------------------------------------------------------


class TestHashRing:
    def test_lookup_is_stable_and_total(self):
        ring = HashRing(["a:1", "b:2", "c:3"])
        for i in range(200):
            key = f"key-{i}"
            assert ring.node_for(key) == ring.node_for(key)
            assert ring.node_for(key) in {"a:1", "b:2", "c:3"}

    def test_distribution_is_roughly_even(self):
        ring = HashRing([f"s{i}" for i in range(4)])
        share = ring.share(samples=4096)
        assert abs(sum(share.values()) - 1.0) < 1e-9
        for fraction in share.values():
            assert 0.10 < fraction < 0.45, share

    def test_removal_only_moves_the_dead_nodes_keys(self):
        ring = HashRing(["a:1", "b:2", "c:3"])
        before = {f"key-{i}": ring.node_for(f"key-{i}") for i in range(500)}
        ring.remove("b:2")
        for key, owner in before.items():
            after = ring.node_for(key)
            if owner == "b:2":
                assert after != "b:2"
            else:
                assert after == owner, f"{key} moved off a live shard"
        assert "b:2" not in ring

    def test_preference_list_is_distinct_and_owner_first(self):
        ring = HashRing(["a:1", "b:2", "c:3", "d:4"])
        for i in range(50):
            pref = ring.preference(f"key-{i}")
            assert pref[0] == ring.node_for(f"key-{i}")
            assert len(pref) == len(set(pref)) == 4
        assert len(ring.preference("x", n=2)) == 2

    def test_empty_ring(self):
        ring = HashRing()
        assert ring.node_for("anything") is None
        assert ring.preference("anything") == []


class TestRoutingKey:
    def test_same_nf_same_key_across_ops(self):
        # A synthesize and a simulate of one NF share cached artifacts,
        # so they must land on the same shard.
        k1 = routing_key("synthesize", {"nf": "nat"})
        k2 = routing_key("simulate", {"nf": "nat", "packets": [{"p": 1}]})
        k3 = routing_key("testgen", {"nf": "nat", "timeout_s": 5})
        assert k1 == k2 == k3

    def test_distinct_targets_distinct_keys(self):
        keys = {routing_key("synthesize", {"nf": name})
                for name in ("nat", "firewall", "monitor", "l2switch")}
        assert len(keys) == 4

    def test_chain_ops_key_on_the_chain(self):
        k1 = routing_key("verify", {"chain": ["nat", "firewall"]})
        k2 = routing_key("verify", {"chain": ["nat", "firewall"]})
        k3 = routing_key("verify", {"chain": ["firewall", "nat"]})
        assert k1 == k2 != k3

    def test_unroutable_body_still_gets_a_key(self):
        assert routing_key("synthesize", {"source": object()})

    @pytest.mark.parametrize("name", nf_names())
    def test_corpus_name_and_source_forms_share_a_shard(self, name):
        # `repro query` sends a corpus NF as {"source", "name", "entry"};
        # other clients send {"nf": name}.  Both must hit one cache.
        spec = get_nf(name)
        by_name = routing_key("simulate", {"nf": name, "packets": [{}]})
        by_source = routing_key(
            "synthesize",
            {"source": spec.source, "name": spec.name, "entry": spec.entry},
        )
        assert by_name == by_source
        ring = HashRing(["127.0.0.1:8401", "127.0.0.1:8402"])
        assert ring.node_for(by_name) == ring.node_for(by_source)

    def test_non_corpus_names_key_as_sent(self):
        body = {"name": "nat-fork", "source": "def h(pkt): pass"}
        assert routing_key("synthesize", body) != routing_key(
            "synthesize", {"nf": "nat"}
        )
        assert routing_key("synthesize", {"nf": "nosuchnf"}) != routing_key(
            "synthesize", {"nf": "nosuchnf", "entry": "h"}
        )


# -- satellite: Retry-After jitter -------------------------------------------


class TestRetryAfterJitter:
    def test_bounds(self):
        for _ in range(500):
            value = retry_after_jitter()
            assert RETRY_AFTER_MIN_S <= value <= RETRY_AFTER_MAX_S

    def test_spread(self):
        # Jitter must actually jitter: hundreds of draws should not
        # collapse onto a handful of values (the thundering-herd bug).
        assert len({round(retry_after_jitter(), 3) for _ in range(200)}) > 50

    def test_header_rounding_contract(self):
        value = retry_after_jitter()
        assert max(1, math.ceil(value)) in (1, 2)


# -- satellite: compiled-model memo is LRU ------------------------------------


class TestLruMemo:
    def test_eviction_is_lru_not_fifo(self):
        memo = _LruMemo(2)
        memo.put("hot", 1)
        memo.put("cold", 2)
        assert memo.get("hot") == 1  # refresh: "hot" is now most recent
        memo.put("new", 3)  # evicts "cold" (LRU), not "hot" (FIFO victim)
        assert "hot" in memo and "new" in memo
        assert "cold" not in memo

    def test_steady_traffic_pins_a_hot_model(self):
        memo = _LruMemo(4)
        memo.put("hot", "compiled")
        for i in range(20):  # a parade of one-off models
            memo.get("hot")
            memo.put(f"oneoff-{i}", i)
        assert memo.get("hot") == "compiled"
        assert len(memo) == 4

    def test_put_refresh_and_capacity_floor(self):
        memo = _LruMemo(0)  # clamps to 1
        memo.put("a", 1)
        memo.put("b", 2)
        assert len(memo) == 1 and memo.get("b") == 2
        memo.clear()
        assert len(memo) == 0 and memo.get("b") is None


# -- peer parsing -------------------------------------------------------------


class TestParsePeers:
    def test_tolerates_junk(self):
        assert parse_peers("a:1, b:2,junk,:3,c:nope,,d:0") == (
            ("a", 1), ("b", 2)
        )
        assert parse_peers(None) == ()
        assert parse_peers("") == ()


# -- integration helpers ------------------------------------------------------


@contextmanager
def shard(tmp_path, name, *, peers=(), warmup=False, **kwargs):
    """One shard server with a private cache dir under ``tmp_path``."""
    config = ServeConfig(
        port=0,
        workers=1,
        peers=tuple(peers),
        cache_dir=str(tmp_path / name),
        warmup=warmup,
        **kwargs,
    )
    handle = ServerHandle(config)
    handle.start()
    try:
        yield handle, ServeClient("127.0.0.1", handle.port, timeout=60)
    finally:
        handle.stop()


def _poll(predicate, timeout=15.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def _model_sig(response):
    """The model payload of a synthesize response (envelope identity)."""
    import json

    return json.dumps(response.result["model"], sort_keys=True)


# -- CAS endpoints ------------------------------------------------------------


class TestCasEndpoints:
    def test_get_put_roundtrip_and_404(self, tmp_path):
        from repro.serve.peers import fetch_cas_raw, push_cas_raw

        with shard(tmp_path, "a") as (handle, client):
            seed = ArtifactStore(str(tmp_path / "seed"))
            key = artifact_key("model", ("roundtrip",))
            seed.put_object("model", key, {"answer": 42})
            framed = seed.get_raw("model", key)
            assert framed is not None

            assert client.request("GET", f"/cas/model/{key}").status == 404
            assert fetch_cas_raw("127.0.0.1", handle.port, "model", key) is None

            # empty/damaged bodies fail receive-side verification
            assert client.request("PUT", f"/cas/model/{key}").status == 400
            assert not push_cas_raw(
                "127.0.0.1", handle.port, "model", key, b"garbage"
            )

            assert push_cas_raw("127.0.0.1", handle.port, "model", key, framed)
            store = handle.server.cas_store()
            assert store.get_raw("model", key) == framed
            assert store.get_object("model", key) == {"answer": 42}
            assert (
                fetch_cas_raw("127.0.0.1", handle.port, "model", key) == framed
            )
            assert ("model", key) in store.list_objects(kinds=("model",))

    def test_bad_paths_rejected(self, tmp_path):
        with shard(tmp_path, "a") as (_handle, client):
            assert client.request("GET", "/cas/model/NOTHEX").status == 404
            assert client.request("GET", "/cas/../etc/deadbeefdeadbeef").status == 404
            assert client.request("GET", "/registry").status == 200


# -- cache peer-fill ----------------------------------------------------------


class TestPeerFill:
    def _seed(self, tmp_path, name="donor"):
        store = ArtifactStore(str(tmp_path / name))
        key = artifact_key("model", ("peer-fill",))
        store.put_object("model", key, {"model": "payload", "n": 7})
        return key

    def test_miss_fills_from_peer(self, tmp_path):
        key = self._seed(tmp_path)
        with shard(tmp_path, "donor") as (handle, _client):
            taker = ArtifactStore(
                str(tmp_path / "taker"), peers=(("127.0.0.1", handle.port),)
            )
            got = taker.get_object("model", key)
            assert got == {"model": "payload", "n": 7}
            assert taker.counters.get("peer.hits") == 1
            # Filled into the local disk tier: next read never leaves
            # the machine even from a cold process.
            fresh = ArtifactStore(str(tmp_path / "taker"))
            assert fresh.get_object("model", key) == got
            assert not fresh.counters.get("peer.hits")

    def test_unreachable_peer_is_a_logged_miss(self, tmp_path):
        port = allocate_ports(1)[0]  # nothing listens here
        taker = ArtifactStore(
            str(tmp_path / "taker"), peers=(("127.0.0.1", port),),
            peer_timeout_s=0.5,
        )
        key = artifact_key("model", ("absent",))
        assert taker.get_object("model", key) is None
        assert taker.counters.get("peer.errors") == 1
        assert taker.counters.get("peer.misses") == 1

    @pytest.mark.parametrize("damage", ["truncate", "bitflip"])
    def test_corrupt_peer_blob_rejected_and_recomputed(
        self, tmp_path, damage, caplog
    ):
        """The ISSUE satellite: a damaged CAS blob from a peer is caught
        by the fetch-side checksum, logged as ``cache.peer.corrupt``,
        and the caller recomputes locally with an identical result."""
        import logging

        key = self._seed(tmp_path)
        # Damage the donor's on-disk copy; the donor serves the raw
        # bytes unverified (by design), so only the taker can catch it.
        donor = ArtifactStore(str(tmp_path / "donor"))
        path = donor._object_path("model", key)
        raw = path.read_bytes()
        if damage == "truncate":
            path.write_bytes(raw[: len(raw) // 2])
        else:
            flipped = bytearray(raw)
            flipped[-1] ^= 0xFF
            path.write_bytes(bytes(flipped))

        with shard(tmp_path, "donor") as (handle, _client):
            taker = ArtifactStore(
                str(tmp_path / "taker"), peers=(("127.0.0.1", handle.port),)
            )
            with caplog.at_level(logging.WARNING, logger="repro.cache"):
                assert taker.get_object("model", key) is None  # a miss...
            assert taker.counters.get("peer.corrupt") == 1
            assert taker.counters.get("peer.misses") == 1
            assert not taker.counters.get("peer.hits")
            assert any(
                getattr(r, "repro_event", "") == "cache.peer.corrupt"
                for r in caplog.records
            )
            # ...so the caller recomputes and stores locally: identical
            # result, cache changed *when* work happened, never *what*.
            taker.put_object("model", key, {"model": "payload", "n": 7})
            assert taker.get_object("model", key) == {
                "model": "payload", "n": 7
            }

    def test_put_raw_rejects_damage(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "s"))
        key = artifact_key("model", ("push",))
        assert store.put_raw("model", key, b"garbage") is False
        assert store.counters.get("peer.corrupt") == 1
        assert store.get_object("model", key) is None


# -- replica warm-up ----------------------------------------------------------


class TestWarmup:
    def test_joining_shard_pulls_the_peers_registry(self, tmp_path):
        with shard(tmp_path, "a") as (handle_a, client_a):
            client_a.synthesize("nat").raise_for_status()
            donor = ArtifactStore(str(tmp_path / "a"))
            assert _poll(lambda: donor.list_objects(kinds=("model",)), 15)

            with shard(
                tmp_path, "b",
                peers=(("127.0.0.1", handle_a.port),),
                warmup=True,
            ) as (handle_b, client_b):
                joined = ArtifactStore(str(tmp_path / "b"))
                assert _poll(lambda: joined.list_objects(kinds=("model",)), 15), \
                    "warm-up never copied the model artifact"
                assert handle_b.registry.snapshot()["counters"].get(
                    "serve.warmup.artifacts", 0
                ) >= 1
                # The warmed artifact makes B's first request a cache hit.
                response = client_b.synthesize("nat").raise_for_status()
                assert response.result["cached"] is True


# -- the full cluster ---------------------------------------------------------

#: Corpus NFs the integration tests route.  Enough distinct routing
#: keys that two shards are statistically certain to both appear
#: (P[all one shard] ~ 2^-5 per ring layout, and the layout is fixed).
CLUSTER_NFS = ("nat", "firewall", "monitor", "l2switch", "ratelimiter", "balance")


class TestClusterIntegration:
    def test_routing_is_sticky_and_follows_the_ring(self, tmp_path):
        with ClusterHandle(
            shards=2, workers_per_shard=1, cache_root=str(tmp_path)
        ) as cluster:
            client = ClusterClient(cluster.endpoints, timeout=60)
            assert all(c.wait_until_up(30) for c in client.clients.values())
            # The contract: observed placement IS the ring's placement.
            ring = HashRing(
                f"127.0.0.1:{h.port}" for h in cluster.shard_handles
            )
            expected = {
                nf: ring.node_for(routing_key("synthesize", {"nf": nf}))
                for nf in CLUSTER_NFS
            }
            # Pick NFs covering both shards (the ring layout depends on
            # the ephemeral ports, so choose after the fact).
            by_shard = {}
            for nf, owner in expected.items():
                by_shard.setdefault(owner, nf)
            targets = list(by_shard.values())[:2] or CLUSTER_NFS[:1]
            for nf in targets:
                first = client.synthesize(nf).raise_for_status()
                again = client.synthesize(nf).raise_for_status()
                assert first.shard == again.shard == expected[nf], (
                    f"{nf}: client placed on {first.shard}, "
                    f"ring says {expected[nf]}"
                )
                assert again.result["cached"] is True, (
                    f"{nf}: sticky routing must make the repeat a cache hit"
                )
                assert _model_sig(first) == _model_sig(again)
            if len(by_shard) == 2:
                assert len({expected[nf] for nf in targets}) == 2
            client.close()

    def test_cluster_envelope_matches_single_node(self, tmp_path):
        """Envelopes from the cluster are byte-identical in every
        deterministic field to a single-node server's."""
        with shard(tmp_path, "solo") as (_handle, solo_client):
            solo = solo_client.synthesize("nat").raise_for_status()
        with ClusterHandle(
            shards=2, workers_per_shard=1, cache_root=str(tmp_path / "c")
        ) as cluster:
            client = ClusterClient(cluster.endpoints, timeout=60)
            assert all(c.wait_until_up(30) for c in client.clients.values())
            clustered = client.synthesize("nat").raise_for_status()
            client.close()
        assert _model_sig(solo) == _model_sig(clustered)
        assert solo.result["stats"] == clustered.result["stats"]
        assert set(solo.payload) == set(clustered.payload)

    def test_failover_spills_to_next_ring_node(self, tmp_path):
        # The kill is discovered *by a request*: the client has no
        # background probes, so this is the per-request failover path.
        with ClusterHandle(
            shards=2, workers_per_shard=1, cache_root=str(tmp_path),
        ) as cluster:
            client = ClusterClient(cluster.endpoints, timeout=60)
            assert all(c.wait_until_up(30) for c in client.clients.values())
            # Map every NF to its shard, pick a victim that serves some.
            owners = {
                nf: client.synthesize(nf).raise_for_status().shard
                for nf in CLUSTER_NFS[:4]
            }
            victim_name = next(iter(set(owners.values())))
            victim_index = [
                i for i, h in enumerate(cluster.shard_handles)
                if f"127.0.0.1:{h.port}" == victim_name
            ][0]

            cluster.kill_shard(victim_index)

            # Every request still answers 200 — the victim's keys spill
            # to the surviving shard; none hang, none are lost.  Two
            # passes: the second runs with the victim in cool-down.
            for _ in range(2):
                for nf in CLUSTER_NFS[:4]:
                    response = client.synthesize(nf)
                    assert response.status == 200, (
                        f"{nf} failed after shard kill: {response.payload}"
                    )
                    assert response.shard != victim_name
            assert client.failovers >= 1
            client.close()


def _key_owned_by(client, owner, make_body, op="synthesize"):
    """The first body ``make_body(i)`` whose ring owner is ``owner``."""
    for i in range(10_000):
        body = make_body(i)
        if client.ring.node_for(routing_key(op, body)) == owner:
            return body
    raise AssertionError(f"no key found for {owner}")


class TestClusterClient:
    def test_failed_shard_cools_down_then_comes_back_first(
        self, tmp_path, monkeypatch
    ):
        now = [1000.0]
        monkeypatch.setattr(
            client_module, "time",
            type("Clock", (), {"monotonic": staticmethod(lambda: now[0])}),
        )
        dead = allocate_ports(1)[0]  # nothing listens here
        with shard(tmp_path, "live") as (handle, _client):
            client = ClusterClient(
                [("127.0.0.1", dead), ("127.0.0.1", handle.port)], timeout=10
            )
            live_name, dead_name = (
                f"127.0.0.1:{handle.port}", f"127.0.0.1:{dead}"
            )
            # An unknown NF answers a quick 400 from whichever shard
            # gets it: the answer, not a reason to fail over.
            body = _key_owned_by(
                client, dead_name, lambda i: {"nf": f"no-such-nf-{i}"}
            )
            key = routing_key("synthesize", body)
            assert client.preference(key) == [dead_name, live_name]

            response = client.synthesize(**body)
            assert response.status == 400 and response.shard == live_name
            assert client.failovers == 1
            # Cooling: the dead shard is tried last, so the next request
            # goes straight to the live one.
            assert client.preference(key) == [live_name, dead_name]
            assert client.synthesize(**body).shard == live_name
            assert client.failovers == 1

            now[0] += SHARD_COOLDOWN_S - 0.01
            assert client.preference(key)[0] == live_name
            now[0] += 0.02
            assert client.preference(key) == [dead_name, live_name]
            client.close()

    def test_draining_shard_fails_over(self, tmp_path):
        with shard(tmp_path, "a") as (handle_a, _ca), shard(tmp_path, "b") as (
            handle_b, _cb
        ):
            client = ClusterClient(
                [("127.0.0.1", handle_a.port), ("127.0.0.1", handle_b.port)],
                timeout=60,
            )
            drained = f"127.0.0.1:{handle_a.port}"
            from repro.nfs import get_nf

            source = get_nf("monitor").source
            body = _key_owned_by(
                client, drained,
                lambda i: {"source": f"{source}\n# variant {i}\n",
                           "name": "monitor"},
            )
            # Draining is the only state in which a server answers 503:
            # the request was never admitted, so it is safe elsewhere.
            handle_a.server.draining = True
            try:
                response = client.synthesize(**body)
            finally:
                handle_a.server.draining = False
            assert response.status == 200, response.payload
            assert response.shard == f"127.0.0.1:{handle_b.port}"
            assert client.failovers == 1
            assert handle_a.registry.snapshot()["counters"].get(
                "serve.draining_rejected"
            ) == 1
            client.close()

    def test_all_shards_down_raises(self):
        ports = allocate_ports(2)  # nothing listens on either
        client = ClusterClient([("127.0.0.1", port) for port in ports], timeout=5)
        with pytest.raises(ServeError, match="every shard failed"):
            client.synthesize("nat")
        assert client.failovers == 1

    def test_query_shards_prints_the_serving_shard(self, tmp_path, capsys):
        import json

        from repro.cli import main
        from repro.nfs import get_nf

        spec = get_nf("nat")  # the CLI sends a corpus NF's source
        sent = {"source": spec.source, "name": spec.name, "entry": spec.entry}
        with ClusterHandle(
            shards=2, workers_per_shard=1, cache_root=str(tmp_path)
        ) as cluster:
            shards = ",".join(f"{h}:{p}" for h, p in cluster.endpoints)
            code = main(["query", "--shards", shards, "synthesize", "nat"])
            captured = capsys.readouterr()
            owner = ClusterClient(cluster.endpoints).ring.node_for(
                routing_key("synthesize", sent)
            )
        assert code == 0
        assert json.loads(captured.out)["result"]["name"] == "nat"
        assert captured.err.strip() == f"shard: {owner}"

    def test_query_verify_exits_with_the_verdict_status(self, tmp_path, capsys):
        """``repro query verify`` exits like ``repro verify``: 4 for an
        ``incomplete`` verdict (loadbalancer#2 drops spaces at its cap)."""
        import json

        from repro.cli import main

        with shard(tmp_path, "a") as (handle, _client):
            code = main([
                "query", "--port", str(handle.port),
                "verify", "firewall", "snortlite", "loadbalancer",
            ])
            captured = capsys.readouterr()
        assert json.loads(captured.out)["result"]["status"] == "incomplete"
        assert code == 4

    def test_query_compose_takes_the_chains_as_positionals(self, tmp_path, capsys):
        """``repro query compose A B`` is spelled like ``repro compose A B``
        and prints the local ``compose_payload`` of the same chains."""
        import json

        from repro.apps.compose import compose_chains, compose_payload
        from repro.cli import _chain_models_local, main

        expected = compose_payload(compose_chains(
            _chain_models_local(["firewall", "snortlite"]),
            _chain_models_local(["loadbalancer"]),
        ))
        with shard(tmp_path, "a") as (handle, _client):
            port = str(handle.port)
            code = main([
                "query", "--port", port,
                "compose", "firewall,snortlite", "loadbalancer",
            ])
            captured = capsys.readouterr()
            assert code == 0
            assert json.loads(captured.out)["result"] == expected
            with pytest.raises(SystemExit) as missing:
                main(["query", "--port", port, "compose", "firewall,snortlite"])
            assert missing.value.code != 0
            assert "query compose needs two chains" in str(missing.value.code)


# -- satellite: client keep-alive ---------------------------------------------


class TestClientKeepAlive:
    def test_sequential_requests_reuse_one_connection(self, tmp_path):
        with shard(tmp_path, "a") as (handle, client):
            for _ in range(5):
                client.healthz().raise_for_status()
            connections = handle.registry.snapshot()["counters"].get(
                "serve.connections", 0
            )
            assert connections == 1, (
                f"5 sequential requests opened {connections} connections"
            )
            client.close()

    def test_stale_socket_reconnects_transparently(self, tmp_path):
        with shard(tmp_path, "a") as (handle, client):
            client.healthz().raise_for_status()
            # Yank the kept-alive socket out from under the client (what
            # an idle timeout or restarted server does).
            conn = client._local.conn
            conn.sock.close()
            response = client.healthz()
            assert response.status == 200
            connections = handle.registry.snapshot()["counters"].get(
                "serve.connections", 0
            )
            assert connections == 2
            client.close()

    def test_threads_do_not_share_sockets(self, tmp_path):
        import threading

        with shard(tmp_path, "a") as (_handle, client):
            errors = []

            def hammer():
                try:
                    for _ in range(10):
                        client.healthz().raise_for_status()
                    client.close()
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors


# -- worker deadline plumbing -------------------------------------------------


class TestWorkerDeadline:
    def test_stale_absolute_deadline_fails_fast_in_worker(self):
        # The server stamps an absolute monotonic deadline at dispatch;
        # a job that starts after it has passed must 504 where="worker"
        # immediately, not arm a stale full-length alarm.
        from repro.serve.jobs import run_job

        t0 = time.monotonic()
        out = run_job(("synthesize", {"name": "nat"}, 5.0, None, t0 - 1.0))
        assert out["status"] == 504
        assert out["where"] == "worker"
        assert time.monotonic() - t0 < 1.0

    def test_alarm_ticks_again_after_a_swallowed_timeout(self):
        # A tick that raises into an unraisable context (weakref
        # callback, __del__) is silently dropped by CPython; the
        # interval timer must try again.  Swallowing the first two
        # JobTimeouts here simulates those lost deliveries — a one-shot
        # alarm would never fire a third time.
        from repro.serve.jobs import JobTimeout, _deadline_alarm

        swallowed = 0
        give_up = time.monotonic() + 10.0
        with pytest.raises(JobTimeout):
            with _deadline_alarm(0.05):
                while time.monotonic() < give_up:
                    try:
                        while time.monotonic() < give_up:
                            pass
                    except JobTimeout:
                        swallowed += 1
                        if swallowed >= 3:
                            raise
        assert swallowed == 3


# -- satellite: jittered Retry-After on the wire ------------------------------


class TestBackpressureJitter:
    def test_429_carries_jittered_retry_after(self, tmp_path, monkeypatch):
        import threading

        monkeypatch.setenv("REPRO_SERVE_TEST_OPS", "1")
        with shard(tmp_path, "a", queue_size=1) as (handle, client):
            # One sleep occupies the worker, a second fills the 1-deep
            # queue; every probe after that is an instant 429.  The
            # second holder starts only once the first is inflight —
            # two simultaneous submits can race the dispatcher for the
            # single queue slot and reject one of them.
            def hold() -> None:
                ServeClient("127.0.0.1", handle.port, timeout=30).request(
                    "POST", "/v1/sleep", {"seconds": 6.0}
                )

            holders = [threading.Thread(target=hold) for _ in range(2)]
            holders[0].start()
            assert _poll(
                lambda: (client.healthz().result or {}).get("inflight") == 1,
                timeout=10,
            ), "first sleep never reached the worker"
            holders[1].start()
            try:
                assert _poll(
                    lambda: (client.healthz().result or {}).get(
                        "queue_depth"
                    )
                    == 1,
                    timeout=10,
                ), "never saturated worker + queue"
                hints = []
                for _ in range(8):
                    response = client.request(
                        "POST", "/v1/sleep", {"seconds": 0.01}
                    )
                    if response.status != 429:
                        continue  # a holder finished; enough samples exist
                    assert response.retry_after_s is not None
                    assert (
                        RETRY_AFTER_MIN_S
                        <= response.retry_after_s
                        <= RETRY_AFTER_MAX_S
                    )
                    hints.append(response.retry_after_s)
                assert len(hints) >= 4, "never saw enough 429s"
                assert len(set(hints)) > 1, f"no jitter: {hints}"
            finally:
                for t in holders:
                    t.join()
            client.close()
