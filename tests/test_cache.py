"""The persistent artifact cache (repro.cache) and its pipeline wiring.

The load-bearing invariant under test: caching changes *when* work
happens, never *what* is computed.  Cached, uncached and cache-corrupted
runs must produce byte-identical serialized models; any damaged or stale
entry is silently a miss.

The autouse conftest fixture disables the ambient store (REPRO_CACHE=off
with a tmp REPRO_CACHE_DIR); tests here opt back in per-test via
``repro.cache.override`` (process-local) or monkeypatched env vars
(inherited by batch worker processes).
"""

from __future__ import annotations

import logging
import threading

import pytest

from repro import cache as artifact_cache
from repro.cache import keys as cache_keys
from repro.nfactor.algorithm import NFactorConfig, synthesize_model_cached
from repro.nfs import get_nf
from repro.symbolic.engine import EngineConfig
from repro.symbolic.solver import ConstraintCache, clear_global_cache


@pytest.fixture()
def store_dir(tmp_path):
    """An enabled private store for the duration of one test."""
    directory = tmp_path / "cache"
    clear_global_cache()
    with artifact_cache.override(directory=str(directory), enabled=True):
        yield directory
    clear_global_cache()


def _synthesize(name="nat", source=None, max_paths=16384):
    spec = get_nf(name)
    config = NFactorConfig(engine=EngineConfig(max_paths=max_paths))
    return synthesize_model_cached(
        source if source is not None else spec.source,
        name=name,
        entry=spec.entry,
        config=config,
    )


# -- keys ---------------------------------------------------------------------


def test_keys_deterministic_and_kind_separated():
    material = ("source text", ("a", 1), frozenset({3, 1, 2}))
    assert artifact_cache.artifact_key("model", material) == \
        artifact_cache.artifact_key("model", material)
    assert artifact_cache.artifact_key("model", material) != \
        artifact_cache.artifact_key("prep", material)
    assert artifact_cache.artifact_key("model", material) != \
        artifact_cache.artifact_key("model", material + ("x",))


def test_fingerprint_distinguishes_types():
    # 1 vs 1.0 vs True vs "1" must not collide.
    prints = {artifact_cache.stable_fingerprint(v) for v in (1, 1.0, True, "1", b"1")}
    assert len(prints) == 5


# -- the store itself ---------------------------------------------------------


def test_store_roundtrip_and_mutation_isolation(store_dir):
    store = artifact_cache.get_store()
    key = artifact_cache.artifact_key("demo", ("payload",))
    store.put_object("demo", key, {"xs": [1, 2, 3]})
    first = store.get_object("demo", key)
    first["xs"].append(99)  # caller-side mutation must not poison the cache
    second = store.get_object("demo", key)
    assert second == {"xs": [1, 2, 3]}


def test_decoded_kind_serves_one_object_per_memory_entry(store_dir):
    import pickle

    from repro.cache.store import DECODED_KINDS

    assert DECODED_KINDS == {"edge"}
    store = artifact_cache.get_store()
    key = artifact_cache.artifact_key("edge", ("payload",))
    value = (("a", 1), ("b", (2, 3)))
    store.put_object("edge", key, value)
    # The memory tier holds the object itself, weighed by its pickle.
    assert store.get_object("edge", key) is value
    assert store.get_object("edge", key) is value
    size = len(pickle.dumps(value, pickle.HIGHEST_PROTOCOL))
    assert store.disk_stats()["memory_bytes"] == size
    # A peer asking when the disk copy is gone gets a re-pickled frame.
    store._object_path("edge", key).unlink()
    framed = store.get_raw("edge", key)
    assert framed is not None and store.put_raw("edge", key, framed)
    # Dropping the memory tier drops the decoded entry: the next get
    # decodes the disk copy once and serves that object from then on.
    store.drop_memory()
    assert store.disk_stats()["memory_bytes"] == 0
    hits = store.counters.get("disk.hits", 0)
    from_disk = store.get_object("edge", key)
    assert from_disk == value and from_disk is not value
    assert store.counters["disk.hits"] == hits + 1
    assert store.get_object("edge", key) is from_disk
    assert store.disk_stats()["memory_bytes"] == size


def test_disabled_store_is_inert(tmp_path):
    with artifact_cache.override(directory=str(tmp_path / "c"), enabled=False):
        store = artifact_cache.get_store()
        key = artifact_cache.artifact_key("demo", ("payload",))
        store.put_object("demo", key, "value")
        assert store.get_object("demo", key) is None
        assert not (tmp_path / "c").exists()


# -- invalidation: the three ways an entry must go stale ----------------------


def test_source_edit_is_a_miss(store_dir):
    cold = _synthesize()
    assert not cold.cached
    assert _synthesize().cached  # unchanged source: model-tier hit
    edited = get_nf("nat").source.replace("EXT_IP = ", "EXT_IP = 1 + ")
    assert not _synthesize(source=edited).cached


def test_comment_outside_units_is_a_hit(store_dir):
    # Function-level keys (§15): a trailing comment touches no source
    # unit the target reads, so the same key derives — pure hit.
    cold = _synthesize()
    assert not cold.cached
    commented = get_nf("nat").source + "\n# a trailing comment\n"
    assert _synthesize(source=commented).cached


def test_config_change_is_a_miss(store_dir):
    _synthesize(max_paths=16384)
    assert _synthesize(max_paths=16384).cached
    assert not _synthesize(max_paths=8192).cached


def test_schema_version_bump_is_a_miss(store_dir, monkeypatch):
    cold = _synthesize()
    assert _synthesize().cached
    monkeypatch.setattr(cache_keys, "SCHEMA_VERSION", cache_keys.SCHEMA_VERSION + 1)
    bumped = _synthesize()
    assert not bumped.cached
    assert bumped.model_json == cold.model_json


# -- corruption: damaged entries degrade to misses, never wrong models --------


def _model_files(store_dir):
    return sorted((store_dir / "objects").rglob("model-*"))


def test_corrupt_entry_is_a_logged_miss(store_dir, caplog):
    cold = _synthesize()
    store = artifact_cache.get_store()
    [path] = _model_files(store_dir)
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF  # flip a payload byte: checksum must catch it
    path.write_bytes(bytes(raw))
    store.drop_memory()

    with caplog.at_level(logging.WARNING, logger="repro.cache"):
        redone = _synthesize()
    assert not redone.cached
    assert redone.model_json == cold.model_json
    assert any("checksum" in rec.message for rec in caplog.records)
    # The recompute rewrote the entry; the next run hits again.
    store.drop_memory()
    assert _synthesize().cached


def test_truncated_entry_is_a_logged_miss(store_dir, caplog):
    cold = _synthesize()
    store = artifact_cache.get_store()
    [path] = _model_files(store_dir)
    path.write_bytes(path.read_bytes()[:3])
    store.drop_memory()

    with caplog.at_level(logging.WARNING, logger="repro.cache"):
        redone = _synthesize()
    assert not redone.cached
    assert redone.model_json == cold.model_json
    assert any("truncated" in rec.message for rec in caplog.records)


def test_corrupt_solver_blob_is_a_logged_miss(store_dir, caplog):
    cold = _synthesize()
    blob = store_dir / f"solver-constraints-v{artifact_cache.SCHEMA_VERSION}.blob"
    assert blob.exists()
    blob.write_bytes(b"garbage")
    clear_global_cache()
    artifact_cache.get_store().drop_memory()

    with caplog.at_level(logging.WARNING, logger="repro.cache"):
        redone = _synthesize(max_paths=8192)  # different key: solver must rerun
    assert redone.model_json is not None
    assert cold.model_json is not None


# -- determinism: cached == uncached, byte for byte ---------------------------


def test_cold_warm_disabled_byte_identity(store_dir):
    cold = _synthesize("firewall")
    artifact_cache.get_store().drop_memory()
    clear_global_cache()
    warm = _synthesize("firewall")
    with artifact_cache.override(enabled=False):
        clear_global_cache()
        plain = _synthesize("firewall")
    assert not cold.cached and warm.cached and not plain.cached
    assert cold.model_json == warm.model_json == plain.model_json


# -- concurrency --------------------------------------------------------------


def test_concurrent_workers_share_one_store(tmp_path, monkeypatch):
    from repro.parallel import synthesize_many

    directory = tmp_path / "shared-cache"
    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(directory))
    artifact_cache.configure()  # drop overrides; workers inherit the env

    names = ["nat", "firewall", "loadbalancer"]
    cold = synthesize_many(names, jobs=2, model_only=True)
    warm = synthesize_many(names, jobs=2, model_only=True)
    assert all(o.ok for o in cold + warm)
    assert [o.model_json for o in cold] == [o.model_json for o in warm]
    assert all(o.model_cached for o in warm)
    # The store is consistent: one model entry per NF, all readable.
    store = artifact_cache.get_store()
    stats = store.disk_stats()
    assert stats["kinds"]["model"]["count"] == len(names)
    assert not list(directory.rglob(".tmp-*"))


def test_constraint_cache_reads_are_locked():
    cache = ConstraintCache(maxsize=128)
    stop = threading.Event()
    errors = []

    def writer():
        i = 0
        while not stop.is_set():
            cache.put(("k", i % 200), "sat", {"x": i})
            cache.get(("k", (i * 7) % 200))
            i += 1

    def reader():
        while not stop.is_set():
            try:
                assert 0 <= len(cache) <= 128
                assert 0.0 <= cache.hit_rate <= 1.0
                hits, misses, entries = cache.stats()
                assert hits >= 0 and misses >= 0 and 0 <= entries <= 128
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
                stop.set()

    threads = [threading.Thread(target=writer) for _ in range(2)] + [
        threading.Thread(target=reader) for _ in range(2)
    ]
    for t in threads:
        t.start()
    stop.wait(timeout=0.5)
    stop.set()
    for t in threads:
        t.join()
    assert not errors


def test_solver_cache_persists_across_restart(store_dir):
    first = ConstraintCache(persistent=True)
    first.put(("a", 1), "sat", {"x": 7})
    first.put(("b", 2), "unsat", None)
    first.flush()

    fresh = ConstraintCache(persistent=True)  # simulated new process
    assert fresh.get(("a", 1)) == ("sat", {"x": 7})
    assert fresh.get(("b", 2)) == ("unsat", None)
    hits, misses, entries = fresh.stats()
    assert hits == 2 and entries >= 2


# -- knobs and CLI ------------------------------------------------------------


def test_env_knobs(monkeypatch, tmp_path):
    artifact_cache.configure()  # env-driven for this test
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envdir"))
    monkeypatch.setenv("REPRO_CACHE", "off")
    assert not artifact_cache.is_enabled()
    assert artifact_cache.store_token() is None
    monkeypatch.setenv("REPRO_CACHE", "1")
    assert artifact_cache.is_enabled()
    assert artifact_cache.store_token() == str(tmp_path / "envdir")
    assert artifact_cache.get_store().directory == tmp_path / "envdir"


def test_cli_cache_subcommand(store_dir, capsys):
    import json

    from repro.cli import main

    assert main(["synthesize", "nat"]) == 0
    capsys.readouterr()

    assert main(["cache", "path"]) == 0
    assert capsys.readouterr().out.strip().endswith(str(store_dir))

    assert main(["cache", "stats"]) == 0
    out = capsys.readouterr().out
    assert "model" in out and str(store_dir) in out

    assert main(["cache", "stats", "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["kinds"]["model"]["count"] == 1

    assert main(["cache", "clear"]) == 0
    capsys.readouterr()
    assert main(["cache", "stats", "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["kinds"] == {} and stats["total_bytes"] == 0


def test_cli_no_cache_flag(store_dir, capsys):
    from repro.cli import main

    assert main(["--no-cache", "synthesize", "nat", "--stats"]) == 0
    out = capsys.readouterr().out
    assert "served from artifact cache" not in out
    stats = artifact_cache.get_store().disk_stats()
    assert stats["kinds"] == {}  # nothing was written


# -- unwritable disk tier degrades to memory-only -----------------------------


def test_unwritable_dir_degrades_to_memory_only(tmp_path, caplog):
    from repro.cache.store import ArtifactStore

    # Pointing the store at a *file* makes every mkdir/rename fail with
    # OSError regardless of uid (chmod-based read-only is bypassed by
    # root, which CI containers run as).
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("occupied")
    store = ArtifactStore(str(blocker))
    with caplog.at_level(logging.WARNING, logger="repro.cache"):
        for i in range(4):
            store.put_object("model", f"{i:040x}", {"i": i})
    warnings = [r for r in caplog.records if "unwritable" in r.message]
    assert len(warnings) == 1  # one warning, not one per artifact
    assert store.counters["disk.errors"] == 4
    # The memory tier still serves.
    for i in range(4):
        assert store.get_object("model", f"{i:040x}") == {"i": i}
    assert store.disk_stats()["disk_write_disabled"] is True


def test_disk_errors_reach_metrics_registry(tmp_path):
    from repro import obs
    from repro.cache.store import ArtifactStore

    blocker = tmp_path / "not-a-dir"
    blocker.write_text("occupied")
    store = ArtifactStore(str(blocker))
    with obs.observed() as (_tracer, registry):
        store.put_object("model", "0" * 40, {"x": 1})
        store.put_object("model", "1" * 40, {"x": 2})
    assert registry.snapshot()["counters"]["cache.disk.errors"] == 2


def test_writable_dir_never_sets_degrade_flag(store_dir):
    store = artifact_cache.get_store()
    store.put_object("model", "2" * 40, {"ok": True})
    assert "disk.errors" not in store.counters
    assert store.disk_stats()["disk_write_disabled"] is False
