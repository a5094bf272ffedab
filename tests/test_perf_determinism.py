"""Guards for the performance layers (docs/internals.md §7).

Every optimisation in the solver/engine perf stack — constraint
caching, incremental propagation, parallel batch
synthesis — claims to be behaviour-preserving.  These tests pin that
claim: identical paths and byte-identical models with the cache
enabled/disabled/warm/cold, incremental checks equal to from-scratch
checks (including across union-find merges), parallel batches equal to
sequential ones, and the supporting machinery (iterative union-find,
metrics merging, pickling of memoized expressions).
"""

from __future__ import annotations

import pickle

import pytest

from repro.cli import main as cli_main
from repro.model.serialize import model_to_json
from repro.nfactor.algorithm import NFactor, NFactorConfig
from repro.nfs import get_nf
from repro.obs.metrics import MetricsRegistry
from repro.parallel import BatchTarget, synthesize_many
from repro.symbolic.expr import SApp, SVar, canon, leaf_key, mk_app, sym_vars
from repro.symbolic.engine import EngineConfig
from repro.symbolic.solver import (
    DEFAULT_MAX_SAMPLES,
    ConstraintCache,
    Solver,
    _UnionFind,
    clear_global_cache,
    global_cache,
)

X = SVar("pkt.x", 0, 1000)
Y = SVar("pkt.y", 0, 1000)


def _synthesize(name: str, solver_cache: bool):
    spec = get_nf(name)
    config = NFactorConfig(engine=EngineConfig(solver_cache=solver_cache))
    return NFactor(spec.source, name=name, config=config).synthesize()


def _path_fingerprint(result):
    return [
        (
            p.path_id,
            p.status,
            [canon(c) for c in p.constraints],
            list(p.branches),
        )
        for p in result.paths
    ]


class TestCacheDeterminism:
    """Cache on/off/warm/cold: same paths, byte-identical model."""

    @pytest.mark.parametrize("name", ["nat", "firewall"])
    def test_on_off_warm_cold_identical(self, name):
        clear_global_cache()
        off = _synthesize(name, solver_cache=False)
        cold = _synthesize(name, solver_cache=True)
        warm = _synthesize(name, solver_cache=True)

        assert (
            _path_fingerprint(off)
            == _path_fingerprint(cold)
            == _path_fingerprint(warm)
        )
        assert (
            model_to_json(off.model)
            == model_to_json(cold.model)
            == model_to_json(warm.model)
        )
        # Provenance: the disabled run never touched the cache, the
        # warm run reused the cold run's entries.
        assert off.stats.solver_cache_hits == 0
        assert off.stats.solver_cache_misses == 0
        assert warm.stats.solver_cache_hits > 0
        assert warm.stats.solver_cache_misses == 0

    def test_cached_result_provenance_and_copy(self):
        solver = Solver(seed=1, cache=ConstraintCache())
        constraints = [mk_app("==", X, 5)]
        first = solver.check(constraints)
        second = solver.check(constraints)
        assert not first.cached and second.cached
        assert first.status == second.status == "sat"
        assert first.assignment == second.assignment
        # The hit hands out a copy: mutating it must not poison the cache.
        second.assignment["junk"] = 1
        assert "junk" not in solver.check(constraints).assignment
        assert (solver.cache_hits, solver.cache_misses) == (2, 1)

    def test_cache_lru_bound(self):
        cache = ConstraintCache(maxsize=2)
        solver = Solver(seed=1, cache=cache)
        for bound in (3, 4, 5):
            solver.check([mk_app("==", X, bound)])
        assert len(cache) == 2
        assert solver.check([mk_app("==", X, 5)]).cached  # recent: kept
        assert not solver.check([mk_app("==", X, 3)]).cached  # evicted


class TestIncrementalEquivalence:
    """check_extended over a growing context == check from scratch."""

    def _compare(self, atoms):
        plain = Solver(seed=1, cache=False)
        incr = Solver(seed=1, cache=False)
        ctx = incr.context()
        prefix = []
        for atom in atoms:
            reference = plain.check(prefix + [atom])
            result, ctx = incr.check_extended(prefix, ctx, atom)
            assert result.status == reference.status, canon(atom)
            assert result.assignment == reference.assignment, canon(atom)
            prefix.append(atom)

    def test_interval_narrowing_chain(self):
        self._compare(
            [mk_app(">=", X, 10), mk_app("<=", X, 20), mk_app("!=", X, 10)]
        )

    def test_across_leaf_equality_merge(self):
        # x == y merges union-find classes: per-atom propagation goes
        # inexact and the context must fall back to full re-propagation.
        self._compare(
            [mk_app("==", X, Y), mk_app("<", X, 5), mk_app(">=", Y, 2)]
        )

    def test_unsat_after_merge(self):
        self._compare(
            [mk_app("==", X, Y), mk_app("==", X, 1), mk_app("==", Y, 2)]
        )

    def test_complement_detected_incrementally(self):
        atom = mk_app("<", X, 5)
        self._compare([atom, mk_app("not", atom)])

    def test_fork_contexts_are_independent(self):
        solver = Solver(seed=1, cache=False)
        ctx = solver.context()
        base = [mk_app(">=", X, 10)]
        true_res, true_ctx = solver.check_extended(base, ctx.copy(), mk_app("<", X, 20))
        false_res, _ = solver.check_extended(base, ctx.copy(), mk_app(">=", X, 20))
        assert true_res.status == "sat" and false_res.status == "sat"
        assert true_res.assignment[leaf_key(X)] < 20
        assert false_res.assignment[leaf_key(X)] >= 20
        # The true-arm context keeps only its own atom.
        assert canon(mk_app(">=", X, 20)) not in true_ctx.canon_set


class TestConfigAlignment:
    def test_engine_samples_default_is_solver_default(self):
        assert EngineConfig().solver_samples == DEFAULT_MAX_SAMPLES
        assert Solver().max_samples == DEFAULT_MAX_SAMPLES


class TestUnionFind:
    def test_deep_chain_no_recursion_error(self):
        uf = _UnionFind()
        for i in range(5000):
            uf.union(f"k{i}", f"k{i + 1}")
        assert uf.find("k0") == uf.find("k5000")
        assert uf.merges == 5000

    def test_copy_is_disjoint(self):
        uf = _UnionFind()
        uf.union("a", "b")
        clone = uf.copy()
        clone.union("b", "c")
        assert uf.find("c") == "c"
        assert clone.find("a") == clone.find("c")


class TestCanonMemo:
    def test_canon_memoized_once(self):
        node = mk_app("+", SVar("pkt.z", 0, 9), 1)
        assert canon(node) is canon(node)

    def test_interned_nodes_pickle(self):
        # The leaf-set memo contains the node itself; pickling must
        # strip it or the cycle-through-frozenset is unreconstructible.
        node = mk_app("==", X, Y)
        canon(node)
        sym_vars(node)
        clone = pickle.loads(pickle.dumps(node))
        assert clone == node
        assert canon(clone) == canon(node)


class TestMetricsMerge:
    def test_counters_gauges_histograms(self):
        child = MetricsRegistry()
        child.counter("c").inc(3)
        child.gauge("g").set(7)
        hist = child.histogram("h", buckets=[1, 10])
        hist.observe(0.5)
        hist.observe(5)
        hist.observe(99)

        parent = MetricsRegistry()
        parent.counter("c").inc(2)
        parent.histogram("h", buckets=[1, 10]).observe(5)
        parent.merge(child.snapshot())

        snap = parent.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 7
        merged = snap["histograms"]["h"]
        assert merged["count"] == 4
        assert merged["buckets"] == [[1, 1], [10, 3], [float("inf"), 4]]
        assert merged["min"] == 0.5 and merged["max"] == 99

    def test_mismatched_buckets_rejected(self):
        child = MetricsRegistry()
        child.histogram("h", buckets=[1, 2]).observe(1)
        parent = MetricsRegistry()
        parent.histogram("h", buckets=[1, 3])
        with pytest.raises(ValueError):
            parent.merge(child.snapshot())

    def test_disabled_parent_is_noop(self):
        child = MetricsRegistry()
        child.counter("c").inc()
        parent = MetricsRegistry(enabled=False)
        parent.merge(child.snapshot())  # must not raise or register


class TestParallelBatch:
    NAMES = ["nat", "monitor"]

    def test_parallel_equals_sequential(self):
        seq = synthesize_many(self.NAMES, jobs=1)
        par = synthesize_many(self.NAMES, jobs=2)
        assert [o.name for o in seq] == [o.name for o in par] == self.NAMES
        for s, p in zip(seq, par):
            assert s.ok and p.ok
            assert model_to_json(s.result.model) == model_to_json(p.result.model)

    def test_worker_failure_is_captured(self):
        bad = BatchTarget(name="broken", source="def cb(pkt:\n", entry="cb")
        outcomes = synthesize_many([bad, "monitor"], jobs=2)
        assert not outcomes[0].ok and outcomes[0].error
        assert outcomes[1].ok

    def test_cli_batch_matches_sequential(self, capsys):
        code_seq = cli_main(["batch", "-j", "1", *self.NAMES])
        out_seq = capsys.readouterr().out
        code_par = cli_main(["batch", "-j", "2", *self.NAMES])
        out_par = capsys.readouterr().out
        assert code_seq == code_par == 0

        def stable(text):  # every line minus the wall-clock summary
            return [
                line
                for line in text.splitlines()
                if not line.startswith(tuple(f"{n}/" for n in "0123456789"))
                and "ms" not in line
            ]

        assert stable(out_seq) == stable(out_par)

    def test_metrics_snapshot_travels_home(self):
        # nat branches, so its solver actually runs (monitor is 1-path).
        outcomes = synthesize_many(["nat"], jobs=2, merge_metrics=False)
        (outcome,) = outcomes
        assert outcome.metrics["counters"]["solver.checks"] > 0
