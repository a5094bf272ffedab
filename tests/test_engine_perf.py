"""Guards for the engine cold-path stack (docs/internals.md §9).

The two cold-path layers — the witness shortcut and frontier-parallel
exploration — both claim to be behaviour-preserving *by construction*:
toggling the shortcut, or changing the exploration strategy, must
produce byte-identical serialized models.  These tests pin that claim
corpus-wide, plus the strategy/config validation and the
explored/truncated accounting identity.
"""

from __future__ import annotations

import pytest

from repro.lang.parser import parse_program
from repro.model.serialize import model_to_json
from repro.nfactor.algorithm import NFactor, NFactorConfig
from repro.nfs import get_nf, nf_names
from repro.obs import metrics as obs_metrics
from repro.pdg.flatten import flatten_program
from repro.symbolic.engine import EngineConfig, ExploreStats, SymbolicEngine
from repro.symbolic.expr import SApp, SymDict, SymPacket, leaf_key, mk_app
from repro.symbolic.state import SymState
from repro.symbolic.strategies import VALID_STRATEGIES, make_strategy


def _model_bytes(name: str, **engine_kwargs) -> str:
    spec = get_nf(name)
    config = NFactorConfig(
        engine=EngineConfig(**engine_kwargs), artifact_cache=False
    )
    result = NFactor(spec.source, name=name, config=config).synthesize()
    return model_to_json(result.model)


class TestConfigValidation:
    def test_bad_strategy_rejected_at_construction(self):
        with pytest.raises(ValueError) as err:
            EngineConfig(strategy="dijkstra")
        # The message teaches the fix: it names every valid strategy.
        for valid in VALID_STRATEGIES:
            assert valid in str(err.value)

    def test_make_strategy_names_valid_strategies(self):
        with pytest.raises(ValueError) as err:
            make_strategy("a-star")
        for valid in VALID_STRATEGIES:
            assert valid in str(err.value)

    def test_frontier_maps_to_lifo(self):
        from repro.symbolic.strategies import DepthFirst

        assert isinstance(make_strategy("frontier"), DepthFirst)

    def test_parallel_paths_must_be_positive(self):
        with pytest.raises(ValueError):
            EngineConfig(parallel_paths=0)


class TestCrossStrategyByteIdentity:
    """Every corpus NF: one model, whatever the exploration order."""

    @pytest.mark.parametrize("name", nf_names())
    def test_all_strategies_agree(self, name):
        reference = _model_bytes(name, strategy="dfs")
        assert _model_bytes(name, strategy="bfs") == reference
        for seed in (0, 1, 2):
            assert (
                _model_bytes(name, strategy="random", strategy_seed=seed)
                == reference
            )
        assert (
            _model_bytes(name, strategy="frontier", parallel_paths=2)
            == reference
        )


class TestToggleByteIdentity:
    """The witness shortcut off: identical bytes."""

    @pytest.mark.parametrize("name", ["firewall", "nat", "proxycache"])
    def test_layers_are_behaviour_preserving(self, name):
        assert _model_bytes(name, witness_shortcut=False) == _model_bytes(name)


# A compact branching program: three nested symbolic branches, so a
# small per-path step budget truncates some paths and not others.
ACCOUNTING_SOURCE = (
    "def cb(pkt):\n"
    "    if pkt.ttl > 64:\n"
    "        x = 1\n"
    "    else:\n"
    "        x = 2\n"
    "    if pkt.dport == 80:\n"
    "        if pkt.sport == 53:\n"
    "            send_packet(pkt)\n"
)


def _explore(**engine_kwargs):
    flat = flatten_program(parse_program(ACCOUNTING_SOURCE, entry="cb"))
    engine = SymbolicEngine(EngineConfig(**engine_kwargs))
    registry = obs_metrics.MetricsRegistry()
    previous = obs_metrics.install(registry)
    try:
        paths = engine.explore(list(flat.block), {"pkt": SymPacket.fresh()})
    finally:
        obs_metrics.uninstall(previous)
    return paths, engine.stats, registry.snapshot()["counters"]


class TestAccounting:
    def test_states_total_identity(self):
        _, full, _ = _explore()
        _, cut, _ = _explore(max_steps_per_path=4)
        assert full.paths_truncated == 0 and cut.paths_truncated > 0
        for stats in (full, cut):
            assert stats.states_total == (
                stats.states_explored + stats.paths_truncated
            )

    def test_popped_counter_matches_work_done(self):
        for budget in (100_000, 4):
            _, stats, counters = _explore(max_steps_per_path=budget)
            assert counters["se.states_popped"] == stats.states_total

    def test_states_total_is_derived(self):
        stats = ExploreStats(states_explored=5, paths_truncated=1)
        assert stats.states_total == 6


# Two programs whose witness shortcut, unchecked, would carry a witness
# no dict state produces: a key defaulted to ``0`` (a non-member) or an
# implicit read's ``member`` atom set true, colliding with a leaf the
# witness already holds, ahead of a branch asking for ``sport == dport``.
ALIASED_MEMBERSHIP_SOURCE = (
    "def cb(pkt):\n"
    "    if pkt.sport in seen:\n"
    "        if pkt.dport not in seen:\n"
    "            if pkt.sport == pkt.dport:\n"
    "                send_packet(pkt)\n"
)
ALIASED_READ_SOURCE = (
    "def cb(pkt):\n"
    "    if pkt.sport not in seen:\n"
    "        x = seen[pkt.dport]\n"
    "        if pkt.sport == pkt.dport:\n"
    "            send_packet(pkt)\n"
)


def _explore_membership(source: str, witness_shortcut: bool):
    flat = flatten_program(parse_program(source, entry="cb"))
    engine = SymbolicEngine(
        EngineConfig(witness_shortcut=witness_shortcut, solver_cache=False)
    )
    paths = engine.explore(
        list(flat.block), {"pkt": SymPacket.fresh(), "seen": SymDict("seen")}
    )
    return [p.branches for p in paths], engine


class TestWitnessShortcutRealizable:
    @pytest.mark.parametrize(
        "source, witness_hits",
        [(ALIASED_MEMBERSHIP_SOURCE, 2), (ALIASED_READ_SOURCE, 1)],
    )
    def test_shortcut_rejects_functionally_inconsistent_witness(
        self, source, witness_hits
    ):
        """The shortcut may only skip checks the solver would answer
        ``sat``: the equal-keys arm stays undecided, as without it."""
        on_paths, on = _explore_membership(source, witness_shortcut=True)
        off_paths, off = _explore_membership(source, witness_shortcut=False)
        assert on_paths == off_paths
        assert on.solver.unknown_hits == off.solver.unknown_hits == 1
        assert on.stats.witness_hits == witness_hits

    def test_implicit_read_keeps_only_realizable_witness(self):
        """An implicit read's ``member`` atom, set true on the carried
        witness, must not collide with a non-member of equal key."""
        engine = SymbolicEngine(EngineConfig(solver_cache=False))
        sport = SymPacket.fresh().get("sport")
        dport = SymPacket.fresh().get("dport")
        read = SApp("member", ("seen", dport))
        for witness, kept in (({}, False), ({leaf_key(sport): 1}, True)):
            state = SymState(
                pc=0, env={}, constraints=[mk_app("not", SApp("member", ("seen", sport))), read]
            )
            state.witness = witness
            engine._witness_absorb(state, read)
            assert (state.witness is not None) == kept, witness
