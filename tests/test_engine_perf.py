"""Guards for the engine cold path (docs/internals.md §9).

The engine explores depth-first: the ``True`` arm of a fork runs on and
the ``False`` sibling waits on the stack, so paths finish — and are
numbered — in canonical branch order.  These tests pin that order
corpus-wide and under a path budget, that the witness shortcut is
behaviour-preserving (byte-identical serialized models with it off),
and the explored/truncated accounting identity.
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


def _model_bytes(name: str, **engine_kwargs) -> str:
    spec = get_nf(name)
    config = NFactorConfig(
        engine=EngineConfig(**engine_kwargs), artifact_cache=False
    )
    result = NFactor(spec.source, name=name, config=config).synthesize()
    return model_to_json(result.model)


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


def _branch_key(path):
    """A path's canonical sort key: its branch decisions, True first."""
    return tuple((sid, 0 if outcome else 1) for sid, outcome in path.branches)


def _assert_canonical_order(paths):
    ids = [p.path_id for p in paths]
    keys = [_branch_key(p) for p in paths]
    assert all(a < b for a, b in zip(ids, ids[1:])), ids
    assert all(a < b for a, b in zip(keys, keys[1:]))


class TestDepthFirstOrder:
    """Depth-first finish order is the canonical branch order."""

    @pytest.mark.parametrize("name", nf_names())
    def test_paths_finish_in_canonical_order(self, name):
        spec = get_nf(name)
        for parametric in (False, True):
            config = NFactorConfig(parametric=parametric, artifact_cache=False)
            result = NFactor(spec.source, name=name, config=config).synthesize()
            assert result.paths
            _assert_canonical_order(result.paths)

    def test_budget_keeps_first_paths_in_canonical_order(self):
        full, full_stats, _ = _explore()
        cut, cut_stats, _ = _explore(max_paths=2)
        assert len(full) > 2 and not full_stats.exhausted
        assert cut_stats.exhausted and cut_stats.paths_done == 2
        _assert_canonical_order(full)
        assert [(p.path_id, p.branches) for p in cut] == [
            (p.path_id, p.branches) for p in full[:2]
        ]


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
