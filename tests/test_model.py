"""Tests for the match/action model, FSM view, rendering and simulator."""

from __future__ import annotations

import json

import pytest

from repro.model.fsm import build_fsm
from repro.model.matchaction import (
    NFModel,
    TableEntry,
    classify_leaf,
    split_constraints,
)
from repro.model.serialize import model_to_dict, model_to_json, render_model, sym_text
from repro.model.simulator import GuardEvalError, eval_symbolic
from repro.net.packet import Packet
from repro.symbolic.expr import SApp, SDictVal, SVar, mk_app

PKT_DPORT = SVar("pkt.dport", 0, 65535)
CFG_MODE = SVar("cfg.mode", 0, 3)
ST_IDX = SVar("st.rr_idx", 0, 10)
MEMBER = SApp("member", ("nat", (SVar("pkt.ip_src", 0, 2**32 - 1),)))


class TestConstraintSplit:
    def test_leaf_classification(self):
        assert classify_leaf(PKT_DPORT) == "flow"
        assert classify_leaf(CFG_MODE) == "config"
        assert classify_leaf(ST_IDX) == "state"
        assert classify_leaf(MEMBER) == "state"
        assert classify_leaf(SDictVal("nat", "k")) == "state"

    def test_split_priorities(self):
        config, flow, state = split_constraints(
            [
                mk_app("==", CFG_MODE, 1),                # pure config
                mk_app("==", PKT_DPORT, 80),              # pure flow
                mk_app("==", PKT_DPORT, CFG_MODE),        # flow+config -> flow
                MEMBER,                                    # state
                mk_app("<", ST_IDX, 2),                   # state
            ]
        )
        assert len(config) == 1
        assert len(flow) == 2
        assert len(state) == 2


def make_entry(entry_id, config=(), flow=(), state=(), sent=(), state_stmts=()):
    return TableEntry(
        entry_id=entry_id,
        config=list(config),
        match_flow=list(flow),
        match_state=list(state),
        action_stmts=[],
        pkt_action_stmts=[],
        state_action_stmts=list(state_stmts),
        sent=list(sent),
        path_id=entry_id,
    )


class TestNFModel:
    def test_entries_grouped_by_config(self):
        model = NFModel(name="t")
        model.add_entry(make_entry(1, config=[mk_app("==", CFG_MODE, 1)]))
        model.add_entry(make_entry(2, config=[mk_app("==", CFG_MODE, 1)]))
        model.add_entry(make_entry(3, config=[mk_app("==", CFG_MODE, 2)]))
        model.add_entry(make_entry(4))
        assert len(model.tables) == 3
        assert model.n_entries == 4

    def test_forwarding_vs_drop(self):
        model = NFModel(name="t")
        model.add_entry(make_entry(1, sent=[({"dport": 80}, None)]))
        model.add_entry(make_entry(2))
        assert len(model.forwarding_entries()) == 1
        assert len(model.drop_entries()) == 1

    def test_state_atoms_collected(self):
        model = NFModel(name="t")
        model.add_entry(make_entry(1, state=[MEMBER]))
        assert model.state_atoms() == {"nat"}

    def test_flow_transform_identity_excluded(self):
        entry = make_entry(
            1,
            sent=[({"dport": SVar("pkt.dport", 0, 65535), "ttl": 9}, None)],
        )
        assert entry.flow_transform() == {"ttl": 9}


class TestRendering:
    def test_render_contains_tables(self, lb_result):
        text = render_model(lb_result.model)
        assert "config" in text
        assert "default action: drop" in text
        assert "f2b_nat" in text

    def test_sym_text_shapes(self):
        assert sym_text(MEMBER) == "f in nat"
        assert sym_text(mk_app("not", MEMBER)) == "f not in nat"
        assert "rr_idx" in sym_text(ST_IDX)
        assert sym_text(SDictVal("nat", "k", (0,))) == "nat[f][0]"

    def test_json_export_roundtrips(self, lb_result):
        payload = model_to_json(lb_result.model)
        data = json.loads(payload)
        assert data["name"] == lb_result.model.name
        assert data["variables"]["oisVar"]
        assert all("match" in e for t in data["tables"] for e in t["entries"])

    def test_dict_export_counts(self, lb_result):
        data = model_to_dict(lb_result.model)
        n = sum(len(t["entries"]) for t in data["tables"])
        assert n == lb_result.model.n_entries


class TestGuardEvaluation:
    def test_packet_field(self):
        pkt = Packet(dport=80)
        assert eval_symbolic(mk_app("==", PKT_DPORT, 80), {}, pkt) is True

    def test_state_variable(self):
        pkt = Packet()
        assert eval_symbolic(mk_app("<", ST_IDX, 2), {"rr_idx": 1}, pkt) is True

    def test_config_variable(self):
        assert eval_symbolic(mk_app("==", CFG_MODE, 1), {"mode": 1}, Packet()) is True

    def test_member_atom(self):
        pkt = Packet(ip_src=5)
        state = {"nat": {(5,): "x"}}
        assert eval_symbolic(MEMBER, state, pkt) is True
        assert eval_symbolic(MEMBER, {"nat": {}}, pkt) is False

    def test_dictval_with_path(self):
        key = (SVar("pkt.ip_src", 0, 2**32 - 1),)
        dv = SDictVal("nat", "canon", (1,), key=key)
        state = {"nat": {(5,): (10, 20)}}
        assert eval_symbolic(dv, state, Packet(ip_src=5)) == 20

    def test_missing_state_raises(self):
        with pytest.raises(GuardEvalError):
            eval_symbolic(ST_IDX, {}, Packet())

    def test_missing_key_raises(self):
        dv = SDictVal("nat", "canon", (), key=(SVar("pkt.ip_src", 0, 10),))
        with pytest.raises(GuardEvalError):
            eval_symbolic(dv, {"nat": {}}, Packet(ip_src=5))


class TestSimulator:
    def test_default_drop_when_nothing_matches(self, lb_result):
        sim = lb_result.make_simulator()
        # dport != LB_PORT and flow unknown: explicit drop entry matches
        out = sim.process(Packet(dport=9999))
        assert out == []
        assert sim.stats.packets == 1

    def test_stateful_sequence(self, lb_result):
        sim = lb_result.make_simulator()
        first = sim.process(Packet(dport=80, ip_src=7, sport=100, ip_dst=50529027))
        second = sim.process(Packet(dport=80, ip_src=7, sport=100, ip_dst=50529027))
        assert len(first) == len(second) == 1
        # same flow maps to the same backend/port
        assert first[0][0] == second[0][0]

    def test_matched_entries_counted(self, lb_result):
        sim = lb_result.make_simulator()
        sim.process(Packet(dport=80, ip_src=1, sport=2, ip_dst=3))
        assert sum(sim.stats.matched_entries.values()) == 1


class TestFSM:
    def test_lb_fsm_atoms(self, lb_result):
        fsm = build_fsm(lb_result.model)
        assert set(fsm.atoms) == {"f2b_nat", "b2f_nat"}

    def test_initial_state_all_absent(self, lb_result):
        fsm = build_fsm(lb_result.model)
        assert all(not member for _, member in fsm.initial)

    def test_new_flow_transition_populates_tables(self, lb_result):
        fsm = build_fsm(lb_result.model)
        outgoing = fsm.successors(fsm.initial)
        dst_states = {t.dst for t in outgoing if t.forwards}
        full = frozenset({("f2b_nat", True), ("b2f_nat", True)})
        assert full in dst_states

    def test_reachability_and_paths(self, lb_result):
        fsm = build_fsm(lb_result.model)
        reachable = fsm.reachable_states()
        assert fsm.initial in reachable
        paths = fsm.paths_to_all_states()
        for state in reachable:
            assert state in paths

    def test_render_state(self, lb_result):
        fsm = build_fsm(lb_result.model)
        text = fsm.render_state(fsm.initial)
        assert "f2b_nat" in text

    def test_firewall_fsm_has_teardown(self, firewall_result):
        fsm = build_fsm(firewall_result.model)
        tracked = frozenset({("conns", True)})
        back = [
            t for t in fsm.transitions if t.src == tracked and t.dst == fsm.initial
        ]
        assert back  # RST / final-ACK deletes the connection


class TestMatchIndex:
    """The exact-match index: the compiled model's dispatch tree.

    Contract: byte-identical to :class:`ModelSimulator`'s priority scan,
    including first-match priority among entries that tie on a split
    field — the tree only skips entries whose pinning conjunct is
    provably false for the packet.
    """

    def _mk_model(self, entries):
        model = NFModel(name="t")
        for entry in entries:
            model.add_entry(entry)
        return model

    def _mk_scan(self, entries, state=None):
        from repro.model.simulator import ModelSimulator

        return ModelSimulator(self._mk_model(entries), state if state is not None else {})

    def _mk_compiled(self, entries, state=None):
        from repro.model.compile import compile_model

        compiled = compile_model(self._mk_model(entries))
        return compiled, compiled.simulator(state if state is not None else {})

    def test_index_picks_best_covered_field(self):
        entries = [
            make_entry(1, flow=[mk_app("==", PKT_DPORT, 80)]),
            make_entry(2, flow=[mk_app("==", PKT_DPORT, 443)]),
            make_entry(3, flow=[mk_app("==", SVar("pkt.proto", 0, 255), 6)]),
        ]
        compiled, _sim = self._mk_compiled(entries)
        assert compiled._root.field == "dport"

    def test_constant_on_either_side_pins(self):
        # ``const == pkt.f`` and ``pkt.f == const`` both pin the field.
        entries = [
            make_entry(1, flow=[mk_app("==", 80, PKT_DPORT)]),
            make_entry(2, flow=[mk_app("==", PKT_DPORT, 443)]),
        ]
        compiled, _sim = self._mk_compiled(entries)
        assert compiled._root.field == "dport"
        assert sorted(compiled._root.branches) == [80, 443]

    def test_unresolvable_cfg_stays_residual(self):
        entries = [
            make_entry(1, flow=[mk_app("==", PKT_DPORT, SVar("cfg.gone", 0, 1))]),
            make_entry(2, flow=[mk_app("==", PKT_DPORT, 80)]),
        ]
        compiled, _sim = self._mk_compiled(entries)
        # Only one entry pins a concrete value -> no split at all.
        assert compiled._root.field is None

    def test_priority_tie_break_matches_scan(self):
        # Entry 1 (residual: no dport conjunct) must still beat entry 2
        # (indexed) when both guards hold, because it comes first.
        # Not an equality -> never pinned, so dport carries the split.
        always = mk_app("<", SVar("pkt.proto", 0, 255), 255)
        entries = [
            make_entry(1, flow=[always]),
            make_entry(2, flow=[always, mk_app("==", PKT_DPORT, 80)]),
            make_entry(3, flow=[always, mk_app("==", PKT_DPORT, 443)]),
        ]
        pkt = Packet(proto=6, dport=80)
        compiled, sim = self._mk_compiled(entries)
        assert compiled._root.field == "dport"
        assert sim.match_entry(pkt).entry_id == 1
        assert self._mk_scan(entries).match_entry(pkt).entry_id == 1
        # And the symmetric case: indexed entry first.
        flipped = [
            make_entry(1, flow=[always, mk_app("==", PKT_DPORT, 80)]),
            make_entry(2, flow=[always]),
            make_entry(3, flow=[always, mk_app("==", PKT_DPORT, 80)]),
        ]
        assert self._mk_compiled(flipped)[1].match_entry(pkt).entry_id == 1
        assert self._mk_scan(flipped).match_entry(pkt).entry_id == 1

    def test_miss_bucket_scans_only_residual(self):
        entries = [
            make_entry(1, flow=[mk_app("==", PKT_DPORT, 80)]),
            make_entry(2, flow=[mk_app("==", PKT_DPORT, 443)]),
            make_entry(3, flow=[mk_app("==", SVar("pkt.proto", 0, 255), 17)]),
        ]
        _compiled, sim = self._mk_compiled(entries)
        entry = sim.match_entry(Packet(proto=17, dport=9999))
        assert entry.entry_id == 3
        assert sim.stats.guard_evals == 1  # residual only, no bucket

    def test_byte_identical_to_scan_on_corpus(self, firewall_result, lb_result):
        import copy
        import random

        rng = random.Random(42)
        from repro.model.simulator import ModelSimulator

        for result in (firewall_result, lb_result):
            indexed = result.make_compiled_simulator()
            scan = ModelSimulator(
                result.model, copy.deepcopy(result.module_env), result.pkt_param
            )
            for _ in range(120):
                pkt = Packet(
                    ip_src=rng.randrange(2**32),
                    ip_dst=rng.randrange(2**32),
                    proto=rng.choice([6, 6, 17, 1]),
                    sport=rng.choice([80, 443, 1234, 22]),
                    dport=rng.choice([80, 443, 1234, 22]),
                    tcp_flags=rng.choice([0x02, 0x10, 0x12, 0x01]),
                )
                assert indexed.process(pkt.copy()) == scan.process(pkt.copy())
            assert indexed.state == scan.state
            # The index must not do *more* work than the scan.
            assert indexed.stats.guard_evals <= scan.stats.guard_evals

    def test_guard_evals_reduced_where_indexable(self, lb_result):
        import copy

        from repro.model.simulator import ModelSimulator

        indexed = lb_result.make_compiled_simulator()
        scan = ModelSimulator(
            lb_result.model, copy.deepcopy(lb_result.module_env), lb_result.pkt_param
        )
        assert indexed.compiled_model._root.field is not None
        for _ in range(50):
            pkt = Packet(ip_src=1, ip_dst=2, dport=9999, tcp_flags=0x02)
            indexed.process(pkt.copy())
            scan.process(pkt.copy())
        assert indexed.stats.guard_evals < scan.stats.guard_evals