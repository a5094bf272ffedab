"""Tests for code-structure normalisation (Fig. 4) and TCP unfolding (Fig. 3/5)."""

from __future__ import annotations

import pytest

from repro.interp import Interpreter
from repro.lang.errors import NFPyError
from repro.lang.parser import parse_program
from repro.net.packet import Packet, TCP_ACK, TCP_FIN, TCP_SYN
from repro.nfactor.tcp_unfold import has_socket_calls, unfold_tcp
from repro.nfactor.transforms import SYNTH_ENTRY, normalize_structure
from repro.nfs import get_nf


class TestNormalizeStructure:
    def test_explicit_entry_untouched(self):
        program = parse_program("def cb(pkt):\n    send_packet(pkt)\n", entry="cb")
        out, report = normalize_structure(program)
        assert report.shape == "explicit"
        assert out.entry == "cb"

    def test_callback_shape(self):
        source = (
            "def handler(pkt):\n    send_packet(pkt)\n"
            "def Main():\n    sniff('eth0', handler)\n"
        )
        out, report = normalize_structure(parse_program(source))
        assert report.shape == "callback"
        assert out.entry == "handler"

    def test_main_loop_shape(self):
        source = (
            "count = 0\n"
            "def Main():\n"
            "    global count\n"
            "    while True:\n"
            "        p = recv_packet()\n"
            "        count += 1\n"
            "        if p.ttl == 0:\n"
            "            continue\n"
            "        send_packet(p)\n"
        )
        out, report = normalize_structure(parse_program(source))
        assert report.shape == "main-loop"
        assert out.entry == SYNTH_ENTRY
        fn = out.functions[SYNTH_ENTRY]
        assert fn.params == ("p",)
        # continue at loop level became return
        interp = Interpreter(program=out)
        interp.run_module()
        assert interp.process_packet(Packet(ttl=0)) == []
        assert len(interp.process_packet(Packet(ttl=9))) == 1
        assert interp.globals["count"] == 2

    def test_main_loop_nested_loop_jumps_kept(self):
        source = (
            "def Main():\n"
            "    while True:\n"
            "        p = recv_packet()\n"
            "        i = 0\n"
            "        while i < 10:\n"
            "            i += 1\n"
            "            if i == 3:\n"
            "                break\n"
            "        p.ttl = i\n"
            "        send_packet(p)\n"
        )
        out, report = normalize_structure(parse_program(source))
        interp = Interpreter(program=out)
        sent = interp.process_packet(Packet())
        assert sent[0][0].ttl == 3

    def test_consumer_producer_shape(self):
        source = (
            "queue = []\n"
            "def ReadLp():\n"
            "    while True:\n"
            "        p = recv_packet()\n"
            "        queue.append(p)\n"
            "def ProcLp():\n"
            "    while True:\n"
            "        pkt = queue.pop(0)\n"
            "        send_packet(pkt)\n"
        )
        out, report = normalize_structure(parse_program(source))
        assert report.shape == "consumer-producer"
        interp = Interpreter(program=out)
        interp.run_module()
        assert len(interp.process_packet(Packet())) == 1

    def test_unrecognised_structure_raises(self):
        with pytest.raises(NFPyError, match="entry"):
            normalize_structure(parse_program("x = 1\ndef f(a):\n    return a\n"))


class TestTcpUnfold:
    def test_detection(self):
        spec = get_nf("balance")
        assert has_socket_calls(parse_program(spec.source))
        assert not has_socket_calls(parse_program(get_nf("loadbalancer").source))

    def test_unfold_produces_parseable_program(self):
        spec = get_nf("balance")
        unfolded = unfold_tcp(parse_program(spec.source))
        assert unfolded.entry == "__per_packet"
        assert "__tcp_conns" in unfolded.source
        assert not has_socket_calls(unfolded)

    def test_unfolded_handshake_semantics(self):
        """The hidden TCP state becomes explicit: data before the
        handshake is dropped; established data is relayed to a backend."""
        spec = get_nf("balance")
        unfolded = unfold_tcp(parse_program(spec.source))
        interp = Interpreter(program=unfolded)
        interp.run_module()

        data = Packet(ip_src=1, sport=2000, ip_dst=9, dport=8080, tcp_flags=TCP_ACK)
        assert interp.process_packet(data.copy()) == []  # no handshake yet

        syn = Packet(ip_src=1, sport=2000, ip_dst=9, dport=8080, tcp_flags=TCP_SYN)
        assert interp.process_packet(syn) == []  # handshake handled locally

        ack = Packet(ip_src=1, sport=2000, ip_dst=9, dport=8080, tcp_flags=TCP_ACK)
        assert interp.process_packet(ack) == []  # completes handshake

        sent = interp.process_packet(data.copy())
        assert len(sent) == 1
        out = sent[0][0]
        assert out.ip_dst == 16843009  # first backend (round robin)
        assert out.dport == 80

    def test_round_robin_state_advances(self):
        spec = get_nf("balance")
        unfolded = unfold_tcp(parse_program(spec.source))
        interp = Interpreter(program=unfolded)
        interp.run_module()
        for i, expected_idx in [(0, 1), (1, 2), (2, 0)]:
            syn = Packet(ip_src=10 + i, sport=2000, ip_dst=9, dport=8080, tcp_flags=TCP_SYN)
            interp.process_packet(syn)
            assert interp.globals["rr_idx"] == expected_idx

    def test_fin_tears_down(self):
        spec = get_nf("balance")
        unfolded = unfold_tcp(parse_program(spec.source))
        interp = Interpreter(program=unfolded)
        interp.run_module()
        flow = dict(ip_src=1, sport=2000, ip_dst=9, dport=8080)
        interp.process_packet(Packet(tcp_flags=TCP_SYN, **flow))
        interp.process_packet(Packet(tcp_flags=TCP_ACK, **flow))
        assert len(interp.process_packet(Packet(tcp_flags=TCP_ACK, **flow))) == 1
        interp.process_packet(Packet(tcp_flags=TCP_FIN | TCP_ACK, **flow))
        # connection gone: data is dropped again
        assert interp.process_packet(Packet(tcp_flags=TCP_ACK, **flow)) == []

    def test_non_listen_port_dropped(self):
        spec = get_nf("balance")
        unfolded = unfold_tcp(parse_program(spec.source))
        interp = Interpreter(program=unfolded)
        interp.run_module()
        other = Packet(ip_src=1, sport=2000, ip_dst=9, dport=443, tcp_flags=TCP_SYN)
        assert interp.process_packet(other) == []

    def test_unsupported_shape_raises(self):
        source = (
            "def Main():\n"
            "    while True:\n"
            "        c = tcp_accept(80)\n"
        )
        with pytest.raises(NFPyError, match="unfold"):
            unfold_tcp(parse_program(source))


class TestBalanceModel:
    """The Figure-6 check: the synthesized balance model exposes the
    round-robin index state and, synthesized parametric, the per-mode
    tables."""

    def test_mode_tables_exist(self, balance_parametric):
        model = balance_parametric.model
        configs = set(model.tables)
        assert len(configs) >= 2  # RR table and hash table (+ shared)

    def test_rr_entry_updates_index(self, balance_result):
        """Fig. 6, RR row: state match on idx, state action (idx+1)%N."""
        from repro.lang.pretty import pretty_stmt

        rr_entries = [
            e
            for e in balance_result.model.all_entries()
            if any("rr_idx" in pretty_stmt(s) for s in e.state_action_stmts)
        ]
        assert rr_entries
        texts = [pretty_stmt(s) for e in rr_entries for s in e.state_action_stmts]
        assert any("% len(servers)" in t for t in texts)

    def test_hash_entry_has_no_index_state(self, balance_parametric):
        """Fig. 6, HASH row: backend by hash, no idx state transition."""
        from repro.lang.pretty import pretty_stmt

        hash_entries = [
            e
            for e in balance_parametric.model.all_entries()
            if any("hash" in pretty_stmt(s) for s in e.state_action_stmts)
        ]
        assert hash_entries
        for entry in hash_entries:
            texts = [pretty_stmt(s) for s in entry.state_action_stmts]
            assert not any("rr_idx =" in t for t in texts)
