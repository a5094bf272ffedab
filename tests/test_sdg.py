"""Tests for the interprocedural SDG and two-pass slicing."""

from __future__ import annotations

import hashlib

from repro.lang.parser import parse_program
from repro.nfs import get_nf, nf_names
from repro.pdg.sdg import RET, SDGNode, K_FORMAL_IN, K_FORMAL_OUT, build_sdg, mod_ref
from repro.slicing.interproc import InterproceduralSlicer


class TestModRef:
    def test_direct_global_write(self):
        program = parse_program(
            "x = 0\ndef f(a):\n    global x\n    x = a\n    return 0\n"
        )
        mods, refs = mod_ref(program)
        assert "x" in mods["f"]

    def test_weak_update_is_mod(self):
        program = parse_program("d = {}\ndef f(a):\n    d[a] = 1\n    return 0\n")
        mods, _ = mod_ref(program)
        assert "d" in mods["f"]

    def test_transitive_through_callee(self):
        program = parse_program(
            "x = 0\n"
            "def g(a):\n    global x\n    x = a\n    return 0\n"
            "def f(a):\n    return g(a)\n"
        )
        mods, _ = mod_ref(program)
        assert "x" in mods["f"]

    def test_locals_excluded(self):
        program = parse_program("def f(a):\n    y = a\n    return y\n")
        mods, refs = mod_ref(program)
        assert "y" not in mods["f"]
        assert "y" not in refs["f"]

    def test_global_read_is_ref(self):
        program = parse_program("W = 2\ndef f(a):\n    return a * W\n")
        _, refs = mod_ref(program)
        assert "W" in refs["f"]


class TestSummaryPrecision:
    SOURCE = (
        "def pick(a, b):\n"
        "    return a\n"             # result depends only on the 1st arg
        "def cb(pkt):\n"
        "    x = pkt.ttl\n"
        "    y = pkt.length\n"
        "    z = pick(x, y)\n"
        "    pkt.ttl = z\n"
        "    send_packet(pkt)\n"
    )

    def test_unused_argument_excluded_from_slice(self):
        program = parse_program(self.SOURCE, entry="cb")
        slicer = InterproceduralSlicer(program)
        lines = program.source_lines(slicer.slice_from_outputs())
        source = self.SOURCE.splitlines()
        texts = [source[ln - 1].strip() for ln in lines]
        assert "x = pkt.ttl" in texts
        assert "y = pkt.length" not in texts  # summary: ret depends on a only

    def test_summary_edges_exist(self):
        program = parse_program(self.SOURCE, entry="cb")
        sdg = build_sdg(program)
        summaries = [
            (src, dst)
            for dst, preds in sdg.preds.items()
            for src, kind in preds.items()
            if kind == "summary"
        ]
        assert summaries


class TestTwoPassSlicing:
    DESCEND = (
        "BASE = 7\n"
        "def compute(v):\n    t = v + BASE\n    return t\n"
        "def cb(pkt):\n    pkt.ttl = compute(pkt.ttl)\n    send_packet(pkt)\n"
    )
    OTHER_CALLER = (
        "def g(v):\n    return v + 1\n"
        "def h(pkt):\n    unrelated = g(999)\n    return unrelated\n"
        "def cb(pkt):\n    pkt.ttl = g(pkt.ttl)\n    send_packet(pkt)\n"
    )
    STATE_HELPER = (
        "tbl = {}\n"
        "def remember(k, v):\n    tbl[k] = v\n    return 0\n"
        "def cb(pkt):\n"
        "    remember(pkt.ip_src, 1)\n"
        "    if pkt.ip_src in tbl:\n"
        "        send_packet(pkt)\n"
    )

    def test_slice_descends_into_callee(self):
        source = self.DESCEND
        program = parse_program(source, entry="cb")
        slicer = InterproceduralSlicer(program)
        lines = program.source_lines(slicer.slice_from_outputs())
        texts = [source.splitlines()[ln - 1].strip() for ln in lines]
        assert "t = v + BASE" in texts
        assert "BASE = 7" in texts

    def test_slice_does_not_bleed_to_other_callers(self):
        # Slicing inside g's body from a criterion reached via cb must
        # not pull in the unrelated caller h (calling-context respect).
        source = self.OTHER_CALLER
        program = parse_program(source, entry="cb")
        slicer = InterproceduralSlicer(program)
        lines = program.source_lines(slicer.slice_from_outputs())
        texts = [source.splitlines()[ln - 1].strip() for ln in lines]
        assert "unrelated = g(999)" not in texts

    def test_state_helper_sliced_through(self):
        source = self.STATE_HELPER
        program = parse_program(source, entry="cb")
        slicer = InterproceduralSlicer(program)
        lines = program.source_lines(slicer.slice_from_outputs())
        texts = [source.splitlines()[ln - 1].strip() for ln in lines]
        assert "tbl[k] = v" in texts
        assert "tbl = {}" in texts


class TestCorpusCrossCheck:
    """The SDG slice must cover the flat-view slice (it may be slightly
    larger: call statements are its atomic granularity)."""

    def _def_lines(self, program):
        return {
            fn.line for fn in program.functions.values()
        }

    def test_corpus_slices_covered(self, lb_result, nat_result, monitor_result):
        from repro.nfactor.algorithm import NFactor
        from repro.pdg.pdg import build_pdg
        from repro.slicing.static import StaticSlicer

        for result in (lb_result, nat_result, monitor_result):
            program = result.program
            slicer = InterproceduralSlicer(program)
            sdg_lines = set(program.source_lines(slicer.slice_from_outputs()))
            # Single-invocation flat slice: the SDG models one pass of
            # the packet callback (the pipeline's looped view adds
            # cross-invocation state flow on top).
            nf = NFactor(program)
            flat, _, _ = nf.flatten()
            pdg = build_pdg(flat.block, flat.entry_vars())
            pkt_slice = StaticSlicer(pdg).backward_many(nf.output_criteria(flat))
            flat_lines = set(flat.source_lines(pkt_slice))
            # function headers show up in the flat view via inlined
            # parameter bindings; ignore them for the comparison.
            flat_lines -= self._def_lines(program)
            assert flat_lines <= sdg_lines, result.model.name


class TestEdgeSetPinned:
    """``build_sdg``'s edge set, pinned to what the frozenset worklist
    solver produced before reaching definitions moved onto bitsets:
    ``(edge count, sha256 prefix of the sorted edge list)``."""

    PINNED = {
        "summary": (28, "55790bce62d270ad"),
        "descend": (31, "44b4f86f3d954d46"),
        "other_caller": (30, "432ac0a8127512e1"),
        "state_helper": (46, "1d1ec7f213d98c47"),
        "balance": (137, "f688eafd68a3449e"),
        "firewall": (441, "4740b38135cd16f2"),
        "l2switch": (153, "1275bf6f66c94450"),
        "loadbalancer": (248, "2ccb43f5fab2552b"),
        "monitor": (101, "6934d1500026272c"),
        "nat": (239, "8796f476f0b14fc3"),
        "proxycache": (217, "b46a995f617a9cdd"),
        "ratelimiter": (149, "3f1ca51b77734bd7"),
        "snortlite": (2578, "3a9379d7d2f9c8eb"),
    }

    @staticmethod
    def _digest(program):
        sdg = build_sdg(program)
        edges = sorted(
            (tuple(vars(src).values()), tuple(vars(dst).values()), kind)
            for dst, preds in sdg.preds.items()
            for src, kind in preds.items()
        )
        return len(edges), hashlib.sha256(repr(edges).encode()).hexdigest()[:16]

    def test_edge_sets_unchanged(self):
        sources = {
            "summary": TestSummaryPrecision.SOURCE,
            "descend": TestTwoPassSlicing.DESCEND,
            "other_caller": TestTwoPassSlicing.OTHER_CALLER,
            "state_helper": TestTwoPassSlicing.STATE_HELPER,
        }
        got = {
            name: self._digest(parse_program(source, entry="cb"))
            for name, source in sources.items()
        }
        for name in nf_names():
            got[name] = self._digest(parse_program(get_nf(name).source))
        assert got == self.PINNED
