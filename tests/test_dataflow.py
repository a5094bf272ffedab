"""Tests for reaching definitions, liveness and def-use chains."""

from __future__ import annotations

from collections import deque
from unittest import mock

import pytest
from hypothesis import given, settings

from repro.cfg.builder import build_cfg
from repro.cfg.graph import ENTRY, EXIT
from repro.dataflow.defuse import def_use_chains
from repro.dataflow.liveness import live_variables
from repro.dataflow.reaching import INITIAL, reaching_definitions
from repro.lang.ir import (
    SAssign,
    call_mutated_names,
    iter_block,
    stmt_defs,
    stmt_scope_names,
    stmt_uses,
)
from repro.lang.parser import parse_function, parse_program
from repro.nfactor.algorithm import NFactor, NFactorConfig
from repro.nfs import get_nf, nf_names
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.pdg.pdg import build_pdg
from tests.test_properties import nf_program


def analyzed(source: str, entry_vars=None):
    fn = parse_function(source)
    cfg = build_cfg(fn.body)
    stmts = {s.sid: s for s in fn.stmts()}
    return fn, cfg, stmts


class TestReachingDefinitions:
    def test_strong_update_kills(self):
        fn, cfg, stmts = analyzed("def f(a):\n    x = 1\n    x = 2\n    y = x\n")
        s1, s2, s3 = fn.body
        in_facts, _ = reaching_definitions(cfg, stmts, {"a"})
        assert ("x", s1.sid) not in in_facts[s3.sid]
        assert ("x", s2.sid) in in_facts[s3.sid]

    def test_weak_update_preserves(self):
        fn, cfg, stmts = analyzed(
            "def f(a, d):\n    d = {}\n    d[a] = 1\n    y = d\n"
        )
        init, weak, read = fn.body
        in_facts, _ = reaching_definitions(cfg, stmts, {"a", "d"})
        # Both the dict creation and the element store reach the read.
        assert ("d", init.sid) in in_facts[read.sid]
        assert ("d", weak.sid) in in_facts[read.sid]

    def test_branch_merges(self):
        fn, cfg, stmts = analyzed(
            "def f(a):\n    if a:\n        x = 1\n    else:\n        x = 2\n    y = x\n"
        )
        then_def = fn.body[0].then[0]
        else_def = fn.body[0].orelse[0]
        read = fn.body[1]
        in_facts, _ = reaching_definitions(cfg, stmts, {"a"})
        assert ("x", then_def.sid) in in_facts[read.sid]
        assert ("x", else_def.sid) in in_facts[read.sid]

    def test_initial_defs_for_entry_vars(self):
        fn, cfg, stmts = analyzed("def f(a):\n    y = a\n")
        read = fn.body[0]
        in_facts, _ = reaching_definitions(cfg, stmts, {"a"})
        assert ("a", INITIAL) in in_facts[read.sid]

    def test_loop_carried_definition(self):
        fn, cfg, stmts = analyzed(
            "def f(a):\n    x = 0\n    while a:\n        x = x + 1\n        a -= 1\n    return x\n"
        )
        init = fn.body[0]
        loop_def = fn.body[1].body[0]
        ret = fn.body[2]
        in_facts, _ = reaching_definitions(cfg, stmts, {"a"})
        assert ("x", init.sid) in in_facts[ret.sid]
        assert ("x", loop_def.sid) in in_facts[ret.sid]
        # The loop body read sees its own definition from prior iterations.
        assert ("x", loop_def.sid) in in_facts[loop_def.sid]


class TestLiveness:
    def test_dead_store(self):
        fn, cfg, stmts = analyzed("def f(a):\n    x = 1\n    x = 2\n    return x\n")
        s1 = fn.body[0]
        live_out, live_in = live_variables(cfg, stmts)
        assert "x" not in live_out[s1.sid]

    def test_condition_keeps_variable_live(self):
        fn, cfg, stmts = analyzed(
            "def f(a):\n    x = 1\n    if a:\n        return x\n    return 0\n"
        )
        s1 = fn.body[0]
        live_out, _ = live_variables(cfg, stmts)
        assert "x" in live_out[s1.sid]

    def test_live_out_exit_respected(self):
        fn, cfg, stmts = analyzed("def f(a):\n    x = a\n")
        s1 = fn.body[0]
        live_out_without, _ = live_variables(cfg, stmts)
        live_out_with, _ = live_variables(cfg, stmts, {"x"})
        assert "x" not in live_out_without[s1.sid]
        assert "x" in live_out_with[s1.sid]


class TestDefUse:
    def test_simple_chain(self):
        fn, cfg, stmts = analyzed("def f(a):\n    x = a\n    y = x\n")
        s1, s2 = fn.body
        chains = def_use_chains(cfg, stmts, {"a"})
        assert chains.def_sites(s2.sid, "x") == {s1.sid}
        assert chains.data_preds(s2.sid) == {s1.sid}

    def test_initial_excluded_from_data_preds(self):
        fn, cfg, stmts = analyzed("def f(a):\n    y = a\n")
        s1 = fn.body[0]
        chains = def_use_chains(cfg, stmts, {"a"})
        assert chains.data_preds(s1.sid) == set()
        assert INITIAL in chains.def_sites(s1.sid, "a")

    def test_uses_of_def_forward_view(self):
        fn, cfg, stmts = analyzed("def f(a):\n    x = a\n    y = x\n    z = x\n")
        s1, s2, s3 = fn.body
        chains = def_use_chains(cfg, stmts, {"a"})
        uses = {u for u, _ in chains.uses_of_def(s1.sid)}
        assert uses == {s2.sid, s3.sid}

    def test_pseudo_edges_do_not_leak_defs(self):
        # A def before `return` must not reach code after the return
        # through the Ball–Horwitz pseudo edge.
        fn, cfg, stmts = analyzed(
            "def f(a):\n    if a:\n        x = 1\n        return x\n    x = 2\n    return x\n"
        )
        then_def = fn.body[0].then[0]
        tail_ret = fn.body[2]
        chains = def_use_chains(cfg, stmts, {"a"})
        assert then_def.sid not in chains.def_sites(tail_ret.sid, "x")


# ---------------------------------------------------------------------------
# Reference equivalence: the plain frozenset FIFO worklist the bit-vector
# solver replaced, kept here as the oracle.
# ---------------------------------------------------------------------------


def _reference_solve(cfg, transfer, boundary, forward=True):
    start = ENTRY if forward else EXIT
    flow = (lambda n: cfg.preds(n, False), lambda n: cfg.succs(n, False))
    preds, succs = flow if forward else flow[::-1]
    before = {n: frozenset() for n in cfg.nodes}
    after = dict(before)
    before[start], after[start] = boundary, transfer(start, boundary)
    work = deque(n for n in cfg.nodes if n != start)
    queued = set(work)
    while work:
        node = work.popleft()
        queued.discard(node)
        before[node] = frozenset().union(*(after[p] for p in preds(node)))
        out = transfer(node, before[node])
        if out != after[node]:
            after[node] = out
            fresh = [s for s in succs(node) if s not in queued]
            work.extend(fresh)
            queued.update(fresh)
    return before, after


def _strong(stmt):
    if not isinstance(stmt, SAssign):
        return set()
    return stmt_scope_names(stmt) - call_mutated_names(stmt.value)


def reference_reaching(cfg, stmts, entry_vars):
    def transfer(node, fact):
        stmt = stmts.get(node)
        if stmt is None or not stmt_defs(stmt):
            return fact
        kept = frozenset(d for d in fact if d[0] not in _strong(stmt))
        return kept | {(v, node) for v in stmt_defs(stmt)}

    return _reference_solve(cfg, transfer, frozenset((v, INITIAL) for v in entry_vars))


def reference_liveness(cfg, stmts, live_out_exit):
    def transfer(node, fact):
        stmt = stmts.get(node)
        return fact if stmt is None else stmt_uses(stmt) | (fact - _strong(stmt))

    return _reference_solve(cfg, transfer, frozenset(live_out_exit), forward=False)


def reference_deps(cfg, stmts, entry_vars):
    in_facts, _ = reference_reaching(cfg, stmts, entry_vars)
    return {
        sid: {v: {d for u, d in in_facts.get(sid, ()) if u == v} for v in stmt_uses(s)}
        for sid, s in stmts.items()
        if stmt_uses(s)
    }


def looped_block(program):
    """The looped analysis view ``NFactor._prepare`` hands to ``build_pdg``."""
    with mock.patch("repro.nfactor.algorithm.build_pdg", wraps=build_pdg) as spy:
        NFactor(program, config=NFactorConfig(artifact_cache=False))._prepare({})
    block, entry_vars = spy.call_args.args
    return build_cfg(block), {s.sid: s for s in iter_block(block)}, set(entry_vars)


def assert_matches_reference(cfg, stmts, entry_vars):
    assert reaching_definitions(cfg, stmts, entry_vars) == reference_reaching(
        cfg, stmts, entry_vars
    )
    assert def_use_chains(cfg, stmts, entry_vars).deps == reference_deps(
        cfg, stmts, entry_vars
    )
    for live_out_exit in (set(), entry_vars):
        assert live_variables(cfg, stmts, live_out_exit) == reference_liveness(
            cfg, stmts, live_out_exit
        )


class TestReferenceEquivalence:
    @pytest.mark.parametrize("name", nf_names())
    def test_corpus_looped_view(self, name):
        assert_matches_reference(*looped_block(parse_program(get_nf(name).source)))

    @settings(max_examples=40, deadline=None)
    @given(nf_program())
    def test_generated_programs(self, source):
        assert_matches_reference(*looped_block(parse_program(source, entry="cb")))

    def test_snortlite_visits_stay_in_rpo_range(self):
        # Heap-by-RPO order visits snortlite's 436-node view 1853 times;
        # FIFO order takes 6325, far above this bound.
        cfg, stmts, entry_vars = looped_block(parse_program(get_nf("snortlite").source))
        previous = obs_metrics.install(MetricsRegistry())
        try:
            reaching_definitions(cfg, stmts, entry_vars)
            visits = obs_metrics.counter("dataflow.visits").value
        finally:
            obs_metrics.uninstall(previous)
        assert 0 < visits <= 2 * 2275
