"""Tests for DAG graph verification (repro.netverify).

The load-bearing properties: verdict bytes are identical across cache
off/cold/warm and sequential-vs-parallel exploration, and after a
single NF edit a warm re-verification recomputes exactly the dirty
region (the edited node and everything downstream).
"""

from __future__ import annotations

import hashlib
import json
from unittest import mock

import pytest

from repro import cache as artifact_cache
from repro import obs
from repro.apps.verify import HeaderSpace, push_space, subst_fields, witness_pairs
from repro.netverify import verify as netverify_verify
from repro.netverify import (
    GraphVerifier,
    GraphVerifyConfig,
    ServiceGraph,
    build_graph,
    generate_graph,
    path_graph,
    verdict_payload,
)
from repro.netverify.graph import _synthesized
from repro.netverify.verify import (
    EdgeSummary,
    _space_payload,
    compute_edge_summary,
    edge_key,
    space_fingerprint,
)
from repro.symbolic import solver as solver_mod
from repro.symbolic.expr import canon, mk_app
from repro.symbolic.solver import Solver

from tests.conftest import synthesize_cached


def _model(name: str):
    return synthesize_cached(name).model


def _quick_graph() -> ServiceGraph:
    """A cheap diamond: monitor -> {ratelimiter, l2switch} -> monitor."""
    g = ServiceGraph()
    g.add_node("A", _model("monitor"))
    g.add_node("B", _model("ratelimiter"))
    g.add_node("C", _model("l2switch"))
    g.add_node("D", _model("monitor"))
    for src, dst in [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")]:
        g.add_edge(src, dst)
    return g


class TestServiceGraph:
    def test_structure_queries(self):
        g = _quick_graph()
        assert g.sources() == ["A"]
        assert g.sinks() == ["D"]
        assert g.successors("A") == ["B", "C"]
        assert g.predecessors("D") == ["B", "C"]
        assert g.topo_levels() == [["A"], ["B", "C"], ["D"]]
        assert g.n_nodes == 4 and g.n_edges == 4

    def test_duplicate_edge_deduped(self):
        g = _quick_graph()
        g.add_edge("A", "B")
        assert g.n_edges == 4

    def test_rejects_self_loop_and_unknown_nodes(self):
        g = _quick_graph()
        with pytest.raises(ValueError, match="self-loop"):
            g.add_edge("A", "A")
        with pytest.raises(ValueError, match="unknown node"):
            g.add_edge("A", "Z")

    def test_rejects_duplicate_node(self):
        g = _quick_graph()
        with pytest.raises(ValueError, match="duplicate"):
            g.add_node("A", _model("monitor"))

    def test_cycle_detected(self):
        g = ServiceGraph()
        g.add_node("A", _model("monitor"))
        g.add_node("B", _model("monitor"))
        g.add_edge("A", "B")
        g.edges.append(("B", "A"))
        g._succ["B"].append("A")
        g._pred["A"].append("B")
        with pytest.raises(ValueError, match="cycle"):
            g.topo_levels()

    def test_fingerprint_tracks_models_and_wiring(self):
        g1, g2 = _quick_graph(), _quick_graph()
        assert g1.fingerprint() == g2.fingerprint()
        g2.replace_model("B", _model("nat"))
        assert g1.fingerprint() != g2.fingerprint()
        g3 = _quick_graph()
        g3.add_edge("A", "D")
        assert g3.fingerprint() != g1.fingerprint()

    def test_replace_model_preserves_wiring(self):
        g = _quick_graph()
        g.replace_model("B", _model("nat"))
        assert g.successors("B") == ["D"]
        assert g.predecessors("B") == ["A"]
        assert g.nodes["B"].model.name == "nat"

    def test_generate_graph_deterministic(self):
        g1 = generate_graph(10, seed=3, width=4)
        g2 = generate_graph(10, seed=3, width=4)
        assert g1.fingerprint() == g2.fingerprint()
        assert generate_graph(10, seed=4, width=4).fingerprint() != g1.fingerprint()

    def test_build_graph_unknown_nf(self):
        with pytest.raises(ValueError, match="unknown NF"):
            build_graph([("A", "nosuchnf")], [])


class TestEdgeSummary:
    def test_space_fingerprint_ignores_trace(self):
        base = HeaderSpace.universe()
        traced = HeaderSpace(
            fields=dict(base.fields),
            constraints=list(base.constraints),
            trace=[("fw", 3)],
        )
        assert space_fingerprint(base) == space_fingerprint(traced)

    def test_space_fingerprint_sensitive_to_constraints(self):
        base = HeaderSpace.universe()
        from repro.symbolic.expr import mk_app

        narrowed = base.constrained(mk_app("==", base.fields["dport"], 80))
        assert space_fingerprint(base) != space_fingerprint(narrowed)

    def test_digest_is_a_function_of_the_ordered_list(self):
        base = HeaderSpace.universe()
        a = mk_app("==", base.fields["dport"], 80)
        b = mk_app("==", base.fields["proto"], 6)
        rolled = base.constrained(a).constrained(b)
        folded = HeaderSpace(fields=dict(base.fields), constraints=[a, b])
        assert rolled.digest == folded.digest != base.digest
        assert base.constrained(b, a).digest != rolled.digest
        assert space_fingerprint(rolled) == space_fingerprint(folded)

    def test_summary_apply_reprefixes_trace(self):
        model = _model("monitor")
        solver = Solver()
        base = HeaderSpace.universe()
        summary = compute_edge_summary(model, "X.", base, solver)
        traced = HeaderSpace(
            fields=dict(base.fields), constraints=[], trace=[("up", 1)]
        )
        outs = summary.apply(traced)
        assert outs
        for out in outs:
            assert out.trace[0] == ("up", 1)
            assert out.trace[1][0] == "monitor"

    def test_edge_key_distinguishes_model_and_ns(self):
        space = HeaderSpace.universe()
        k1 = edge_key("m1", "A.", space)
        assert edge_key("m2", "A.", space) != k1
        assert edge_key("m1", "B.", space) != k1
        assert edge_key("m1", "A.", space) == k1

    def test_malformed_store_entry_is_a_miss(self, tmp_path):
        with artifact_cache.override(directory=str(tmp_path), enabled=True):
            g = ServiceGraph()
            g.add_node("A", _model("monitor"))
            key = edge_key(
                g.nodes["A"].model_key, "A.", HeaderSpace.universe()
            )
            artifact_cache.get_store().put_object("edge", key, {"not": "a summary"})
            verdict = GraphVerifier(g).verify()
            assert verdict.stats.cache_misses == 1
            assert verdict.stats.cache_hits == 0


class TestGraphVerifierIdentity:
    def test_byte_identical_across_cache_modes(self, tmp_path):
        with artifact_cache.override(directory=str(tmp_path), enabled=True):
            g = _quick_graph()
            nocache = GraphVerifier(
                g, config=GraphVerifyConfig(use_cache=False)
            ).verify()
            cold = GraphVerifier(g).verify()
            warm = GraphVerifier(g).verify()
            assert nocache.to_json() == cold.to_json() == warm.to_json()
            assert cold.stats.cache_hits == 0
            assert cold.stats.cache_misses == cold.stats.edges
            assert warm.stats.cache_hits == warm.stats.edges
            assert warm.stats.dirty_edges == 0

    def test_parallel_matches_sequential(self, tmp_path):
        with artifact_cache.override(directory=str(tmp_path), enabled=True):
            g = _quick_graph()
            seq = GraphVerifier(
                g, config=GraphVerifyConfig(use_cache=False)
            ).verify()
            par = GraphVerifier(
                g, config=GraphVerifyConfig(use_cache=False, jobs=2)
            ).verify()
            assert seq.to_json() == par.to_json()
            assert seq.stats.solver_unknowns == par.stats.solver_unknowns

    def test_witnesses_are_json_safe_and_stable(self, tmp_path):
        with artifact_cache.override(directory=str(tmp_path), enabled=True):
            g = _quick_graph()
            cold = GraphVerifier(g).verify()
            warm = GraphVerifier(g).verify()
            assert cold.witnesses == warm.witnesses
            json.dumps(cold.witnesses)  # must round-trip
            for witness in cold.witnesses:
                assert witness["sink"] in g.sinks()
                assert witness["trace"]

    #: What the deleted linear chain verifier returned on untruncated
    #: chains: its space count and a sha256 over its ordered
    #: ``(trace, canon(constraints))`` list (see ``_linear_digest``).
    LINEAR_CHAIN_RESULTS = {
        ("monitor", "ratelimiter"): (
            5,
            "c34bfb9552c5131f7c832553f4bc995642431a06c183efb5a44d1565ce5d393e",
        ),
        ("firewall", "nat"): (
            48,
            "85fd569aeb21998871d126045e4e747dd4bc1ac6734ddcb64769edf1b007740e",
        ),
        ("firewall", "nat", "loadbalancer"): (
            144,
            "412f9e31bead50f6063b02658687c208166f57f3934e8982bccd2e90671ccf6b",
        ),
    }

    @staticmethod
    def _linear_digest(spaces):
        payload = [
            [[list(t) for t in s.trace], [canon(c) for c in s.constraints]]
            for s in spaces
        ]
        return hashlib.sha256(
            json.dumps(payload, separators=(",", ":")).encode()
        ).hexdigest()

    def test_path_graph_matches_recorded_linear_verifier(self):
        """A chain verified as a path graph gives the linear verifier's
        spaces: same count, same trace order, same constraints."""
        for names, (n_spaces, digest) in self.LINEAR_CHAIN_RESULTS.items():
            chain = [(name, _model(name)) for name in names]
            verdict = GraphVerifier(
                path_graph(chain), config=GraphVerifyConfig(use_cache=False)
            ).verify()
            spaces = verdict.reachable[f"{names[-1]}#{len(names) - 1}"]
            assert verdict.status == "reaches" and verdict.complete, names
            assert len(spaces) == verdict.n_spaces == n_spaces, names
            assert self._linear_digest(spaces) == digest, names


class TestDirtyRegion:
    def test_single_edit_recomputes_only_downstream(self, tmp_path):
        with artifact_cache.override(directory=str(tmp_path), enabled=True):
            g = _quick_graph()
            GraphVerifier(g).verify()  # warm every edge
            g.replace_model("B", _model("nat"))
            incr = GraphVerifier(g).verify()
            # The edited B and its downstream D recompute; A and the
            # untouched parallel branch C stay fully warm.  D is mixed:
            # its inputs derived from C still hit (dirtiness is
            # per-edge, not per-node).
            assert set(incr.stats.node_dirty) == {"B", "D"}
            assert {"A", "C"} <= set(incr.stats.node_hits)
            assert "B" not in incr.stats.node_hits
            assert 0 < incr.stats.dirty_edges < incr.stats.edges
            # and the incremental verdict equals a fresh recompute
            fresh = GraphVerifier(
                g, config=GraphVerifyConfig(use_cache=False)
            ).verify()
            assert incr.to_json() == fresh.to_json()

    def test_rewire_dirties_only_new_inputs(self, tmp_path):
        with artifact_cache.override(directory=str(tmp_path), enabled=True):
            g = _quick_graph()
            GraphVerifier(g).verify()
            g.add_edge("A", "D")  # topology rewire: D gains an input
            incr = GraphVerifier(g).verify()
            # only D's *new* inputs (via the A edge) recompute; its old
            # inputs and every other node stay warm
            assert set(incr.stats.node_dirty) == {"D"}
            assert {"A", "B", "C"} <= set(incr.stats.node_hits)
            fresh = GraphVerifier(
                g, config=GraphVerifyConfig(use_cache=False)
            ).verify()
            assert incr.to_json() == fresh.to_json()


class TestWarmPath:
    """A cache hit is a dict merge and a list concatenation: no solver
    check, no ``pickle.loads``, nothing a caller can mutate."""

    def test_second_verify_runs_no_solver_and_no_unpickle(self, tmp_path):
        import pickle

        with artifact_cache.override(directory=str(tmp_path), enabled=True):
            g = _quick_graph()
            solver = Solver(cache=False)
            cold = GraphVerifier(g, solver=solver).verify()
            checks = solver.check_hist.count
            assert checks > 0 and cold.witnesses
            with mock.patch.object(
                pickle, "loads", wraps=pickle.loads
            ) as loads:
                warm = GraphVerifier(g, solver=solver).verify()
            assert loads.call_count == 0
            assert solver.check_hist.count == checks
            assert warm.stats.cache_hits == warm.stats.edges
            assert warm.stats.solver_unknowns == 0
            assert warm.to_json() == cold.to_json()

    def test_dropped_memory_reads_every_edge_from_disk(self, tmp_path):
        with artifact_cache.override(directory=str(tmp_path), enabled=True):
            g = _quick_graph()
            cold = GraphVerifier(g).verify()
            store = artifact_cache.get_store()
            store.drop_memory()
            before = store.counters.get("disk.hits", 0)
            warm = GraphVerifier(g).verify()
            assert store.counters["disk.hits"] - before == warm.stats.edges
            assert warm.stats.cache_hits == warm.stats.edges
            assert warm.to_json() == cold.to_json()

    def test_mutating_a_verdict_leaves_the_cache_intact(self, tmp_path):
        with artifact_cache.override(directory=str(tmp_path), enabled=True):
            g = _quick_graph()
            first = GraphVerifier(g).verify()
            expected = first.to_json()
            for witness in first.witnesses:
                witness["assignment"]["poisoned"] = 1
                witness["assignment"].clear()
            for spaces in first.reachable.values():
                for space in spaces:
                    space.fields.clear()
                    space.constraints.append(mk_app("==", 1, 2))
                    space.trace.append(("poisoned", 0))
            again = GraphVerifier(g).verify()
            assert again.stats.cache_hits == again.stats.edges
            assert again.to_json() == expected

    def test_parallel_summaries_carry_the_same_digests_and_witnesses(
        self, tmp_path
    ):
        def summaries(jobs):
            directory = tmp_path / f"jobs{jobs}"
            with artifact_cache.override(directory=str(directory), enabled=True):
                config = GraphVerifyConfig(jobs=jobs, solver_cache=False)
                GraphVerifier(_quick_graph(), config=config).verify()
                store = artifact_cache.get_store()
                out = {}
                for kind, key in store.list_objects(kinds=("edge",)):
                    summary = store.get_object(kind, key)
                    out[key] = [(o[4], o[5]) for o in summary.outputs]
                return out

        sequential, parallel = summaries(1), summaries(2)
        assert sequential and sequential == parallel
        assert any(w is not None for outs in sequential.values() for _, w in outs)


class TestObsAndStats:
    def test_counters_threaded_through(self, tmp_path):
        with artifact_cache.override(directory=str(tmp_path), enabled=True):
            g = _quick_graph()
            with obs.observed() as (_tracer, registry):
                GraphVerifier(g).verify()
                GraphVerifier(g).verify()
                counters = registry.snapshot()["counters"]
            edges_per_run = counters["verify.edges"] // 2
            assert counters["verify.cache.misses"] == edges_per_run
            assert counters["verify.cache.hits"] == edges_per_run
            assert counters["verify.dirty_edges"] == edges_per_run

    def test_truncation_counted(self):
        g = _quick_graph()
        config = GraphVerifyConfig(use_cache=False, max_spaces_per_node=1)
        verdict = GraphVerifier(g, config=config).verify()
        assert verdict.stats.truncated_spaces > 0


class TestVerdictStatus:
    def test_truncating_graph_is_incomplete_with_per_node_counts(self):
        g = _quick_graph()
        config = GraphVerifyConfig(use_cache=False, max_spaces_per_node=1)
        verdict = GraphVerifier(g, config=config).verify()
        dropped = verdict.stats.node_truncated
        assert verdict.can_reach  # spaces reach, but the answer is unproven
        assert verdict.status == "incomplete" and not verdict.complete
        # A's single output feeds B and C whole; only the join D drops
        assert list(dropped) == ["D"]
        assert dropped["D"] == verdict.stats.truncated_spaces > 0
        payload = json.loads(verdict.to_json())
        assert payload["status"] == "incomplete"
        assert payload["complete"] is False
        assert payload["truncated"] == dict(sorted(dropped.items()))
        assert "incomplete" in verdict.summary()
        assert "D " + str(dropped["D"]) in verdict.summary()

    def test_space_resting_on_unknown_is_may_reach(self):
        """LB entry 1's space reaches NAT only through a guard check the
        solver leaves ``unknown`` (an indexed backend address)."""
        lb, nat = _model("loadbalancer"), _model("nat")
        entry = next(e for e in lb.all_entries() if e.entry_id == 1)
        space = HeaderSpace.universe()
        space = space.constrained(
            *[subst_fields(c, space.fields, "loadbalancer#0.") for c in entry.guard()]
        )
        graph = path_graph([("loadbalancer", lb), ("nat", nat)])
        config = GraphVerifyConfig(use_cache=False, solver_cache=False)
        verdict = GraphVerifier(graph, config=config).verify(space)
        spaces = verdict.reachable["nat#1"]
        assert [s.trace for s in spaces] == [[("loadbalancer", 1), ("nat", 5)]]
        assert not spaces[0].decided
        assert verdict.status == "may-reach" and verdict.complete
        payload = json.loads(verdict.to_json())
        assert payload["status"] == "may-reach"
        assert payload["sinks"]["nat#1"][0]["decided"] is False
        assert "may-reach" in verdict.summary()
        # Unconstrained, the decided spaces make the same chain reach.
        assert GraphVerifier(graph, config=config).verify().status == "reaches"

    def test_unknown_input_flag_survives_a_cache_hit(self, tmp_path):
        """The decided flag is not part of the edge key: a summary filled
        from a decided input still marks an undecided input's outputs."""
        with artifact_cache.override(directory=str(tmp_path), enabled=True):
            g = ServiceGraph()
            g.add_node("A", _model("monitor"))
            decided = GraphVerifier(g).verify()
            undecided = HeaderSpace.universe()
            undecided.decided = False
            warm = GraphVerifier(g).verify(undecided)
            assert warm.stats.cache_hits == warm.stats.edges == 1
            assert decided.status == "reaches"
            assert warm.status == "may-reach"

    def test_blackholed(self):
        g = ServiceGraph()
        g.add_node("fw", _model("firewall"))
        udp = HeaderSpace.universe()
        udp = udp.constrained(mk_app("==", udp.fields["proto"], 17))
        verdict = GraphVerifier(
            g, config=GraphVerifyConfig(use_cache=False)
        ).verify(udp)
        assert verdict.status == "blackholed" and not verdict.can_reach

    def test_perfbench_graph_reaches_and_is_complete(self, cold_graph_run):
        _tasks, verdict = cold_graph_run
        assert verdict.status == "reaches"
        assert verdict.complete and verdict.stats.truncated_spaces == 0


#: Solver ``unknown`` answers in a cold verify of
#: ``generate_graph(8, seed=1, width=4)`` with the solver cache off.  The
#: ones left need a case split: l2switch's hairpin check
#: ``cond(eth_dst == eth_src, in_port, mac_table[eth_dst]) == in_port``.
COLD_VERIFY_MAX_UNKNOWNS = 12


@pytest.fixture(scope="module")
def cold_graph_run():
    """One cold verify of the 8-node graph: its edge tasks and verdict."""
    tasks = []
    real = netverify_verify.compute_edge_summary

    def record(model, ns, space, solver):
        tasks.append((model, ns, space))
        return real(model, ns, space, solver)

    with artifact_cache.override(enabled=False), mock.patch.object(
        netverify_verify, "compute_edge_summary", record
    ):
        graph = generate_graph(8, seed=1, width=4)
        config = GraphVerifyConfig(use_cache=False, solver_cache=False)
        verdict = GraphVerifier(graph, config=config).verify()
    return tasks, verdict


def _reference_push_space(model, space, ns, solver):
    """The per-entry loop ``push_space`` replaced: each guard is checked
    with the input space's constraints from scratch.  Returns every
    entry's ``(status, witness)`` and the output spaces."""
    answers, out = [], []
    for entry in model.all_entries():
        guard = [subst_fields(c, space.fields, ns) for c in entry.guard()]
        combined = space.constraints + guard
        result = solver.check(combined)
        answers.append((result.status, result.assignment))
        if not result.feasible or entry.drops:
            continue
        rewritten = dict(space.fields)
        for name, value in entry.flow_transform().items():
            rewritten[name] = subst_fields(value, space.fields, ns)
        out.append(
            HeaderSpace(
                fields=rewritten,
                constraints=combined,
                trace=space.trace + [(model.name, entry.entry_id)],
                witness=witness_pairs(result),
            )
        )
    return answers, out


class TestPushSpaceAbsorbsOnce:
    def test_matches_per_entry_reference_on_every_edge_task(self, cold_graph_run):
        tasks, verdict = cold_graph_run
        assert len(tasks) == verdict.stats.dirty_edges > 0
        for model, ns, space in tasks:
            solver = Solver(cache=False)
            answers = []
            check_assuming = solver.check_assuming

            def recording(ctx, extras):
                result = check_assuming(ctx, extras)
                answers.append((result.status, result.assignment))
                return result

            solver.check_assuming = recording
            outputs = push_space(model, space, ns, solver)
            expected_answers, expected = _reference_push_space(
                model, space, ns, Solver(cache=False)
            )
            assert answers == expected_answers, (model.name, ns)
            assert [_space_payload(s) for s in outputs] == [
                _space_payload(s) for s in expected
            ], (model.name, ns)
            # Each output's rolled digest equals its list folded from
            # scratch, and its carried witness the from-scratch check's.
            assert [(s.digest, s.witness) for s in outputs] == [
                (s.digest, s.witness) for s in expected
            ], (model.name, ns)

    def test_cold_verify_unknowns_pinned(self, cold_graph_run):
        _tasks, verdict = cold_graph_run
        assert verdict.stats.solver_unknowns <= COLD_VERIFY_MAX_UNKNOWNS
        assert f"{verdict.stats.solver_unknowns} solver unknown(s)" in verdict.summary()
        graph = generate_graph(8, seed=1, width=4)
        payload = verdict_payload(verdict, graph)
        assert payload["solver_unknowns"] == verdict.stats.solver_unknowns

    def test_two_hop_firewall_syn_checks_refuted(self, cold_graph_run):
        """n05's firewall sits behind n00's: its drop entries 6 and 19
        negate the trusted-SYN guard n00 asserted, as a nested
        ``not(and(and(a, b), c))``.  The solver refutes them."""
        tasks, _verdict = cold_graph_run
        statuses = []
        for model, ns, space in tasks:
            if ns != "n05." or model.name != "firewall":
                continue
            for entry in model.all_entries():
                if entry.entry_id in (6, 19):
                    guard = [subst_fields(c, space.fields, ns) for c in entry.guard()]
                    result = Solver(cache=False).check(space.constraints + guard)
                    statuses.append(result.status)
        assert "unsat" in statuses and "unknown" not in statuses

    def test_parallel_run_counts_worker_unknowns(self, cold_graph_run):
        _tasks, verdict = cold_graph_run
        with artifact_cache.override(enabled=False):
            graph = generate_graph(8, seed=1, width=4)
            config = GraphVerifyConfig(use_cache=False, solver_cache=False, jobs=2)
            parallel = GraphVerifier(graph, config=config).verify()
        assert parallel.to_json() == verdict.to_json()
        assert parallel.stats.solver_unknowns == verdict.stats.solver_unknowns > 0

    def test_unknowns_stay_out_of_verdict_bytes(self, cold_graph_run):
        _tasks, verdict = cold_graph_run
        assert "solver_unknowns" not in verdict.to_json()


class TestLastFailedConjunctFirst:
    """``Solver._search`` tries first the conjunct that rejected the last
    candidate; the plain in-order ``all(...)`` scan is kept here as the
    reference it must agree with."""

    @staticmethod
    def _answers(tasks, accepts):
        calls = [0]
        real_eval = solver_mod._eval_bool

        def counting(c, assignment):
            calls[0] += 1
            return real_eval(c, assignment)

        answers = []
        with mock.patch.object(solver_mod, "_accepts", accepts), \
                mock.patch.object(solver_mod, "_eval_bool", counting):
            for model, ns, space in tasks:
                solver = Solver(cache=False)
                check_assuming = solver.check_assuming

                def recording(ctx, extras):
                    result = check_assuming(ctx, extras)
                    answers.append((result.status, result.assignment))
                    return result

                solver.check_assuming = recording
                push_space(model, space, ns, solver)
        return answers, calls[0]

    def test_same_statuses_and_witnesses_as_plain_scan(self, cold_graph_run):
        tasks, _verdict = cold_graph_run

        def plain(constraints, assignment, hint):
            return all(solver_mod._eval_bool(c, assignment) for c in constraints)

        got, got_calls = self._answers(tasks, solver_mod._accepts)
        want, want_calls = self._answers(tasks, plain)
        assert got == want
        assert any(status == "sat" for status, _ in got)
        assert got_calls < want_calls


class TestServeOp:
    def test_op_verify_graph_explicit_nodes(self, tmp_path):
        from repro.serve.jobs import _op_verify_graph

        with artifact_cache.override(directory=str(tmp_path), enabled=True):
            body = {
                "nodes": [["A", "monitor"], ["B", "ratelimiter"]],
                "edges": [["A", "B"]],
            }
            cold = _op_verify_graph(body)
            assert cold["can_reach"] is True
            assert cold["n_nodes"] == 2 and cold["n_edges"] == 1
            assert cold["cache"]["hits"] == 0
            warm = _op_verify_graph(body)
            assert warm["cache"]["hits"] == warm["cache"]["edges"] > 0
            assert warm["graph"] == cold["graph"]
            assert warm["traces"] == cold["traces"]
            assert warm["witnesses"] == cold["witnesses"]
            assert isinstance(cold["solver_unknowns"], int)
            assert cold["status"] == warm["status"] == "reaches"
            assert cold["complete"] is True and cold["truncated_spaces"] == 0
            json.dumps(warm)  # the whole envelope must be JSON-safe

    def test_op_verify_chain(self):
        from repro.serve.jobs import _op_verify, _op_verify_graph

        with artifact_cache.override(enabled=False):
            out = _op_verify({"chain": ["firewall", "nat"]})
            assert out["chain"] == ["firewall", "nat"]
            assert out["status"] == "reaches" and out["complete"] is True
            assert out["can_reach"] is True and out["n_spaces"] == 48
            assert out["truncated_spaces"] == 0
            assert len(out["traces"]) == 10
            # the same envelope as verify_graph on the same path graph
            graph = _op_verify_graph(
                {"nodes": [["firewall#0", "firewall"], ["nat#1", "nat"]],
                 "edges": [["firewall#0", "nat#1"]]}
            )
            assert set(graph) == set(out) - {"chain"}
            assert graph["traces"] == out["traces"]
            assert graph["status"] == out["status"]

    def test_op_verify_incomplete(self):
        from repro.serve.jobs import _op_verify

        with artifact_cache.override(enabled=False):
            out = _op_verify({"chain": ["firewall", "snortlite", "loadbalancer"]})
        assert out["status"] == "incomplete" and out["complete"] is False
        assert out["truncated_spaces"] == out["node_truncated"]["loadbalancer#2"] > 0

    def test_op_verify_graph_generate(self, tmp_path):
        from repro.serve.jobs import _op_verify_graph

        with artifact_cache.override(directory=str(tmp_path), enabled=True):
            out = _op_verify_graph({"generate": {"n": 4, "seed": 3, "width": 2}})
            assert out["n_nodes"] == 4
            assert out["cache"]["edges"] > 0

    def test_op_verify_graph_bad_requests(self):
        from repro.serve.jobs import _op_verify_graph

        with pytest.raises(ValueError, match="nodes"):
            _op_verify_graph({})
        with pytest.raises(ValueError, match="generate.n"):
            _op_verify_graph({"generate": {"n": 0}})
        with pytest.raises(ValueError, match="unknown NF"):
            _op_verify_graph({"nodes": [["A", "nosuchnf"]], "edges": []})
        with pytest.raises(ValueError, match="unknown node"):
            _op_verify_graph(
                {"nodes": [["A", "monitor"]], "edges": [["A", "Z"]]}
            )

    def test_routing_key_is_graph_shaped(self):
        from repro.serve.ring import routing_key

        body1 = {"nodes": [["A", "monitor"]], "edges": []}
        body2 = {"nodes": [["A", "nat"]], "edges": []}
        assert routing_key("verify_graph", body1) == routing_key(
            "verify_graph", body1
        )
        assert routing_key("verify_graph", body1) != routing_key(
            "verify_graph", body2
        )


class TestCli:
    def test_verify_subcommand(self, capsys):
        from repro.cli import main

        code = main(["--no-cache", "verify", "monitor", "ratelimiter"])
        out = capsys.readouterr().out
        assert code == 0
        assert "reaches" in out

    def test_verify_json_keeps_payload_keys(self, capsys):
        from repro.cli import main

        code = main(["--no-cache", "verify", "firewall", "nat", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["chain"] == ["firewall", "nat"]
        assert payload["can_reach"] is True and payload["n_spaces"] == 48
        assert len(payload["traces"]) == 10
        assert payload["status"] == "reaches" and payload["complete"] is True

    def test_summary_counts_edge_tasks_not_graph_edges(self, capsys):
        from repro.cli import main

        main(["--no-cache", "verify", "firewall", "nat", "--json"])
        payload = json.loads(capsys.readouterr().out)
        tasks = payload["cache"]["edges"]
        assert payload["n_edges"] == 1 and tasks > 1
        main(["--no-cache", "verify", "firewall", "nat"])
        assert f"; {tasks} edge tasks, " in capsys.readouterr().out

    def test_verify_exit_codes(self, capsys, tmp_path):
        from repro.cli import main

        files = {}
        for name, cond in [
            ("only80", "pkt.dport == 80"),
            ("no80", "pkt.dport != 80"),
            # SERVERS[idx] is 1 or 2, never dport + 3 when dport >= 0,
            # but the solver cannot refute an index into a tuple.
            ("maybe", "SERVERS[idx] == pkt.dport + 3"),
        ]:
            path = tmp_path / f"{name}.py"
            path.write_text(
                "SERVERS = (1, 2)\nidx = 0\n\n\ndef cb(pkt):\n"
                "    global idx\n    idx = (idx + 1) % 2\n"
                f"    if {cond}:\n        send_packet(pkt)\n\n\n"
                'sniff("eth0", cb)\n'
            )
            files[name] = str(path)
        cases = [
            (["monitor"], 0, "reaches"),
            ([files["only80"], files["no80"]], 1, "blackholed"),
            ([files["maybe"]], 3, "may-reach"),
            (["firewall", "snortlite", "loadbalancer"], 4, "incomplete"),
        ]
        for chain, code, status in cases:
            assert main(["--no-cache", "verify", *chain]) == code, chain
            assert f": {status} (" in capsys.readouterr().out
        # verify-graph labels the same way, through the same payload
        code = main(
            ["--no-cache", "verify-graph", "--node", "A=monitor", "--node",
             "B=monitor", "--node", "C=monitor", "--edge", "A:B", "--edge",
             "A:C", "--json"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["status"] == "reaches"

    def test_verify_graph_incomplete_exit_code(self, capsys):
        from repro.cli import main

        # the CI --quick graph truncates at the per-node cap
        code = main(
            ["--no-cache", "verify-graph", "--generate", "12", "--width", "4"]
        )
        out = capsys.readouterr().out
        assert code == 4
        assert ": incomplete (" in out and "dropped at the per-node cap" in out

    def test_compose_subcommand(self, capsys):
        from repro.cli import main

        code = main(["--no-cache", "compose", "firewall", "nat"])
        out = capsys.readouterr().out
        assert code == 0
        assert "recommended: firewall -> nat" in out

    def test_compose_json_is_the_served_payload(self, capsys):
        from repro.cli import main
        from repro.serve.jobs import _op_compose

        code = main(["--no-cache", "compose", "firewall,snortlite",
                     "loadbalancer", "--json"])
        assert code == 0
        with artifact_cache.override(enabled=False):
            served = _op_compose(
                {"chain_a": ["firewall", "snortlite"], "chain_b": ["loadbalancer"]}
            )
        assert capsys.readouterr().out == json.dumps(served, indent=2) + "\n"
        assert served["recommended"] == ["firewall", "snortlite", "loadbalancer"]

    def test_verify_graph_subcommand(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE", "on")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main(
            [
                "verify-graph",
                "--node", "A=monitor", "--node", "B=ratelimiter",
                "--edge", "A:B", "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["can_reach"] is True
        assert payload["cache"]["edges"] > 0

    def test_verify_graph_bad_edge(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["--no-cache", "verify-graph", "--node", "A=monitor",
                  "--edge", "A-B"])
