"""Tests for DAG graph verification (repro.netverify).

The load-bearing properties: verdict bytes are identical across cache
off/cold/warm and sequential-vs-parallel exploration, and after a
single NF edit a warm re-verification recomputes exactly the dirty
region (the edited node and everything downstream).
"""

from __future__ import annotations

import json
from unittest import mock

import pytest

from repro import cache as artifact_cache
from repro import obs
from repro.apps.verify import HeaderSpace, push_space, subst_fields
from repro.netverify import verify as netverify_verify
from repro.netverify import (
    GraphVerifier,
    GraphVerifyConfig,
    ServiceGraph,
    build_graph,
    generate_graph,
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

    def test_matches_linear_network_verifier_semantics(self):
        """A 2-node path graph agrees with NetworkVerifier on verdict."""
        from repro.apps.verify import NetworkVerifier

        fw, nat = synthesize_cached("firewall"), synthesize_cached("nat")
        g = ServiceGraph()
        g.add_node("fw", fw.model)
        g.add_node("nat", nat.model)
        g.add_edge("fw", "nat")
        verdict = GraphVerifier(
            g, config=GraphVerifyConfig(use_cache=False)
        ).verify()
        linear = NetworkVerifier(
            [("firewall", fw.model), ("nat", nat.model)]
        )
        spaces = linear.reachable()
        assert verdict.can_reach == bool(spaces)
        assert verdict.n_spaces == len(spaces)
        assert sorted(tuple(s.trace) for s in verdict.reachable["nat"]) == sorted(
            tuple(s.trace) for s in spaces
        )


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


#: Solver ``unknown`` answers in a cold verify of
#: ``generate_graph(8, seed=1, width=4)`` with the solver cache off.  The
#: ones left need a case split: l2switch's hairpin check
#: ``cond(eth_dst == eth_src, in_port, mac_table[eth_dst]) == in_port``.
COLD_VERIFY_MAX_UNKNOWNS = 14


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

    def test_cold_verify_unknowns_pinned(self, cold_graph_run):
        _tasks, verdict = cold_graph_run
        assert verdict.stats.solver_unknowns <= COLD_VERIFY_MAX_UNKNOWNS
        assert f"{verdict.stats.solver_unknowns} solver unknown(s)" in verdict.summary()
        assert verdict.stats.as_dict()["solver_unknowns"] == verdict.stats.solver_unknowns

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
            json.dumps(warm)  # the whole envelope must be JSON-safe

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
        assert "reachable" in out

    def test_compose_subcommand(self, capsys):
        from repro.cli import main

        code = main(["--no-cache", "compose", "firewall", "nat"])
        out = capsys.readouterr().out
        assert code == 0
        assert "recommended: firewall -> nat" in out

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
        assert payload["stats"]["edges"] > 0

    def test_verify_graph_bad_edge(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["--no-cache", "verify-graph", "--node", "A=monitor",
                  "--edge", "A-B"])
