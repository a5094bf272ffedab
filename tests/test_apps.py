"""Tests for the §4 applications: verification, composition, testing."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.apps.compose import analyze_chain, compose_chains, match_fields, rewrite_fields
from repro.apps.testing import generate_tests, validate_suite
from repro.apps.verify import (
    HeaderSpace,
    check_drop_invariant,
    find_forwarding_witness,
    model_check_entries,
)
from repro.netverify import GraphVerifier, GraphVerifyConfig, path_graph
from repro.symbolic.expr import SApp, SVar, mk_app

DPORT = SVar("pkt.dport", 0, 65535)
PROTO = SVar("pkt.proto", 0, 255)
FLAGS = SVar("pkt.tcp_flags", 0, 31)
IN_PORT = SVar("pkt.in_port", 0, 255)


def _reachable(chain, space=None):
    """Spaces that traverse the whole chain, verified as a path graph."""
    graph = path_graph(chain)
    verdict = GraphVerifier(
        graph, config=GraphVerifyConfig(use_cache=False)
    ).verify(space)
    return verdict.reachable[graph.sinks()[0]]


class TestVerification:
    def test_forwarding_witness_exists(self, lb_result):
        hit = find_forwarding_witness(lb_result.model)
        assert hit is not None
        entry, witness = hit
        assert not entry.drops

    def test_lb_invariant_unsolicited_reverse_dropped(self, lb_result):
        """No packet off the service port of an unknown flow is ever
        forwarded — the property the paper's LB narrative states."""
        not_service = mk_app("!=", DPORT, lb_result.module_env["LB_PORT"])
        unknown = SApp("not", (SApp("member", ("b2f_nat", _lb_tuple())),))
        violation = check_drop_invariant(lb_result.model, [not_service, unknown])
        assert violation is None

    def test_firewall_invariant_untrusted_syn_dropped(self, firewall_result):
        """With fresh state and the deployed config, a SYN arriving on
        the untrusted port must not be forwarded."""
        syn_only = mk_app(
            "and",
            mk_app("!=", mk_app("&", FLAGS, 2), 0),
            mk_app("==", mk_app("&", FLAGS, 16), 0),
        )
        constraints = [
            mk_app("==", PROTO, 6),
            mk_app("!=", IN_PORT, 0),
            syn_only,
        ]
        violation = find_forwarding_witness(
            firewall_result.model, constraints, empty_state=True
        )
        assert violation is None

    def test_firewall_invariant_fails_without_config_pinning(
        self, firewall_parametric
    ):
        """The same property is violated under *some* configuration
        (TRUSTED_PORT ≠ 0) of the parametric model, demonstrating why
        verification runs on the deployed-config model."""
        syn_only = mk_app(
            "and",
            mk_app("!=", mk_app("&", FLAGS, 2), 0),
            mk_app("==", mk_app("&", FLAGS, 16), 0),
        )
        constraints = [
            mk_app("==", PROTO, 6),
            mk_app("!=", IN_PORT, 0),
            syn_only,
        ]
        violation = find_forwarding_witness(
            firewall_parametric.model, constraints, empty_state=True
        )
        assert violation is not None

    def test_firewall_trusted_syn_allowed(self, firewall_result):
        syn_only = mk_app(
            "and",
            mk_app("!=", mk_app("&", FLAGS, 2), 0),
            mk_app("==", mk_app("&", FLAGS, 16), 0),
        )
        constraints = [
            mk_app("==", PROTO, 6),
            mk_app("==", IN_PORT, 0),
            syn_only,
        ]
        hit = find_forwarding_witness(firewall_result.model, constraints)
        assert hit is not None

    def test_chain_reachability(self, firewall_result, lb_result):
        spaces = _reachable(
            [("fw", firewall_result.model), ("lb", lb_result.model)]
        )
        assert spaces  # some packet traverses fw then lb

    def test_chain_narrowed_space_unreachable(self, firewall_result):
        """Non-TCP traffic cannot traverse the firewall as configured
        (STRICT_MODE=1)."""
        space = HeaderSpace.universe().constrained(mk_app("==", PROTO, 17))
        assert not _reachable([("fw", firewall_result.model)], space)

    def test_chain_transform_composes(self, lb_result):
        """Traffic leaving the LB towards a backend has the LB's
        source address."""
        space = HeaderSpace.universe().constrained(
            mk_app("==", DPORT, lb_result.module_env["LB_PORT"])
        )
        out_spaces = _reachable([("lb", lb_result.model)], space)
        assert out_spaces
        assert any(s.fields["ip_src"] == 50529027 for s in out_spaces)

    def test_model_check_entries_counts(self, lb_result):
        n = model_check_entries(lb_result.model)
        assert 0 < n <= lb_result.model.n_entries


class TestComposition:
    def test_lb_rewrites_fields_ids_reads(self, lb_result, snortlite_result):
        assert "ip_dst" in rewrite_fields(lb_result.model)
        assert "dport" in match_fields(snortlite_result.model)

    def test_conflict_detected_in_wrong_order(self, lb_result, snortlite_result):
        analysis = analyze_chain(
            [("lb", lb_result.model), ("ids", snortlite_result.model)]
        )
        assert analysis.n_conflicts > 0

    def test_clean_order_has_no_conflicts(self, lb_result, snortlite_result):
        analysis = analyze_chain(
            [("ids", snortlite_result.model), ("lb", lb_result.model)]
        )
        assert analysis.n_conflicts == 0

    def test_paper_composition_example(
        self, firewall_result, snortlite_result, lb_result
    ):
        """{FW, IDS} + {LB} must compose to {FW, IDS, LB} (paper §4)."""
        ranked = compose_chains(
            [("fw", firewall_result.model), ("ids", snortlite_result.model)],
            [("lb", lb_result.model)],
        )
        best = ranked[0]
        assert best.order == ("fw", "ids", "lb")
        assert best.n_conflicts == 0

    def test_summary_text(self, lb_result, monitor_result):
        analysis = analyze_chain(
            [("lb", lb_result.model), ("mon", monitor_result.model)]
        )
        assert "lb" in analysis.summary()


class TestTestGeneration:
    def test_suite_covers_entries(self, lb_result):
        suite = generate_tests(lb_result)
        assert suite.cases
        covered = {case.target_entry for case in suite.cases}
        assert len(covered) >= lb_result.model.n_entries - len(
            suite.uncovered_entries
        )

    def test_packets_are_concrete_and_valid(self, lb_result):
        from repro.net.packet import FIELD_DOMAINS

        suite = generate_tests(lb_result)
        for case in suite.cases:
            for pkt in case.packets:
                for name, (lo, hi) in FIELD_DOMAINS.items():
                    assert lo <= getattr(pkt, name) <= hi

    def test_validation_against_original(self, lb_result):
        suite = generate_tests(lb_result)
        report = validate_suite(suite, lb_result)
        assert report.all_passed, report.failures

    def test_firewall_suite_validates(self, firewall_result):
        suite = generate_tests(firewall_result, max_cases=48)
        report = validate_suite(suite, firewall_result)
        assert report.all_passed, report.failures

    def test_suite_summary(self, lb_result):
        suite = generate_tests(lb_result)
        assert lb_result.model.name in suite.summary()


def _lb_tuple():
    return (
        SVar("pkt.ip_src", 0, 2**32 - 1),
        SVar("pkt.sport", 0, 65535),
        SVar("pkt.ip_dst", 0, 2**32 - 1),
        SVar("pkt.dport", 0, 65535),
    )


def _fw_key():
    a = (SVar("pkt.ip_src", 0, 2**32 - 1), SVar("pkt.sport", 0, 65535))
    b = (SVar("pkt.ip_dst", 0, 2**32 - 1), SVar("pkt.dport", 0, 65535))
    return (a, b)


class TestExamples:
    def test_verify_chain_example_runs(self):
        """examples/verify_chain.py end to end, artifact store off."""
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        run = subprocess.run(
            [sys.executable, str(root / "examples" / "verify_chain.py"), "--no-cache"],
            cwd=root, env=env, capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, run.stderr
        assert "under the deployed config: HOLDS" in run.stdout
        assert "reaches: 48 end-to-end forwarding behaviours" in run.stdout
        assert "FW -> IDS -> LB      0 conflict(s)  <== recommended" in run.stdout
