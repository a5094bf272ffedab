"""End-to-end tests of the NFactor pipeline (paper Algorithm 1 / Fig. 2)."""

from __future__ import annotations

import pytest

from repro.lang.ir import iter_block
from repro.nfactor.algorithm import (
    NFactor,
    NFactorConfig,
    count_source_loc,
    synthesize_model,
)
from repro.nfs import get_nf
from repro.symbolic.engine import EngineConfig


class TestPipeline:
    def test_synthesize_model_convenience(self):
        result = synthesize_model(get_nf("monitor").source, name="monitor")
        assert result.model.n_entries == 1
        assert not result.model.all_entries()[0].drops

    def test_slices_are_subsets_of_program(self, lb_result):
        all_sids = {s.sid for s in iter_block(lb_result.flat.block)}
        assert lb_result.pkt_slice <= all_sids
        assert lb_result.state_slice <= all_sids
        assert lb_result.union_slice <= all_sids

    def test_state_slice_contains_state_updates(self, lb_result):
        lines = lb_result.flat.source_lines(lb_result.state_slice)
        src = lb_result.program.source.splitlines()
        texts = [src[ln - 1].strip() for ln in lines if ln <= len(src)]
        assert any("rr_idx = (rr_idx + 1)" in t for t in texts)
        assert any("f2b_nat[cs_ftpl] = cs_btpl" in t for t in texts)

    def test_log_statements_pruned(self, lb_result):
        lines = lb_result.slice_source_lines()
        src = lb_result.program.source.splitlines()
        texts = [src[ln - 1].strip() for ln in lines if ln <= len(src)]
        assert not any("pass_stat" in t for t in texts)
        assert not any("frag_stat += 1" in t for t in texts)

    def test_stats_populated(self, lb_parametric):
        stats = lb_parametric.stats
        assert stats.source_loc > 0
        assert 0 < stats.slice_loc <= stats.source_loc
        assert stats.n_paths == stats.n_entries == 5
        assert stats.se_time_s > 0
        assert stats.slicing_time_s > 0
        assert 0 < stats.path_loc_avg <= stats.path_loc_max

    def test_paths_all_done(self, lb_result):
        assert all(p.status == "done" for p in lb_result.paths)

    def test_entry_param_exposed(self, lb_result):
        assert lb_result.pkt_param == "pkt"

    def test_normalize_report(self, lb_result):
        assert lb_result.normalize_report.shape == "callback"
        assert not lb_result.unfolded

    def test_balance_is_unfolded(self, balance_result):
        assert balance_result.unfolded

    def test_deterministic_synthesis(self):
        from repro.model.serialize import model_to_json

        spec = get_nf("nat")
        a = synthesize_model(spec.source, name="nat")
        b = synthesize_model(spec.source, name="nat")
        assert model_to_json(a.model) == model_to_json(b.model)

    def test_symbolic_config_override(self):
        """``parametric=True`` makes branch-read config symbolic: the
        hash branch of the non-deployed mode comes back."""
        spec = get_nf("loadbalancer")
        config = NFactorConfig(parametric=True)
        result = NFactor(spec.source, name="lb", config=config).synthesize()
        assert result.stats.n_paths == 5
        assert len(result.model.tables) > 1

    def test_concrete_configs_override(self):
        """The default keeps config concrete: with mode at its deployed
        value (ROUND_ROBIN) the hash branch disappears."""
        spec = get_nf("loadbalancer")
        result = NFactor(spec.source, name="lb").synthesize()
        assert result.stats.n_paths == 4
        assert len(result.model.tables) == 1


class TestOriginalExploration:
    def test_original_has_more_paths_than_slice(self, lb_result):
        nf = NFactor(get_nf("loadbalancer").source, name="lb")
        original, engine = nf.explore_original()
        n_orig = sum(1 for p in original if p.status == "done")
        assert n_orig > lb_result.stats.n_paths

    def test_monitor_logging_explodes_original(self, monitor_result):
        nf = NFactor(get_nf("monitor").source, name="monitor")
        original, _ = nf.explore_original()
        assert len(original) > 3  # log branches fork; slice has 1 path


class TestCountSourceLoc:
    def test_skips_blank_and_comments(self):
        source = "x = 1\n\n# comment\ny = 2  # trailing\n"
        assert count_source_loc(source) == 2

    def test_empty(self):
        assert count_source_loc("") == 0
