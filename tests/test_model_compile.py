"""Differential tests for the model compiler (:mod:`repro.model.compile`).

The compiler's contract is byte-identity of outcome with the
interpreted :class:`ModelSimulator`: same matched-entry sequence, same
sent packets, same state evolution, same ``SimStats`` counts for
everything except ``guard_evals`` (which the compiler exists to
reduce).  The main test here is a seeded-random fuzz driving ≥10k
packets per NF through both simulators across the full corpus; the
rest pins the error-path semantics (missing dict keys → no match,
raw-error propagation) and the dispatch/index construction details.
"""

from __future__ import annotations

import copy
import importlib.util
import logging
import pickle

import pytest

from tests.conftest import synthesize_cached
from repro import cache as artifact_cache
from repro.interp.interpreter import Env, Interpreter, NFRuntimeError
from repro.lang.parser import parse_function
from repro.model.actions import ActionCompileError
from repro.model.compile import (
    GUARDS_KIND,
    CompiledSimulator,
    _best_field,
    _entry_pins,
    compile_model,
    guard_key,
)
from repro.model.matchaction import NFModel, TableEntry
from repro.model.simulator import ModelSimulator
from repro.net.generator import TrafficGenerator, WorkloadSpec
from repro.net.packet import Packet
from repro.nfs import get_nf, nf_names
from repro.obs import metrics as obs_metrics
from repro.serve import jobs as serve_jobs
from repro.symbolic.expr import SApp, SDictVal, SVar, mk_app

N_FUZZ_PACKETS = 10_000


def make_entry(entry_id, config=(), flow=(), state=(), actions=()):
    return TableEntry(
        entry_id=entry_id,
        config=list(config),
        match_flow=list(flow),
        match_state=list(state),
        action_stmts=list(actions),
        pkt_action_stmts=[],
        state_action_stmts=[],
        sent=[],
        path_id=entry_id,
    )


def make_model(*entries):
    model = NFModel(name="t")
    for entry in entries:
        model.add_entry(entry)
    return model


class _RecordingInterp(ModelSimulator):
    """Interpreted simulator recording the matched-entry sequence."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seq = []

    def match_entry(self, pkt):
        entry = super().match_entry(pkt)
        self.seq.append(None if entry is None else entry.entry_id)
        return entry


class _RecordingCompiled(CompiledSimulator):
    """Compiled simulator recording the matched-entry sequence."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seq = []

    def _match(self, pkt):
        ce = super()._match(pkt)
        self.seq.append(None if ce is None else ce.entry_id)
        return ce


def _outcome_stats(stats):
    """The SimStats fields the compiler must reproduce exactly."""
    return (
        stats.packets,
        stats.forwarded,
        stats.dropped_default,
        stats.dropped_entry,
        stats.matched_entries,
    )


def _workload(name, n_packets, seed):
    spec = get_nf(name)
    workload = WorkloadSpec(
        n_packets=n_packets, seed=seed, interesting=spec.interesting or {}
    )
    return list(TrafficGenerator(workload).packets())


class TestCorpusDifferentialFuzz:
    """Compiled vs. interpreted over the whole corpus, deployed-config and
    parametric models, ≥10k packets each."""

    @pytest.mark.parametrize("name", nf_names())
    def test_compiled_matches_interpreted(self, name):
        self._fuzz(name, parametric=False)

    @pytest.mark.parametrize("name", nf_names())
    def test_parametric_compiled_matches_interpreted(self, name):
        self._fuzz(name, parametric=True)

    def _fuzz(self, name, parametric):
        result = synthesize_cached(name, parametric=parametric)
        packets = _workload(name, N_FUZZ_PACKETS, seed=20_260_808)

        interp = _RecordingInterp(
            result.model,
            copy.deepcopy(result.module_env),
            pkt_param=result.pkt_param,
        )
        compiled_model = compile_model(result.model, pkt_param=result.pkt_param)
        comp = _RecordingCompiled(
            compiled_model, copy.deepcopy(result.module_env)
        )
        # The same model rebuilt from its stored guard code, as a serve
        # worker loads it from the artifact store.
        stored = pickle.loads(pickle.dumps(compiled_model.code))
        loaded_model = compile_model(
            result.model, pkt_param=result.pkt_param, code=stored
        )
        loaded = _RecordingCompiled(
            loaded_model, copy.deepcopy(result.module_env)
        )

        for i, pkt in enumerate(packets):
            sent_i = interp.process(pkt.copy())
            sent_c = comp.process(pkt.copy())
            sent_l = loaded.process(pkt.copy())
            assert sent_i == sent_c == sent_l, (
                f"{name}: sent packets diverge at packet #{i}: "
                f"{sent_i} vs {sent_c} vs {sent_l}"
            )
        assert interp.seq == comp.seq == loaded.seq, (
            f"{name}: matched-entry sequences diverge"
        )
        assert (
            _outcome_stats(interp.stats)
            == _outcome_stats(comp.stats)
            == _outcome_stats(loaded.stats)
        )
        assert interp.state == comp.state == loaded.state, (
            f"{name}: end states diverge"
        )
        # Loaded code is the compiled code: every SimStats count agrees.
        assert loaded.stats == comp.stats
        # The dispatch walk happened for every packet.
        assert comp.stats.compiled_dispatches == len(packets)

    @pytest.mark.parametrize("name", nf_names())
    def test_index_and_dispatch_switches(self, name):
        """The scan and both compiled lowerings (dispatch on/off) agree,
        on the deployed-config model and on the parametric one (whose
        config conjuncts the compiled guards evaluate at run time)."""
        for parametric in (False, True):
            result = synthesize_cached(name, parametric=parametric)
            packets = _workload(name, 1000, seed=99)
            sims = {
                "scan": ModelSimulator(
                    result.model,
                    copy.deepcopy(result.module_env),
                    pkt_param=result.pkt_param,
                ),
                "compiled-flat": compile_model(
                    result.model,
                    pkt_param=result.pkt_param,
                    dispatch=False,
                ).simulator(copy.deepcopy(result.module_env)),
                "compiled-tree": compile_model(
                    result.model, pkt_param=result.pkt_param
                ).simulator(copy.deepcopy(result.module_env)),
            }
            for pkt in packets:
                outs = {k: sim.process(pkt.copy()) for k, sim in sims.items()}
                assert len({repr(o) for o in outs.values()}) == 1, outs
            baseline = _outcome_stats(sims["scan"].stats)
            for key, sim in sims.items():
                assert _outcome_stats(sim.stats) == baseline, (parametric, key)
                assert sim.state == sims["scan"].state, (parametric, key)

    def test_batch_equals_sequential(self):
        result = synthesize_cached("nat")
        packets = _workload("nat", 2000, seed=5)
        cm = compile_model(result.model, pkt_param=result.pkt_param)
        seq = cm.simulator(copy.deepcopy(result.module_env))
        bat = cm.simulator(copy.deepcopy(result.module_env))
        one_by_one = [seq.process(p.copy()) for p in packets]
        batched = bat.process_many([p.copy() for p in packets])
        assert one_by_one == batched
        assert _outcome_stats(seq.stats) == _outcome_stats(bat.stats)
        assert seq.stats.guard_evals == bat.stats.guard_evals
        assert seq.state == bat.state


PKT_DPORT = SVar("pkt.dport", 0, 65535)
PKT_SPORT = SVar("pkt.sport", 0, 65535)
PKT_PROTO = SVar("pkt.proto", 0, 255)
CFG_MODE = SVar("cfg.mode", 0, 3)
ST_X = SVar("st.x", 0, 100)


def _both_sims(model, state, **compile_kwargs):
    interp = ModelSimulator(model, copy.deepcopy(state))
    comp = compile_model(model, **compile_kwargs).simulator(copy.deepcopy(state))
    return interp, comp


class TestGuardErrorPaths:
    """The interpreter's error taxonomy survives compilation exactly."""

    def test_missing_dict_key_means_no_match(self):
        entry = make_entry(
            1, state=[mk_app("==", SDictVal("tbl", "k", key=PKT_DPORT), 7)]
        )
        interp, comp = _both_sims(make_model(entry), {"tbl": {80: 7}})
        hit, miss = Packet(dport=80), Packet(dport=81)
        for sim in (interp, comp):
            assert sim.match_entry(hit) is entry
            assert sim.match_entry(miss) is None  # GuardEvalError -> no match
            assert sim.process(miss.copy()) == []
        assert interp.stats.dropped_default == comp.stats.dropped_default == 1

    def test_missing_state_variable_means_no_match(self):
        entry = make_entry(1, state=[mk_app("==", ST_X, 1)])
        interp, comp = _both_sims(make_model(entry), {})
        for sim in (interp, comp):
            assert sim.match_entry(Packet()) is None

    def test_failed_op_means_no_match(self):
        # "str" + int raises TypeError inside the op application, which
        # the interpreter converts to GuardEvalError -> guard false.
        entry = make_entry(
            1, state=[SApp("==", (SApp("+", (ST_X, 1)), 2))]
        )
        interp, comp = _both_sims(make_model(entry), {"x": "oops"})
        for sim in (interp, comp):
            assert sim.match_entry(Packet()) is None

    def test_member_on_non_container_raises_raw(self):
        # `key in 5` is a TypeError the interpreter does NOT catch; the
        # compiled guard must propagate it raw, not eat it as no-match.
        entry = make_entry(1, state=[SApp("member", ("tbl", PKT_DPORT))])
        interp, comp = _both_sims(make_model(entry), {"tbl": 5})
        for sim in (interp, comp):
            with pytest.raises(TypeError):
                sim.process(Packet(dport=80))

    def test_dict_value_path_error_raises_raw(self):
        # Presence check passes, then tuple path indexing fails: raw
        # IndexError from both simulators.
        entry = make_entry(
            1,
            state=[
                mk_app(
                    "==", SDictVal("tbl", "k", path=(5,), key=PKT_DPORT), 1
                )
            ],
        )
        interp, comp = _both_sims(make_model(entry), {"tbl": {80: (1, 2)}})
        for sim in (interp, comp):
            with pytest.raises(IndexError):
                sim.process(Packet(dport=80))

    def test_lazy_and_guards_dict_read(self):
        # The classic alias-chain shape: membership test guards the
        # read, so missing keys never error out the conjunct.
        read = mk_app("==", SDictVal("tbl", "k", key=PKT_DPORT), 1)
        guard = SApp("and", (SApp("member", ("tbl", PKT_DPORT)), read))
        entry = make_entry(1, state=[guard])
        interp, comp = _both_sims(make_model(entry), {"tbl": {80: 1}})
        for sim in (interp, comp):
            assert sim.match_entry(Packet(dport=80)) is entry
            assert sim.match_entry(Packet(dport=9)) is None


def _action_body(source):
    """The IR statements of ``def h(pkt):`` + ``source`` (one per line)."""
    lines = "".join(f"    {line}\n" for line in source.strip().splitlines())
    return parse_function(f"def h(pkt):\n{lines}").body


def _run_reference(stmts, state):
    """``(exception, state, sent)`` of ``stmts`` run as one action by
    the reference interpreter."""
    interp = Interpreter()
    state = copy.deepcopy(state)
    try:
        interp.exec_block(stmts, Env(globals=state), None)
    except Exception as err:  # any error: the caller compares them
        return err, state, interp.sent
    return None, state, interp.sent


def _run_compiled(stmts, state):
    """The same triple from the compiled action functions."""
    ce = compile_model(make_model(make_entry(1, actions=stmts)))._entries[0]
    state, sent = copy.deepcopy(state), []
    try:
        for action in ce.actions:
            action(state, sent)
    except Exception as err:  # any error: the caller compares them
        return err, state, sent
    return None, state, sent


def _run_actions_both(stmts, state):
    return _run_reference(stmts, state), _run_compiled(stmts, state)


def _same_outcome(ref, comp):
    (ref_exc, ref_state, ref_sent), (c_exc, c_state, c_sent) = ref, comp
    assert type(ref_exc) is type(c_exc)
    assert str(ref_exc) == str(c_exc)
    assert getattr(ref_exc, "line", None) == getattr(c_exc, "line", None)
    assert ref_state == c_state
    assert ref_sent == c_sent


def _no_interpreter(*_args, **_kwargs):
    raise AssertionError("interpreter ran on the compiled path")


#: (failing action statement, state) per lowered statement kind.
_ACTION_FAILURES = {
    "undefined-name": ("x = nope + 1", {}),
    "missing-key-read": ("x = tbl[5]", {"tbl": {1: 2}}),
    "missing-key-del": ("del tbl[5]", {"tbl": {1: 2}}),
    "bad-subscript-store": ("lst[10] = 1", {"lst": [0, 1]}),
    "unhashable-key-store": ("tbl[[1]] = 1", {"tbl": {}}),
    "tuple-unpack-length": ("a, b = (1, 2, 3)", {}),
    "tuple-unpack-non-sequence": ("a, b = 7", {}),
    "packet-setattr": ("pkt.dport = 70000", {}),
    "packet-setattr-type": ("pkt.dport = 'x'", {}),
    "aug-incompatible": ("x += 'no'", {"x": 1}),
    "aug-subscript-missing": ("tbl[9] += 1", {"tbl": {}}),
    "len-of-int": ("y = len(x)", {"x": 5}),
    "method-failure": ("y = q.pop()", {"q": []}),
    "send-undefined": ("send_packet(nope)", {}),
}


class TestActionErrorPaths:
    """A failing compiled action raises what the interpreter raises, with
    the same partial effects (none beyond the interpreter's own)."""

    @pytest.mark.parametrize("kind", sorted(_ACTION_FAILURES))
    def test_statement_level_identity(self, kind):
        failing, state = _ACTION_FAILURES[kind]
        stmts = _action_body(f"send_packet(pkt)\nz = 1\n{failing}\nw = 2")
        state = dict(state, pkt=Packet(dport=80))
        ref, comp = _run_actions_both(stmts, state)
        assert ref[0] is not None
        _same_outcome(ref, comp)
        assert "w" not in comp[1] and comp[1]["z"] == 1

    @pytest.mark.parametrize("kind", sorted(_ACTION_FAILURES))
    def test_simulator_level_identity(self, kind):
        failing, state = _ACTION_FAILURES[kind]
        stmts = _action_body(f"send_packet(pkt)\nz = 1\n{failing}\nw = 2")
        model = make_model(make_entry(7, actions=stmts))
        interp, comp = _both_sims(model, state)
        errors = []
        for sim in (interp, comp):
            with pytest.raises(Exception) as info:
                sim.process(Packet(dport=80))
            errors.append(info.value)
        ref_exc, c_exc = errors
        assert type(ref_exc) is type(c_exc)
        assert str(ref_exc) == str(c_exc)
        if isinstance(ref_exc, NFRuntimeError):
            assert str(c_exc).startswith("model action of entry 7 failed: ")
        assert interp.state == comp.state
        assert "pkt" not in comp.state
        assert _outcome_stats(interp.stats) == _outcome_stats(comp.stats)

    def test_statement_outside_the_surface_is_a_compile_error(self):
        for source in (
            "if pkt.dport == 80:\n    x = 1",
            "return",
            "pass",
            "x = recv_packet()",
            "x = helper(pkt)",
            "x = 1 + q.pop()",
            "a, b = q.pop()",
            "x = tbl[1] = q.pop()",
            "x = 1\nx, tbl[x] = (2, 3)",
        ):
            stmts = _action_body(source)
            with pytest.raises(ActionCompileError):
                compile_model(make_model(make_entry(1, actions=stmts)))


class TestActionLowering:
    """Generated actions compute the interpreter's values on the
    success path, statement by statement."""

    SOURCE = """
key = (pkt.ip_src, pkt.sport)
tbl[key] = [pkt.dport, 0]
cnt[key] = 1
cnt[key] += 5
n = len(tbl) + hash(key) % 7 + cnt[key]
pkt.ttl -= 1
pkt.dport = tbl[key][0] if n > 3 else 9
a, (b, c) = (1, (2, 3))
d = {a: b, 'k': [c, -c, ~c, +c]}
e = (a and 0) or (b and 'x') or c
f = not e
g = a in d and 'k' in d and 5 not in d and a is not None
h = q.pop(0)
q.append(h * 3)
q.insert(0, 4)
q.remove(4)
i = d.get(9, 'dflt')
j = sorted(d.keys()) if False else list(range(3))
k = xs + [1]
xs += [2]
del tbl[key]
lst.clear()
x = y = pkt.sport // 3 ** 2
send_packet(pkt, h)
send_packet(pkt)
pkt.ttl = 3
"""

    def test_success_path_identity(self, monkeypatch):
        stmts = _action_body(self.SOURCE)
        xs = [0]
        state = {
            "pkt": Packet(ip_src=3, sport=99, dport=80, ttl=9),
            "tbl": {},
            "cnt": {},
            "q": [10, 20],
            "xs": xs,
            "ys": xs,
            "lst": [1, 2],
        }
        ref = _run_reference(stmts, state)
        assert ref[0] is None, ref[0]
        # The success path never falls back on the interpreter.
        monkeypatch.setattr(Interpreter, "exec_stmt", _no_interpreter)
        comp = _run_compiled(stmts, state)
        _same_outcome(ref, comp)
        # ``xs += [2]`` rebinds (never extends in place), so the alias
        # ``ys`` keeps the old list in both runs; a sent packet is a
        # copy, untouched by the later ``pkt.ttl = 3``.
        assert comp[1]["ys"] == [0] and comp[1]["xs"] == [0, 2]
        assert [out.ttl for out, _port in comp[2]] == [8, 8]

    def test_shared_statements_compile_once(self):
        stmts = _action_body("x = 1\ny = x + 1\nsend_packet(pkt)")
        model = make_model(
            make_entry(1, actions=stmts),
            make_entry(2, actions=stmts[1:] + stmts),
        )
        cm = compile_model(model)
        first, second = cm._entries
        assert len(first.actions) == 3 and len(second.actions) == 5
        assert set(first.actions) == set(second.actions)
        assert second.actions[:2] == first.actions[1:]

    def test_no_interpreter_on_the_compiled_path(self, monkeypatch):
        """Every corpus NF simulates through the compiled actions with
        the interpreter disabled, and agrees with the reference run."""
        for name in nf_names():
            result = synthesize_cached(name)
            packets = _workload(name, 500, seed=11)
            ref = ModelSimulator(
                result.model,
                copy.deepcopy(result.module_env),
                pkt_param=result.pkt_param,
            )
            want = [ref.process(pkt.copy()) for pkt in packets]
            cm = compile_model(result.model, pkt_param=result.pkt_param)
            with monkeypatch.context() as patch:
                patch.setattr(Interpreter, "exec_stmt", _no_interpreter)
                patch.setattr(Interpreter, "eval_expr", _no_interpreter)
                sim = cm.simulator(copy.deepcopy(result.module_env))
                got = sim.process_many([pkt.copy() for pkt in packets])
            assert got == want, name
            assert sim.state == ref.state, name


class TestConfigFolding:
    """Config folds at synthesis time (the deployed-config default); the
    config conjuncts of a parametric model are evaluated at run time."""

    def test_false_config_never_matches(self):
        live = make_entry(1, config=[mk_app("==", CFG_MODE, 1)],
                          flow=[mk_app("==", PKT_DPORT, 80)])
        dead = make_entry(2, config=[mk_app("==", CFG_MODE, 2)],
                          flow=[mk_app("==", PKT_DPORT, 80)])
        model = make_model(dead, live)
        for state, hit in (({"mode": 1}, live), ({"mode": 2}, dead)):
            interp, comp = _both_sims(model, state)
            assert interp.match_entry(Packet(dport=80)) is hit
            assert comp.match_entry(Packet(dport=80)) is hit

    def test_unevaluable_config_never_matches(self):
        # Missing config var -> the guard raises GuardEvalError on every
        # packet -> never matches, in both simulators.
        entry = make_entry(1, config=[mk_app("==", SVar("cfg.gone"), 1)])
        interp, comp = _both_sims(make_model(entry), {})
        assert interp.match_entry(Packet()) is None
        assert comp.match_entry(Packet()) is None

    def test_corpus_pruning_is_substantial_on_snortlite(self):
        deployed = synthesize_cached("snortlite")
        parametric = synthesize_cached("snortlite", parametric=True)
        assert not any(e.config for e in deployed.model.all_entries())
        assert deployed.model.n_entries * 5 < parametric.model.n_entries
        cm = compile_model(parametric.model, pkt_param=parametric.pkt_param)
        assert cm.n_entries == parametric.model.n_entries
        assert cm.compile_seconds > 0.0


class TestDispatchTree:
    def test_tie_break_picks_min_name(self):
        coverage = {"sport": 2, "dport": 2, "proto": 1}
        assert _best_field(coverage) == "dport"
        assert _best_field({"a": 1, "b": 1}) is None
        assert _best_field({}) is None

    def test_index_field_tie_break_is_min_name(self):
        # Satellite pin: equal coverage on sport/dport must pick the
        # alphabetically smallest field, deterministically.
        entries = [
            make_entry(1, flow=[mk_app("==", PKT_DPORT, 80),
                                mk_app("==", PKT_SPORT, 1)]),
            make_entry(2, flow=[mk_app("==", PKT_DPORT, 443),
                                mk_app("==", PKT_SPORT, 2)]),
        ]
        cm = compile_model(make_model(*entries))
        assert cm._root.field == "dport"

    def test_pins_from_and_chains_and_closed_intervals(self):
        entry = make_entry(
            1,
            flow=[
                SApp("and", (
                    SApp("==", (PKT_PROTO, 6)),
                    SApp("<=", (23, PKT_DPORT)),
                    SApp("<=", (PKT_DPORT, 23)),
                )),
            ],
        )
        pins = _entry_pins(entry)
        assert pins == {"proto": 6, "dport": 23}

    def test_negated_and_or_arms_do_not_pin(self):
        entry = make_entry(
            1,
            flow=[
                SApp("not", (SApp("==", (PKT_PROTO, 6)),)),
                SApp("or", (SApp("==", (PKT_DPORT, 80)),
                            SApp("==", (PKT_DPORT, 443)))),
            ],
        )
        assert _entry_pins(entry) == {}

    def test_multi_field_dispatch_preserves_priority(self):
        entries = [
            make_entry(1, flow=[mk_app("==", PKT_PROTO, 6),
                                mk_app("==", PKT_DPORT, 80)]),
            make_entry(2, flow=[mk_app("==", PKT_PROTO, 6),
                                mk_app("==", PKT_DPORT, 443)]),
            make_entry(3, flow=[mk_app("==", PKT_PROTO, 17)]),
            make_entry(4, flow=[]),  # residual catch-all
        ]
        model = make_model(*entries)
        interp, comp = _both_sims(model, {})
        for pkt in (
            Packet(proto=6, dport=80),
            Packet(proto=6, dport=443),
            Packet(proto=6, dport=22),
            Packet(proto=17, dport=80),
            Packet(proto=1),
        ):
            a = interp.match_entry(pkt)
            b = comp.match_entry(pkt)
            assert a is b, (pkt, a, b)
        # The catch-all wins only when nothing more specific matches.
        assert comp.match_entry(Packet(proto=1)) is entries[3]


class TestServeSimulate:
    def test_compiled_and_interpreted_handlers_agree(self):
        from repro.serve.jobs import _op_simulate

        body = {
            "nf": "firewall",
            "packets": [
                {"proto": 6, "dport": 80, "tcp_flags": 2},
                {"proto": 17, "dport": 53},
                {},
            ],
        }
        got = _op_simulate(dict(body))
        result = synthesize_cached("firewall")
        ref = ModelSimulator(
            result.model,
            copy.deepcopy(result.module_env),
            pkt_param=result.pkt_param,
        )
        want = [ref.process(Packet.from_dict(p)) for p in body["packets"]]
        assert got["compiled"] is True
        assert got["outputs"] == [
            {
                "forwarded": bool(sent),
                "sent": [
                    {"packet": out.to_dict(), "port": port} for out, port in sent
                ],
            }
            for sent in want
        ]
        for key in ("packets", "forwarded", "dropped_default", "dropped_entry"):
            assert got["stats"][key] == getattr(ref.stats, key)
        assert got["stats"]["compiled_dispatches"] == 3


_SIM_BODY = {
    "nf": "snortlite",
    "packets": [
        {"proto": 6, "dport": 80, "tcp_flags": 2},
        {"proto": 17, "dport": 53},
        {"proto": 6, "sport": 1234, "dport": 22},
        {},
    ],
}


@pytest.fixture
def serve_worker(tmp_path):
    """A serve worker's view: an enabled artifact store, an empty
    compiled-model memo and a fresh metrics registry."""
    registry = obs_metrics.MetricsRegistry()
    previous = obs_metrics.install(registry)
    serve_jobs._COMPILED_MEMO.clear()
    try:
        with artifact_cache.override(directory=str(tmp_path / "cas"), enabled=True):
            yield registry
    finally:
        serve_jobs._COMPILED_MEMO.clear()
        obs_metrics.uninstall(previous)


def _compiles(registry):
    return registry.histogram("sim.compile_seconds").as_dict()["count"]


def _simulate_as_new_worker(body=_SIM_BODY):
    """One simulate request in a worker whose memo is empty."""
    serve_jobs._COMPILED_MEMO.clear()
    return serve_jobs._op_simulate(dict(body))


#: A reply that nat drops unless an earlier packet opened its port,
#: then the outbound packet that opens it.
_NAT_BODY = {
    "nf": "nat",
    "packets": [
        {"ip_dst": 203 * 2**24 + 113 * 2**8 + 1, "dport": 20000, "proto": 6,
         "ttl": 64},
        {"ip_src": 10 * 2**24 + 5, "sport": 1111, "ip_dst": 8 * 2**24 + 8,
         "proto": 6, "ttl": 64},
    ],
}


class TestGuardCodeTier:
    """Guard code is compiled once per model and loaded everywhere else."""

    def test_second_worker_loads_instead_of_compiling(self, serve_worker):
        first = _simulate_as_new_worker()
        second = _simulate_as_new_worker()
        assert first == second
        assert _compiles(serve_worker) == 1
        assert serve_worker.counter("sim.guard_loads").value == 1

    def test_memo_hit_skips_the_sim_tier(self, serve_worker):
        _simulate_as_new_worker()
        counters = artifact_cache.get_store().counters
        hits = counters.get("kind.sim.hits", 0)
        misses = counters.get("kind.sim.misses", 0)
        serve_jobs._op_simulate(dict(_SIM_BODY))
        assert counters.get("kind.sim.hits", 0) == hits
        assert counters.get("kind.sim.misses", 0) == misses

    def test_memo_hit_simulates_from_the_initial_state(self, serve_worker):
        fresh = [_simulate_as_new_worker(_NAT_BODY) for _ in range(2)]
        assert [out["forwarded"] for out in fresh[0]["outputs"]] == [False, True]
        serve_jobs._COMPILED_MEMO.clear()
        memoized = [serve_jobs._op_simulate(dict(_NAT_BODY)) for _ in range(2)]
        assert memoized == fresh

    def test_memo_hit_neither_compiles_nor_loads(self, serve_worker):
        _simulate_as_new_worker()
        serve_jobs._op_simulate(dict(_SIM_BODY))
        assert _compiles(serve_worker) == 1
        assert serve_worker.counter("sim.guard_loads").value == 0

    @pytest.mark.parametrize(
        "damage",
        ["marshal", "consts-size", "consts-type", "pair-shape", "wrong-code"],
    )
    def test_bad_stored_code_is_a_logged_miss(self, serve_worker, caplog, damage):
        good = _simulate_as_new_worker()
        key, (model, _env, pkt_param) = serve_jobs._sim_bundle(_SIM_BODY)
        store = artifact_cache.get_store()
        blob, consts = store.get_object(GUARDS_KIND, guard_key(key))
        other = compile_model(synthesize_cached("nat").model).code
        bad = {
            "marshal": (blob[: len(blob) // 2], consts),
            "consts-size": (blob, consts + (0,)),
            "consts-type": (blob, list(consts)),
            "pair-shape": (blob, consts, None),
            "wrong-code": other,
        }[damage]
        store.put_object(GUARDS_KIND, guard_key(key), bad)
        hits = store.counters.get("kind.guards.hits", 0)
        misses = store.counters.get("kind.guards.misses", 0)
        with caplog.at_level(logging.WARNING, logger="repro.cache"):
            again = _simulate_as_new_worker()
        assert again == good
        assert _compiles(serve_worker) == 2
        assert serve_worker.counter("sim.guard_loads").value == 0
        # A rejected pair is a store miss, never a hit.
        assert store.counters.get("kind.guards.hits", 0) == hits
        assert store.counters["kind.guards.misses"] == misses + 1
        assert [
            r for r in caplog.records if "failed to load" in r.getMessage()
        ], caplog.text
        # The recompile overwrote the bad pair: the next worker loads.
        assert _simulate_as_new_worker() == good
        assert _compiles(serve_worker) == 2
        assert serve_worker.counter("sim.guard_loads").value == 1

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_wrong_action_count_is_a_logged_miss(self, serve_worker, caplog, delta):
        good = _simulate_as_new_worker()
        key, (model, _env, pkt_param) = serve_jobs._sim_bundle(_SIM_BODY)
        # Code for the same entries with one action statement more or
        # fewer: same guards, same consts, a different action count.
        other = copy.deepcopy(model)
        entries = other.all_entries()
        if delta > 0:
            entries[0].action_stmts.append(_action_body("spare = 1")[0])
        else:
            victim = entries[0].action_stmts[-1]
            for entry in entries:
                entry.action_stmts = [
                    s for s in entry.action_stmts if s is not victim
                ]
        bad = compile_model(other, pkt_param=pkt_param).code
        store = artifact_cache.get_store()
        assert len(bad[1]) == len(store.get_object(GUARDS_KIND, guard_key(key))[1])
        store.put_object(GUARDS_KIND, guard_key(key), bad)
        misses = store.counters.get("kind.guards.misses", 0)
        with caplog.at_level(logging.WARNING, logger="repro.cache"):
            assert _simulate_as_new_worker() == good
        assert store.counters["kind.guards.misses"] == misses + 1
        assert _compiles(serve_worker) == 2
        assert serve_worker.counter("sim.guard_loads").value == 0
        assert [
            r for r in caplog.records if "failed to load" in r.getMessage()
        ], caplog.text

    def test_other_python_version_never_loads(self, serve_worker, monkeypatch):
        good = _simulate_as_new_worker()
        key, _bundle = serve_jobs._sim_bundle(_SIM_BODY)
        stored_key = guard_key(key)
        monkeypatch.setattr(importlib.util, "MAGIC_NUMBER", b"\x00\x00\r\n")
        assert guard_key(key) != stored_key
        misses = artifact_cache.get_store().counters.get("kind.guards.misses", 0)
        assert _simulate_as_new_worker() == good
        assert _compiles(serve_worker) == 2
        assert serve_worker.counter("sim.guard_loads").value == 0
        assert (
            artifact_cache.get_store().counters["kind.guards.misses"] == misses + 1
        )

    def test_cache_off_compiles_every_miss(self, serve_worker):
        with artifact_cache.override(enabled=False):
            first = _simulate_as_new_worker()
            assert _simulate_as_new_worker() == first
        assert _compiles(serve_worker) == 2
        assert serve_worker.counter("sim.guard_loads").value == 0
