"""Deployed-config synthesis against the parametric model.

The default synthesis keeps every configuration variable at its
deployed (module-level) value; ``NFactorConfig(parametric=True)`` keeps
branch-read config free and splits the model into per-config tables.
Under the deployed configuration the two models must behave alike, and
the solver outcomes that differ between them must be surfaced in
``SynthesisStats``.
"""

from __future__ import annotations

import copy

import pytest

from tests.conftest import synthesize_cached
from tests.test_model_compile import _workload
from repro.model.simulator import ModelSimulator
from repro.netverify.graph import generate_graph
from repro.netverify.verify import GraphVerifier, GraphVerifyConfig
from repro.nfs import nf_names
from repro.symbolic.expr import SApp, SDictVal, SVar, canon, mk_app
from repro.symbolic.solver import Solver

N_PACKETS = 600

#: Checks still undecided under the deployed config: none.  l2switch's
#: guards put a ``member`` atom under a top-level ``or``; the solver
#: decides them because its randomized draws set free ``member`` atoms.
DEPLOYED_UNKNOWNS = {name: 0 for name in nf_names()}


class TestSolverOutcomesSurfaced:
    def test_deployed_config_unknowns_and_truncation(self):
        for name in nf_names():
            stats = synthesize_cached(name).stats
            assert stats.solver_unknowns == DEPLOYED_UNKNOWNS[name], name
            assert stats.paths_truncated == 0, name

    def test_parametric_snortlite_has_unknowns(self):
        stats = synthesize_cached("snortlite", parametric=True).stats
        assert stats.solver_unknowns > 0
        assert stats.solver_unknowns <= stats.solver_checks


@pytest.mark.parametrize("name", nf_names())
def test_parametric_model_agrees_with_deployed(name):
    """The parametric model, interpreted with config read from the
    initial state, and the deployed-config model, compiled, send the
    same packets and end in the same state."""
    parametric = synthesize_cached(name, parametric=True)
    deployed = synthesize_cached(name)
    assert parametric.module_env == deployed.module_env
    packets = _workload(name, N_PACKETS, seed=20_261_017)

    reference = ModelSimulator(
        parametric.model,
        copy.deepcopy(parametric.module_env),
        pkt_param=parametric.pkt_param,
    )
    compiled = deployed.make_compiled_simulator()
    for i, pkt in enumerate(packets):
        sent_p = reference.process(pkt.copy())
        sent_d = compiled.process(pkt.copy())
        assert sent_p == sent_d, f"{name}: packet #{i} diverges"
    assert reference.state == compiled.state, f"{name}: end states diverge"
    for field in ("packets", "forwarded", "dropped_default", "dropped_entry"):
        assert getattr(reference.stats, field) == getattr(compiled.stats, field)


def _deploy(value, config):
    """``value`` with every ``cfg.*`` leaf replaced by its deployed int."""
    if isinstance(value, SVar):
        return config.get(value.name, value)
    if isinstance(value, SDictVal):
        key = None if value.key is None else _deploy(value.key, config)
        return SDictVal(value.dict_name, canon(key), value.path, key=key)
    if isinstance(value, SApp):
        if value.op == "member":
            return SApp("member", (value.args[0], _deploy(value.args[1], config)))
        if value.op == "dictlen":
            return value
        return mk_app(value.op, *(_deploy(a, config) for a in value.args))
    if isinstance(value, (tuple, list)):
        return type(value)(_deploy(v, config) for v in value)
    return value


def test_graph_verdict_loses_only_non_deployed_flows():
    """Verifying a graph of parametric models finds extra reaching
    spaces; each one is infeasible once config takes its deployed value,
    and they are exactly the spaces the deployed-config verdict lacks."""
    verify_config = GraphVerifyConfig(use_cache=False)
    graph = generate_graph(8, seed=1, width=4)
    deployed = GraphVerifier(graph, config=verify_config).verify()

    config = {}
    for name, node in list(graph.nodes.items()):
        result = synthesize_cached(node.model.name, parametric=True)
        for var, sym in result.sym_env.items():
            if isinstance(sym, SVar) and sym.name.startswith("cfg."):
                # cfg leaves are shared by name across nodes: the values
                # must agree for the pinning to mean "as deployed".
                value = int(result.module_env[var])
                assert config.setdefault(sym.name, value) == value
        graph.replace_model(name, result.model, model_key=f"{node.model_key}:p")
    parametric = GraphVerifier(graph, config=verify_config).verify()

    solver = Solver(cache=False)
    assert sorted(parametric.reachable) == sorted(deployed.reachable)
    vanished = 0
    for sink, spaces in parametric.reachable.items():
        off_config = sum(
            1
            for space in spaces
            if solver.check([_deploy(c, config) for c in space.constraints])
            .status == "unsat"
        )
        assert len(spaces) - off_config == len(deployed.reachable[sink]), sink
        vanished += off_config
    assert vanished == parametric.n_spaces - deployed.n_spaces > 0


@pytest.mark.parametrize("name", nf_names())
def test_parametric_config_leaf_admits_deployed_value(name):
    """Every free ``cfg.*`` leaf's domain holds its deployed value (e.g.
    l2switch's 48-bit ``BROADCAST``), so pinning it is satisfiable."""
    result = synthesize_cached(name, parametric=True)
    solver = Solver(cache=False)
    leaves = [
        (var, sym)
        for var, sym in result.sym_env.items()
        if isinstance(sym, SVar) and sym.name.startswith("cfg.")
    ]
    assert leaves, name
    for var, sym in leaves:
        pinned = mk_app("==", sym, int(result.module_env[var]))
        assert solver.check([pinned]).status == "sat", (name, var)
