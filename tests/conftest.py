"""Shared fixtures: parsed corpus programs and cached syntheses.

Synthesis of the larger corpus NFs (snortlite in particular) is
expensive, so results are computed once per session and shared.
"""

from __future__ import annotations

import pytest

from repro.nfactor.algorithm import NFactor, NFactorConfig, SynthesisResult
from repro.nfs import get_nf
from repro.symbolic.engine import EngineConfig

_CACHE: dict = {}


@pytest.fixture(autouse=True)
def _isolated_artifact_cache(monkeypatch, tmp_path):
    """Keep tests off the user's persistent artifact cache.

    The artifact store (repro.cache) defaults to ``~/.cache/repro`` and
    is deliberately cross-process, which would let one test run warm
    the next and skew determinism/counter assertions.  Tests run with
    the store disabled by default; tests that exercise it opt back in
    with ``repro.cache.configure(...)`` / ``override(...)`` (explicit
    overrides beat these env vars) against their own tmp directory.
    Worker subprocesses inherit the env, so batch tests are covered too.
    """
    monkeypatch.setenv("REPRO_CACHE", "off")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "artifact-cache"))
    yield


def synthesize_cached(name: str, parametric: bool = False) -> SynthesisResult:
    """Synthesize an NF model once per test session.

    The default is the deployed-config model; ``parametric=True`` keeps
    branch-read config free (per-config tables, paper Fig. 6).

    ``artifact_cache=False`` directly (not just via the env fixture):
    session-scoped fixtures instantiate *before* function-scoped
    autouse fixtures, so the env vars above aren't in force yet, and a
    warm user cache would skip the very phases whose stats the tests
    assert on.
    """
    key = (name, parametric)
    if key not in _CACHE:
        spec = get_nf(name)
        config = NFactorConfig(
            engine=EngineConfig(max_paths=16384),
            parametric=parametric,
            artifact_cache=False,
        )
        _CACHE[key] = NFactor(spec.source, name=name, config=config).synthesize()
    return _CACHE[key]


@pytest.fixture(scope="session")
def lb_result() -> SynthesisResult:
    return synthesize_cached("loadbalancer")


@pytest.fixture(scope="session")
def nat_result() -> SynthesisResult:
    return synthesize_cached("nat")


@pytest.fixture(scope="session")
def firewall_result() -> SynthesisResult:
    return synthesize_cached("firewall")


@pytest.fixture(scope="session")
def monitor_result() -> SynthesisResult:
    return synthesize_cached("monitor")


@pytest.fixture(scope="session")
def balance_result() -> SynthesisResult:
    return synthesize_cached("balance")


@pytest.fixture(scope="session")
def snortlite_result() -> SynthesisResult:
    return synthesize_cached("snortlite")


@pytest.fixture(scope="session")
def lb_parametric() -> SynthesisResult:
    return synthesize_cached("loadbalancer", parametric=True)


@pytest.fixture(scope="session")
def firewall_parametric() -> SynthesisResult:
    return synthesize_cached("firewall", parametric=True)


@pytest.fixture(scope="session")
def balance_parametric() -> SynthesisResult:
    return synthesize_cached("balance", parametric=True)
