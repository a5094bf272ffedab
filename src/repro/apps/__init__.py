"""Applications of synthesized models (paper §4).

* :mod:`repro.apps.verify` — model-based transfer functions
  ``T(h, p, s)`` (:func:`~repro.apps.verify.push_space`), which
  :mod:`repro.netverify` pushes header spaces through, plus
  per-model invariant checks;
* :mod:`repro.apps.compose` — PGA-style service-chain composition;
* :mod:`repro.apps.testing` — BUZZ-style model-guided test-packet
  generation.
"""

from repro.apps.verify import HeaderSpace, find_forwarding_witness
from repro.apps.compose import ChainAnalysis, analyze_chain, compose_chains
from repro.apps.testing import TestCase, TestSuite, generate_tests, validate_suite

__all__ = [
    "HeaderSpace",
    "find_forwarding_witness",
    "ChainAnalysis",
    "analyze_chain",
    "compose_chains",
    "TestCase",
    "TestSuite",
    "generate_tests",
    "validate_suite",
]
