"""Network-wide verification over service graphs (paper §4, SymNet-style).

One forward pass pushes header spaces through a DAG of synthesized
models; a linear chain is just a path graph (:func:`path_graph`), so
``repro verify`` and ``repro verify-graph`` share this one verifier:

* :mod:`repro.netverify.graph` — :class:`ServiceGraph`, the DAG of
  model-bound nodes, plus builders (``build_graph`` from explicit
  node/edge lists, ``path_graph`` from a chain, ``generate_graph`` for
  seeded layered topologies).
* :mod:`repro.netverify.verify` — :class:`GraphVerifier`, whose hot
  path is a per-edge transfer-summary cache: each
  ``(model key, input-space fingerprint)`` pair memoizes the symbolic
  output spaces of pushing that space through that model, persisted as
  the ``edge`` tier of the artifact store.  A warm re-verification
  after a single NF edit or topology rewire recomputes only the edges
  downstream of the dirty node; independent edges are explored in
  parallel worker processes with a deterministic merge, byte-identical
  to the sequential order.  :func:`verdict_payload` is the JSON every
  entry point answers with.

See docs/internals.md §14 for the architecture and the determinism
argument.
"""

from repro.netverify.graph import ServiceGraph, build_graph, generate_graph, path_graph
from repro.netverify.verify import (
    GraphVerdict,
    GraphVerifier,
    GraphVerifyConfig,
    VerifyStats,
    verdict_payload,
)

__all__ = [
    "ServiceGraph",
    "build_graph",
    "generate_graph",
    "path_graph",
    "GraphVerifier",
    "GraphVerifyConfig",
    "GraphVerdict",
    "VerifyStats",
    "verdict_payload",
]
