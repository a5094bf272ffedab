"""Dataflow analyses over the CFG: reaching definitions, liveness, def-use."""

from repro.dataflow.framework import solve
from repro.dataflow.reaching import ReachingMasks, reaching_definitions, solve_reaching
from repro.dataflow.liveness import live_variables
from repro.dataflow.defuse import DefUseChains, def_use_chains

__all__ = [
    "solve",
    "ReachingMasks",
    "solve_reaching",
    "reaching_definitions",
    "live_variables",
    "DefUseChains",
    "def_use_chains",
]
