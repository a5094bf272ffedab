"""Def-use chains: the data-dependence edges of the PDG.

For each statement ``s`` and each variable ``v`` it uses, the chain
records every definition site of ``v`` that reaches ``s``.  The paper's
dependency analysis ("the value of an RHS variable in a statement
depends on the preceding statements where that variable is on the LHS",
§2.1) is exactly this relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.cfg.graph import CFG
from repro.dataflow.reaching import INITIAL, stmt_reaching
from repro.lang.ir import Stmt, stmt_uses


@dataclass
class DefUseChains:
    """Data dependences of one analysed block.

    ``deps[sid]`` maps each used variable to the sids of reaching
    definitions (:data:`~repro.dataflow.reaching.INITIAL` marks values
    flowing in from outside the block).
    """

    deps: Dict[int, Dict[str, Set[int]]] = field(default_factory=dict)

    def def_sites(self, sid: int, var: str) -> Set[int]:
        """Definition sites of ``var`` reaching statement ``sid``."""
        return self.deps.get(sid, {}).get(var, set())

    def data_preds(self, sid: int) -> Set[int]:
        """All statements ``sid`` is data dependent on (INITIAL excluded)."""
        out: Set[int] = set()
        for sites in self.deps.get(sid, {}).values():
            out |= sites
        out.discard(INITIAL)
        return out

    def uses_of_def(self, def_sid: int) -> List[Tuple[int, str]]:
        """All ``(use_sid, var)`` pairs this definition reaches (forward view)."""
        out: List[Tuple[int, str]] = []
        for use_sid, per_var in self.deps.items():
            for var, sites in per_var.items():
                if def_sid in sites:
                    out.append((use_sid, var))
        return out


def def_use_chains(
    cfg: CFG,
    stmts: Dict[int, Stmt],
    entry_vars: Set[str],
) -> DefUseChains:
    """Compute def-use chains from reaching definitions."""
    rd = stmt_reaching(cfg, stmts, entry_vars)
    chains = DefUseChains()
    for sid, stmt in stmts.items():
        uses = stmt_uses(stmt)
        if uses:
            chains.deps[sid] = {var: rd.sites(sid, var) for var in uses}
    return chains
