"""Service-chain composition (paper §4, "Service Policy Composition").

PGA determines valid NF orders from per-NF behaviour models.  With
NFactor models the needed facts fall out directly:

* the **read set** — packet fields an NF's matches inspect;
* the **write set** — fields its forwarding actions rewrite.

An order places NF ``B`` after ``A`` safely when ``A``'s writes do not
clobber fields ``B`` matches on (otherwise ``B`` classifies rewritten
traffic, not the operator's intent).  ``compose_chains`` merges two
chain policies (preserving each chain's internal order) and ranks the
interleavings by conflict count — reproducing the paper's
``{FW, IDS} + {LB}`` → ``{FW, IDS, LB}`` example, because the LB
rewrites ``ip_dst``/``dport`` which both the firewall ACL and the IDS
rules match on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Any, Dict, List, Sequence, Set, Tuple

from repro.model.matchaction import NFModel
from repro.symbolic.expr import SApp, SDictVal, SVar, sym_vars


def match_fields(model: NFModel) -> Set[str]:
    """Packet fields the model's matches (flow and state keys) read."""
    fields: Set[str] = set()
    for entry in model.all_entries():
        for c in entry.guard():
            for leaf in sym_vars(c):
                if isinstance(leaf, SVar) and leaf.name.startswith("pkt."):
                    fields.add(leaf.name.split(".", 1)[1])
                elif isinstance(leaf, SApp) and leaf.op == "member":
                    for inner in sym_vars(leaf.args[1]):
                        if isinstance(inner, SVar) and inner.name.startswith("pkt."):
                            fields.add(inner.name.split(".", 1)[1])
    return fields


def rewrite_fields(model: NFModel) -> Set[str]:
    """Packet fields some forwarding entry rewrites."""
    fields: Set[str] = set()
    for entry in model.all_entries():
        fields |= set(entry.flow_transform())
    return fields


@dataclass
class ChainAnalysis:
    """Read/write interaction analysis of an ordered chain."""

    order: Tuple[str, ...]
    conflicts: List[Tuple[str, str, Set[str]]] = field(default_factory=list)

    @property
    def n_conflicts(self) -> int:
        return len(self.conflicts)

    def summary(self) -> str:
        chain = " -> ".join(self.order)
        if not self.conflicts:
            return f"{chain}: no rewrite/match conflicts"
        parts = "; ".join(
            f"{a} rewrites {sorted(fields)} read by {b}" for a, b, fields in self.conflicts
        )
        return f"{chain}: {self.n_conflicts} conflict(s) ({parts})"


def analyze_chain(chain: Sequence[Tuple[str, NFModel]]) -> ChainAnalysis:
    """Find upstream-rewrite/downstream-match conflicts in one order."""
    analysis = ChainAnalysis(order=tuple(name for name, _ in chain))
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            up_name, up_model = chain[i]
            down_name, down_model = chain[j]
            clobbered = rewrite_fields(up_model) & match_fields(down_model)
            if clobbered:
                analysis.conflicts.append((up_name, down_name, clobbered))
    return analysis


def _interleavings(a: Sequence, b: Sequence) -> List[Tuple]:
    """All merges of two sequences preserving each one's internal order."""
    if not a:
        return [tuple(b)]
    if not b:
        return [tuple(a)]
    out: List[Tuple] = []
    for rest in _interleavings(a[1:], b):
        out.append((a[0],) + rest)
    for rest in _interleavings(a, b[1:]):
        out.append((b[0],) + rest)
    return out


def compose_chains(
    chain_a: Sequence[Tuple[str, NFModel]],
    chain_b: Sequence[Tuple[str, NFModel]],
) -> List[ChainAnalysis]:
    """Rank all merges of two chain policies by conflict count.

    The first element is the recommended composition (fewest
    rewrite/match conflicts; ties broken by keeping chain A earliest).
    """
    analyses = [
        analyze_chain(order) for order in _interleavings(list(chain_a), list(chain_b))
    ]
    analyses.sort(key=lambda an: an.n_conflicts)
    return analyses


def compose_payload(ranked: Sequence[ChainAnalysis]) -> Dict[str, Any]:
    """The JSON ``repro compose --json`` and ``/v1/compose`` answer with."""
    return {
        "recommended": list(ranked[0].order),
        "orders": [
            {
                "order": list(an.order),
                "n_conflicts": an.n_conflicts,
                "conflicts": [
                    {"upstream": a, "downstream": b, "fields": sorted(fields)}
                    for a, b, fields in an.conflicts
                ],
            }
            for an in ranked
        ],
    }
