"""The gen/kill bit-vector dataflow solver.

Every analysis here is a distributive may-problem: a fact is a Python
``int`` bitset over indexed definitions or variables, join is ``|``,
and each node's transfer is ``gen | (fact & ~kill)`` with both masks
computed once by the caller.  The worklist is a heap keyed by reverse
postorder position along the direction of flow, so a node is usually
visited after all its predecessors.  The least fixpoint does not
depend on the visiting order; the order only cuts revisits —
snortlite's 436-node looped view takes about a third of the visits a
FIFO queue needs.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, Iterator, List, Tuple

from repro.cfg.graph import CFG, ENTRY, EXIT
from repro.obs import metrics as obs_metrics

Masks = Dict[int, int]


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _rpo(roots: List[int], succs: Dict[int, List[int]]) -> List[int]:
    """Reverse postorder from each root in turn, skipping nodes already seen."""
    seen = set()
    order: List[int] = []
    for root in roots:
        if root in seen:
            continue
        seen.add(root)
        post: List[int] = []
        stack = [(root, iter(succs[root]))]
        while stack:
            node, it = stack[-1]
            for succ in it:
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, iter(succs[succ])))
                    break
            else:
                post.append(node)
                stack.pop()
        order.extend(reversed(post))
    return order


def solve(
    cfg: CFG, gen: Masks, kill: Masks, boundary: int, forward: bool = True
) -> Tuple[Masks, Masks]:
    """Run a gen/kill problem to its least fixpoint; ``(before, after)``.

    ``gen``/``kill`` map nodes to masks (absent means 0); ``boundary``
    is the fact entering ENTRY (forward) or leaving EXIT (backward).
    For backward problems ``before[n]`` is the fact at the *exit* of
    ``n`` and ``after[n]`` at its entry, so callers treat the pair
    uniformly as (before-transfer, after-transfer).  Values never flow
    along virtual/pseudo edges, so those are excluded.
    """
    start = ENTRY if forward else EXIT
    flow_succs: Dict[int, List[int]] = {n: [] for n in cfg.nodes}
    flow_preds: Dict[int, List[int]] = {n: [] for n in cfg.nodes}
    for edge in cfg.edges():
        if not edge.virtual:
            flow_succs[edge.src].append(edge.dst)
            flow_preds[edge.dst].append(edge.src)
    if not forward:
        flow_succs, flow_preds = flow_preds, flow_succs
    order = _rpo([start] + sorted(cfg.nodes), flow_succs)
    pos = {n: i for i, n in enumerate(order)}
    preds = [[pos[p] for p in flow_preds[n]] for n in order]
    succs = [[pos[s] for s in flow_succs[n]] for n in order]
    keep = [~kill.get(n, 0) for n in order]
    gens = [gen.get(n, 0) for n in order]

    before = [0] * len(order)
    after = [0] * len(order)
    before[0] = boundary
    after[0] = gens[0] | (boundary & keep[0])
    # Position 0 is the boundary node: its facts are fixed, so it is
    # never queued.  A sorted list is already a valid heap.
    heap = list(range(1, len(order)))
    queued = [True] * len(order)
    queued[0] = False
    visits = 0
    while heap:
        i = heappop(heap)
        queued[i] = False
        visits += 1
        fact = 0
        for p in preds[i]:
            fact |= after[p]
        before[i] = fact
        out = gens[i] | (fact & keep[i])
        if out != after[i]:
            after[i] = out
            for s in succs[i]:
                if s and not queued[s]:
                    queued[s] = True
                    heappush(heap, s)
    obs_metrics.counter("dataflow.visits").inc(visits)
    return dict(zip(order, before)), dict(zip(order, after))
