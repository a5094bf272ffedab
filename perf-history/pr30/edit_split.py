"""Per-edit time split of perfbench's verify-incremental edit script.

Run from a checkout's root:

    PYTHONPATH=src:perfbench python perf-history/pr30/edit_split.py [--replays N] [--drop PART ...]

It replays the workload's edits (each node's NF swapped for the next
pool NF, re-verified, swapped back, re-verified) on
``generate_graph(8, seed=1, width=4)`` with the solver cache off and a
fresh artifact directory per replay, and times each edit and, inside
it, ``GraphVerifier._lookup``, ``edge_key``, ``GraphVerifier._witnesses``,
``ArtifactStore.put_object`` and ``compute_edge_summary`` by wrapping
them.  It prints one JSON line: per-edit medians over the replays, their
median over the edits, the median cold verify, and the most
``pickle.loads`` calls the store made in one revert re-verify.

``--drop PART`` reverts one part of the edge-summary fast path at run
time, for a leave-one-out table (only on a tree that has all four
parts, not on its parent): ``decoded`` (the memory
tier holds bytes for every kind), ``delta`` (summaries store whole
fields and constraints), ``digest`` (keys encode every constraint's
``canon``) or ``witness`` (witnesses re-solved from the constraints).
"""
import argparse, gc, json, pickle, shutil, statistics, sys, tempfile, time
from collections import defaultdict

ap = argparse.ArgumentParser()
ap.add_argument("--drop", action="append", default=[])
ap.add_argument("--replays", type=int, default=3)
ap.add_argument("--label", default="")
args = ap.parse_args()

from repro import cache as artifact_cache
from repro.cache import store as store_mod
from repro.netverify import verify as nv
from repro.netverify import GraphVerifier, GraphVerifyConfig
import verify_incremental as vi

if "decoded" in args.drop:
    store_mod.DECODED_KINDS = frozenset()
if "digest" in args.drop:
    from repro.cache.keys import stable_fingerprint
    from repro.symbolic.expr import canon
    def space_fingerprint(space):
        return stable_fingerprint((
            tuple(sorted((k, canon(v)) for k, v in space.fields.items())),
            tuple(canon(c) for c in space.constraints),
        ))
    nv.space_fingerprint = space_fingerprint
if "witness" in args.drop:
    from repro.apps.verify import witness_pairs
    def _witnesses(self, reachable, cap):
        out = []
        for sink in sorted(reachable):
            for space in reachable[sink]:
                if len(out) >= cap:
                    return out
                w = witness_pairs(self.solver.check(space.constraints))
                if w is None:
                    continue
                out.append({"sink": sink, "trace": [[a, b] for a, b in space.trace], "assignment": dict(w)})
        return out
    GraphVerifier._witnesses = _witnesses
if "delta" in args.drop:
    from repro.apps.verify import HeaderSpace, push_space
    class FullSummary(nv.EdgeSummary):
        def apply(self, space):
            return [
                HeaderSpace(fields=dict(fields), constraints=list(cons),
                            trace=space.trace + list(delta), decided=space.decided and decided,
                            digest=digest, witness=witness)
                for fields, cons, delta, decided, digest, witness in self.outputs
            ]
    def compute_edge_summary(model, ns, space, solver):
        probe = HeaderSpace(fields=space.fields, constraints=space.constraints, digest=space.digest)
        return FullSummary(outputs=tuple(
            (tuple(o.fields.items()), tuple(o.constraints), tuple(o.trace), o.decided, o.digest, o.witness)
            for o in push_space(model, probe, ns, solver)))
    nv.compute_edge_summary = compute_edge_summary

acc = defaultdict(float)
def wrap(owner, name, label):
    real = getattr(owner, name)
    def timed(*a, **k):
        t0 = time.perf_counter()
        try:
            return real(*a, **k)
        finally:
            acc[label] += time.perf_counter() - t0
    setattr(owner, name, timed)

wrap(GraphVerifier, "_lookup", "lookup")
wrap(nv, "edge_key", "edge_key")
wrap(GraphVerifier, "_witnesses", "witnesses")
wrap(store_mod.ArtifactStore, "put_object", "put_object")
wrap(nv, "compute_edge_summary", "recompute")
loads_count = [0]
real_loads = pickle.loads
def counting_loads(data, *a, **k):
    loads_count[0] += 1
    return real_loads(data, *a, **k)
store_mod.pickle = type(sys)("pickle_proxy")
store_mod.pickle.loads = counting_loads
store_mod.pickle.dumps = pickle.dumps
store_mod.pickle.HIGHEST_PROTOCOL = pickle.HIGHEST_PROTOCOL

graph, pool = vi._setup()
nfs = sorted(pool)
edits = []
for node in sorted(graph.nodes):
    cur = nfs.index(graph.nodes[node].model.name)
    edits.append((node, nfs[(cur + 1) % len(nfs)]))

def verify(g):
    return GraphVerifier(g, config=GraphVerifyConfig(use_cache=True, solver_cache=False)).verify()

per_edit = defaultdict(lambda: defaultdict(list))
cold = []
revert_loads, revert_checks = [], []
work = tempfile.mkdtemp(prefix="split-")
for r in range(args.replays):
    d = f"{work}/r{r}"
    with artifact_cache.override(directory=d, enabled=True):
        gc.collect()
        t0 = time.perf_counter(); verify(graph); cold.append(time.perf_counter() - t0)
        for node, nf in edits:
            orig = graph.nodes[node]
            gc.collect()
            acc.clear()
            t0 = time.perf_counter()
            graph.replace_model(node, *pool[nf])
            verify(graph)
            graph.replace_model(node, orig.model, model_key=orig.model_key)
            l0 = loads_count[0]
            verify(graph)
            revert_loads.append(loads_count[0] - l0)
            total = time.perf_counter() - t0
            rec = per_edit[f"{node}<-{nf}"]
            rec["total"].append(total * 1000)
            for k, val in acc.items():
                rec[k].append(val * 1000)
    shutil.rmtree(d, ignore_errors=True)
shutil.rmtree(work, ignore_errors=True)

med = {e: {k: round(statistics.median(v), 2) for k, v in rec.items()} for e, rec in per_edit.items()}
keys = ["total", "recompute", "lookup", "edge_key", "witnesses", "put_object"]
summary = {k: round(statistics.median([m.get(k, 0.0) for m in med.values()]), 2) for k in keys}
print(json.dumps({"label": args.label, "drop": args.drop, "cold_s": round(statistics.median(cold), 3),
                  "median_over_edits": summary, "per_edit": med,
                  "max_revert_loads": max(revert_loads)}, sort_keys=True))
