#!/usr/bin/env python3
"""Paper §4: verification and service-chain composition with models.

1. **Stateful invariant checking** — "the firewall never forwards a
   connection initiated from the untrusted side", checked on the model
   of the deployed configuration, then on the parametric model to show
   that the property depends on the configuration.
2. **Header-space reachability** through a firewall → load-balancer
   chain, verified as a path graph, with the verdict's status and the
   LB's rewrite visible in the output space.
3. **Service policy composition** — the paper's {FW, IDS} + {LB}
   example, recovering the {FW, IDS, LB} order.

Run:  python examples/verify_chain.py [--no-cache]

``--no-cache`` keeps the artifact store off, so the run neither reads
nor writes edge summaries.
"""

import argparse

from repro import cache as artifact_cache
from repro.apps.compose import compose_chains
from repro.apps.verify import find_forwarding_witness
from repro.netverify import GraphVerifier, path_graph
from repro.nfactor.algorithm import NFactorConfig, synthesize_model
from repro.nfs import get_nf
from repro.symbolic.expr import SVar, mk_app

FLAGS = SVar("pkt.tcp_flags", 0, 31)
PROTO = SVar("pkt.proto", 0, 255)
IN_PORT = SVar("pkt.in_port", 0, 255)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--no-cache", action="store_true", help="keep the artifact store off"
    )
    if parser.parse_args().no_cache:
        artifact_cache.configure(enabled=False)

    print("synthesizing firewall, IDS and load-balancer models ...")
    fw = synthesize_model(get_nf("firewall").source, name="firewall")
    lb = synthesize_model(get_nf("loadbalancer").source, name="loadbalancer")
    ids = synthesize_model(get_nf("snortlite").source, name="snortlite")
    print("done\n")

    print("=" * 72)
    print("1. Invariant: untrusted side cannot initiate connections")
    print("=" * 72)
    syn_only = mk_app(
        "and",
        mk_app("!=", mk_app("&", FLAGS, 2), 0),
        mk_app("==", mk_app("&", FLAGS, 16), 0),
    )
    property_negation = [mk_app("==", PROTO, 6), mk_app("!=", IN_PORT, 0), syn_only]

    witness = find_forwarding_witness(fw.model, property_negation, empty_state=True)
    print(f"   under the deployed config: "
          f"{'HOLDS (no witness)' if witness is None else 'VIOLATED'}")

    # The parametric model keeps config free: one table per configuration.
    fw_all = synthesize_model(
        get_nf("firewall").source, name="firewall",
        config=NFactorConfig(parametric=True),
    )
    witness = find_forwarding_witness(
        fw_all.model, property_negation, empty_state=True
    )
    if witness is not None:
        entry, assignment = witness
        trusted = assignment.get("v:cfg.TRUSTED_PORT")
        print(f"   over all configs: VIOLATED — e.g. with TRUSTED_PORT={trusted} "
              f"(entry {entry.entry_id}); the property depends on the config")

    print()
    print("=" * 72)
    print("2. Reachability through firewall -> load balancer")
    print("=" * 72)
    verdict = GraphVerifier(path_graph([("fw", fw.model), ("lb", lb.model)])).verify()
    out_spaces = verdict.reachable["lb#1"]
    print(f"   {verdict.status}: {len(out_spaces)} end-to-end forwarding behaviours")
    for s in out_spaces[:4]:
        hops = " -> ".join(f"{nf}#{eid}" for nf, eid in s.trace)
        print(f"   via {hops}: ip_src becomes {s.fields['ip_src']!r}")

    print()
    print("=" * 72)
    print("3. Composing the policies {FW, IDS} and {LB} (paper example)")
    print("=" * 72)
    ranked = compose_chains(
        [("FW", fw.model), ("IDS", ids.model)], [("LB", lb.model)]
    )
    for analysis in ranked:
        marker = "  <== recommended" if analysis is ranked[0] else ""
        print(f"   {' -> '.join(analysis.order):20s} "
              f"{analysis.n_conflicts} conflict(s){marker}")
    print(f"\n   detail: {ranked[-1].summary()}")


if __name__ == "__main__":
    main()
