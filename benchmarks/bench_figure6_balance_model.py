"""E4 — paper Figure 6: NFactor output for *balance*.

Regenerates the figure:

    | Match          | Action                             |
    | Flow | State   | Flow                       | State |
    mode = RR
    | f    | idx     | send(f, server[idx])       | (idx+1)%N |
    mode = HASH
    | f    | *       | send(f, server[hash(f)%N]) | *         |

and asserts the two structural claims: the round-robin table matches on
the index state and advances it circularly; the hash table picks the
backend from the flow hash and carries no index state.  The per-mode
tables exist only in the parametric model (``parametric=True``); the
default deployed-config model holds the configured mode's table alone.
"""

from __future__ import annotations

from common import print_table, synthesize
from repro.lang.pretty import pretty_stmt
from repro.model.serialize import render_model, sym_text


def test_figure6(benchmark):
    result = benchmark.pedantic(
        lambda: synthesize("balance", parametric=True), rounds=1, iterations=1
    )
    model = result.model

    print("\n=== Figure 6 (reproduced): NFactor output for balance ===")
    print(render_model(model))
    benchmark.extra_info["n_entries"] = model.n_entries
    benchmark.extra_info["n_config_tables"] = len(model.tables)

    # Locate the per-mode new-connection entries.
    def state_texts(entry):
        return [pretty_stmt(s) for s in entry.state_action_stmts]

    rr_entries = [
        e for e in model.all_entries()
        if any("servers[rr_idx]" in t for t in state_texts(e))
    ]
    hash_entries = [
        e for e in model.all_entries()
        if any("hash(" in t for t in state_texts(e))
    ]
    assert rr_entries, "round-robin table missing"
    assert hash_entries, "hash table missing"

    # RR row: state transition (idx+1) % N present.
    assert any(
        "(rr_idx + 1) % len(servers)" in t.replace("(((", "(").replace("  ", " ")
        or "% len(servers)" in t
        for e in rr_entries
        for t in state_texts(e)
    )
    # HASH row: no index state transition.
    for entry in hash_entries:
        assert not any("rr_idx =" in t for t in state_texts(entry))

    # Config split: RR and HASH live in different config tables.
    rr_key = rr_entries[0].config_key()
    hash_key = hash_entries[0].config_key()
    assert rr_key != hash_key

    # The backend selection state is an oisVar (paper: "the round-robin
    # index is figured out as output-impacting state").
    assert "rr_idx" in model.ois_vars
