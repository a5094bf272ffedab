"""E5 — paper Table 2: slicing reduction and symbolic-execution speedup.

Reproduces every column for the two study NFs (snortlite stands in for
snort 1.0, balance for balance 3.5 — DESIGN.md §2):

            | LoC            | Slicing | # of EP      | SE time
            | orig slice path| time    | orig   slice | orig     slice

Expected shape (not absolute numbers): slice ≪ orig LoC; the original's
path count explodes (capped, reported as ">cap") while the slice's stays
small; SE on the slice is orders of magnitude cheaper.

This bench doubles as the slicing on/off ablation called out in
DESIGN.md: the "orig" columns ARE the no-slicing configuration.  Both
sides run parametric (branch-read config kept free), as the paper's
path counts cover every configuration.
"""

from __future__ import annotations

import pytest

from common import print_phase_profile, print_table, profile_snapshot, synthesize
from repro.nfactor.algorithm import NFactor, NFactorConfig
from repro.nfs import get_nf
from repro.symbolic.engine import EngineConfig
from repro.util.timer import Stopwatch

#: Path cap for the unsliced baseline (the paper reports ">1000").
ORIG_CAP = 2000

NFS = ["snortlite", "balance"]


def table2_row(name: str) -> dict:
    """All Table-2 measurements for one NF."""
    result = synthesize(name, parametric=True)
    stats = result.stats

    nf = NFactor(
        get_nf(name).source, name=name, config=NFactorConfig(parametric=True)
    )
    with Stopwatch() as sw:
        orig_paths, engine = nf.explore_original(
            EngineConfig(max_paths=ORIG_CAP)
        )
    n_orig = sum(1 for p in orig_paths if p.status == "done")
    orig_ep = f">{ORIG_CAP}" if engine.stats.exhausted else str(n_orig)

    return {
        "nf": name,
        "loc_orig": stats.source_loc,
        "loc_slice": stats.slice_loc,
        "loc_path": round(stats.path_loc_avg, 1),
        "slicing_time_s": round(stats.slicing_time_s, 3),
        "ep_orig": orig_ep,
        "ep_slice": stats.n_paths,
        "se_orig_s": round(sw.elapsed, 3),
        "se_slice_s": round(stats.se_time_s, 3),
        "profile": profile_snapshot(result),
    }


@pytest.mark.parametrize("name", NFS)
def test_table2(benchmark, name):
    row = benchmark.pedantic(table2_row, args=(name,), rounds=1, iterations=1)
    for key, value in row.items():
        benchmark.extra_info[key] = value

    print_table(
        f"Table 2 (reproduced) — {name}",
        ["NF", "LoC orig", "LoC slice", "LoC path", "Slicing time",
         "EP orig", "EP slice", "SE orig", "SE slice"],
        [[
            row["nf"], row["loc_orig"], row["loc_slice"], row["loc_path"],
            f"{row['slicing_time_s']}s", row["ep_orig"], row["ep_slice"],
            f"{row['se_orig_s']}s", f"{row['se_slice_s']}s",
        ]],
    )

    # Shape assertions (who wins, by roughly what factor):
    assert row["loc_slice"] < row["loc_orig"]
    assert row["loc_path"] <= row["loc_slice"]
    if row["ep_orig"].startswith(">"):
        assert row["ep_slice"] < ORIG_CAP
    else:
        assert row["ep_slice"] <= int(row["ep_orig"])


def test_table2_speedup_shape(benchmark):
    """Cross-NF claims: snort-like benefits more (its non-forwarding
    codebase is larger), and slicing cost is modest (paper: seconds)."""
    rows = benchmark.pedantic(
        lambda: {name: table2_row(name) for name in NFS}, rounds=1, iterations=1
    )
    print_table(
        "Table 2 (reproduced) — combined",
        ["NF", "LoC orig", "LoC slice", "LoC path", "Slicing time",
         "EP orig", "EP slice", "SE orig", "SE slice"],
        [[
            r["nf"], r["loc_orig"], r["loc_slice"], r["loc_path"],
            f"{r['slicing_time_s']}s", r["ep_orig"], r["ep_slice"],
            f"{r['se_orig_s']}s", f"{r['se_slice_s']}s",
        ] for r in rows.values()],
    )
    print_phase_profile({name: synthesize(name, parametric=True) for name in NFS})

    snort, balance = rows["snortlite"], rows["balance"]
    snort_reduction = snort["loc_orig"] / snort["loc_slice"]
    balance_reduction = balance["loc_orig"] / balance["loc_slice"]
    assert snort_reduction > balance_reduction  # snort benefits more
    assert snort["ep_orig"].startswith(">")     # path explosion in orig
    assert balance["ep_slice"] <= 20            # paper: 10
