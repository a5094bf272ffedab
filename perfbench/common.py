"""Shared plumbing of the perfbench workloads: results, statistics, processes."""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Each workload sets up at least this many times, and for at least
#: this many seconds in all, per run, and reports the median set-up time.
SETUP_REPEATS = 5
SETUP_MIN_S = 3.0


@dataclass
class Outcome:
    """What one workload run measured.

    ``e2e`` holds the end-to-end metrics (same names on every
    workload), ``layers`` the per-layer metrics (filled on a traced
    run only), ``named`` the workload's figures as ``(value, unit)``
    under the names its documentation uses (``corpus_synth_s`` and so
    on), ``notes`` context such as sample counts.
    """

    attempted: int = 0
    failed: int = 0
    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    named: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def p99(values: Sequence[float]) -> float:
    """The 99th percentile by nearest rank (the max below 100 samples)."""
    if not values:
        return 0.0
    return sorted(values)[math.ceil(0.99 * len(values)) - 1]


def ratio(num: float, den: float) -> float:
    """``num / den``, 0 when nothing was attempted (``den == 0``)."""
    return num / den if den else 0.0


def more_setup(times: Sequence[float]) -> bool:
    """Whether a workload should set up once more (see ``SETUP_MIN_S``)."""
    return len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S


def another_fits(deadline: float, durations: Sequence[float]) -> bool:
    """Whether one more step of the median duration ends by ``deadline``."""
    return time.perf_counter() + median(durations) <= deadline


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_env() -> Dict[str, str]:
    """Environment for child Python processes: the checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def timed_python(code: str) -> float:
    """Wall seconds to run ``python3 -c code`` against the checkout."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code], env=child_env(), check=True,
        stdout=subprocess.DEVNULL, timeout=120,
    )
    return time.perf_counter() - t0
