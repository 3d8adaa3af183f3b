"""Helpers shared by the workloads: timing, set-up repetition, rounds, results."""

from __future__ import annotations

import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple



@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    violations: List[str] = field(default_factory=list)
    known_faults: List[str] = field(default_factory=list)
    end_to_end: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    per_layer: Dict[str, Tuple[Optional[float], str]] = field(default_factory=dict)

    def check(self, violations: List[str], context: str = "") -> None:
        """Record failed output checks (each makes the run incorrect)."""
        for v in violations:
            self.violations.append(f"{context}: {v}" if context else v)


def timed(fn: Callable, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def run_rounds(seconds: float, one_round: Callable[[int], None]) -> int:
    """Run whole rounds until ``seconds`` have passed (at least one)."""
    t0 = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - t0 < seconds:
        one_round(rounds)
        rounds += 1
    return rounds


def make_scenarios(seed: int, n: int, stream: int = 0):
    """Seeded STA scenarios: slews within the characterized grid (10-250 ps),
    random launch edges and stage correlations."""
    import numpy as np

    from repro.core.sta_compiled import Scenario
    from repro.units import PS

    rng = np.random.default_rng([seed, 17, stream])
    slews = rng.uniform(10.0, 250.0, n)
    rising = rng.random(n) < 0.5
    rho = rng.uniform(0.0, 1.0, n)
    return [
        Scenario(
            input_slew=float(s) * PS,
            launch_rising=bool(e),
            stage_correlation=float(r),
        )
        for s, e, r in zip(slews, rising, rho)
    ]


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """``q``-th percentile (0-100) by linear interpolation."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
