"""What every scenario returns, and the per-layer arithmetic they share."""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from measure import HostProbe, p50

#: Set-ups timed per scenario; ``setup_s`` reports their median.
SETUPS = 3
#: Probe rounds timed right before and right after each set-up to normalise it.
SETUP_PROBE_ROUNDS = 5


@dataclass
class Result:
    """One scenario's outcome.  ``metrics`` and ``layers`` map a name to
    ``(value, unit)``; ``notes`` are table lines (tail percentiles, flags)."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    layers: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Output checks: name -> (passed, detail).
    checks: Dict[str, Tuple[bool, str]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    setup_s: float = 0.0
    rss_mb: float = 0.0


def timed_setups(build: Callable[[], object], close: Callable[[object], None],
                 probe: HostProbe) -> Tuple[object, float]:
    """Build the system ``SETUPS`` times; keep the last, report the median
    host-normalised set-up time."""
    times, system = [], None
    for _ in range(SETUPS):
        if system is not None:
            close(system)
            system = None
            gc.collect()
        before = probe.run(SETUP_PROBE_ROUNDS)
        start = time.perf_counter()
        system = build()
        elapsed = time.perf_counter() - start
        times.append(elapsed * probe.factor(before + probe.run(SETUP_PROBE_ROUNDS)))
    probe.samples.clear()
    return system, p50(times)


def per_call_ms(agg: Dict, name: str, per: Optional[str] = None) -> float:
    """Self time of span ``name`` per call of span ``per`` (default: itself)."""
    spans = agg.get(name)
    calls = agg.get(per or name, {}).get("calls", 0)
    if not spans or not calls:
        return 0.0
    return spans["self_s"] / calls * 1e3


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def overhead_pct(traced: List[float], untraced: List[float]) -> float:
    """Median traced over median untraced latency of the same op class, as
    the extra percentage tracing costs."""
    if not traced or not untraced:
        return 0.0
    return (p50(traced) / p50(untraced) - 1.0) * 100.0
