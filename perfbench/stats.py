"""Small measurement helpers: percentiles, the tail rule, open-loop
accounting, error counting and the machine-speed probe. Pure functions
and plain objects, so ``test_perfbench.py`` pins them without running
the engine."""

from __future__ import annotations

import gc
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Sequence

#: Percentiles the tail rule may pick from.
TAIL_CANDIDATES = (50.0, 90.0, 95.0, 98.0, 99.0)
#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (need not be sorted)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples sit past the rank that
    :func:`percentile` interpolates at for ``pct``."""
    if count == 0:
        return 0
    return count - 1 - math.floor((count - 1) * pct / 100.0 + 1e-9)


def tail_percentile(count: int) -> float | None:
    """The highest of :data:`TAIL_CANDIDATES` with at least
    ``MIN_BEYOND`` samples beyond it, or ``None`` when none has."""
    best = None
    for pct in TAIL_CANDIDATES:
        if samples_beyond(count, pct) >= MIN_BEYOND:
            best = pct
    return best


class OpenLoopSchedule:
    """Due times of an open-loop generator at a fixed rate.

    Operation ``i`` is due at ``start + i / rate``. Its latency is timed
    from when it was due, not from when it was issued, so a stall also
    charges the wait it imposes on every operation queued behind it;
    lateness is how far behind its schedule the generator issued it.
    """

    def __init__(self, rate: float, start: float):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = rate
        self.start = start
        self.latencies: list[float] = []
        self.lateness: list[float] = []

    def due(self, index: int) -> float:
        return self.start + index / self.rate

    def record(self, index: int, issued: float, finished: float) -> None:
        due = self.due(index)
        self.latencies.append(finished - due)
        self.lateness.append(max(0.0, issued - due))


@dataclass
class OpTally:
    """Attempted operations and the typed errors among them.

    Only errors the engine declares (``typed`` classes, normally
    ``repro.errors.ReproError``) count as failed operations; anything
    else is a defect and propagates. Wrong results are tracked apart:
    they fail the run instead of counting toward the error rate.
    """

    typed: tuple[type[BaseException], ...]
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    error_kinds: dict[str, int] = field(default_factory=dict)

    def ok(self) -> None:
        self.attempted += 1

    def error(self, error: BaseException) -> None:
        if not isinstance(error, self.typed):
            raise error
        self.attempted += 1
        self.failed += 1
        kind = type(error).__name__
        self.error_kinds[kind] = self.error_kinds.get(kind, 0) + 1

    def mismatch(self) -> None:
        self.attempted += 1
        self.wrong += 1

    def absorb(self, other: "OpTally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        for kind, count in other.error_kinds.items():
            self.error_kinds[kind] = self.error_kinds.get(kind, 0) + count

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


#: What one probe task costs, in CPU seconds, on the reference machine
#: (a shared 2-vCPU Xeon VM, at its median speed). Normalized times are
#: times on a machine where the probe takes exactly this long.
REFERENCE_PROBE_S = 0.40e-3


def probe_task() -> int:
    """A fixed pure-Python task: tuple keys, dict inserts, a keyed sort."""
    table = {}
    for i in range(600):
        table[(i, str(i))] = [i, i * 2.5, "x" * (i % 7)]
    return len(sorted(table.items(), key=lambda item: item[1][1]))


class SpeedProbe:
    """Samples the machine's current speed between operations.

    On a shared host the speed of the CPU drifts by tens of percent over
    seconds, and every operation measured in that period drifts with it.
    The probe times :func:`probe_task` on the calling thread's CPU clock,
    which excludes time spent waiting for other threads of this process
    (the writer, the GIL), so a slower engine never looks like a slower
    machine. :meth:`speed` is the reference probe time over the median
    sampled one; multiplying a time measured alongside by it gives the
    time on the reference machine.
    """

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.samples: list[float] = []
        self._next = 0.0

    def poll(self, now: float) -> None:
        """Take a sample when ``interval`` seconds passed since the last."""
        if now >= self._next:
            self.sample()
            self._next = now + self.interval

    def sample(self) -> None:
        # Collections would charge the probe for the size of the engine's
        # heap; keep them out so the probe sees only the machine.
        enabled = gc.isenabled()
        gc.disable()
        try:
            # The first runs warm the caches the engine's last operation
            # evicted; only the last, warm run is timed.
            probe_task()
            probe_task()
            started = time.thread_time()
            probe_task()
            self.samples.append(time.thread_time() - started)
        finally:
            if enabled:
                gc.enable()

    def speed(self) -> float:
        return REFERENCE_PROBE_S / statistics.median(self.samples)
