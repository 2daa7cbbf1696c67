"""Small measuring helpers shared by the workers: clocks, order statistics, op counts."""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import resource
import signal
import statistics
import time
from typing import Any, Callable, Sequence

import numpy as np


def timed(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> tuple[float, Any]:
    """Run ``fn`` once; return (wall seconds, its result)."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1]); no interpolation on small samples."""
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(share * len(ordered)) - 1)])


#: Seconds one :func:`_kernel` takes on the 2-core box the benchmark was sized
#: on while its host is quiet.  It only fixes the scale of the steadied times
#: (on that box, quiet, they read as plain wall seconds); every comparison this
#: benchmark serves is between two runs on one machine, where it cancels.
NOMINAL_KERNEL_S = 0.0060
#: A kernel reading above this many run medians is a stall (the vCPU was taken
#: away mid-kernel), not a pace; it is clipped so one of them cannot set a mean.
STALL_FACTOR = 3.0

_MODULUS = (1 << 64) - 59
_VECTOR = np.arange(68, dtype=np.float64)
_BATCH = np.ones((256, 17))
_WEIGHTS = np.ones((17, 4))
_RECORD = {f"k{i}": [i, str(i), {"a": i * 1.5}] for i in range(100)}
_BLOCK = b"x" * 64


def _kernel() -> None:
    """A fixed ~6 ms of the instruction mixes the workloads are made of.

    Interpreter loop, big-int modexp, sha256, small-array numpy, a small GEMM
    and a JSON dump: what DH + DRBG masking, the estimator, contract execution
    and canonical serialization spend their time in.  It touches nothing under
    ``src/``, so no change to the program can move it.
    """
    x = 0
    for i in range(12000):
        x = (x * 31 + i) % 1000003
    y = 3
    for i in range(150):
        y = pow(y + i, 0xFFFFFFFFFFFFFFC5, _MODULUS)
    digest = b""
    for _ in range(1500):
        digest = hashlib.sha256(_BLOCK + digest).digest()
    total = 0
    for i in range(250):
        total += int(((_VECTOR * 3 + i) % 7).sum())
    for _ in range(150):
        (_BATCH @ _WEIGHTS).argmax(axis=1)
    for _ in range(3):
        json.dumps(_RECORD, sort_keys=True)


class Yardstick:
    """The host's pace, sampled beside the measured program.

    This box is a few cores of a shared host whose speed shifts by 1.3-1.6x for
    seconds to minutes at a time — not stolen time (process CPU time shifts
    with the wall clock) but a slower core — so the same work reads 30 % apart
    between two runs and no order statistic of a run's samples removes it.  The
    yardstick runs a fixed kernel every ``period`` seconds *on the measured
    thread* (an interval timer whose handler Python runs between two
    bytecodes, so nothing runs concurrently) or wherever the caller puts a
    :meth:`sample` call.  A timed interval is then *steadied*: the kernel time
    inside it is taken out, and what is left is divided by the pace over the
    interval — mean kernel time there over :data:`NOMINAL_KERNEL_S`.

    Not ``enabled`` (the traced pass) it takes no samples, pace is 1 and
    steadied time is wall time.
    """

    def __init__(self, period: float, enabled: bool = True) -> None:
        self.period = period
        self.enabled = enabled
        self.stamps: list[float] = []
        self.seconds: list[float] = []

    def sample(self, *_signal_arguments: Any) -> None:
        """Run the kernel once, now, and record when and how long."""
        if not self.enabled:
            return
        start = time.perf_counter()
        _kernel()
        self.stamps.append(start)
        self.seconds.append(time.perf_counter() - start)

    def start(self) -> None:
        """Sample every ``period`` seconds from now on, until :meth:`stop`."""
        if not self.enabled:
            return
        signal.signal(signal.SIGALRM, self.sample)
        # Restart an interrupted system call instead of failing it with EINTR:
        # Python retries its own, but SQLite's ``fsync`` is not Python's.
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        """Disarm the timer (a no-op when it is not armed)."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def pace(self, start: float, end: float) -> float:
        """Host pace over [start, end]: 1.0 is the quiet sizing box, 1.4 is 1.4x slower.

        Uses the samples inside the interval and one period to either side,
        and the nearest one on each side where that leaves fewer than two.
        """
        if not self.seconds:
            return 1.0
        first = bisect.bisect_left(self.stamps, start - self.period)
        last = bisect.bisect_right(self.stamps, end + self.period)
        if last - first < 2:
            first, last = max(0, first - 1), last + 1
        ceiling = STALL_FACTOR * median(self.seconds)
        near = self.seconds[first:last]
        return statistics.fmean(min(s, ceiling) for s in near) / NOMINAL_KERNEL_S

    def steady(self, start: float, end: float) -> float:
        """Seconds [start, end] would have taken on the quiet sizing box, kernel time removed."""
        first = bisect.bisect_left(self.stamps, start)
        last = bisect.bisect_left(self.stamps, end)
        return (end - start - sum(self.seconds[first:last])) / self.pace(start, end)


def charged(region_s: float, sample_seconds: Sequence[float]) -> float:
    """``region_s`` with each of the timed samples inside it charged at their median.

    One stalled round (a slow ``fsync``, a second attempt) then weighs on a
    total as little as on the median, while what the region spends outside its
    timed samples stays as measured, so work moved out of them still shows.
    """
    return region_s - sum(sample_seconds) + len(sample_seconds) * median(sample_seconds)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the acceptance statistic)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return abs(q3 - q1) / abs(statistics.median(values))


def peak_rss_mib() -> float:
    """Max resident set of this process and of its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Ops:
    """Operations attempted/failed plus the named output checks of one run.

    An operation is a round, the settlement, an audit pass or an output check.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}

    def done(self, ok: bool = True) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = bool(ok)
        self.done(bool(ok))
