"""Host-speed calibration: a fixed kernel sampled all through the run.

The benchmark runs on a few cores of a shared host, where the same op
takes up to twice as long in some spells of minutes as in others.  The
process still gets its CPU (``process_time``
tracks the wall clock); it only executes more slowly.  So each untraced
run measures the host's speed as well as the program: while the run is
set up and timed, an interval timer interrupts it every
``INTERVAL_S`` and runs :func:`_once`, a fixed piece of work.  The
end-to-end times are reported in *reference seconds*: measured seconds,
less the time spent in the kernel, times ``REF_KERNEL_S`` over the
median kernel time of the run.  Because the kernel runs *inside* the
timed ops, a slow spell during a long op shows in the samples of that
op, not only in samples taken before or after it.

The kernel is interpreted Python, as most of the program's time is:
a loop over a small dict, small-array NumPy calls, and random lookups in
a dict larger than the caches.  A version that also sorted and gathered
a large NumPy array reacted less to the spells than the program does.
The kernel uses nothing from ``src/``, so a change to the program never
changes it.  The raw seconds and every kernel sample are kept in the
result's details.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: About the median seconds of :func:`_once` on a 2-core shared x86-64
#: host (Python 3.11.7, NumPy 2.4.6) in a fast spell: a reference second
#: is about a second at that host's speed.  Fixed, so reference times compare
#: across commits.
REF_KERNEL_S = 0.012

#: Seconds between two kernel runs.  About 5% of the run goes to the
#: kernel, and a 10-second run gets about 40 samples.
INTERVAL_S = 0.25

#: Kernel runs before the timer starts, so that even a run shorter than
#: ``INTERVAL_S`` has samples.
FIRST_RUNS = 5

_RNG = np.random.default_rng(12345)
_SMALL = _RNG.random(64)
_TABLE = {int(k): i for i, k in enumerate(_RNG.integers(0, 1 << 40, 100_000))}
_PROBES = list(_TABLE)[::5]

#: Seconds of every kernel run in this process, in order.
SAMPLES: list[float] = []
_in_kernel_s = 0.0
_busy = False


def _python_part() -> int:
    counts: dict[int, int] = {}
    acc = 0
    for i in range(30_000):
        k = i % 977
        counts[k] = counts.get(k, 0) + i
        acc += k * 3 & 7
    return acc + len(sorted(counts.values()))


def _small_numpy_part() -> float:
    total = 0.0
    for i in range(600):
        v = _SMALL * (i & 7)
        total += float(v[np.argmax(v)]) + float(v.sum())
    return total


def _lookup_part() -> int:
    table = _TABLE
    return sum(table[k] for k in _PROBES)


def _once() -> float:
    t0 = time.perf_counter()
    _python_part()
    _small_numpy_part()
    _lookup_part()
    return time.perf_counter() - t0


def _on_timer(signum, frame) -> None:
    global _in_kernel_s, _busy
    if _busy:  # a tick during a kernel run (a very slow host): skip it
        return
    _busy = True
    t0 = time.perf_counter()
    SAMPLES.append(_once())
    _in_kernel_s += time.perf_counter() - t0
    _busy = False


def start() -> None:
    """Run the kernel ``FIRST_RUNS`` times, then every ``INTERVAL_S``."""
    SAMPLES.extend(_once() for _ in range(FIRST_RUNS))
    signal.signal(signal.SIGALRM, _on_timer)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def in_kernel_s() -> float:
    """Seconds spent in the kernel so far; a timing subtracts the
    increase over its interval."""
    return _in_kernel_s


def speed() -> float:
    """Reference seconds per measured second over the samples so far."""
    return REF_KERNEL_S / statistics.median(SAMPLES)
