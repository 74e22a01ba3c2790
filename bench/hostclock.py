"""Host-speed references: fixed kernels timed in bursts beside the workload.

The machine the benchmark runs on shares its cores with other tenants, and
the speed it gives one Python thread drifts by up to a factor of two over
minutes.  That drift shows in a process's CPU time as much as in its wall
time, so neither measures the code alone.  The worker therefore times a
fixed kernel in short bursts between queries and scales each pass's times
by the kernel's reference time over its mean time in that pass.  A change to
``metricdim`` moves the scaled times exactly as it moves the raw ones, while
a slower or faster host moves both the workload and the kernel.

There are two kernels, because the two kinds of work drift apart:

- ``kernel`` is the same kind of work as the solver's inner loop (codes
  packed into set keys, bit-mask growth by generators) but uses no code of
  ``metricdim``.  It scales work done in the worker's own interpreter.
- ``start_kernel`` starts an interpreter that imports ``networkx``, the
  package's one dependency, and waits for it.  It scales cold-start
  command-line runs, whose cost is mostly process start-up and that same
  import.  On the same host, 20-run windows of a ``metricdim`` invocation's
  time ranged over 20 %; over such a start, 3 %; over a start importing
  fourteen standard-library modules, 6 %; over a bare ``python -c pass``,
  9 %; and over the in-process kernel, nearly half.

Scaled times are seconds on a host that runs one kernel in its reference
time (about the median on the 2-core Xeon VM the benchmark was written on).
Raw times stay in the run's record.
"""

from __future__ import annotations

import itertools
import random
import subprocess
import sys
import time

REFERENCE_KERNEL_NS = 2_500_000
REFERENCE_START_NS = 300_000_000

_N = 16
_rng = random.Random(7)
_ROWS = tuple(tuple(_rng.randrange(4) for _ in range(_N)) for _ in range(_N))
_ADJ = tuple((1 << ((i + 1) % _N)) | (1 << ((i - 1) % _N)) | (1 << ((i + 5) % _N))
             for i in range(_N))
CHECKSUM = 94


def _grow(cur: int, size: int, banned: int, nb: int, k: int):
    if size == k:
        yield cur
        return
    ext = nb & ~banned
    while ext:
        b = ext & -ext
        ext ^= b
        new = cur | b
        yield from _grow(new, size + 1, banned, (nb | _ADJ[b.bit_length() - 1]) & ~new, k)
        banned |= b


def kernel() -> None:
    """One fixed unit of interpreter work."""
    hits = 0
    seen = set()
    for members in itertools.combinations(range(_N), 3):
        seen.clear()
        ok = 1
        for row in _ROWS:
            acc = 0
            for u in members:
                acc = acc * 5 + row[u]
            if acc in seen:
                ok = 0
                break
            seen.add(acc)
        hits += ok
    for v in range(_N):
        low = (1 << (v + 1)) - 1
        for mask in _grow(1 << v, 1, low, _ADJ[v] & ~low, 4):
            hits += mask.bit_count() & 1
    if hits != CHECKSUM:
        raise RuntimeError(f"the calibration kernel returned {hits}, not {CHECKSUM}")


def start_kernel() -> None:
    """One start of an interpreter that imports ``networkx``, waited for."""
    subprocess.run([sys.executable, "-c", "import networkx"], check=True, timeout=60)


class HostClock:
    """One burst of ``burst`` kernels per ``every_ns`` of workload time.

    ``tick`` is called after each query with its time and runs the bursts
    that query has earned, so the host is sampled at the same density
    whether queries take microseconds or seconds.  ``scale`` takes a closing
    burst and returns the factor for the times since the last ``scale``.
    """

    def __init__(self, fn=kernel, reference_ns: int = REFERENCE_KERNEL_NS,
                 every_ns: int = 40_000_000, burst: int = 2) -> None:
        self.fn, self.reference_ns = fn, reference_ns
        self.every_ns, self.burst = every_ns, burst
        self.since = 0
        self.kernel_ns = 0
        self.kernels = 0
        self.history: list[float] = []  # mean kernel ns of each scale() window

    @classmethod
    def for_starts(cls) -> "HostClock":
        """A clock for cold-start runs of about 0.4 s: one start after every second one."""
        return cls(start_kernel, REFERENCE_START_NS, every_ns=700_000_000, burst=1)

    def sample(self, kernels: int | None = None) -> None:
        kernels = kernels or self.burst
        start = time.perf_counter_ns()
        for _ in range(kernels):
            self.fn()
        self.kernel_ns += time.perf_counter_ns() - start
        self.kernels += kernels
        self.since = 0

    def tick(self, work_ns: int) -> None:
        self.since += work_ns
        bursts = self.since // self.every_ns
        if bursts:
            self.sample(bursts * self.burst)

    def scale(self) -> float:
        self.sample()
        mean = self.kernel_ns / self.kernels
        self.history.append(mean)
        self.kernel_ns = self.kernels = 0
        return self.reference_ns / mean
