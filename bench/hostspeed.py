"""The speed of the host, read off fixed reference work.

On a shared machine the same job can run 30% slower for seconds or minutes
while other tenants are busy, and CPU time moves with wall time, so no
choice of jobs removes it.  The benchmark therefore times reference work
next to the jobs and reports every time scaled to a nominal host.  Neither
reference calls lindeg code, so a change to the library does not change
them; only the host's speed does.

- In-process jobs are scaled by a pure-Python kernel (``HostSpeed``) timed
  between consecutive jobs: a job's wall time is multiplied by ``NOMINAL_S``
  over the kernel's local time.  The kernel does work of the same kind as
  lindeg: elimination of small matrices over F_p, and comparisons and
  hashing of integer tuples.
- Times that are mostly the start of a fresh process (set-up, and jobs that
  run the CLI) are scaled by ``START_NOMINAL_S`` over the run's median
  ``start_sample``: a fresh interpreter that imports numpy, lindeg's one
  dependency.  Start-up leans on loading files and shared libraries, whose
  speed on a shared host moves apart from that of the kernel.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time

NOMINAL_S = 0.004
START_NOMINAL_S = 0.2
SAMPLE_EVERY_S = 0.1
PRIME = 3
SIZE = 6


def _rank(rows: list, p: int) -> int:
    """Rank over F_p by Gauss-Jordan elimination on lists."""
    a = [row[:] for row in rows]
    rank = 0
    for c in range(len(a[0])):
        piv = next((r for r in range(rank, len(a)) if a[r][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][c], -1, p)
        a[rank] = [x * inv % p for x in a[rank]]
        for r in range(len(a)):
            if r != rank and a[r][c]:
                f = a[r][c]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def _covers(points: list) -> int:
    """Cover pairs of the componentwise order on distinct integer tuples."""
    below = {q: {s for s in points if s != q and all(x <= y for x, y in zip(s, q))} for q in points}
    return sum(1 for q in points for s in below[q] if not any(s in below[t] for t in below[q]))


class HostSpeed:
    """Samples of the kernel's wall time, grouped by the gap between jobs in
    which they were taken.

    A gap after a job of ``t`` seconds holds ``1 + t // SAMPLE_EVERY_S``
    samples, so the host is sampled at a rate that keeps up with long jobs.
    """

    def __init__(self):
        rng = random.Random(0)  # fixed inputs: the kernel is the same in every run
        self.matrices = [[[rng.randrange(PRIME) for _ in range(SIZE)] for _ in range(SIZE)]
                         for _ in range(48)]
        self.points = sorted({tuple(rng.randrange(4) for _ in range(4)) for _ in range(32)})
        self.answer = self._kernel()
        self.gaps: list[list[float]] = []

    def _kernel(self) -> tuple[int, int]:
        return sum(_rank(m, PRIME) for m in self.matrices), _covers(self.points)

    def sample(self) -> float:
        t0 = time.perf_counter()
        answer = self._kernel()
        dt = time.perf_counter() - t0
        if answer != self.answer:
            raise RuntimeError("host-speed kernel gave another answer")
        return dt

    def gap(self, after_s: float = 0.0) -> None:
        """Sample the host in the gap after a job of ``after_s`` seconds."""
        self.gaps.append([self.sample() for _ in range(1 + int(after_s / SAMPLE_EVERY_S))])

    def scale(self, lo: int, hi: int) -> float:
        """``NOMINAL_S`` over the median of the samples in gaps ``lo`` to ``hi - 1``."""
        return NOMINAL_S / statistics.median(x for g in self.gaps[max(lo, 0) : hi] for x in g)


def start_sample() -> float:
    """Wall time of a fresh interpreter that imports numpy and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return time.perf_counter() - t0
