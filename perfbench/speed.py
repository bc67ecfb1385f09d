"""Reference work that rescales measured times to a fixed machine speed.

On a shared machine the speed a single thread gets swings by up to 1.7x
for seconds to minutes at a time (other tenants on the same cores), which
moves a 25-second run's median op time by 20-35% between runs.  The same
swings slow a fixed piece of benchmark-owned work of the same kind by the
same factor, so every time is reported as

    measured wall time * reference time / reference work timed around it,

i.e. at the speed where the reference work takes its reference time.  The
reference work depends on nothing in the package, so a change to the
program moves the reported times and a change of machine speed does not.
The times as measured are reported next to the rescaled ones.

Two kinds of work need two references, because they slow differently:

- in-process library ops: :func:`kernel_ns`, interpreter work and numpy
  dispatch on 2x2 arrays, as the package does per call;
- anything that starts an interpreter (CLI ops, set-ups): a spawn of
  ``python -c SPAWN_CODE``, interpreter start-up plus the numpy import.
"""

from __future__ import annotations

import time

import numpy as np

#: Kernel time on an idle 2-core Intel Xeon (Python 3.11, numpy 2.4).
KERNEL_NS = 700_000
#: The reference process, and its wall time on the same machine.
SPAWN_CODE = "import argparse, json, numpy"
SPAWN_NS = 190_000_000

_M = np.array([[1.0, 2.0], [3.0, 4.5]], dtype=complex)


def kernel_ns() -> int:
    t0 = time.perf_counter_ns()
    acc = 0.0
    for k in range(150):
        acc += float(np.abs(_M @ _M).max()) + k * 0.5
        acc += len(str({"a": k, "b": [k, k + 1]}))
    return time.perf_counter_ns() - t0


def probe() -> int:
    """Kernel time now: the faster of two runs, so an interrupt is ignored."""
    return min(kernel_ns(), kernel_ns())


def factor(before: int, after: int) -> float:
    """Multiplier from wall time to reference-speed time for in-process work
    done between two kernel probes."""
    return KERNEL_NS / ((before + after) / 2.0)


def spawn_factor(before: int, after: int) -> float:
    """Multiplier from wall time to reference-speed time for a process run
    between two reference spawns."""
    return SPAWN_NS / ((before + after) / 2.0)
