"""Machine-speed reference: times are reported at a fixed reference speed.

On a shared virtual machine the same code runs at speeds that differ by
up to a factor of two from one minute to the next (on the 2-vCPU box the
benchmark was written on, theorem2 on the adult pair took 4.0 ms in one
minute and 8.6 ms in the next, with no CPU steal). The benchmark
therefore times a fixed reference kernel right before and right after
every timed span, and multiplies the span by r / k, where k is the mean
of the two kernel times and r the kernel's time on a quiet core. A
change to pufferot moves the span and not the kernel, so it still shows
in full; a slow minute of the machine moves both, and cancels. Spans are
kept short (an op is timed as several steps, with one kernel run between
each two) because the speed can change within a second.

The default kernel mixes the kinds of work the workloads do: an
interpreted float loop, many small numpy calls, long vectorised numpy
passes and string splitting. A workload whose time goes to long numpy
passes (counting-certify, which spends it in the verifiers' density
matrices) slows down less than the interpreter does when the machine is
busy, so it is scaled by a kernel of such passes alone: over five 25 s
runs its run-to-run coefficient of variation was 1.7 % against 3.4 % with
the mixed kernel, while figure4-sweep did best with the mixed one (2.3 %).
Neither kernel uses pufferot.
"""

from __future__ import annotations

import math
import resource
import time

import numpy as np

_SMALL = np.linspace(0.01, 1.0, 64)
_LONG = np.linspace(-5.0, 5.0, 100_000)
_LINES = [f"{i},{i * 7 % 91},grp-{i % 40:02d},edu-{i % 100:03d},r{i % 7}" for i in range(6_000)]


def _kernel() -> float:
    acc = 0.0
    for k in range(6_000):
        acc += math.exp(-k * 1e-4) * (k % 7)
    for k in range(150):
        acc += float(np.log(np.exp(_SMALL * (k % 5)).sum()))
    for _ in range(3):
        acc += float(np.log(np.exp(-np.abs(_LONG)).sum()))
    acc += sum(len(line.split(",")) for line in _LINES)
    return acc


_GRID = np.linspace(-20.0, 120.0, 1_500)
_ATOMS = np.arange(101.0)
_LOG_MASS = np.log(np.full(101, 1.0 / 101))


def _vectorised_kernel() -> float:
    acc = 0.0
    for _ in range(2):
        a = _LOG_MASS[None, :] - np.abs(_GRID[:, None] - _ATOMS[None, :])
        peak = a.max(axis=1)
        acc += float((peak + np.log(np.exp(a - peak[:, None]).sum(axis=1))).max())
    return acc


#: Kernel name -> (kernel, its time on a quiet core of that box, which spans are scaled to).
KERNELS = {"mixed": (_kernel, 0.003), "vectorised": (_vectorised_kernel, 0.0025)}


def reference_seconds(kernel: str = "mixed") -> float:
    """Wall time of one run of the named reference kernel, now."""
    start = time.perf_counter()
    KERNELS[kernel][0]()
    return time.perf_counter() - start


def cpu_seconds() -> float:
    """User+system CPU of this process and of every child it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def timed_steps(steps, kernel: str = "mixed"):
    """Runs steps in order, with a kernel timing before, between and after them.

    Returns the last step's result, the steps' wall and CPU seconds at
    reference speed (each step scaled by the kernel's reference time over
    the mean of the kernel times on either side of it), and their unscaled
    wall seconds.
    """
    reference = KERNELS[kernel][1]
    result, wall, cpu, raw = None, 0.0, 0.0, 0.0
    before = reference_seconds(kernel)
    for step in steps:
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        result = step()
        elapsed = time.perf_counter() - start
        used = cpu_seconds() - cpu0
        after = reference_seconds(kernel)
        factor = reference / (0.5 * (before + after))
        wall += elapsed * factor
        cpu += used * factor
        raw += elapsed
        before = after
    return result, wall, cpu, raw
