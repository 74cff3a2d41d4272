"""Summary statistics and host-speed calibration for the benchmark.

Timings are reported as a median and as the highest percentile that keeps
at least :data:`MIN_BEYOND` samples beyond it; :func:`tail_percentile`
refuses to report a percentile the sample count cannot support.

Shared cloud hosts change speed for seconds to minutes at a time (on the
2-vCPU cloud VM with an Intel Xeon, the same summarize call took 0.8 s
or 1.4 s depending on when it ran).  Every timed sample is therefore
bracketed by a fixed pure-Python calibration kernel, and the reported
time is the measured time scaled to a host on which that kernel takes
:data:`REFERENCE_S` (:class:`HostSpeed`).  Raw times are kept in the run
record next to the calibrated ones.
"""

from __future__ import annotations

import gc
import math
import os
import statistics
import struct
import time
from typing import Sequence

__all__ = [
    "HostSpeed",
    "MIN_BEYOND",
    "REFERENCE_S",
    "calibrate",
    "median",
    "percentile",
    "samples_beyond",
    "tail_percentile",
]

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10
#: Calibration kernel time of the reference host (its fast state).
REFERENCE_S = 0.025
CALIBRATION_LOOPS = 200_000


def _kernel() -> float:
    started = time.perf_counter()
    total = 0
    for value in range(CALIBRATION_LOOPS):
        total += value * value % 7
    return time.perf_counter() - started


def calibrate(processes: int = 1) -> float:
    """Seconds the fixed calibration kernel takes on the host right now.

    With ``processes=2`` the kernel also runs at the same time in a forked
    child, and the mean of both times is returned: a workload that keeps
    two CPUs busy is slowed by either one.
    """
    if processes == 1:
        return _kernel()
    read_end, write_end = os.pipe()
    child = os.fork()
    if child == 0:  # pragma: no cover - runs in the forked child
        os.close(read_end)
        os.write(write_end, struct.pack("d", _kernel()))
        os._exit(0)
    os.close(write_end)
    try:
        own = _kernel()
        other = struct.unpack("d", os.read(read_end, 8))[0]
    finally:
        os.close(read_end)
        os.waitpid(child, 0)
    return (own + other) / 2.0


class HostSpeed:
    """Brackets a timed block with calibrations, after a full collection.

    The collection makes the block's garbage-collector work depend only on
    what the block allocates.  :meth:`scale` converts a time measured
    inside the block to reference-host seconds.
    """

    def __init__(self, processes: int = 1) -> None:
        self.processes = processes

    def __enter__(self) -> "HostSpeed":
        self.before = calibrate(self.processes)
        gc.collect()
        return self

    def __exit__(self, *exc_info) -> None:
        self.after = calibrate(self.processes)

    @property
    def factor(self) -> float:
        """Reference-host seconds per measured second in this block."""
        return REFERENCE_S / ((self.before + self.after) / 2.0)

    def scale(self, seconds: float) -> float:
        return seconds * self.factor


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples))


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile (``fraction`` in ``[0, 1]``)."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    position = fraction * (len(ordered) - 1)
    lower = math.floor(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * weight


def samples_beyond(count: int, fraction: float) -> int:
    """How many of ``count`` samples lie beyond the ``fraction`` percentile."""
    return math.floor(count * (1.0 - fraction) + 1e-9)


def tail_percentile(samples: Sequence[float], fraction: float = 0.95) -> float:
    """The ``fraction`` percentile, only if :data:`MIN_BEYOND` samples lie beyond."""
    beyond = samples_beyond(len(samples), fraction)
    if beyond < MIN_BEYOND:
        needed = math.ceil(MIN_BEYOND / (1.0 - fraction) - 1e-9)
        raise ValueError(
            f"p{fraction * 100:g} needs at least {needed} samples, got {len(samples)}"
        )
    return percentile(samples, fraction)
