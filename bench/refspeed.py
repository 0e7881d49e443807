"""Reference-speed normalisation of wall-clock times.

On a shared virtual machine the speed of identical code drifts by tens of
percent between runs.  The benchmark therefore runs a fixed reference
kernel between blocks of operations and reports every time rescaled to a
nominal host on which one kernel call takes exactly NOMINAL_KERNEL_S:

    normalised = raw * NOMINAL_KERNEL_S / local_kernel_time

where local_kernel_time is the mean of the kernel calls just before and
just after the block.  The kernel never calls into kleinian2, so a change
to the program cannot change the yardstick.  It is Python driving tiny
complex numpy arrays (the range reduction that starts a theta
evaluation), because kleinian2's time goes mostly to the per-call
overhead of such small numpy operations.  Timed side by side while the
host slowed by up to 1.9x, this kernel tracked make_context and
evaluate_bundle to within about 5%; a pure-Python loop and a kernel of
~300-element array arithmetic tracked them less well.
"""

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Optional

import numpy as np

# Typical kernel time on the 2-core development VM (Python 3.11, numpy
# 2.4) when it runs fast; reported times are "ms at that speed".
NOMINAL_KERNEL_S = 0.8e-3
# Operations are grouped into blocks of at least this much raw time, so
# the kernel costs a few percent of a run while still following drift on
# the scale of tens of milliseconds.
BLOCK_S = 0.025
KERNEL_REPS = 60

_OM = np.array([[0.2 + 1.1j, 0.3 + 0.1j], [0.3 + 0.1j, -0.1 + 0.9j]])


def kernel():
    """The fixed reference work; returns a value so nothing is skipped."""
    acc = 0j
    for r in range(KERNEL_REPS):
        z = np.array([0.1 + 0.01 * r, -0.2 + 0.03j])
        m = np.round(np.linalg.solve(_OM.imag, z.imag))
        zm = z - _OM @ m
        acc += zm @ _OM @ zm + np.exp(-1j * np.pi * (m @ _OM @ m))
    return acc


def kernel_time():
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


@dataclass
class Sample:
    """One timed step: its output or the error it raised, its raw wall
    time, and the factor that rescales it to reference speed."""
    raw_s: float = 0.0
    scale: float = 1.0
    value: Any = None
    error: Optional[BaseException] = None

    @property
    def norm_s(self):
        return self.raw_s * self.scale


class RefTimer:
    """Times callables and rescales their times to reference speed.

    `failures` is the exception class an operation may raise as a counted
    failure; anything else propagates.  When `tracer` is set, it is told
    which sample the spans recorded during a step belong to.  `samples`
    keeps every step timed so far.
    """

    def __init__(self, failures=(), tracer=None):
        self.failures = failures
        self.tracer = tracer
        self.kernel_s = [kernel_time()]
        self.samples = []
        self._pending = []
        self._pending_s = 0.0

    def time(self, fn):
        sample = Sample()
        if self.tracer is not None:
            self.tracer.sample = sample
        t0 = perf_counter()
        try:
            sample.value = fn()
        except self.failures as exc:
            sample.error = exc
        finally:
            sample.raw_s = perf_counter() - t0
            if self.tracer is not None:
                self.tracer.sample = None
        self.samples.append(sample)
        self._pending.append(sample)
        self._pending_s += sample.raw_s
        if self._pending_s >= BLOCK_S:
            self.flush()
        return sample

    def flush(self):
        """Close the current block: run the kernel and fix its scales."""
        if not self._pending:
            return
        k = kernel_time()
        scale = NOMINAL_KERNEL_S / (0.5 * (self.kernel_s[-1] + k))
        self.kernel_s.append(k)
        for s in self._pending:
            s.scale = scale
        self._pending = []
        self._pending_s = 0.0
