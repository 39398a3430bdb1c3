"""Host-speed correction: timings in seconds at the reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts by up to
about 40% over minutes, as other tenants come and go; that swamps the program's
own run-to-run spread.  So a run times a fixed reference kernel (pure-Python
polynomial, dict and big-integer work plus small and mid-sized numpy calls,
the kinds of work ffl does, and nothing of ffl itself) between tasks, every
``EVERY_S`` seconds of task time, and scales each task's time by ``REF_S``
over the median of the ``2 * WINDOW`` kernel samples around it.  A task then reads the time it would take on a host
running the kernel in ``REF_S``, the kernel's median on the 2-core reference VM,
so values stay close to wall seconds there.  A change to ffl moves the task
times and not the kernel, so it shows in full.
"""

import statistics
import time

import numpy as np

REF_S = 0.0018      # about the kernel median on the 2-core reference VM
EVERY_S = 0.25      # task seconds between kernel samples
WINDOW = 3          # samples on each side of a task that set its scale

_V = np.arange(1 << 14, dtype=np.int64)
_W = np.arange(512, dtype=np.int64)


def kernel():
    a, b = list(range(3, 63)), list(range(7, 67))
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % 251
    counts = {}
    for k in range(2000):
        counts[k % 97] = counts.get(k % 97, 0) + k
    big = 1
    for k in range(1, 120):
        big = big * (2 * k + 1) + k ** 7
    out.append(big % 1000003)
    for k in range(40):     # many small numpy calls, as the character tables make
        w = (_W * (k + 3)) % 257
        out.append(int(np.bincount(w, minlength=257)[k]) + int(w.sum()))
    v = (_V * 7919) % 65521
    np.fft.rfft(v.astype(np.float64))
    np.sort(v)
    return out


def sample() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Clock:
    """Kernel samples along a run; ``scale(mark)`` converts a time measured
    after sample ``mark`` to reference seconds."""

    def __init__(self):
        self.samples = []
        self.next_at = 0.0

    def tick(self, busy: float) -> int:
        """Take a sample if ``EVERY_S`` of task time passed since the last one;
        returns the index of the latest sample."""
        if busy >= self.next_at:
            self.samples.append(sample())
            self.next_at = busy + EVERY_S
        return len(self.samples) - 1

    def close(self):
        """Samples after the last task, so it has neighbours on both sides."""
        self.samples += [sample() for _ in range(WINDOW)]

    def scale(self, mark: int) -> float:
        window = self.samples[max(0, mark - WINDOW + 1):mark + WINDOW + 1]
        return REF_S / statistics.median(window)


def around(fn, reps: int = 2 * WINDOW):
    """Run ``fn()`` between kernel samples; its wall time in reference seconds."""
    before = [sample() for _ in range(reps // 2)]
    t0 = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - t0
    after = [sample() for _ in range(reps - reps // 2)]
    return elapsed * REF_S / statistics.median(before + after)
