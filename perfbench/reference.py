"""A fixed reference kernel that gauges how fast the host runs right now.

On a shared host the same job can take 1.4x longer for minutes at a
time, and the guest cannot see why. While the measuring process runs its
timed jobs, a `Sampler` runs one short probe of this kernel every 0.2 s
of wall time, in the middle of jobs too, so the probes see the same
slow and fast phases as the jobs. The run's time metrics are scaled by
NOMINAL_S / (median probe time): seconds at the nominal host speed. The
kernel is the same kind of work djcm does (small complex numpy products,
Kronecker products, partial traces, 4x4 Hermitian eigenproblems and
scalar math called from Python), so a slow phase slows both alike, while
a change to djcm moves only the jobs. It imports nothing from djcm, so a
change to the program cannot change it.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

REPS = 50  # iterations per probe: about 5 ms on the calibration machine
NOMINAL_S = 0.005  # the probe time that defines nominal host speed (about the median on the calibration machine)
INTERVAL_S = 0.2  # wall time between two probes of a Sampler


def _operands():
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return a / np.abs(a).sum(), b / np.abs(b).sum(), (h + h.conj().T) / 2.0


_A, _B, _H = _operands()


def _work(reps: int) -> float:
    """`reps` iterations of the kernel; returns a checksum of the results."""
    acc = 0.0
    rho = np.eye(9, dtype=complex) / 9.0
    for k in range(reps):
        t = 0.01 * k
        c = math.exp(-0.1 * t) * math.cos(t) + math.sin(0.5 * t) ** 2
        m = np.kron(_A * c, _B) + np.eye(9)
        rho = m @ rho @ m.conj().T
        rho /= np.trace(rho).real
        reduced = np.einsum("ijkj->ik", rho.reshape(3, 3, 3, 3))
        w = np.linalg.eigvalsh(_H + reduced[:1, :1].real * np.eye(4))
        acc += float(np.sqrt(np.abs(w)).sum()) + abs(complex(reduced[0, 0]))
    return acc


# the checksum of one probe; a probe that disagrees did not run the kernel
CHECKSUM = _work(REPS)


def probe() -> float:
    """Run the kernel once and return its wall time in seconds."""
    start = time.perf_counter()
    value = _work(REPS)
    seconds = time.perf_counter() - start
    if value != CHECKSUM:
        raise RuntimeError(f"reference kernel returned {value!r}, expected {CHECKSUM!r}")
    return seconds


class Sampler:
    """Probes the host every `interval` seconds of wall time, in the middle of jobs too.

    A SIGALRM handler runs each probe between two bytecodes of whatever
    the main thread is doing. `busy_s` is the wall time spent in probes
    so far; subtract its growth from any interval timed under a Sampler.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self.busy_s = 0.0

    def _tick(self, signum, frame):
        seconds = probe()
        self.samples.append(seconds)
        self.busy_s += seconds

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False
