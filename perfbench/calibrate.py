"""Machine-speed reference for the okubo benchmark.

The benchmark's host is shared, and its speed drifts by 20-40 % over
seconds to minutes.  To keep runs comparable, a fixed kernel that uses no
okubo code (small complex linear algebra, a DOP853 integration, log-gamma
calls and a pure-Python loop, the same mix of work as the package) is timed
between ops throughout a pass.  Times are reported in seconds at the
reference speed: raw seconds times ``REFERENCE_S`` over the pass's mean
kernel time.  (Scaling each op by the kernel timings nearest to it instead
was tried and made the figures noisier.)  Raw seconds are printed alongside.
"""

from __future__ import annotations

import cmath
import time

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import loggamma

# Kernel time on the 2-vCPU Xeon host the benchmark was written on, when
# that host was quiet.
REFERENCE_S = 0.013

_RNG = np.random.default_rng(20160622)
_MATS = [(_RNG.standard_normal((n, n)) + 1j * _RNG.standard_normal((n, n)))
         for n in (8, 16, 32)]
_ODE = 0.4 * (_RNG.standard_normal((6, 6)) + 1j * _RNG.standard_normal((6, 6)))
_Y0 = np.eye(6, dtype=complex).reshape(-1)
_GAMMA_ARGS = _RNG.uniform(-0.45, 3.0, 200) + 1j * _RNG.uniform(0.1, 0.9, 200)


def _rhs(s, y):
    return (_ODE @ y.reshape(6, 6)).reshape(-1)


def kernel() -> complex:
    acc = 0j
    for m in _MATS:
        for k in range(20):
            x = np.linalg.solve(m + k * np.eye(len(m)), m)
            acc += np.linalg.svd(x, compute_uv=False)[-1]
    sol = solve_ivp(_rhs, (0.0, 3.0), _Y0, method="DOP853", rtol=1e-10,
                    atol=1e-12)
    acc += sol.y[0, -1]
    for _ in range(5):
        for g in _GAMMA_ARGS:
            acc += cmath.exp(complex(loggamma(g)) - complex(loggamma(g + 1)))
    z = 0.5 + 0.25j
    for i in range(24000):
        z = z * (0.999 + 0.001j) + 1e-4 * i
    return acc + z


# Seconds of measured work between kernel timings (about 7 % overhead).
EVERY_S = 0.3


class SpeedProbe:
    """Kernel timings spread through a stretch of measured work."""

    def __init__(self):
        self.samples = []        # kernel seconds
        self._since = 0.0

    def sample(self):
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)
        self._since = 0.0

    def tick(self, work_s: float):
        """Count ``work_s`` seconds of work; sample every ``EVERY_S``."""
        self._since += work_s
        if self._since >= EVERY_S:
            self.sample()

    def factor(self) -> float:
        """REFERENCE_S over the mean kernel time: multiply raw seconds by
        this to get seconds at the reference speed."""
        return REFERENCE_S / (sum(self.samples) / len(self.samples))
