"""Machine-speed calibration against a fixed reference kernel.

On a shared machine the speed available to one thread drifts by half or
more over tens of seconds, in phases longer than a run, and thread CPU time
does not remove it (contention slows every instruction, not only the waits). The
benchmark therefore times a fixed kernel of its own next to the operations
and expresses their times at a nominal kernel speed:
``calibrated = raw * NOMINAL_NS / kernel_ns``.

The kernel does the kind of work the library does (matrix-vector products
along an orbit, per-edge complex arithmetic in Python, a least-squares
solve, a JSON round trip, small determinants) but calls nothing in
``dynphase``, so a change to the library moves the calibrated times while a
change of machine speed moves them much less.
"""

from __future__ import annotations

import cmath
import json
import time

import numpy as np

#: Kernel time defined as nominal speed: the kernel's CPU time on an
#: uncontended 2-core Xeon virtual machine (Python 3.11, numpy 2.4, one BLAS thread).
NOMINAL_NS = 300_000

#: Kernel runs per sample; the sample is their minimum.
REPEATS = 3


class Calibrator:
    """The reference kernel, with fixed inputs drawn once from seed 0."""

    def __init__(self):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        self._operator = q
        self._x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        self._minors = rng.standard_normal((40, 6, 6))

    def _kernel(self) -> None:
        columns = [self._x]
        for _ in range(23):
            columns.append(self._operator @ columns[-1])
        synthesis = np.column_stack(columns)
        coeffs = synthesis.conj().T @ self._x
        mags = np.abs(coeffs)
        phases, table = [0.0], {}
        for l in range(23):
            z = complex(coeffs[l].conjugate() * coeffs[l + 1])
            r = (abs(z) ** 2 - float(mags[l]) ** 2) / (2.0 * float(mags[l]) * float(mags[l + 1]) + 1.0)
            table[(l, 1, 1)] = min(1.0, max(-1.0, r))
            phases.append(phases[-1] + cmath.phase(z))
        rhs = mags * np.exp(1j * np.array(phases))
        estimate = np.linalg.lstsq(synthesis.conj().T, rhs, rcond=None)[0]
        json.loads(json.dumps([[z.real, z.imag] for z in estimate.tolist()]))
        for minor in self._minors:
            abs(np.linalg.det(minor))

    def sample(self) -> int:
        """Kernel CPU time now, in ns (the best of ``REPEATS`` runs)."""
        best = None
        for _ in range(REPEATS):
            t0 = time.thread_time_ns()
            self._kernel()
            elapsed = time.thread_time_ns() - t0
            best = elapsed if best is None else min(best, elapsed)
        return best
