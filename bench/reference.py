"""A fixed computation that measures how fast the machine runs right now.

The cores this benchmark runs on may be shared: the same pass can take
30% longer for a minute and then recover, with CPU time rising as much as
wall time.  A fixed mix of numpy kernels like those of the spin and fock
layers (a Hermitian eigensolve, a Q-symbol einsum, complex exponentials)
slows down with it, so run.py times the mix next to every pass and scales
the pass to the machine speed at which one mix takes NOMINAL_S.
"""

from __future__ import annotations

import time

# Typical time of one mix on a 2-core Xeon at 2.0 GHz with one BLAS thread.
NOMINAL_S = 0.02
# Mixes per reading: one alone is too short to average out the noise.
MIXES = 5


class Reference:
    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(20030815)
        raw = rng.normal(size=(160, 160)) + 1j * rng.normal(size=(160, 160))
        self._np = np
        self._hermitian = raw + raw.conj().T
        self._states = rng.normal(size=(1500, 40)) + 1j * rng.normal(size=(1500, 40))
        self._grid = np.outer(np.arange(2000.0), np.arange(40.0))

    def _mix(self):
        np = self._np
        np.linalg.eigh(self._hermitian)
        np.einsum("ki,ij,kj->k", self._states.conj(), self._hermitian[:40, :40], self._states)
        np.exp(1j * self._grid)

    def seconds(self) -> float:
        """Mean wall time of one mix over MIXES runs."""
        start = time.perf_counter()
        for _ in range(MIXES):
            self._mix()
        return (time.perf_counter() - start) / MIXES
