"""A fixed reference computation that measures the machine's current speed.

On a shared host the same code runs up to 2.5 times slower from one
minute to the next, because other tenants load the cores and the memory
system.  The worker times this reference right before and after every op
and scales the op's time by REF_S / (the mean of the two): times are
reported "at reference speed", the time the op would take on a machine
where the reference takes exactly REF_S (about its time on a quiet
2-core x86-64 host of 2026).  The reference mixes an interpreted Python
loop with a numpy double contraction of a 1 MB kernel-like table, as the
ops do, and calls nothing in `cdsurface`, so a change to the package
cannot move it.  Raw times are reported next to the scaled ones.

Set-up times are scaled the same way, by the median of five reference
times taken in the same process right after the set-up.  Set-up is
mostly imports, which a single short sample tracks poorly, but over a
run the host's speed swings move both alike: over 13 param_scan runs
the quartile spread of `setup_s` was 0.156 raw and 0.048 scaled, over 5
route_check runs 0.202 and 0.061.
"""

from __future__ import annotations

from time import perf_counter

REF_S = 2e-3
_LOOP = 15_000
_NODES = 128


class Reference:
    def __init__(self, np):
        n = _NODES
        self._np = np
        self._vec = np.exp(2j * np.pi * np.arange(n) / n)
        self._mats = np.exp(1j * np.arange(n * 4).reshape(n, 2, 2) / 5.0)
        self._table = np.exp(1j * np.arange(n * n * 4).reshape(n, n, 2, 2)
                             / 7.0)

    def measure(self) -> float:
        """Seconds taken by the second of two back-to-back runs of the
        reference computation.  The first run brings the table back into
        the caches, which the op just before may have flushed, so the
        time returned does not depend on the op's memory footprint."""
        self._run()
        t0 = perf_counter()
        self._run()
        return perf_counter() - t0

    def _run(self) -> None:
        acc = 0
        for k in range(_LOOP):
            acc += k * k
        self._np.einsum("k,kab,kjbc,jcd,j->ad", self._vec, self._mats,
                        self._table, self._mats, self._vec, optimize=True)
