"""A fixed loop of the simulator's kinds of work, timed to gauge machine speed.

On a shared machine the same pass can take 40% longer a few minutes later,
and its CPU time grows with its wall time: the machine itself runs slower.
Host timings are therefore scaled by how long this loop takes in the same
run, relative to :attr:`Calibration.reference_s`.  The loop calls only numpy
and Python, never the simulator, so a change to the simulator cannot change
it.
"""

from __future__ import annotations

import time
import zlib

import numpy as np


class Calibration:
    """The loop's inputs, built once; :meth:`seconds` times one loop."""

    #: Median seconds of one loop on the reference machine (2-core x86_64
    #: container, Python 3.11, numpy 2.4).
    reference_s = 0.072

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        p = np.arange(1, 12_801, dtype=np.float64) ** -1.0
        self._probs = p / p.sum()
        self._owner = np.arange(12_800) % 200
        self._small = self._probs[:1280] / self._probs[:1280].sum()
        self._series = np.cumsum(rng.random((257, 20)), axis=0).tobytes()
        self._lat = rng.random(65_536) * 2.0
        self._edges = np.geomspace(1e-4, 1e4, 257)
        self._rows = rng.random((64, 24))

    def seconds(self) -> float:
        rng = np.random.default_rng(0)
        t0 = time.perf_counter()
        # Sampler: one multinomial, a binomial split and a weighted bincount,
        # over 12,800 chunks and over 1,280.
        for _ in range(20):
            counts = rng.multinomial(8192, self._probs)
            rng.binomial(counts, 0.4)
            np.bincount(self._owner, weights=counts.astype(np.float64), minlength=200)
        for _ in range(60):
            rng.binomial(rng.multinomial(8192, self._small), 0.4)
        # Service step: bin one large batch of latencies.
        for _ in range(5):
            bins = np.searchsorted(self._edges, self._lat, side="right")
            np.bincount(bins, minlength=self._edges.size + 1)
        # Time-series files: deflate a run's worth of per-OSD samples.
        for _ in range(6):
            zlib.compress(self._series, 6)
        # Per-chunk loops: the interpreter and many small numpy calls.
        picks = 0
        for i in range(7000):
            row = self._rows[i % 64]
            picks += int(np.argmin(row + row))
        return time.perf_counter() - t0
