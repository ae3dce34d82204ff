"""Synthetic workload base: Zipf-skewed chunk access with drift and bursts.

Each trace family is a SyntheticTrace subclass that fixes a popularity
exponent, read/write mix, hotspot drift, and burstiness.  The generator is
fully vectorized: an epoch's accesses are drawn as a single multinomial over
the chunk-popularity vector (one RNG call per epoch, O(num_chunks)), not as
per-request samples.
"""

from __future__ import annotations

import numpy as np

from edm.config import SimConfig


class Trace:
    """A request stream: per-chunk access and write counts, one epoch at a time.

    ``epoch_counts`` is the single entry point of every stream, drawn live
    or replayed from a file, so whatever times or counts the workload layer
    sees all of them there.  Subclasses fill the two buffers in ``_fill``;
    ``close`` releases whatever the stream holds open.
    """

    def __init__(self, num_chunks: int):
        # Hot-path buffers: the float64 count arrays handed to the engine,
        # rewritten in place every epoch so the kernel never casts or
        # allocates.  Consumers read them within the epoch (the recorder
        # contract) -- the next epoch_counts call overwrites them.
        self._countsf = np.zeros(num_chunks)
        self._writesf = np.zeros(num_chunks)

    def _fill(self, epoch: int) -> None:
        raise NotImplementedError

    def epoch_counts(self, epoch: int) -> tuple[np.ndarray, np.ndarray]:
        """Return (access_counts, write_counts) for one epoch.

        Both are integer-valued **float64** arrays ``[num_chunks]``, written
        into per-instance buffers reused across epochs: the engine's fused
        kernel consumes float64 weights directly, so emitting float64 here
        kills the per-epoch ``astype`` churn at the source.  Callers must
        finish with an epoch's arrays before requesting the next epoch.
        """
        self._fill(epoch)
        return self._countsf, self._writesf

    def close(self) -> None:
        """Release what the stream holds open; a drawn stream holds nothing."""


class SyntheticTrace(Trace):
    """Base synthetic trace.

    Subclasses set class attributes; ``epoch_counts`` returns the per-chunk
    read+write access counts for one epoch.
    """

    name = "base"
    base_zipf = 1.0        # popularity exponent theta; p(rank r) ~ r^-theta
    write_ratio = 0.4      # fraction of accesses that are writes
    drift_period = 0       # epochs between hotspot shifts (0 = static hotset)
    drift_step = 0         # chunks the hotspot rotates per shift
    burstiness = 0.0       # 0 = constant epoch volume; >0 = gamma-modulated

    def __init__(self, cfg: SimConfig, rng: np.random.Generator):
        super().__init__(cfg.num_chunks)
        self.cfg = cfg
        self.rng = rng
        theta = self.base_zipf + cfg.skew
        ranks = np.arange(1, cfg.num_chunks + 1, dtype=np.float64)
        p = ranks ** -theta
        self._base_probs = p / p.sum()
        # One-slot cache for the drifted popularity vector: the hotspot only
        # rotates every drift_period epochs, so np.roll runs per shift, not
        # per epoch.
        self._probs_shift = 0
        self._probs_cache = self._base_probs

    def probs(self, epoch: int) -> np.ndarray:
        """Chunk popularity vector for this epoch (hotspot drift applied)."""
        if self.drift_period and self.drift_step:
            shift = ((epoch // self.drift_period) * self.drift_step) % self.cfg.num_chunks
            if shift:
                if shift != self._probs_shift:
                    self._probs_shift = shift
                    self._probs_cache = np.roll(self._base_probs, shift)
                return self._probs_cache
        return self._base_probs

    def epoch_volume(self, epoch: int) -> int:
        base = self.cfg.requests_per_epoch
        if self.burstiness > 0:
            # Gamma with mean 1: occasional epochs with several-x volume.
            scale = self.rng.gamma(1.0 / self.burstiness, self.burstiness)
            return max(1, int(round(base * scale)))
        return base

    def _fill(self, epoch: int) -> None:
        """Draw one epoch: a multinomial over chunks, then the write split.

        The write split draws one binomial per *touched* chunk only and
        scatters it into the zeroed writes buffer: a binomial over zero
        trials consumes no randomness, so this yields exactly the arrays and
        generator state of a binomial over every chunk, minus the work on
        the untouched tail of the popularity vector.
        """
        volume = self.epoch_volume(epoch)
        counts = self.rng.multinomial(volume, self.probs(epoch))
        touched = np.flatnonzero(counts)
        np.copyto(self._countsf, counts, casting="unsafe")
        self._writesf.fill(0.0)
        self._writesf[touched] = self.rng.binomial(counts[touched], self.write_ratio)
