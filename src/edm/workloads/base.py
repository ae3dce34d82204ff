"""Synthetic workload base: Zipf-skewed chunk access with drift and bursts.

Each trace family is a SyntheticTrace subclass that fixes a popularity
exponent, read/write mix, hotspot drift, and burstiness.  An epoch's
requests are i.i.d. draws from the chunk-popularity vector, each a write
with probability ``write_ratio``; the sampler draws them exactly, at a cost
that follows the hot chunks plus the requests that land in the cold tail,
not the number of chunks (see :meth:`SyntheticTrace._fill`).
"""

from __future__ import annotations

import numpy as np

from edm.config import SimConfig

# A rank is in the sampler's head when it expects at least this many of an
# epoch's requests: hot chunks are drawn by one conditional binomial each,
# the cold tail one request at a time.  Cost alone picked it (16 and 32
# measure about equal, 8 is slower); any value draws from the same
# distribution.
HEAD_MIN = 16


def guide_table(cdf: np.ndarray) -> np.ndarray:
    """Chen-Asau guide table over the non-decreasing ``cdf`` (``cdf[-1] == 1``).

    Entry ``j`` of ``M`` equal buckets of [0, 1) is the first index whose
    cdf exceeds the bucket's lower edge ``j / M``.  ``M`` is the power of two
    at or above ``cdf.size``, so ``u * M`` and ``j / M`` are exact and a
    draw's bucket never starts above it.
    """
    m = 1 << (cdf.size - 1).bit_length()
    return np.searchsorted(cdf, np.arange(m) / m, side="right")


def inverse_cdf(cdf: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, u, side="right")``, bit for bit, for ``u`` in [0, 1).

    Each draw starts at its bucket's guide entry, which never overshoots,
    and steps up while the cdf there is still ``<= u``.  A bucket holds
    about one cdf point on average, so few draws take more than one step;
    each pass visits only the draws still moving.
    """
    i = guide[(u * guide.size).astype(np.intp)]
    moving = np.flatnonzero(cdf[i] <= u)
    while moving.size:
        i[moving] += 1
        moving = moving[cdf[i[moving]] <= u[moving]]
    return i


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
        self._base_probs = p = p / p.sum()
        # Rank order is popularity order, so the head is a prefix.  The split
        # draws each head rank and, as one last category, the whole tail,
        # which takes whatever the head leaves.  The last rank always stays
        # in the tail, so the tail's CDF is never empty and rounding in the
        # multinomial can never hand a request to a category with no ranks.
        head = min(np.count_nonzero(cfg.requests_per_epoch * p >= HEAD_MIN), cfg.num_chunks - 1)
        self._split = np.append(p[:head], 1.0 - p[:head].sum())
        cdf = np.cumsum(p[head:])
        self._tail_cdf = cdf / cdf[-1]
        self._guide = guide_table(self._tail_cdf)

    def drift_shift(self, epoch: int) -> int:
        """Chunks the hotspot has rotated by at ``epoch``: rank r is chunk r + shift."""
        if not self.drift_period:
            return 0
        return (epoch // self.drift_period) * self.drift_step % self.cfg.num_chunks

    def probs(self, epoch: int) -> np.ndarray:
        """Chunk popularity vector for this epoch (hotspot drift applied).

        A reference for tests; the sampler draws in rank space instead.
        """
        return np.roll(self._base_probs, self.drift_shift(epoch))

    def epoch_volume(self, epoch: int) -> int:
        base = self.cfg.requests_per_epoch
        if self.burstiness > 0:
            # Gamma with mean 1: occasional epochs with several-x volume.
            scale = self.rng.gamma(1.0 / self.burstiness, self.burstiness)
            return max(1, int(round(base * scale)))
        return base

    def _fill(self, epoch: int) -> None:
        """Draw one epoch: ``Multinomial(volume, probs(epoch))`` and its write split.

        The head ranks and the tail as a whole are drawn as one multinomial,
        one conditional binomial each, and each touched head rank's writes
        as a binomial.  The tail's requests are drawn one by one, uniforms
        through its inverse CDF; the draws are i.i.d., so the first
        ``Binomial(n_tail, write_ratio)`` of them are its writes.  Both
        together are exactly the multinomial and its per-chunk binomial
        split, from O(head + tail requests) random draws; all that is left
        per chunk is writing the dense output, where drift rotates the ranks
        onto chunks.
        """
        rng = self.rng
        split = rng.multinomial(self.epoch_volume(epoch), self._split)
        head, n_tail = split[:-1], split[-1]
        touched = np.flatnonzero(head)
        head_writes = rng.binomial(head[touched], self.write_ratio)
        tail = inverse_cdf(self._tail_cdf, self._guide, rng.random(n_tail))
        tail_writes = rng.binomial(n_tail, self.write_ratio)
        tail += head.size
        counts = np.bincount(tail, minlength=self.cfg.num_chunks)
        writes = np.bincount(tail[:tail_writes], minlength=self.cfg.num_chunks)
        counts[: head.size] = head
        writes[touched] = head_writes
        shift = self.drift_shift(epoch)
        for rank_space, out in ((counts, self._countsf), (writes, self._writesf)):
            out[shift:] = rank_space[: rank_space.size - shift]
            out[:shift] = rank_space[rank_space.size - shift :]
