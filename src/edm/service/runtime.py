"""Request-level service runtime: bounded queues, latency, migration spikes.

The engine is epoch-aggregate everywhere else: a request is a unit of load,
never a unit of time.  :class:`ServiceRuntime` gives each OSD a service rate
(requests retired per epoch, scaled by live capacity) and a bounded FIFO
queue, then steps an M/D/1-style Lindley recursion over the OSD axis once
per epoch:

    backlog' = max(backlog + injected_migration_work + accepted - rate, 0)

A request accepted as the ``i``-th arrival of its epoch sees sojourn time
``(backlog + injected + i + 1) / rate`` epochs -- deterministic FIFO service,
no per-request randomness.  Latencies accumulate into a fixed log-spaced
histogram, so p50/p99/p999 come from bin edges and are bit-stable across
runs and backends.

Migrations and fault re-placement bursts charge
``cfg.service_migration_cost`` request-equivalents per moved chunk into a
per-OSD pending pool (source and destination both pay -- a migration reads
one replica and writes another); the pool drains into the queues at
``1/cfg.service_cooldown_epochs`` per epoch, flushing outright once it falls
below one request.  That drain is what turns "migrate vs. tolerate
imbalance" into a visible latency tradeoff: epochs with in-flight migration
work report their own latency aggregate, and ``migration_spike_ratio``
compares it against clean epochs.

Each epoch costs O(OSDs x histogram bins crossed), whatever the request
volume: FIFO latencies on one OSD rise with arrival order, so
:func:`epoch_service` counts each OSD's requests into the histogram by
inverting only the bin edges between its first and last latency, and sums
them as a closed-form series.  Only an OSD's first few requests, whose
latencies lie too far apart to share a bin, are keyed one by one; no
array is sized by the request count.  The bin counts, the stalled count
and the max are exactly those of evaluating every request;
tests/service_reference.py keeps that per-request model as the oracle the
closed form is pinned against, on raw arrays and through whole simulate()
runs.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from edm.service.spec import ServiceModel

__all__ = [
    "LATENCY_EDGES",
    "EpochService",
    "ServiceRuntime",
    "epoch_service",
    "histogram_percentile",
]

# Fixed log-spaced latency bin edges (in epochs of service time): bin 0 is
# [0, 1e-4), then 256 log-spaced bins up to 1e4.  The histogram carries one
# extra slot past the last edge -- a dedicated overflow bin for anything
# slower than 1e4 epochs (including inf, a request accepted by a zero-rate
# OSD).  Percentiles report the overflow bin as inf; a finite latency at or
# below the top edge always resolves to a real (finite-edged) bin.
LATENCY_EDGES = np.concatenate(([0.0], np.logspace(-4.0, 4.0, 257)))
_NUM_BINS = LATENCY_EDGES.size - 1


def histogram_percentile(hist: np.ndarray, q: float) -> float:
    """Percentile from a latency histogram: lower edge of the covering bin.

    Returns NaN for an empty histogram (a run that never accepted a request
    -- e.g. zero-request epochs throughout, or an all-dead cluster) and inf
    only when the percentile falls in the dedicated overflow slot past the
    last edge (``hist`` has ``_NUM_BINS + 1`` entries).  Both guards are
    explicit Python branches, so no RuntimeWarning escapes under
    ``-W error``.
    """
    total = int(hist.sum())
    if total == 0:
        return float("nan")
    target = q * total
    idx = int(np.searchsorted(np.cumsum(hist), target, side="left"))
    if idx >= _NUM_BINS:
        return float("inf")
    return float(LATENCY_EDGES[idx])


class EpochService(NamedTuple):
    """One epoch of admission and FIFO latency, aggregated per OSD.

    ``accepted`` and ``new_depth`` are per-OSD; ``hist`` is this epoch's
    histogram increment (one slot per real bin plus the overflow slot);
    ``lat_sum``, ``lat_count`` and ``lat_max`` cover the finite latencies
    only (``lat_max`` is NaN when there are none).  Accepted requests with
    a non-finite latency number ``accepted.sum() - lat_count``.
    """

    accepted: np.ndarray
    new_depth: np.ndarray
    hist: np.ndarray
    lat_sum: float
    lat_count: int
    lat_max: float


def _latency(base: np.ndarray, rate: np.ndarray, i: np.ndarray) -> np.ndarray:
    """FIFO sojourn of the ``i``-th accepted request: ``(base + i + 1) / rate``."""
    return (base + (i + 1.0)) / rate


# Smallest latency of each key: a latency keys at ``key`` or above exactly
# when it is not below ``_KEY_START[key]`` (NaN included, as it keys last).
# Keys ``0 .. _NUM_BINS - 1`` are the real bins, the top one closed so a
# latency of exactly 1e4 stays in it; ``_NUM_BINS`` is the overflow slot
# for finite latencies above the top edge, and ``_STALLED`` an inf or NaN
# latency (a stalled request, also counted in the overflow slot).
_KEY_START = np.concatenate(
    ([-np.inf], LATENCY_EDGES[1:-1], [np.nextafter(LATENCY_EDGES[-1], np.inf), np.inf])
)
_STALLED = _KEY_START.size - 1

# The real bins above 1e-4 are 32 per decade, so the latencies of requests
# ``i`` and ``i + 1`` on an OSD, in the ratio 1 + 1 / (base + i + 1), cannot
# share a bin while base + i + 1 is at most this (about 13.4).
_SPARSE = 1.0 / (10.0 ** (1.0 / 32.0) - 1.0)


def _key(lat: np.ndarray) -> np.ndarray:
    """Key of each latency (see ``_KEY_START``)."""
    return np.searchsorted(_KEY_START, lat, side="right") - 1


def _first_index(
    base: np.ndarray,
    rate: np.ndarray,
    lo: np.ndarray,
    accepted: np.ndarray,
    start: np.ndarray,
) -> np.ndarray:
    """Smallest index whose latency is not below ``start``.

    ``start`` must lie above the latency at index ``lo`` and at or below
    the last one, so the answer is in ``(lo, accepted)``; latencies rise
    with the index, so it is unique.  The index estimated by inverting the
    latency formula at ``start`` is kept when the very same float
    expression, evaluated at it and at its predecessor, confirms it (the
    usual case); the rest are found by bisection.
    """
    idx = np.fmin(np.ceil(start * rate - base - 1.0), accepted).astype(np.int64)
    # (base + idx) / rate is the latency at idx - 1: (idx - 1) + 1.0 is
    # exactly idx as a double.
    miss = np.flatnonzero(
        (_latency(base, rate, idx) < start) | ~((base + idx) / rate < start)
    )
    if miss.size:
        b, r, s = base[miss], rate[miss], start[miss]
        lo = lo[miss] + 1
        hi = accepted[miss] - 1
        while (open_ := lo < hi).any():
            mid = (lo + hi) >> 1
            up = ~(_latency(b, r, mid) < s)
            hi = np.where(open_ & up, mid, hi)
            lo = np.where(open_ & ~up, mid + 1, lo)
        idx[miss] = lo
    return idx


def _key_counts(
    base: np.ndarray, rate: np.ndarray, accepted: np.ndarray
) -> tuple[np.ndarray, np.ndarray | int]:
    """Request count per key and stalled count per OSD (0 if none).

    An OSD's first requests, while no two of their latencies share a bin
    (``base + i + 1 <= _SPARSE``, at most 13 of them as ``base >= 0``), are
    keyed one by one.  The rest start at the key of the first of them; from
    each crossed key's first index on they move up from ``key - 1`` to
    ``key``.  Either way the work per OSD is at most about the bins it
    crosses.
    """
    head = np.minimum(np.maximum(np.floor(_SPARSE - base), 0.0), accepted).astype(np.int64)
    # One (OSD, index) pair per head request.
    osd = np.repeat(np.arange(accepted.size), head)
    rank = np.arange(osd.size) - (np.cumsum(head) - head)[osd]
    head_key = _key(_latency(base[osd], rate[osd], rank))
    counts = np.bincount(head_key, minlength=_STALLED + 1)

    rest = np.flatnonzero(accepted > head)
    b, r, a, h = base[rest], rate[rest], accepted[rest], head[rest]
    # (b + a) / r is the last request's latency, as in _first_index.
    key_lo = _key(_latency(b, r, h))
    # One (OSD, key) pair per key start crossed.
    span = _key((b + a) / r) - key_lo
    pair = np.repeat(np.arange(rest.size), span)
    key = np.arange(pair.size) - (np.cumsum(span) - span - key_lo - 1)[pair]
    a_pair = a[pair]
    moved = a_pair - _first_index(b[pair], r[pair], h[pair], a_pair, _KEY_START[key])
    into = np.bincount(key, weights=moved, minlength=_STALLED + 2)
    counts = counts + (
        np.bincount(key_lo, weights=a - h, minlength=_STALLED + 1) + into[:-1] - into[1:]
    ).astype(np.int64)
    if not counts[_STALLED]:
        return counts, 0
    # Stalled requests (inf/NaN latency) are each OSD's last ones: its
    # stalled head requests, then the rest from the stalled key's first
    # index, or all the rest if the first of them stalls.
    stalled = np.bincount(osd[head_key == _STALLED], minlength=accepted.size)
    stalled[rest] += np.where(key_lo == _STALLED, a - h, 0)
    at = key == _STALLED
    stalled[rest[pair[at]]] += moved[at]
    return counts, stalled


def epoch_service(
    arrivals: np.ndarray, base: np.ndarray, rate: np.ndarray, qbound: float
) -> EpochService:
    """One epoch of queue admission + FIFO latency, in closed form per OSD.

    ``arrivals`` are integer-valued per-OSD request counts, ``base`` the
    backlog each queue starts the epoch with (carried depth + injected
    migration work), ``rate`` the effective service rate (0 for dead OSDs).

    The ``i``-th accepted request on an OSD sees ``(base + i + 1) / rate``,
    non-decreasing in ``i``, so each OSD's requests fill a run of
    consecutive histogram slots.  Counting them needs only the bin edges
    between each OSD's first and last latency, inverted by
    :func:`_first_index`, bar a few first requests whose latencies lie too
    far apart to share a bin, which are keyed directly.  So the cost is
    O(OSDs x bins crossed) whatever the request volume.  The bin counts and the max are exactly those of
    evaluating every request; the finite sum is the series
    ``(n * base + n * (n + 1) / 2) / rate`` over each OSD's ``n`` finite
    latencies.
    """
    # Admission: a queue has room for its bound plus one epoch of service
    # beyond the standing backlog; dead OSDs (rate 0) admit nothing.
    room = np.where(rate > 0, qbound + rate - base, 0.0)
    accepted = np.minimum(arrivals, np.maximum(np.floor(room), 0.0)).astype(np.int64)
    new_depth = np.maximum(base + accepted - rate, 0.0)

    busy = np.flatnonzero(accepted)
    a, b, r = accepted[busy], base[busy], rate[busy]
    # A latency that overflows is inf: a stalled request, not an error.
    with np.errstate(over="ignore", divide="ignore"):
        keyed, stalled = _key_counts(b, r, a)
        # Per OSD, n finite latencies rise to (b + n) / r, the very value
        # the (n - 1)-th request's latency takes.
        n = (a - stalled).astype(np.float64)
        lat_sum = float(((n * b + n * (n + 1.0) / 2.0) / r).sum())
        last = (b + n) / r
    hist = keyed[:_STALLED]
    hist[_NUM_BINS] += keyed[_STALLED]
    lat_count = int(n.sum())
    if keyed[_STALLED]:
        last = last[n > 0]  # an OSD whose every request stalled has no max
    lat_max = float(last.max()) if lat_count else float("nan")
    return EpochService(accepted, new_depth, hist, lat_sum, lat_count, lat_max)


class ServiceRuntime:
    """Per-run queue state-stepper and latency accumulator.

    Owns the latency histogram and the run-level service aggregates; the
    per-OSD queue arrays (``osd_queue_depth``, ``osd_service_rate``,
    ``osd_mig_backlog``) live on :class:`~edm.engine.state.ClusterState` so
    recorders and policies can observe them like any other state.
    """

    def __init__(self, model: ServiceModel, cfg) -> None:
        self.model = model
        self.qbound = model.queue_bound
        self._drain = 1.0 / float(cfg.service_cooldown_epochs)
        self._rates = model.rates(cfg.num_osds)
        # Run-level accumulators.  The histogram has one slot per real bin
        # plus a trailing overflow slot for latencies past the last edge.
        self.hist = np.zeros(_NUM_BINS + 1, dtype=np.int64)
        self.lat_sum = 0.0
        self.lat_count = 0
        self.stalled_total = 0
        self.requests_total = 0
        self.dropped_total = 0
        self.lost_work = 0.0
        self.spike_lat_max = float("nan")
        self._mig_lat_sum = 0.0
        self._mig_lat_count = 0
        self._clean_lat_sum = 0.0
        self._clean_lat_count = 0
        self._depth_mean_sum = 0.0
        self._depth_cov_sum = 0.0
        self._depth_max = 0.0
        self._epochs = 0

    def attach(self, state) -> None:
        """Install the model's rates on the cluster state."""
        state.osd_service_rate = self._rates.astype(np.float64).copy()

    def step(self, state, arrivals: np.ndarray, stats=None) -> None:
        """Advance every queue by one epoch and accumulate latency stats.

        ``arrivals`` is the per-OSD request-count vector the kernel routed
        this epoch (integer-valued float64).  Fills ``stats`` (an
        :class:`~edm.telemetry.recorder.EpochStats`) with this epoch's
        latency mean and queue-depth aggregates when provided.
        """
        depth = state.osd_queue_depth
        pending = state.osd_mig_backlog
        alive = state.osd_alive
        dead = ~alive
        if dead.any():
            # A dead OSD's backlog is lost, not served: account and zero it
            # so corpse queues never leak into depth statistics.
            self.lost_work += float(depth[dead].sum() + pending[dead].sum())
            depth[dead] = 0.0
            pending[dead] = 0.0
        # Drain pending migration work into the queues: a cooldown-sized
        # fraction per epoch, flushed outright once below one request.
        inject = np.where(pending < 1.0, pending, pending * self._drain)
        pending -= inject
        mig_epoch = bool(inject.sum() > 0.0)

        base = depth + inject
        rate = state.osd_service_rate * state.osd_capacity * alive
        out = epoch_service(arrivals, base, rate, self.qbound)
        np.copyto(depth, out.new_depth)

        offered = int(arrivals.sum())
        accepted = int(out.accepted.sum())
        self.requests_total += offered
        self.dropped_total += offered - accepted
        self.stalled_total += accepted - out.lat_count
        self.hist += out.hist
        lat_mean = 0.0
        if out.lat_count:
            self.lat_sum += out.lat_sum
            self.lat_count += out.lat_count
            lat_mean = out.lat_sum / out.lat_count
            if mig_epoch:
                self._mig_lat_sum += out.lat_sum
                self._mig_lat_count += out.lat_count
                if not self.spike_lat_max >= out.lat_max:
                    self.spike_lat_max = out.lat_max
            else:
                self._clean_lat_sum += out.lat_sum
                self._clean_lat_count += out.lat_count

        # Queue-depth aggregates over *alive* OSDs only.  Dead queues were
        # zeroed above; leaving them in would dilute the survivors' mean
        # with permanent zeros and inflate the CoV for the rest of the run
        # -- the same survivor-masking convention the load CoV uses.
        d_alive = depth[alive]
        if d_alive.size:
            d_mean = float(d_alive.mean())
            d_cov = float(d_alive.std() / d_mean) if d_mean > 0 else 0.0
            self._depth_max = max(self._depth_max, float(d_alive.max()))
        else:
            d_mean = 0.0
            d_cov = 0.0
        self._depth_mean_sum += d_mean
        self._depth_cov_sum += d_cov
        self._epochs += 1
        if stats is not None:
            stats.lat_mean = lat_mean
            stats.queue_depth_mean = d_mean
            stats.queue_depth_cov = d_cov

    def metrics_block(self) -> dict:
        """Run-level service metrics, merged into ``simulate``'s dict."""
        lat_mean = self.lat_sum / self.lat_count if self.lat_count else float("nan")
        mig_mean = (
            self._mig_lat_sum / self._mig_lat_count
            if self._mig_lat_count
            else float("nan")
        )
        clean_mean = (
            self._clean_lat_sum / self._clean_lat_count
            if self._clean_lat_count
            else float("nan")
        )
        if self._mig_lat_count and self._clean_lat_count and clean_mean > 0:
            spike_ratio = mig_mean / clean_mean
        else:
            spike_ratio = float("nan")
        epochs = self._epochs
        return {
            "service": self.model.spec,
            "service_lat_p50": histogram_percentile(self.hist, 0.50),
            "service_lat_p99": histogram_percentile(self.hist, 0.99),
            "service_lat_p999": histogram_percentile(self.hist, 0.999),
            "service_lat_mean": lat_mean,
            "service_requests_total": self.requests_total,
            "service_dropped_total": self.dropped_total,
            "service_stalled_total": self.stalled_total,
            "service_lost_work": self.lost_work,
            "migration_spike_ratio": spike_ratio,
            "migration_spike_lat_max": self.spike_lat_max,
            "queue_depth_mean": self._depth_mean_sum / epochs if epochs else 0.0,
            "queue_depth_max": self._depth_max,
            "queue_depth_cov_mean": self._depth_cov_sum / epochs if epochs else 0.0,
        }
