"""Per-request oracle for :func:`edm.service.epoch_service`.

Builds one latency per accepted request with scalar Python loops -- the
same IEEE-754 operations in the same order as the closed form evaluates at
the edges it inverts -- then bins, counts and maximises those latencies.
The closed form must reproduce its admission, depths, histogram, finite
count and max exactly.  Only the finite-latency sum is defined per OSD
rather than per request: each OSD's ``n`` finite latencies add up to the
series ``(n * base + n * (n + 1) / 2) / rate``, computed here as the model
computes it and summed over the OSDs that accepted a request, so whole
runs driven through this oracle stay bit-identical.  Tests check that
series against ``math.fsum`` of the per-request latencies separately.
Memory and time grow with the request count, so it runs at test sizes only.
"""

from __future__ import annotations

import numpy as np

from edm.service import LATENCY_EDGES, EpochService

NUM_BINS = LATENCY_EDGES.size - 1


def admit(arrivals, base, rate, qbound):
    """Per-OSD accepted counts and post-service depths, one OSD at a time."""
    n = arrivals.size
    accepted = np.zeros(n, dtype=np.int64)
    new_depth = np.zeros(n, dtype=np.float64)
    for j in range(n):
        room_j = qbound + rate[j] - base[j] if rate[j] > 0 else 0.0
        cap = max(np.floor(room_j), 0.0)
        accepted[j] = np.int64(min(float(arrivals[j]), cap))
        new_depth[j] = max(base[j] + accepted[j] - rate[j], 0.0)
    return accepted, new_depth


def request_latencies(accepted, base, rate) -> list[list[float]]:
    """Every accepted request's FIFO sojourn, per OSD, in arrival order."""
    with np.errstate(over="ignore"):
        return [
            [(base[j] + (i + 1.0)) / rate[j] for i in range(int(accepted[j]))]
            for j in range(accepted.size)
        ]


def epoch_service_reference(arrivals, base, rate, qbound) -> EpochService:
    """Brute-force counterpart of :func:`edm.service.epoch_service`."""
    accepted, new_depth = admit(arrivals, base, rate, qbound)
    per_osd = request_latencies(accepted, base, rate)
    lat = np.array([x for osd in per_osd for x in osd], dtype=np.float64)
    bins = np.clip(np.searchsorted(LATENCY_EDGES, lat, side="right") - 1, 0, NUM_BINS)
    # A latency equal to the top edge belongs to the last real bin; only
    # latencies above it (and inf/NaN) go to the overflow slot.
    bins[(bins == NUM_BINS) & (lat <= LATENCY_EDGES[-1])] = NUM_BINS - 1
    hist = np.bincount(bins, minlength=NUM_BINS + 1).astype(np.int64)

    sums = []
    finite_max = []
    for j, osd in enumerate(per_osd):
        if not osd:
            continue
        finite = [x for x in osd if np.isfinite(x)]
        n = float(len(finite))
        sums.append((n * base[j] + n * (n + 1.0) / 2.0) / rate[j])
        if finite:
            finite_max.append(max(finite))
    lat_sum = float(np.array(sums, dtype=np.float64).sum())
    lat_count = int(np.isfinite(lat).sum())
    lat_max = max(finite_max) if finite_max else float("nan")
    return EpochService(accepted, new_depth, hist, lat_sum, lat_count, float(lat_max))
