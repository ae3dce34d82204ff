"""Workload generators: shape, determinism, skew, and trace personality."""

import numpy as np
import pytest

from edm.config import SimConfig, rng_seed_sequence
from edm.workloads import TRACES, make_workload
from edm.workloads.base import guide_table, inverse_cdf


def wl_for(name, skew=0.02, seed=7, **kw):
    cfg = SimConfig(workload=name, num_osds=8, skew=skew, seed=seed, **kw)
    return make_workload(cfg, np.random.default_rng(rng_seed_sequence(cfg))), cfg


def test_registry_names():
    assert set(TRACES) == {"deasna", "deasna2", "lair62", "lair62b"}


@pytest.mark.parametrize("name", sorted(TRACES))
def test_counts_shape_and_volume(name):
    wl, cfg = wl_for(name)
    counts, writes = wl.epoch_counts(0)
    assert counts.shape == (cfg.num_chunks,)
    assert writes.shape == (cfg.num_chunks,)
    assert (writes <= counts).all()
    if wl.burstiness == 0:
        assert counts.sum() == cfg.requests_per_epoch
    else:
        assert counts.sum() >= 1


@pytest.mark.parametrize("name", sorted(TRACES))
def test_deterministic_per_seed(name):
    a, _ = wl_for(name, seed=42)
    b, _ = wl_for(name, seed=42)
    for epoch in range(5):
        ca, wa = a.epoch_counts(epoch)
        cb, wb = b.epoch_counts(epoch)
        assert (ca == cb).all() and (wa == wb).all()


def test_different_traces_differ():
    a, _ = wl_for("deasna")
    b, _ = wl_for("lair62")
    assert not np.array_equal(a.epoch_counts(0)[0], b.epoch_counts(0)[0])


def test_higher_skew_concentrates_traffic():
    flat, _ = wl_for("lair62", skew=0.0)
    steep, _ = wl_for("lair62", skew=1.0)
    # Popularity mass on the single hottest chunk grows with the exponent.
    assert steep._base_probs.max() > flat._base_probs.max()
    assert np.isclose(steep._base_probs.sum(), 1.0)


def test_write_ratio_personality():
    # lair traces are read-heavy, deasna traces write-heavier.
    assert TRACES["lair62"].write_ratio < TRACES["deasna"].write_ratio
    assert TRACES["lair62b"].write_ratio < TRACES["deasna2"].write_ratio


def test_drift_rotates_hotspot():
    wl, cfg = wl_for("lair62b")
    p0 = wl.probs(0)
    p_shift = wl.probs(wl.drift_period)
    assert not np.array_equal(p0, p_shift)
    assert np.isclose(p_shift.sum(), 1.0)


def test_static_trace_has_fixed_hotspot():
    wl, _ = wl_for("lair62")
    assert np.array_equal(wl.probs(0), wl.probs(1000))


class Moments:
    """Residuals of per-epoch counts from their expectation, summed over epochs."""

    def __init__(self):
        self.resid = self.square = self.var = 0.0

    def add(self, observed, mean, var):
        self.resid += observed - mean
        self.square += (observed - mean) ** 2
        self.var += var

    def z(self):
        return self.resid / np.sqrt(self.var)

    def var_ratio(self):
        return self.square / self.var


def drawn_volumes(wl):
    """Record the volume of every epoch ``wl`` draws, in a list it returns."""
    volumes = []
    draw = wl.epoch_volume
    wl.epoch_volume = lambda epoch: volumes.append(draw(epoch)) or volumes[-1]
    return volumes


@pytest.mark.parametrize("name", sorted(TRACES))
def test_epochs_have_the_moments_of_a_multinomial_and_binomial_split(name):
    # Each epoch must be Multinomial(n, probs(epoch)) with n the volume it
    # drew, and each access a write with probability write_ratio.  Chunks
    # are compared in popularity-rank order, where drift leaves the law the
    # same every epoch.  The sums of OSD-sized blocks of ranks have
    # variance n*P*(1-P), which also checks the covariances within a block.
    cfg = SimConfig(workload=name, num_osds=16, chunks_per_osd=64, requests_per_epoch=4096, seed=5)
    wl = make_workload(cfg, np.random.default_rng(rng_seed_sequence(cfg)))
    assert 0 < wl._split.size - 1 < cfg.num_chunks - 1  # a head and a tail
    volumes = drawn_volumes(wl)
    ranks, blocks, rank_writes, writes = Moments(), Moments(), Moments(), Moments()
    wr = wl.write_ratio
    for epoch in range(2000):
        counts, w = wl.epoch_counts(epoch)
        n = volumes[-1]
        assert counts.sum() == n
        back = -wl.drift_shift(epoch)
        counts, w, p = np.roll(counts, back), np.roll(w, back), np.roll(wl.probs(epoch), back)
        ranks.add(counts, n * p, n * p * (1 - p))
        rank_writes.add(w, n * p * wr, n * p * wr * (1 - p * wr))
        block_p = p.reshape(cfg.num_osds, -1).sum(axis=1)
        blocks.add(counts.reshape(cfg.num_osds, -1).sum(axis=1), n * block_p,
                   n * block_p * (1 - block_p))
        writes.add(w.sum(), n * wr, n * wr * (1 - wr))
    assert (len(set(volumes)) > 1) is (wl.burstiness > 0)
    for z in (ranks.z(), rank_writes.z()):
        assert 0.9 < np.sqrt((z**2).mean()) < 1.1
        assert np.abs(z).max() < 5
    assert 0.97 < ranks.var_ratio().mean() < 1.03
    assert 0.75 < ranks.var_ratio().min() and ranks.var_ratio().max() < 1.25
    assert np.abs(blocks.z()).max() < 4
    assert 0.85 < blocks.var_ratio().min() and blocks.var_ratio().max() < 1.15
    assert abs(writes.z()) < 4
    assert 0.85 < writes.var_ratio() < 1.15


def test_guide_table_lookup_is_searchsorted_bit_for_bit():
    rng = np.random.default_rng(0)
    zipf = np.arange(1, 5001, dtype=np.float64) ** -1.6
    plateaus = rng.random(777) * (rng.random(777) < 0.5)  # zero-probability runs
    plateaus[-40:] = 0.0  # the cdf reaches 1 before its end
    for weights in (zipf[37:], plateaus, np.ones(1), np.ones(3), rng.random(1024)):
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        guide = guide_table(cdf)
        m = guide.size
        assert m >= cdf.size and m & (m - 1) == 0
        edges = np.arange(m) / m
        u = np.concatenate([
            rng.random(20000),
            edges, np.nextafter(edges, 1.0), np.nextafter(edges[1:], 0.0),
            cdf[:-1], np.nextafter(cdf[:-1], 0.0), np.nextafter(cdf[:-1], 1.0),
            1.0 - rng.random(2000) * 1e-3,  # the lowest-probability tail
            [0.0, np.nextafter(1.0, 0.0)],
        ])
        u = u[(u >= 0.0) & (u < 1.0)]
        assert np.array_equal(inverse_cdf(cdf, guide, u), np.searchsorted(cdf, u, side="right"))


@pytest.mark.parametrize("name", sorted(TRACES))
@pytest.mark.parametrize(
    "shape, osds, chunks_per_osd, requests",
    [("head-only", 2, 4, 8192), ("tail-only", 4, 16, 8), ("mixed", 8, 32, 2048)],
)
def test_every_epoch_draws_its_volume_and_writes_within_accesses(
    name, shape, osds, chunks_per_osd, requests
):
    cfg = SimConfig(
        workload=name, num_osds=osds, chunks_per_osd=chunks_per_osd,
        requests_per_epoch=requests, seed=9,
    )
    wl = make_workload(cfg, np.random.default_rng(rng_seed_sequence(cfg)))
    head = wl._split.size - 1
    # The last rank always stays in the tail, so "head-only" is all others.
    assert {"head-only": head == cfg.num_chunks - 1, "tail-only": head == 0,
            "mixed": 0 < head < cfg.num_chunks - 1}[shape]
    volumes = drawn_volumes(wl)
    for epoch in range(300):
        counts, writes = wl.epoch_counts(epoch)
        assert counts.sum() == volumes[-1]
        assert (writes >= 0).all() and (writes <= counts).all()
