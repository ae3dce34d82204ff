"""Workload generators: shape, determinism, skew, and trace personality."""

import numpy as np
import pytest

from edm.config import SimConfig, rng_seed_sequence
from edm.workloads import TRACES, make_workload


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


@pytest.mark.parametrize("name", ["deasna", "lair62b"])
def test_write_split_matches_full_binomial_draw(name):
    # The write split only draws over touched chunks; a binomial over zero
    # trials consumes no randomness, so arrays and generator state must
    # match a binomial over every chunk, epoch after epoch.
    cfg = SimConfig(workload=name, num_osds=200, chunks_per_osd=64, seed=3)
    wl = make_workload(cfg, np.random.default_rng(11))
    ref = np.random.default_rng(11)
    for epoch in range(200):
        counts, writes = wl.epoch_counts(epoch)
        volume = cfg.requests_per_epoch
        if wl.burstiness > 0:
            scale = ref.gamma(1.0 / wl.burstiness, wl.burstiness)
            volume = max(1, int(round(volume * scale)))
        c = ref.multinomial(volume, wl.probs(epoch))
        w = ref.binomial(c, wl.write_ratio)
        assert (counts == c).all() and (writes == w).all()
    assert wl.rng.bit_generator.state == ref.bit_generator.state
