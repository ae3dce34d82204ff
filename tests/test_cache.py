"""Cache layer: warm hits are exact, stale/corrupt pickles are invalidated."""

import pickle

import pytest

from edm.cache import ResultCache
from edm.config import SimConfig, config_hash
from edm.engine.core import simulate
from edm.report import load_cached_metrics


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def test_miss_then_store_then_exact_hit(cache, small_cfg):
    assert cache.load(small_cfg) is None
    metrics = simulate(small_cfg)
    cache.store(small_cfg, metrics)
    assert cache.load(small_cfg) == metrics
    assert cache.hits == 1


def test_filename_matches_historical_key_format(cache):
    cfg = SimConfig(workload="lair62b", num_osds=20, policy="cmt", skew=0.02, seed=54321)
    assert cache.path_for(cfg).name == "lair62b-20osd-cmt-s0.02-r54321.pkl"


def test_config_hash_mismatch_invalidates_stale_pickle(cache, small_cfg, make_cfg):
    metrics = simulate(small_cfg)
    path = cache.store(small_cfg, metrics)
    # Same cache filename, different engine knobs -> same path, different hash.
    changed = make_cfg(heat_alpha=0.9)
    assert cache.path_for(changed) == path
    assert cache.load(changed) is None
    assert cache.invalidated == 1
    assert not path.exists()  # stale pickle removed, not silently returned


def test_corrupt_pickle_invalidated(cache, small_cfg):
    path = cache.store(small_cfg, {"x": 1})
    path.write_bytes(b"\x04garbage not a pickle")
    assert cache.load(small_cfg) is None
    assert cache.invalidated == 1
    assert not path.exists()


def test_foreign_payload_invalidated(cache, small_cfg):
    # A well-formed pickle that is not our payload schema (e.g. the truncated
    # artifacts the seed repo shipped with).
    path = cache.path_for(small_cfg)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(pickle.dumps({"workload": "deasna", "policy": "cmt"}))
    assert cache.load(small_cfg) is None
    assert not path.exists()


def test_store_is_atomic_no_tmp_left(cache, small_cfg):
    cache.store(small_cfg, {"x": 1})
    leftovers = list(cache.cache_dir.glob("*.tmp"))
    assert leftovers == []


def test_payload_records_hash_and_config(cache, small_cfg):
    path = cache.store(small_cfg, {"x": 1})
    payload = pickle.loads(path.read_bytes())
    assert payload["config_hash"] == config_hash(small_cfg)
    assert payload["config"] == small_cfg.to_dict()


def _write_payload(path, cfg, config_dict, metrics):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(pickle.dumps({
        "payload_version": 1,
        "config_hash": config_hash(cfg),
        "config": config_dict,
        "metrics": metrics,
    }))


def test_entries_stored_with_the_retired_kernel_key_still_load(cache, small_cfg, make_cfg):
    # Older versions stored a ``kernel`` backend choice in every payload's
    # config dict; it never fed config_hash, so those entries stay fresh.
    metrics = {"workload": small_cfg.workload, "policy": small_cfg.policy, "x": 1}
    _write_payload(
        cache.path_for(small_cfg), small_cfg, {**small_cfg.to_dict(), "kernel": "auto"}, metrics
    )
    loaded = load_cached_metrics(cache.cache_dir)
    assert loaded.stale == 0 and loaded.metrics == [metrics]
    assert cache.load(small_cfg) == metrics and cache.hits == 1
    # Only that one retired name is forgiven: any other unknown key is stale.
    other = make_cfg(seed=2)
    _write_payload(
        cache.path_for(other), other, {**other.to_dict(), "backend": "auto"}, {"x": 2}
    )
    loaded = load_cached_metrics(cache.cache_dir)
    assert loaded.stale == 1 and loaded.metrics == [metrics]
    with pytest.raises(TypeError, match="backend"):
        SimConfig.from_dict({**other.to_dict(), "backend": "auto"})


# --- counter accounting across sweeps ---------------------------------------

from edm.sweep import default_grid, sweep  # noqa: E402

TINY = dict(epochs=8, requests_per_epoch=128, chunks_per_osd=8)


def counter_grid():
    return default_grid(
        workloads=("deasna",),
        osds=(4,),
        policies=("baseline", "cdf", "hdf", "cmt"),
        seeds=(1,),
        **TINY,
    )


def test_cold_sweep_counts_only_misses(tmp_path):
    res = sweep(counter_grid(), cache_dir=tmp_path, workers=1)
    assert (res.cache_hits, res.cache_misses, res.cache_invalidated) == (0, 4, 0)
    assert res.simulated == 4


def test_warm_sweep_counts_only_hits(tmp_path):
    grid = counter_grid()
    sweep(grid, cache_dir=tmp_path, workers=1)
    res = sweep(grid, cache_dir=tmp_path, workers=1)
    assert (res.cache_hits, res.cache_misses, res.cache_invalidated) == (4, 0, 0)
    assert res.simulated == 0


def test_mixed_sweep_counts_hits_and_misses(tmp_path):
    grid = counter_grid()
    sweep(grid[:2], cache_dir=tmp_path, workers=1)  # pre-warm half
    res = sweep(grid, cache_dir=tmp_path, workers=1)
    assert (res.cache_hits, res.cache_misses) == (2, 2)
    assert res.simulated == 2


def test_forced_sweep_probes_nothing(tmp_path):
    grid = counter_grid()
    sweep(grid, cache_dir=tmp_path, workers=1)
    res = sweep(grid, cache_dir=tmp_path, workers=1, force=True)
    # force skips the cache probe entirely: no hits, no misses, all simulated.
    assert (res.cache_hits, res.cache_misses, res.cache_invalidated) == (0, 0, 0)
    assert res.simulated == len(grid)


def test_no_cache_sweep_reports_pending_as_misses(tmp_path):
    grid = counter_grid()[:3]
    res = sweep(grid, cache_dir=tmp_path, workers=1, use_cache=False)
    assert (res.cache_hits, res.cache_misses, res.cache_invalidated) == (0, 3, 0)
    assert res.simulated == 3


def test_corrupt_entry_counts_invalidated_and_resimulates(tmp_path):
    grid = counter_grid()
    sweep(grid, cache_dir=tmp_path, workers=1)
    victim = ResultCache(tmp_path).path_for(grid[0])
    victim.write_bytes(b"\x00 not a pickle")
    res = sweep(grid, cache_dir=tmp_path, workers=1)
    assert (res.cache_hits, res.cache_misses, res.cache_invalidated) == (3, 1, 1)
    assert res.simulated == 1
    # The corrupt entry was rewritten with a good result.
    assert ResultCache(tmp_path).load(grid[0]) == res.records[0]
