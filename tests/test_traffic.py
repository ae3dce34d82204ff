"""Traffic files: shared streams written once per sweep and replayed.

A replayed run must be bit-identical to a live one, whatever scenario
layers ride on the shared traffic, across worker counts, and when the file
on disk is truncated or belongs to another stream.  A run that fails while
recording leaves no file behind, and no run leaves a file open.
"""

import importlib
import multiprocessing
import tempfile
from contextlib import closing

import numpy as np
import pytest

from conftest import cfg_factory
from edm.cache import ResultCache
from edm.config import POLICIES, seed_material_hash
from edm.engine.core import simulate
from edm.obs import read_run_log
from edm.sweep import sweep
from edm.telemetry import Recorder
from edm.workloads import Trace
from edm.workloads.traffic import (
    ReplayTrace,
    live_trace,
    open_traffic,
    traffic_matches,
)

sweep_mod = importlib.import_module("edm.sweep")

SHARED = dict(num_osds=8, seed=7, epochs=24, requests_per_epoch=256)


def shared_grid():
    """Six configs on one stream (healthy, faulted, serviced, rep:3, rated)
    plus two configs whose streams nobody else needs."""
    return [
        cfg_factory(policy="baseline", **SHARED),
        cfg_factory(policy="cmt", **SHARED),
        cfg_factory(policy="hdf", faults="fail:1@8", **SHARED),
        cfg_factory(policy="cmt", service="rate:120;queue:64", **SHARED),
        cfg_factory(policy="cdf", redundancy="rep:3", faults="fail:2@12", **SHARED),
        cfg_factory(policy="pswl", endurance="pe:900", **SHARED),
        cfg_factory(policy="cmt", **{**SHARED, "workload": "lair62b"}),
        cfg_factory(policy="cmt", **{**SHARED, "seed": 8}),
    ]


def record(cfg, path):
    """Draw ``cfg``'s whole stream into the traffic file ``path``."""
    with closing(open_traffic(cfg, path)) as trace:
        for epoch in range(cfg.epochs):
            trace.epoch_counts(epoch)
    return path


class Boom(Recorder):
    """Fails the run at one epoch."""

    def __init__(self, epoch=5):
        self.epoch = epoch

    def on_epoch(self, state, load, stats):
        if stats.epoch == self.epoch:
            raise RuntimeError("boom")


class EpochTraffic(Recorder):
    """Per-epoch request and write totals, as the engine saw them."""

    def __init__(self):
        self.requests, self.writes = [], []

    def on_epoch(self, state, load, stats):
        self.requests.append(stats.requests)
        self.writes.append(stats.writes)


@pytest.mark.parametrize("workload", ["deasna", "deasna2", "lair62b"])
def test_replay_reproduces_the_live_stream(workload, tmp_path):
    cfg = cfg_factory(workload=workload, **SHARED)
    path = record(cfg, tmp_path / seed_material_hash(cfg))
    assert traffic_matches(cfg, path)
    live = live_trace(cfg)
    with closing(ReplayTrace(path, cfg)) as replay:
        for epoch in range(cfg.epochs):
            lc, lw = (a.copy() for a in live.epoch_counts(epoch))
            rc, rw = replay.epoch_counts(epoch)
            assert rc.dtype == np.float64
            assert np.array_equal(lc, rc) and np.array_equal(lw, rw)
    assert simulate(cfg, traffic=path) == simulate(cfg)


def test_a_run_records_the_stream_it_draws(tmp_path):
    cfg = cfg_factory(**SHARED)
    path = tmp_path / "t"
    assert simulate(cfg, traffic=path) == simulate(cfg)
    assert traffic_matches(cfg, path)
    assert list(tmp_path.iterdir()) == [path]


def test_every_policy_sees_the_same_traffic(tmp_path):
    cfgs = [cfg_factory(policy=p, **SHARED) for p in POLICIES]
    path = record(cfgs[0], tmp_path / seed_material_hash(cfgs[0]))
    seen = []
    for cfg in cfgs:
        for traffic in (None, path):
            rec = EpochTraffic()
            simulate(cfg, recorders=(rec,), traffic=traffic)
            seen.append((rec.requests, rec.writes))
    assert len(seen) == 2 * len(POLICIES)
    assert all(s == seen[0] for s in seen)


def test_replay_refuses_another_stream_and_out_of_order_epochs(tmp_path):
    cfg = cfg_factory(**SHARED)
    path = record(cfg, tmp_path / "t")
    with pytest.raises(ValueError, match="does not hold the stream"):
        ReplayTrace(path, cfg_factory(**{**SHARED, "seed": 8}))
    with closing(ReplayTrace(path, cfg)) as replay:
        with pytest.raises(ValueError, match="expected epoch 0"):
            replay.epoch_counts(1)


@pytest.mark.parametrize("on_file", [False, True])
def test_a_failed_run_leaves_no_file_open_and_none_half_written(on_file, tmp_path, monkeypatch):
    cfg = cfg_factory(**SHARED)
    path = tmp_path / "t"
    if on_file:
        record(cfg, path)
    opened = []

    def spy(*args):
        opened.append(open_traffic(*args))
        return opened[-1]

    monkeypatch.setattr("edm.engine.core.open_traffic", spy)
    with pytest.raises(RuntimeError, match="boom"):
        simulate(cfg, recorders=(Boom(),), traffic=path)
    trace, = opened
    assert isinstance(trace, ReplayTrace) is on_file
    assert trace._file is None or trace._file.closed
    assert list(tmp_path.iterdir()) == ([path] if on_file else [])


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_replay_matches_live_runs(workers, tmp_path):
    grid = shared_grid()
    res = sweep(grid, cache_dir=tmp_path, workers=workers)
    assert res.simulated == len(grid)
    assert res.records == [simulate(cfg) for cfg in grid]
    # One file for the stream six configs share; none for the two loners.
    files = list((tmp_path / "traffic").iterdir())
    assert [f.name for f in files] == [seed_material_hash(grid[0])]
    assert traffic_matches(grid[0], files[0])


@pytest.mark.parametrize("damage", ["truncate", "foreign"])
def test_bad_traffic_file_is_regenerated_not_replayed(damage, tmp_path):
    grid = shared_grid()[:3]
    path = tmp_path / "traffic" / seed_material_hash(grid[0])
    if damage == "truncate":
        record(grid[0], path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 7])
    else:
        record(cfg_factory(**{**SHARED, "seed": 8}), path)
    assert not traffic_matches(grid[0], path)
    res = sweep(grid, cache_dir=tmp_path, workers=1)
    assert res.records == [simulate(cfg) for cfg in grid]
    assert traffic_matches(grid[0], path)


def test_no_cache_sweep_removes_its_traffic_files(tmp_path, monkeypatch):
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    grid = shared_grid()[:2]
    runs = tmp_path / "runs.jsonl"
    res = sweep(grid, cache_dir=tmp_path / "cache", workers=1, use_cache=False, run_log=runs)
    assert res.records == [simulate(cfg) for cfg in grid]
    starts = [r["replayed"] for r in read_run_log(runs) if r["event"] == "run_start"]
    assert starts == [False, True]
    assert list(scratch.iterdir()) == []
    assert not (tmp_path / "cache").exists()


def test_run_start_records_traffic_and_replay(tmp_path):
    grid = shared_grid()
    sweep(grid, cache_dir=tmp_path / "cache", workers=1, run_log=tmp_path / "runs.jsonl")
    starts = {
        r["config"]: r for r in read_run_log(tmp_path / "runs.jsonl")
        if r["event"] == "run_start"
    }
    for i, cfg in enumerate(grid):
        rec = starts[cfg.cache_name()]
        assert rec["traffic"] == seed_material_hash(cfg)[:16]
        # The first config of the shared stream records it; five replay it.
        assert rec["replayed"] is (0 < i < 6)


def test_every_simulated_request_is_drawn_or_replayed_once(tmp_path, monkeypatch):
    drawn = []
    epoch_counts = Trace.epoch_counts

    def counted(self, epoch):
        counts, writes = epoch_counts(self, epoch)
        drawn.append(int(counts.sum()))
        return counts, writes

    monkeypatch.setattr(Trace, "epoch_counts", counted)
    res = sweep(shared_grid(), cache_dir=tmp_path, workers=1)
    assert sum(drawn) == res.total_requests


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers see the patched simulate only when forked",
)
def test_when_the_recording_run_fails_the_next_config_records(tmp_path, monkeypatch):
    grid = shared_grid()[:4]
    simulate_ = sweep_mod.simulate

    def flaky(cfg, recorders=(), **kw):
        if cfg == grid[0]:
            recorders = (*recorders, Boom())
        return simulate_(cfg, recorders=recorders, **kw)

    monkeypatch.setattr(sweep_mod, "simulate", flaky)
    runs = tmp_path / "runs.jsonl"
    with pytest.raises(RuntimeError, match="boom"):
        sweep(grid, cache_dir=tmp_path / "cache", workers=2, run_log=runs)
    cache = ResultCache(tmp_path / "cache")
    assert [cache.load(cfg) for cfg in grid[1:]] == [simulate(cfg) for cfg in grid[1:]]
    assert [f.name for f in (tmp_path / "cache" / "traffic").iterdir()] == [
        seed_material_hash(grid[0])
    ]
    replayed = {
        r["config"]: r["replayed"] for r in read_run_log(runs) if r["event"] == "run_start"
    }
    assert sorted(replayed.values()) == [False, False, True, True]


def test_a_stream_recorded_under_an_older_seed_schema_is_never_replayed(tmp_path, monkeypatch):
    # A new sampler re-randomizes every stream, and bumps SEED_SCHEMA_VERSION
    # so that traffic files recorded by the old one key differently.
    grid = shared_grid()
    traffic = tmp_path / "cache" / "traffic"
    with monkeypatch.context() as old_schema:
        old_schema.setattr("edm.config.SEED_SCHEMA_VERSION", 3)
        old = record(grid[0], traffic / seed_material_hash(grid[0]))
    stale = old.read_bytes()
    runs = tmp_path / "runs.jsonl"
    res = sweep(grid, cache_dir=tmp_path / "cache", workers=1, run_log=runs)
    assert res.records == [simulate(cfg) for cfg in grid]
    new = traffic / seed_material_hash(grid[0])
    assert new != old and traffic_matches(grid[0], new)
    assert old.read_bytes() == stale and not traffic_matches(grid[0], old)
    starts = [r for r in read_run_log(runs) if r["event"] == "run_start"]
    assert [r["traffic"] for r in starts] == [seed_material_hash(cfg)[:16] for cfg in grid]
    assert old.name[:16] not in {r["traffic"] for r in starts}
    assert [r["replayed"] for r in starts] == [0 < i < 6 for i in range(len(grid))]
