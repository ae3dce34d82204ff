"""Request-level service model: spec semantics, queue recursion, latency
metrics, and the closed-form-vs-per-request contract.

The service layer must never perturb what the engine computes without it:
shared metrics of a serviced run stay bit-identical to the unserviced run
(pinned here and by the untouched pre-service golden digests).  The
closed-form epoch step is pinned against the per-request oracle in
service_reference.py, both on raw arrays and through entire simulate()
runs via monkeypatch.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import cfg_factory
from edm.config import POLICIES
from edm.engine.core import simulate
from edm.service import (
    LATENCY_EDGES,
    ServiceModel,
    epoch_service,
    histogram_percentile,
)
from edm.service import runtime as service_runtime
from service_reference import epoch_service_reference, request_latencies
from edm.spec import SpecError
from edm.telemetry import Recorder, TimeSeriesRecorder

NUM_BINS = LATENCY_EDGES.size - 1


# --- spec semantics ----------------------------------------------------------


def test_empty_model_is_falsy_and_rates_inf():
    model = ServiceModel.parse("")
    assert not model
    assert model.spec == ""
    assert model.queue is None and np.isinf(model.queue_bound)
    assert np.isinf(model.rates(4)).all()


def test_rates_layering_default_plus_bands():
    model = ServiceModel.parse("rate:800;rate:400@0-3;queue:64", num_osds=8)
    assert model.default_rate == 800.0
    assert model.queue == 64 and model.queue_bound == 64.0
    assert model.rates(8).tolist() == [400.0] * 4 + [800.0] * 4


def test_rates_full_coverage_without_default():
    model = ServiceModel.parse("rate:400@0-3;rate:800@4-7", num_osds=8)
    assert model.default_rate is None
    assert model.rates(8).tolist() == [400.0] * 4 + [800.0] * 4


@pytest.mark.parametrize("spec,message", [
    ("rate:800;queue:8;queue:16", r"at most one queue clause is allowed"),
    ("rate:800;queue:0", r"service clause 'queue:0': queue depth must be >= 1"),
    ("rate:0", r"service clause 'rate:0': service rate must be > 0"),
    ("rate:800;rate:400", r"at most one default \(range-free\) band"),
    ("rate:400@0-3", r"OSDs \[4, 5, 6, 7\] have no service rate"),
    ("rate:400@0-3;rate:800@3-7", r"OSD 3 is rated by more than one band"),
])
def test_spec_rejections(spec, message):
    with pytest.raises(SpecError, match=message):
        ServiceModel.parse(spec, num_osds=8)


def test_config_canonicalizes_service_spec(make_cfg):
    cfg = make_cfg(service="queue:64;rate:200.0")
    assert cfg.service == "rate:200;queue:64"


# --- percentile guards -------------------------------------------------------


def test_percentile_empty_histogram_is_nan():
    # Explicit branch, not 0/0 -- must hold under -W error::RuntimeWarning.
    assert np.isnan(histogram_percentile(np.zeros(NUM_BINS, dtype=np.int64), 0.5))


def test_percentile_overflow_bin_is_inf():
    # The overflow slot sits *past* the last real bin (hist has NUM_BINS + 1
    # entries): only latencies beyond the last finite edge report inf.
    hist = np.zeros(NUM_BINS + 1, dtype=np.int64)
    hist[-1] = 10  # every request slower than the last finite edge
    assert np.isinf(histogram_percentile(hist, 0.5))


def test_percentile_top_real_bin_is_finite():
    # A latency inside the last log-spaced bin (just under the 1e4 edge) is
    # finite and must never be reported as inf -- the regression the
    # dedicated overflow slot exists to prevent.
    hist = np.zeros(NUM_BINS + 1, dtype=np.int64)
    hist[NUM_BINS - 1] = 10
    p = histogram_percentile(hist, 0.99)
    assert np.isfinite(p)
    assert p == LATENCY_EDGES[NUM_BINS - 1]


def test_percentile_reads_lower_bin_edge():
    hist = np.zeros(NUM_BINS, dtype=np.int64)
    hist[10] = 100
    for q in (0.5, 0.99, 0.999):
        assert histogram_percentile(hist, q) == LATENCY_EDGES[10]


def test_percentile_tail_crosses_bins():
    hist = np.zeros(NUM_BINS, dtype=np.int64)
    hist[5] = 99
    hist[200] = 1
    assert histogram_percentile(hist, 0.5) == LATENCY_EDGES[5]
    assert histogram_percentile(hist, 0.999) == LATENCY_EDGES[200]


# --- epoch step unit behaviors -----------------------------------------------


def arr(*xs):
    return np.asarray(xs, dtype=np.float64)


def test_zero_arrivals_zero_work():
    out = epoch_service(np.array([0, 0]), arr(0, 0), arr(10, 10), np.inf)
    assert out.accepted.tolist() == [0, 0]
    assert out.hist.sum() == 0 and out.lat_count == 0
    assert out.lat_sum == 0.0 and np.isnan(out.lat_max)
    assert out.new_depth.tolist() == [0.0, 0.0]


def test_dead_osd_admits_nothing():
    out = epoch_service(np.array([5, 5]), arr(0, 0), arr(0.0, 10.0), np.inf)
    assert out.accepted.tolist() == [0, 5]
    assert out.lat_count == 5  # every accepted latency is finite


def test_bounded_queue_drops_beyond_room():
    # rate 2, bound 3: room for floor(3 + 2 - 0) = 5 of the 10 arrivals.
    out = epoch_service(np.array([10]), arr(0), arr(2), 3.0)
    assert out.accepted.tolist() == [5]
    assert out.new_depth.tolist() == [3.0]  # 0 + 5 - 2, clamped at the bound


def test_fifo_latency_positions():
    # 3 requests on a backlog of 2 at rate 4: sojourns (3,4,5)/4.
    out = epoch_service(np.array([3]), arr(2), arr(4), np.inf)
    assert out.lat_sum == 3.0 and out.lat_count == 3 and out.lat_max == 1.25
    bins = np.searchsorted(LATENCY_EDGES, [0.75, 1.0, 1.25], side="right") - 1
    assert out.hist.tolist() == np.bincount(bins, minlength=NUM_BINS + 1).tolist()
    assert out.new_depth.tolist() == [1.0]  # 2 + 3 - 4


def test_unbounded_queue_never_drops():
    out = epoch_service(np.array([1000]), arr(500), arr(1), np.inf)
    assert out.accepted.tolist() == [1000]
    assert out.new_depth.tolist() == [1499.0]


# --- closed form == per-request oracle ---------------------------------------


def assert_same_as_oracle(arrivals, base, rate, qbound):
    """Exact on every field, the sum by the oracle's own series."""
    fast = epoch_service(arrivals, base, rate, qbound)
    slow = epoch_service_reference(arrivals, base, rate, qbound)
    case = (arrivals, base, rate, qbound)
    for name in ("accepted", "new_depth", "hist"):
        assert np.array_equal(getattr(fast, name), getattr(slow, name)), (name, case)
    assert fast.lat_count == slow.lat_count, case
    assert fast.lat_max == slow.lat_max or (
        np.isnan(fast.lat_max) and np.isnan(slow.lat_max)
    ), case
    assert fast.lat_sum == slow.lat_sum, case
    return fast


def assert_matches_oracle(arrivals, base, rate, qbound):
    """Exact on every field but the sum, which is pinned against fsum."""
    fast = assert_same_as_oracle(arrivals, base, rate, qbound)
    case = (arrivals, base, rate, qbound)
    finite = [
        x for osd in request_latencies(fast.accepted, base, rate) for x in osd
        if math.isfinite(x)
    ]
    assert fast.lat_sum == pytest.approx(math.fsum(finite), rel=1e-12, abs=0.0), case
    return fast


def test_epoch_step_matches_reference_fuzz():
    rng = np.random.default_rng(20260808)
    for _ in range(300):
        n = int(rng.integers(1, 12))
        arrivals = rng.integers(0, 200, size=n)
        base = rng.uniform(0, 50, size=n)
        rate = rng.uniform(0, 40, size=n)
        rate[rng.random(n) < 0.2] = 0.0  # dead OSDs
        qbound = float(rng.choice([np.inf, 4.0, 32.0, 128.0]))
        assert_matches_oracle(arrivals, base, rate, qbound)


def test_latencies_exactly_on_bin_edges_fuzz():
    """Power-of-two rates make ``edge * rate`` exact, so the request at
    ``offset`` on a backlog of ``edge * rate - offset`` lands exactly on the
    edge -- including the 1e4 top edge, which stays in the last real bin."""
    rng = np.random.default_rng(7)
    on_edge = on_top = 0
    for _ in range(400):
        n = int(rng.integers(1, 8))
        rate = 2.0 ** rng.integers(-8, 8, size=n).astype(np.float64)
        edge = rng.integers(1, NUM_BINS + 1, size=n)
        edge[rng.random(n) < 0.3] = NUM_BINS  # the 1e4 top edge
        offset = rng.integers(1, 40, size=n)
        base = np.maximum(LATENCY_EDGES[edge] * rate - offset, 0.0)
        arrivals = rng.integers(0, 80, size=n)
        fast = assert_matches_oracle(arrivals, base, rate, np.inf)
        lat = np.array([x for osd in request_latencies(fast.accepted, base, rate) for x in osd])
        on_edge += int(np.isin(lat, LATENCY_EDGES[1:]).sum())
        on_top += int((lat == LATENCY_EDGES[-1]).sum())
    assert on_edge > 1000 and on_top > 100  # the fuzz really hits the edges


@pytest.mark.parametrize("arrivals,base,rate,qbound", [
    # Dead OSDs beside live ones, unbounded queue.
    ([7, 9, 3], [0.0, 5.0, 1.0], [0.0, 3.0, 0.0], np.inf),
    # Backlogs of a million and more, small and large arrival counts.
    ([3, 5000, 1], [1e6, 2.5e6, 7e8], [16000.0, 16000.0, 1.0], np.inf),
    ([200, 200], [1e6, 1e6], [1e-3, 0.5], 64.0),
    # Tiny rates push latencies past the 1e4 top edge into overflow.
    ([50, 50, 50], [0.0, 3.0, 9999.0], [1e-3, 2e-4, 1.0], np.inf),
    # Subnormal rates: every latency overflows to inf and is stalled.
    ([4, 40], [0.0, 1e6], [1e-310, 4e-320], np.inf),
    # The first request lands just under the largest double, the other
    # four overflow to inf: a finite prefix, then stalled requests.
    ([5], [0.0], [1e-308], np.inf),
    # Nothing accepted anywhere.
    ([0, 0], [0.0, 0.0], [0.0, 0.0], np.inf),
])
def test_closed_form_edge_cases(arrivals, base, rate, qbound):
    with np.errstate(over="ignore"):
        assert_matches_oracle(
            np.asarray(arrivals), arr(*base), arr(*rate), qbound
        )


def test_wide_range_matches_reference_fuzz():
    """Rates over eleven decades, backlogs up to 1e6, and near-subnormal
    rates that overflow some or all latencies to inf (whose sums may
    overflow too, so fsum is not asked).  Requests fall among an OSD's
    first few, keyed one by one, and among the rest, counted by edge."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 10))
        arrivals = rng.integers(1, 300, size=n)
        base = rng.choice([0.0, 1.0, 10.0, 1e3, 1e6]) * rng.random(n)
        rate = 10.0 ** rng.uniform(-6, 5, size=n)
        tiny = rng.random(n) < 0.2
        rate[tiny] = 10.0 ** rng.uniform(-316, -305, size=int(tiny.sum()))
        with np.errstate(over="ignore"):
            assert_same_as_oracle(arrivals, base, rate, np.inf)


def test_billion_arrivals_finish_fast():
    """10^9 arrivals on 4 OSDs: the per-request path would need ~8 GB for
    the latency array alone; the closed form's work is O(OSDs x bins)."""
    arrivals = np.full(4, 1e9)
    base = arr(0.0, 10.0, 1e6, 5e8)
    rate = arr(1e5, 16000.0, 1.0, 1e3)
    start = time.perf_counter()
    out = epoch_service(arrivals, base, rate, np.inf)
    assert time.perf_counter() - start < 0.5
    assert out.accepted.tolist() == [10**9] * 4
    assert out.hist.sum() == 4 * 10**9 == out.lat_count
    assert out.lat_max == max((base + 1e9) / rate)  # OSD 2: (1e6 + 1e9) / 1
    # Each OSD's sum is the series (a * base + a * (a + 1) / 2) / rate.
    a = 1e9
    expected = math.fsum((a * b + a * (a + 1) / 2) / r for b, r in zip(base, rate))
    assert out.lat_sum == pytest.approx(expected, rel=1e-12)


SCALAR_XCHECK_CASES = [
    dict(policy=policy, service="rate:120;queue:64") for policy in POLICIES
] + [
    dict(policy="cmt", service="rate:60;rate:200@2-3", faults="fail:1@8"),
    dict(policy="cmt", service="rate:120;queue:32", workload="lair62",
         faults="slow:2@4x0.5", endurance="pe:900"),
]


@pytest.mark.parametrize(
    "case", SCALAR_XCHECK_CASES, ids=lambda c: f"{c['policy']}-{c.get('faults') or 'healthy'}"
)
def test_whole_run_scalar_reference_bit_identical(case, monkeypatch):
    """Drive entire simulate() runs through the per-request oracle: zero
    metric diffs, the latency mean included (the oracle sums each OSD's
    latencies by the same closed-form series)."""
    cfg = cfg_factory(epochs=24, requests_per_epoch=512, **case)
    fast = simulate(cfg)
    monkeypatch.setattr(service_runtime, "epoch_service", epoch_service_reference)
    slow = simulate(cfg)
    assert set(fast) == set(slow)
    for key in fast:
        f, s = fast[key], slow[key]
        if isinstance(f, float) and np.isnan(f):
            assert np.isnan(s), key
        else:
            assert f == s, key


# --- engine integration ------------------------------------------------------


def test_service_block_present_and_sane(make_cfg):
    metrics = simulate(make_cfg(service="rate:120;queue:64"))
    assert metrics["service"] == "rate:120;queue:64"
    p50, p99, p999 = (
        metrics["service_lat_p50"],
        metrics["service_lat_p99"],
        metrics["service_lat_p999"],
    )
    assert 0 <= p50 <= p99 <= p999
    assert metrics["service_requests_total"] == 32 * 512
    assert 0 <= metrics["service_dropped_total"] < metrics["service_requests_total"]
    assert metrics["queue_depth_max"] <= 64.0
    assert "migration_spike_ratio" in metrics and "migration_spike_lat_max" in metrics


def test_serviced_run_keeps_shared_metrics_bit_identical(make_cfg):
    """The service model observes the cluster; it must never steer it."""
    plain = simulate(make_cfg())
    serviced = simulate(make_cfg(service="rate:120;queue:64"))
    assert "service_lat_p50" not in plain
    for key, value in plain.items():
        assert serviced[key] == value, key


def test_unserviced_metrics_carry_no_service_keys(make_cfg):
    metrics = simulate(make_cfg())
    assert not [k for k in metrics if k.startswith(("service", "queue_depth"))]


def test_slower_cluster_has_higher_latency(make_cfg):
    fast = simulate(make_cfg(service="rate:400"))
    slow = simulate(make_cfg(service="rate:100"))
    assert slow["service_lat_mean"] > fast["service_lat_mean"]
    assert slow["service_lat_p99"] >= fast["service_lat_p99"]
    assert slow["queue_depth_mean"] >= fast["queue_depth_mean"]


class _BacklogAt(Recorder):
    """Per-OSD queue depth plus pending migration work as ``epoch`` ends."""

    def __init__(self, epoch: int):
        self.epoch = epoch
        self.backlog = None

    def _snap(self, state):
        if state.epoch == self.epoch:
            self.backlog = state.osd_queue_depth + state.osd_mig_backlog

    def on_epoch(self, state, load, stats):
        self._snap(state)

    def on_migration(self, state, applied, stats):
        self._snap(state)


def test_dead_osd_backlog_becomes_lost_work(make_cfg):
    # Fail the OSD with the largest backlog as epoch 8 begins, read off the
    # healthy run: the fault plan leaves the traffic alone, so both runs
    # agree up to that boundary, and the dead OSD's whole backlog is lost.
    snap = _BacklogAt(epoch=7)
    healthy = simulate(make_cfg(service="rate:100"), recorders=(snap,))
    assert healthy["service_lost_work"] == 0.0
    osd = int(np.argmax(snap.backlog))
    degraded = simulate(make_cfg(service="rate:100", faults=f"fail:{osd}@8"))
    assert degraded["service_lost_work"] > 0.0
    assert degraded["service_lost_work"] == snap.backlog[osd]


def test_queue_aggregates_exclude_dead_osds(make_cfg):
    """Depth mean/CoV are survivor-masked: a dead OSD's permanent zero must
    not dilute the mean or inflate the CoV for the rest of the run."""
    from conftest import make_state

    cfg = make_cfg(num_osds=4, service="rate:10;queue:64")
    model = ServiceModel.parse(cfg.service, num_osds=4)
    rt = service_runtime.ServiceRuntime(model, cfg)
    state = make_state(cfg)
    rt.attach(state)
    state.osd_alive[0] = False
    arrivals = np.array([0.0, 30.0, 40.0, 50.0])
    rt.step(state, arrivals)
    d = state.osd_queue_depth[1:]  # survivors
    assert rt._depth_mean_sum == pytest.approx(float(d.mean()))
    assert rt._depth_cov_sum == pytest.approx(float(d.std() / d.mean()))
    assert rt._depth_max == pytest.approx(float(d.max()))


def test_degraded_queue_metrics_match_survivor_stats(make_cfg):
    """End to end: after a fail, queue_depth_mean reflects live queues, so a
    degraded run's mean must exceed the same run diluted by corpse zeros
    (which is what the old unmasked aggregation reported)."""
    cfg = make_cfg(service="rate:100;queue:64", faults="fail:1@4")
    m = simulate(cfg)
    assert m["queue_depth_mean"] > 0.0
    assert np.isfinite(m["queue_depth_cov_mean"])


def test_migration_work_creates_latency_spikes(make_cfg):
    # Slow enough that queues form; migration bursts must then show up as a
    # distinct (and slower) latency population.
    metrics = simulate(make_cfg(service="rate:120;queue:256"))
    assert np.isfinite(metrics["migration_spike_ratio"])
    assert metrics["migration_spike_lat_max"] > 0.0


# --- telemetry ---------------------------------------------------------------


def test_timeseries_service_columns(make_cfg):
    rec = TimeSeriesRecorder(record_every=1)
    simulate(make_cfg(service="rate:120;queue:64"), recorders=(rec,))
    s = rec.series
    assert s.queue_depth_mean.shape == (s.num_samples,)
    assert (s.queue_depth_mean >= 0).all() and (s.queue_depth_cov >= 0).all()
    assert s.queue_depth_mean.max() > 0  # rate 120 < load: queues must form
    assert s.service_lat_mean.max() > 0
    assert s.meta["service"] == "rate:120;queue:64"


def test_timeseries_service_columns_zero_without_model(small_cfg):
    rec = TimeSeriesRecorder(record_every=1)
    simulate(small_cfg, recorders=(rec,))
    assert (rec.series.queue_depth_mean == 0).all()
    assert (rec.series.service_lat_mean == 0).all()
    assert rec.series.meta["service"] == ""


# --- CLI and run log ---------------------------------------------------------


def test_cli_run_service_reports_tail_latency(capsys):
    from edm.cli import main

    rc = main([
        "run", "--osds", "4", "--policy", "cmt", "--epochs", "16",
        "--requests", "512", "--service", "rate:120;queue:64",
    ])
    assert rc == 0
    metrics = json.loads(capsys.readouterr().out)
    for key in ("service_lat_p50", "service_lat_p99", "service_lat_p999",
                "migration_spike_ratio"):
        assert key in metrics
    assert metrics["service"] == "rate:120;queue:64"


def test_sweep_emits_service_run_log_records(tmp_path):
    from edm.obs import read_run_log
    from edm.sweep import default_grid, sweep

    grid = default_grid(
        workloads=("deasna",), osds=(4,), policies=("cmt",), seeds=(1,),
        service=("", "rate:120;queue:64"),
        epochs=16, requests_per_epoch=512, chunks_per_osd=8,
    )
    log_path = tmp_path / "runs.jsonl"
    sweep(grid, cache_dir=tmp_path / "cache", workers=1, run_log=log_path)
    records = read_run_log(log_path)  # strict: every record passes the schema
    service_records = [r for r in records if r["event"] == "service"]
    assert len(service_records) == 1  # one serviced config in the grid
    rec = service_records[0]
    assert rec["config"].startswith("deasna-4osd-cmt-s0.02-r1-q")
    assert rec["requests"] == 16 * 512
    assert rec["lat_p50"] <= rec["lat_p99"] <= rec["lat_p999"]
