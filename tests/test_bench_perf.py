"""Benchmark-marked perf assertions (skipped in CI via ``-m "not bench"``)."""

import json

import pytest

from edm.bench import bench_single_config, run_bench


def test_bench_single_config_meets_its_request_target():
    result = bench_single_config(requests_target=50_000)
    assert result["requests_simulated"] >= 50_000
    assert result["requests_per_sec"] > 0


@pytest.mark.bench
def test_single_config_throughput_floor():
    result = bench_single_config(requests_target=1_000_000)
    assert result["requests_simulated"] >= 1_000_000
    assert result["requests_per_sec"] >= 100_000


@pytest.mark.bench
def test_full_sweep_cold_under_60s_and_warm_10x(tmp_path):
    report = run_bench(
        out_path=tmp_path / "BENCH_sweep.json", cache_dir=tmp_path / "cache"
    )
    s = report["sweep"]
    assert s["configs"] == 64
    assert s["cold_seconds"] < 60
    assert s["speedup_warm_over_cold"] >= 10
    assert s["warm_cache_hits"] == 64
    written = json.loads((tmp_path / "BENCH_sweep.json").read_text())
    assert written["sweep"]["configs"] == 64
