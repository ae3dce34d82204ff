"""Perf history append/read and the bench --compare regression gate."""

import json

import pytest

from edm import bench as bench_mod
from edm.obs import append_history, baseline_from_history, compare_reports, read_history
from edm.obs.history import Regression, load_report


def fake_report(cold_rps=1_000_000.0, single_rps=30_000_000.0, quick=False) -> dict:
    """Minimal report with everything bench.main prints and compare gates on."""
    return {
        "edm_version": "0.3.0",
        "quick": quick,
        "sweep": {
            "configs": 64,
            "cold_seconds": 4.0,
            "warm_seconds": 0.01,
            "speedup_warm_over_cold": 400.0,
            "warm_cache_hits": 64,
            "total_requests_simulated": 4_000_000,
            "requests_per_sec_cold": cold_rps,
        },
        "single_config": {
            "config": "deasna-20osd-cmt-s0.02-r12345",
            "epochs": 245,
            "telemetry": False,
            "requests_simulated": 2_000_000,
            "seconds": 0.07,
            "requests_per_sec": single_rps,
        },
        "single_config_telemetry": {"requests_per_sec": single_rps * 0.9},
        "telemetry_overhead_frac": 0.1,
    }


def test_append_and_read_history(tmp_path):
    path = tmp_path / "BENCH_history.jsonl"
    entry1 = append_history(fake_report(), path=path, sha="aaa111")
    entry2 = append_history(fake_report(cold_rps=2e6), path=path, sha="bbb222")
    assert entry1["git_sha"] == "aaa111"
    entries = read_history(path)
    assert [e["git_sha"] for e in entries] == ["aaa111", "bbb222"]
    assert entries[1]["report"]["sweep"]["requests_per_sec_cold"] == 2e6
    assert entries[0]["ts"] <= entries[1]["ts"]
    # One JSON object per line.
    assert len(path.read_text().splitlines()) == 2


def test_compare_within_threshold_passes():
    base = fake_report()
    cur = fake_report(cold_rps=950_000.0, single_rps=29_000_000.0)  # ~5% down
    assert compare_reports(cur, base, max_regression=0.15) == []


def test_compare_flags_20pct_regression():
    base = fake_report()
    cur = fake_report(cold_rps=800_000.0)  # 20% down on cold sweep only
    regs = compare_reports(cur, base, max_regression=0.15)
    assert [r.metric for r in regs] == ["sweep.requests_per_sec_cold"]
    assert regs[0].change_frac == pytest.approx(-0.2)
    assert "cold-sweep" in regs[0].describe()


def test_compare_improvement_never_flags():
    base = fake_report()
    cur = fake_report(cold_rps=5e6, single_rps=9e7)
    assert compare_reports(cur, base, max_regression=0.0) == []


def test_compare_refuses_quick_vs_full():
    with pytest.raises(ValueError, match="quick"):
        compare_reports(fake_report(quick=True), fake_report(quick=False))


def test_compare_refuses_missing_metric():
    base = fake_report()
    del base["sweep"]["requests_per_sec_cold"]
    with pytest.raises(ValueError, match="baseline report is missing"):
        compare_reports(fake_report(), base)


def test_regression_dataclass_change_frac_zero_baseline():
    r = Regression(metric="m", label="l", baseline=0.0, current=1.0)
    assert r.change_frac == 0.0


@pytest.mark.parametrize("bad", [0, 0.0, -1.0, "fast", None, True])
def test_compare_refuses_non_positive_baseline_metric(bad):
    """A zero/garbage baseline throughput has no regression ratio: refuse loudly."""
    base = fake_report()
    base["sweep"]["requests_per_sec_cold"] = bad
    if bad is None:
        match = "missing metric"
    else:
        match = "not a positive number"
    with pytest.raises(ValueError, match=match):
        compare_reports(fake_report(), base)


def test_compare_refuses_non_numeric_current_metric():
    cur = fake_report()
    cur["single_config"]["requests_per_sec"] = "NaNish"
    with pytest.raises(ValueError, match="not a non-negative number"):
        compare_reports(cur, fake_report())


def test_load_report_rejects_non_object(tmp_path):
    p = tmp_path / "r.json"
    p.write_text("[1,2,3]")
    with pytest.raises(ValueError, match="not a bench report"):
        load_report(p)


# --- mode-matched baseline selection from history ---------------------------


def test_baseline_from_history_picks_newest_entry(tmp_path):
    hist = tmp_path / "hist.jsonl"
    append_history(fake_report(cold_rps=1e6), path=hist, sha="a")
    append_history(fake_report(cold_rps=9e6, quick=True), path=hist, sha="b")
    append_history(fake_report(cold_rps=2e6), path=hist, sha="c")
    base = baseline_from_history(hist, quick=False)
    assert base["sweep"]["requests_per_sec_cold"] == 2e6  # newest full, not quick
    assert baseline_from_history(hist)["sweep"]["requests_per_sec_cold"] == 2e6


def test_baseline_from_history_filters_quick_mode(tmp_path):
    hist = tmp_path / "hist.jsonl"
    append_history(fake_report(cold_rps=1e6, quick=True), path=hist, sha="a")
    append_history(fake_report(cold_rps=2e6, quick=False), path=hist, sha="b")
    assert baseline_from_history(hist, quick=True)["quick"] is True
    assert baseline_from_history(hist, quick=False)["quick"] is False


def test_baseline_from_history_no_matching_mode_raises(tmp_path):
    hist = tmp_path / "hist.jsonl"
    append_history(fake_report(quick=False), path=hist, sha="a")
    with pytest.raises(ValueError, match=r"no quick entry.*--quick --append-history"):
        baseline_from_history(hist, quick=True)


def test_baseline_from_history_empty_history(tmp_path):
    hist = tmp_path / "hist.jsonl"
    hist.write_text("")
    with pytest.raises(ValueError, match="empty"):
        baseline_from_history(hist, quick=False)


# --- bench CLI wiring (run_bench monkeypatched: no real simulation) ---------


@pytest.fixture
def patched_bench(monkeypatch):
    """Capture run_bench calls and control the report it returns."""
    calls = {}

    def fake_run_bench(out_path, cache_dir, workers, quick):
        calls["out_path"] = out_path
        calls["quick"] = quick
        return fake_report(quick=quick)

    monkeypatch.setattr(bench_mod, "run_bench", fake_run_bench)
    return calls


def test_bench_compare_gate_exits_nonzero_on_synthetic_regression(
    tmp_path, patched_bench, monkeypatch
):
    # Baseline 25% faster than what the bench will report -> gate trips.
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(fake_report(cold_rps=1_333_334.0, single_rps=4e7)))
    rc = bench_mod.main(
        ["--compare", str(baseline), "--max-regression", "0.15", "--out", str(tmp_path / "o.json")]
    )
    assert rc == 1


def test_bench_compare_gate_passes_within_threshold(tmp_path, patched_bench, capsys):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(fake_report(cold_rps=1_050_000.0)))  # 5% faster
    rc = bench_mod.main(["--compare", str(baseline), "--out", str(tmp_path / "o.json")])
    assert rc == 0
    assert "OK: throughput within" in capsys.readouterr().out


def test_bench_compare_unreadable_baseline_exits_2(tmp_path, patched_bench):
    assert bench_mod.main(["--compare", str(tmp_path / "missing.json")]) == 2


def test_bench_compare_zero_baseline_exits_2(tmp_path, patched_bench, caplog):
    """Satellite fix: a baseline with 0 req/s used to produce a nonsense ratio
    (or a divide-by-zero); now it is a clear error and exit code 2."""
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(fake_report(cold_rps=0.0)))
    rc = bench_mod.main(["--compare", str(baseline), "--out", str(tmp_path / "o.json")])
    assert rc == 2


def test_bench_compare_against_history_picks_same_mode_entry(
    tmp_path, patched_bench, capsys
):
    """A .jsonl --compare matches by quick/full mode, so the newer quick
    entry's 9x throughput never gates this full run."""
    hist = tmp_path / "hist.jsonl"
    append_history(fake_report(cold_rps=1_050_000.0), path=hist)
    append_history(fake_report(cold_rps=9e6, single_rps=3e8, quick=True), path=hist)
    rc = bench_mod.main(["--compare", str(hist), "--out", str(tmp_path / "o.json")])
    assert rc == 0
    assert "OK: throughput within" in capsys.readouterr().out


def test_bench_compare_against_history_no_same_mode_exits_2(tmp_path, patched_bench):
    hist = tmp_path / "hist.jsonl"
    append_history(fake_report(quick=True), path=hist)
    rc = bench_mod.main(["--compare", str(hist), "--out", str(tmp_path / "o.json")])
    assert rc == 2


def test_bench_compare_against_history_still_gates_regressions(
    tmp_path, patched_bench
):
    hist = tmp_path / "hist.jsonl"
    append_history(
        fake_report(cold_rps=1_333_334.0, single_rps=4e7), path=hist
    )
    rc = bench_mod.main(
        ["--compare", str(hist), "--max-regression", "0.15", "--out", str(tmp_path / "o.json")]
    )
    assert rc == 1


def test_bench_quick_defaults_to_quick_out(patched_bench):
    # Satellite fix: --quick must not overwrite the real BENCH_sweep.json.
    assert bench_mod.main(["--quick"]) == 0
    assert patched_bench["out_path"] == bench_mod.QUICK_OUT
    assert patched_bench["quick"] is True


def test_bench_full_defaults_to_sweep_out(patched_bench):
    assert bench_mod.main([]) == 0
    assert patched_bench["out_path"] == bench_mod.DEFAULT_OUT


def test_bench_explicit_out_wins_even_with_quick(tmp_path, patched_bench):
    out = tmp_path / "custom.json"
    assert bench_mod.main(["--quick", "--out", str(out)]) == 0
    assert patched_bench["out_path"] == out


def test_bench_append_history(tmp_path, patched_bench):
    hist = tmp_path / "hist.jsonl"
    assert bench_mod.main(["--append-history", str(hist), "--out", str(tmp_path / "o.json")]) == 0
    entries = read_history(hist)
    assert len(entries) == 1
    assert entries[0]["report"]["sweep"]["configs"] == 64
    assert entries[0]["git_sha"]  # present even outside a git checkout ("unknown")
