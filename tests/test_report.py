"""Report aggregation and the report/plot CLI subcommands."""

import json
import math

import pytest

from edm import report
from edm.cli import main
from edm.sweep import default_grid, sweep
from edm.telemetry.plots import POLICY_COLORS, have_matplotlib, policy_color

TINY = dict(epochs=16, requests_per_epoch=256, chunks_per_osd=8)


@pytest.fixture
def swept_cache(tmp_path):
    grid = default_grid(
        workloads=("deasna", "lair62"),
        osds=(4,),
        policies=("baseline", "cmt"),
        seeds=(1, 2),
        **TINY,
    )
    sweep(grid, cache_dir=tmp_path / "cache", workers=1, timeseries_dir=tmp_path / "ts")
    return tmp_path


def test_load_and_aggregate(swept_cache):
    loaded = report.load_cached_metrics(swept_cache / "cache")
    assert loaded.stale == 0
    assert len(loaded.metrics) == 8
    cells = report.aggregate(loaded.metrics)
    assert [(c["workload"], c["policy"]) for c in cells] == [
        ("deasna", "baseline"),
        ("deasna", "cmt"),
        ("lair62", "baseline"),
        ("lair62", "cmt"),
    ]
    assert all(c["runs"] == 2 for c in cells)  # two seeds averaged per cell
    baseline = next(c for c in cells if c["policy"] == "baseline")
    assert baseline["migration_cost_mb"] == 0.0


def test_stale_entries_skipped(swept_cache):
    cache_dir = swept_cache / "cache"
    victim = sorted(cache_dir.glob("*.pkl"))[0]
    victim.write_bytes(b"not a pickle")
    loaded = report.load_cached_metrics(cache_dir)
    assert loaded.stale == 1
    assert len(loaded.metrics) == 7


def test_render_formats(swept_cache):
    cells = report.aggregate(report.load_cached_metrics(swept_cache / "cache").metrics)
    md = report.render(cells, fmt="markdown")
    assert md.splitlines()[0].startswith("| workload | policy | runs |")
    parsed = json.loads(report.render(cells, fmt="json"))
    assert len(parsed) == 4
    with pytest.raises(ValueError, match="unknown report format"):
        report.render(cells, fmt="yaml")


def test_service_columns_appear_only_with_a_service_scenario(tmp_path):
    grid = default_grid(
        workloads=("deasna",),
        osds=(4,),
        policies=("cmt",),
        seeds=(1,),
        service=("", "rate:120;queue:64"),
        **TINY,
    )
    sweep(grid, cache_dir=tmp_path / "cache", workers=1)
    cells = report.aggregate(report.load_cached_metrics(tmp_path / "cache").metrics)
    assert [c["service"] for c in cells] == ["", "rate:120;queue:64"]
    serviced = cells[1]
    assert serviced["service_lat_p50"] <= serviced["service_lat_p99"]
    assert "service_lat_p50" not in cells[0]

    md = report.render(cells, fmt="markdown")
    header = md.splitlines()[0]
    assert "| service |" in header
    assert header.endswith("| lat p50 | lat p99 | lat p999 | mig spike |")
    untimed_row = next(line for line in md.splitlines() if "untimed" in line)
    assert untimed_row.endswith("| - | - | - | - |")  # no latency numbers to show

    # A service-free cache keeps the historical table shape.
    plain = report.aggregate([m for m in report.load_cached_metrics(
        tmp_path / "cache").metrics if not m.get("service")])
    assert "service" not in report.render(plain, fmt="markdown").splitlines()[0]


def test_report_cli_markdown(swept_cache, capsys):
    assert main(["report", str(swept_cache / "cache")]) == 0
    out = capsys.readouterr().out
    assert "| workload | policy |" in out
    assert "cmt" in out


def test_report_cli_json_to_file(swept_cache, tmp_path):
    out_file = tmp_path / "report.json"
    assert main(["report", str(swept_cache / "cache"), "--format", "json", "--out", str(out_file)]) == 0
    assert len(json.loads(out_file.read_text())) == 4


def test_report_cli_empty_dir(tmp_path, capsys):
    assert main(["report", str(tmp_path)]) == 1
    assert "no usable sweep results" in capsys.readouterr().err


def test_policy_colors_are_fixed_slots():
    # Color follows the entity: a policy keeps its slot no matter the subset.
    assert list(POLICY_COLORS) == ["baseline", "cdf", "hdf", "cmt"]
    assert policy_color("cmt") == POLICY_COLORS["cmt"]
    assert policy_color("some-future-policy") not in POLICY_COLORS.values()


@pytest.mark.skipif(have_matplotlib(), reason="matplotlib installed; skip-path untestable")
def test_plot_cli_skips_without_matplotlib(swept_cache, capsys):
    assert main(["plot", str(swept_cache / "ts")]) == 0
    assert "matplotlib is not installed" in capsys.readouterr().err


def test_plot_cli_renders_figures(swept_cache, tmp_path):
    pytest.importorskip("matplotlib")
    out_dir = tmp_path / "figs"
    assert main(["plot", str(swept_cache / "ts"), "--out-dir", str(out_dir)]) == 0
    names = {p.name for p in out_dir.iterdir()}
    assert names == {
        "load_cov_deasna-4osd.png",
        "load_cov_lair62-4osd.png",
        "wear_final_deasna-4osd.png",
        "wear_final_lair62-4osd.png",
        "migration_cost_4osd.png",
    }
    assert all((out_dir / n).stat().st_size > 0 for n in names)


def test_plot_cli_empty_dir(tmp_path, capsys):
    pytest.importorskip("matplotlib")
    (tmp_path / "empty").mkdir()
    assert main(["plot", str(tmp_path / "empty")]) == 1
    assert "no .npz series" in capsys.readouterr().err


# --- byte-identical report pins ------------------------------------------------
#
# Synthetic metrics rows mixing plain runs with runs of every scenario layer,
# including NaN latency percentiles (an empty histogram) in one cell and
# alongside finite values in another.  No simulation: the literals below were
# rendered by the per-layer report code these pins guard, so looping over the
# layer registry must reproduce them byte for byte.


def _row(workload, policy, k):
    return {
        "workload": workload, "policy": policy,
        "load_cov_mean": 0.1 + 0.01 * k, "load_peak_ratio_mean": 1.2 + 0.05 * k,
        "wear_spread": 100.0 * k, "wear_cov": 0.02 * k, "migration_cost_mb": 64.0 * k,
    }


SYNTHETIC_ROWS = [
    _row("deasna", "baseline", 1),
    _row("deasna", "baseline", 2),
    _row("deasna", "cmt", 3),
    {**_row("deasna", "cmt", 4), "faults": "fail:1@8"},
    {**_row("lair62", "cmt", 5), "endurance": "pe:900"},
    {**_row("deasna", "cmt", 6), "service": "rate:120;queue:256",
     "service_lat_p50": 0.5, "service_lat_p99": 2.25, "service_lat_p999": 7.0,
     "migration_spike_ratio": 1.5},
    {**_row("deasna", "cmt", 7), "service": "rate:120;queue:256",
     "service_lat_p50": 0.75, "service_lat_p99": math.nan, "service_lat_p999": 9.0,
     "migration_spike_ratio": 2.0},
    {**_row("lair62", "hdf", 8), "service": "rate:60",
     "service_lat_p50": math.nan, "service_lat_p99": math.nan, "service_lat_p999": math.nan,
     "migration_spike_ratio": 1.0},
    {**_row("deasna", "cdf", 9), "topology": "add:2@16/cap:2",
     "cold_load_share_final": 0.125, "drain_moves_total": 0},
    {**_row("deasna", "cdf", 10), "topology": "drain:0@24",
     "cold_load_share_final": 0.0, "drain_moves_total": 37},
    {**_row("lair62", "cmt", 11), "redundancy": "ec:4+2",
     "reconstruction_reads_total": 480, "reconstruction_write_mb": 7680.0,
     "data_loss_chunks_total": 0},
    {**_row("lair62", "cmt", 12), "faults": "fail:1@8", "endurance": "pe:900",
     "service": "rate:120;queue:256", "topology": "add:2@16/cap:2,rate:240;drain:0@24",
     "redundancy": "rep:3",
     "service_lat_p50": 1.0, "service_lat_p99": 4.5, "service_lat_p999": 12.0,
     "migration_spike_ratio": 3.25, "cold_load_share_final": 0.25, "drain_moves_total": 12,
     "reconstruction_reads_total": 96, "reconstruction_write_mb": 2048.0,
     "data_loss_chunks_total": 1},
]

PINNED_MARKDOWN = (
    "| workload | policy | faults | endurance | service | topology | redundancy | runs | load CoV | peak ratio | wear spread | wear CoV | migration MB | lat p50 | lat p99 | lat p999 | mig spike | cold share | drain moves | recon reads | recon MB | lost chunks |\n"
    "|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n"
    "| deasna | baseline | healthy | unrated | untimed | static | plain | 2 | 0.1150 | 1.275 | 150 | 0.0300 | 96 | - | - | - | - | - | - | - | - | - |\n"
    "| deasna | cdf | healthy | unrated | untimed | add:2@16/cap:2 | plain | 1 | 0.1900 | 1.650 | 900 | 0.1800 | 576 | - | - | - | - | 0.125 | 0 | - | - | - |\n"
    "| deasna | cdf | healthy | unrated | untimed | drain:0@24 | plain | 1 | 0.2000 | 1.700 | 1000 | 0.2000 | 640 | - | - | - | - | 0.000 | 37 | - | - | - |\n"
    "| deasna | cmt | healthy | unrated | untimed | static | plain | 1 | 0.1300 | 1.350 | 300 | 0.0600 | 192 | - | - | - | - | - | - | - | - | - |\n"
    "| deasna | cmt | healthy | unrated | rate:120;queue:256 | static | plain | 2 | 0.1650 | 1.525 | 650 | 0.1300 | 416 | 0.625 | 2.25 | 8 | 1.75 | - | - | - | - | - |\n"
    "| deasna | cmt | fail:1@8 | unrated | untimed | static | plain | 1 | 0.1400 | 1.400 | 400 | 0.0800 | 256 | - | - | - | - | - | - | - | - | - |\n"
    "| lair62 | cmt | healthy | unrated | untimed | static | ec:4+2 | 1 | 0.2100 | 1.750 | 1100 | 0.2200 | 704 | - | - | - | - | - | - | 480 | 7680 | 0 |\n"
    "| lair62 | cmt | healthy | pe:900 | untimed | static | plain | 1 | 0.1500 | 1.450 | 500 | 0.1000 | 320 | - | - | - | - | - | - | - | - | - |\n"
    "| lair62 | cmt | fail:1@8 | pe:900 | rate:120;queue:256 | add:2@16/cap:2,rate:240;drain:0@24 | rep:3 | 1 | 0.2200 | 1.800 | 1200 | 0.2400 | 768 | 1 | 4.5 | 12 | 3.25 | 0.250 | 12 | 96 | 2048 | 1 |\n"
    "| lair62 | hdf | healthy | unrated | rate:60 | static | plain | 1 | 0.1800 | 1.600 | 800 | 0.1600 | 512 | - | - | - | 1 | - | - | - | - | - |"
)

PINNED_SUBSET_MARKDOWN = {
    "plain": (
        "| workload | policy | runs | load CoV | peak ratio | wear spread | wear CoV | migration MB |\n"
        "|---|---|---|---|---|---|---|---|\n"
        "| deasna | baseline | 2 | 0.1150 | 1.275 | 150 | 0.0300 | 96 |\n"
        "| deasna | cmt | 1 | 0.1300 | 1.350 | 300 | 0.0600 | 192 |"
    ),
    "service": (
        "| workload | policy | service | runs | load CoV | peak ratio | wear spread | wear CoV | migration MB | lat p50 | lat p99 | lat p999 | mig spike |\n"
        "|---|---|---|---|---|---|---|---|---|---|---|---|---|\n"
        "| deasna | baseline | untimed | 2 | 0.1150 | 1.275 | 150 | 0.0300 | 96 | - | - | - | - |\n"
        "| deasna | cmt | untimed | 1 | 0.1300 | 1.350 | 300 | 0.0600 | 192 | - | - | - | - |\n"
        "| deasna | cmt | rate:120;queue:256 | 2 | 0.1650 | 1.525 | 650 | 0.1300 | 416 | 0.625 | 2.25 | 8 | 1.75 |\n"
        "| lair62 | hdf | rate:60 | 1 | 0.1800 | 1.600 | 800 | 0.1600 | 512 | - | - | - | 1 |"
    ),
    "topology-redundancy": (
        "| workload | policy | topology | redundancy | runs | load CoV | peak ratio | wear spread | wear CoV | migration MB | cold share | drain moves | recon reads | recon MB | lost chunks |\n"
        "|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n"
        "| deasna | baseline | static | plain | 2 | 0.1150 | 1.275 | 150 | 0.0300 | 96 | - | - | - | - | - |\n"
        "| deasna | cdf | add:2@16/cap:2 | plain | 1 | 0.1900 | 1.650 | 900 | 0.1800 | 576 | 0.125 | 0 | - | - | - |\n"
        "| deasna | cdf | drain:0@24 | plain | 1 | 0.2000 | 1.700 | 1000 | 0.2000 | 640 | 0.000 | 37 | - | - | - |\n"
        "| deasna | cmt | static | plain | 1 | 0.1300 | 1.350 | 300 | 0.0600 | 192 | - | - | - | - | - |\n"
        "| lair62 | cmt | static | ec:4+2 | 1 | 0.2100 | 1.750 | 1100 | 0.2200 | 704 | - | - | 480 | 7680 | 0 |"
    ),
}

PINNED_CELLS = [
    {
        "workload": "deasna",
        "policy": "baseline",
        "faults": "",
        "endurance": "",
        "service": "",
        "topology": "",
        "redundancy": "",
        "runs": 2,
        "load_cov_mean": 0.115,
        "load_peak_ratio_mean": 1.275,
        "wear_spread": 150.0,
        "wear_cov": 0.03,
        "migration_cost_mb": 96.0,
    },
    {
        "workload": "deasna",
        "policy": "cdf",
        "faults": "",
        "endurance": "",
        "service": "",
        "topology": "add:2@16/cap:2",
        "redundancy": "",
        "runs": 1,
        "load_cov_mean": 0.19,
        "load_peak_ratio_mean": 1.65,
        "wear_spread": 900.0,
        "wear_cov": 0.18,
        "migration_cost_mb": 576.0,
        "cold_load_share_final": 0.125,
        "drain_moves_total": 0.0,
    },
    {
        "workload": "deasna",
        "policy": "cdf",
        "faults": "",
        "endurance": "",
        "service": "",
        "topology": "drain:0@24",
        "redundancy": "",
        "runs": 1,
        "load_cov_mean": 0.2,
        "load_peak_ratio_mean": 1.7,
        "wear_spread": 1000.0,
        "wear_cov": 0.2,
        "migration_cost_mb": 640.0,
        "cold_load_share_final": 0.0,
        "drain_moves_total": 37.0,
    },
    {
        "workload": "deasna",
        "policy": "cmt",
        "faults": "",
        "endurance": "",
        "service": "",
        "topology": "",
        "redundancy": "",
        "runs": 1,
        "load_cov_mean": 0.13,
        "load_peak_ratio_mean": 1.35,
        "wear_spread": 300.0,
        "wear_cov": 0.06,
        "migration_cost_mb": 192.0,
    },
    {
        "workload": "deasna",
        "policy": "cmt",
        "faults": "",
        "endurance": "",
        "service": "rate:120;queue:256",
        "topology": "",
        "redundancy": "",
        "runs": 2,
        "load_cov_mean": 0.165,
        "load_peak_ratio_mean": 1.525,
        "wear_spread": 650.0,
        "wear_cov": 0.13,
        "migration_cost_mb": 416.0,
        "service_lat_p50": 0.625,
        "service_lat_p99": 2.25,
        "service_lat_p999": 8.0,
        "migration_spike_ratio": 1.75,
    },
    {
        "workload": "deasna",
        "policy": "cmt",
        "faults": "fail:1@8",
        "endurance": "",
        "service": "",
        "topology": "",
        "redundancy": "",
        "runs": 1,
        "load_cov_mean": 0.14,
        "load_peak_ratio_mean": 1.4,
        "wear_spread": 400.0,
        "wear_cov": 0.08,
        "migration_cost_mb": 256.0,
    },
    {
        "workload": "lair62",
        "policy": "cmt",
        "faults": "",
        "endurance": "",
        "service": "",
        "topology": "",
        "redundancy": "ec:4+2",
        "runs": 1,
        "load_cov_mean": 0.21000000000000002,
        "load_peak_ratio_mean": 1.75,
        "wear_spread": 1100.0,
        "wear_cov": 0.22,
        "migration_cost_mb": 704.0,
        "reconstruction_reads_total": 480.0,
        "reconstruction_write_mb": 7680.0,
        "data_loss_chunks_total": 0.0,
    },
    {
        "workload": "lair62",
        "policy": "cmt",
        "faults": "",
        "endurance": "pe:900",
        "service": "",
        "topology": "",
        "redundancy": "",
        "runs": 1,
        "load_cov_mean": 0.15000000000000002,
        "load_peak_ratio_mean": 1.45,
        "wear_spread": 500.0,
        "wear_cov": 0.1,
        "migration_cost_mb": 320.0,
    },
    {
        "workload": "lair62",
        "policy": "cmt",
        "faults": "fail:1@8",
        "endurance": "pe:900",
        "service": "rate:120;queue:256",
        "topology": "add:2@16/cap:2,rate:240;drain:0@24",
        "redundancy": "rep:3",
        "runs": 1,
        "load_cov_mean": 0.22,
        "load_peak_ratio_mean": 1.8,
        "wear_spread": 1200.0,
        "wear_cov": 0.24,
        "migration_cost_mb": 768.0,
        "service_lat_p50": 1.0,
        "service_lat_p99": 4.5,
        "service_lat_p999": 12.0,
        "migration_spike_ratio": 3.25,
        "cold_load_share_final": 0.25,
        "drain_moves_total": 12.0,
        "reconstruction_reads_total": 96.0,
        "reconstruction_write_mb": 2048.0,
        "data_loss_chunks_total": 1.0,
    },
    {
        "workload": "lair62",
        "policy": "hdf",
        "faults": "",
        "endurance": "",
        "service": "rate:60",
        "topology": "",
        "redundancy": "",
        "runs": 1,
        "load_cov_mean": 0.18,
        "load_peak_ratio_mean": 1.6,
        "wear_spread": 800.0,
        "wear_cov": 0.16,
        "migration_cost_mb": 512.0,
        "service_lat_p50": math.nan,
        "service_lat_p99": math.nan,
        "service_lat_p999": math.nan,
        "migration_spike_ratio": 1.0,
    },
]


def test_render_markdown_is_pinned_for_every_layer():
    assert report.render_markdown(report.aggregate(SYNTHETIC_ROWS)) == PINNED_MARKDOWN


# Which synthetic rows each subset pin renders: a layer's columns appear
# only once one of its runs is present.
SUBSETS = {
    "plain": [0, 1, 2],
    "service": [0, 1, 2, 5, 6, 7],
    "topology-redundancy": [0, 1, 2, 8, 9, 10],
}


@pytest.mark.parametrize("name", sorted(SUBSETS))
def test_render_markdown_shows_only_present_layers(name):
    rows = [SYNTHETIC_ROWS[i] for i in SUBSETS[name]]
    assert report.render_markdown(report.aggregate(rows)) == PINNED_SUBSET_MARKDOWN[name]


def test_render_json_is_pinned_for_every_layer():
    # json.dumps of the literal cells keeps their key order, so equal text
    # pins every cell's keys, order and float bits.
    got = report.render_json(report.aggregate(SYNTHETIC_ROWS))
    assert got == json.dumps(PINNED_CELLS, indent=2)
