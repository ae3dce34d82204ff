"""Tests of the benchmark itself: workloads, output checks and the tracer.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys

import pytest

from edm import SimConfig, Tracer
from perfbench import layers, workloads

from conftest import ROOT

TINY = 32


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_workload_runs_end_to_end_at_tiny_size(name, tmp_path):
    wl = workloads.prepare(name, 12345, tmp_path, epochs=TINY)
    try:
        p = wl.run_pass()
    finally:
        wl.close()
    assert p.runs and not any(r.failed for r in p.runs), [
        (r.error, r.problems) for r in p.runs
    ]
    assert not p.problems
    assert p.requests > 0 and p.wall_s > 0
    assert all(v > 0 for v in workloads.sim_metrics(p.runs).values())


def test_tracing_restores_every_patched_attribute(tmp_path):
    originals = {(t.owner, t.attr): vars(t.owner)[t.attr] for t in layers.targets()}
    assert len(originals) == len(layers.targets())
    log = layers.SpanLog()
    with pytest.raises(RuntimeError, match="inside"):
        with layers.tracing(log):
            for (owner, attr), fn in originals.items():
                assert vars(owner)[attr] is not fn, (owner, attr)
            raise RuntimeError("inside")
    for (owner, attr), fn in originals.items():
        assert vars(owner)[attr] is fn, (owner, attr)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_pass_matches_bare_and_layers_cover_the_wall(name, tmp_path):
    wl = workloads.prepare(name, 7, tmp_path, epochs=TINY)
    try:
        bare = wl.run_pass()
        log = layers.SpanLog()
        with layers.tracing(log):
            traced = wl.run_pass()
    finally:
        wl.close()
    assert traced.digest == bare.digest
    m = layers.layer_metrics(log, traced.wall_s)
    covered = sum(m[f"{layer}.share"] for layer in layers.LAYERS)
    assert 0.9 <= covered <= 1.0 + 1e-9
    assert m["workloads.requests"] == bare.requests


# The program's own simulate.* spans, mapped onto the benchmark's layers.
PROGRAM_SPANS = {
    "simulate.workload_gen": ("workloads",),
    "simulate.kernel": ("engine.kernels",),
    "simulate.service": ("service",),
    "simulate.observers": ("engine.metrics",),
    "simulate.migration": ("policies", "engine.migrate"),
}


@pytest.mark.parametrize("name, top", [("plain", "workloads"), ("serviced", "service")])
def test_layer_shares_rank_like_the_program_tracer(name, top, tmp_path):
    # One config is enough to rank the layers.
    wl = workloads.ConfigList(workloads.prepare(name, 12345, tmp_path).configs[:1])
    (cfg, _), = wl.configs
    log = layers.SpanLog()
    with layers.tracing(log):
        p = wl.run_pass()
    ours = layers.layer_metrics(log, p.wall_s)
    tr = Tracer()
    workloads.core.simulate(cfg, tracer=tr)
    theirs = {k: v["total_s"] for k, v in tr.summary().items() if k in PROGRAM_SPANS}
    mine = {k: sum(ours[f"{layer}.self_s"] for layer in PROGRAM_SPANS[k]) for k in theirs}
    assert max(mine, key=mine.get) == max(theirs, key=theirs.get) == (
        "simulate.service" if top == "service" else "simulate.workload_gen"
    )
    assert max(layers.LAYERS, key=lambda layer: ours[f"{layer}.share"]) == top
    # Pairs the program tracer separates by more than 2x rank the same way.
    for a in theirs:
        for b in theirs:
            if theirs[a] > 2 * theirs[b]:
                assert mine[a] > mine[b], (a, b, mine, theirs)


def test_known_crash_is_caught_and_attributed_to_its_layer():
    cfg, = workloads.known_defects("degraded", 12345)
    run = workloads.run_config(cfg)
    assert run.failed and run.metrics is None
    assert run.error.startswith("RuntimeError in engine.replace: ")


def test_output_checks_catch_lost_wear_and_requests():
    cfg = SimConfig(num_osds=4, epochs=8, requests_per_epoch=256)
    m = workloads.core.simulate(cfg)
    assert workloads.check_run(cfg, m) == []
    m["per_osd_wear"][0] += 1.0
    m["total_requests"] -= 1
    problems = workloads.check_run(cfg, m)
    assert len(problems) == 2
    assert any("wear" in p for p in problems)
    assert any("total_requests" in p for p in problems)


def test_command_prints_every_end_to_end_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plain", "--seed", "3",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_names_match_the_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [f"{layer}.{k}" for layer in layers.LAYERS for k in ("self_s", "share", "calls")]
    names += [*layers.COUNTS, "epoch_ms.p50", "epoch_ms.p99", "epoch_ms.n",
              "trace.overhead_frac", "sim.lat_p99", "known_crash.raised"]
    assert [m["name"] for m in spec["per_layer"]] == names


def test_without_the_simulator_source_the_command_fails(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
