"""The benchmark's four workloads, run through the simulator's public API.

Each workload is a fixed list of configs built from the benchmark seed.  The
load is closed-loop: one process, no worker pool, and each config run starts
when the previous one returns.  Simulated time is in epochs; every timing
here is host time.

The engine entry points are called through their modules
(``core.simulate``, ``sweep_mod.sweep``) rather than imported names, so the
per-layer tracer in :mod:`perfbench.layers` can wrap them for a traced pass.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import edm.engine.core as core
from edm import DecisionRecorder, SimConfig, read_run_log
from edm.config import POLICIES
from edm.workloads import TRACES

from perfbench.layers import error_layer, sweep_mod

NAMES = ("plain", "serviced", "degraded", "sweep")

# Epochs per config run, sized so one pass takes about a second on a 2-core
# x86_64 box (serviced: five), so enough passes fit in a run for a median.
EPOCHS = {"plain": 512, "serviced": 256, "degraded": 256, "sweep": 256}
SERVICED_SEEDS = 6


@dataclass
class Run:
    """One config run: its metrics, or the error that stopped it."""

    config: str
    metrics: dict | None = None
    error: str | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


@dataclass
class Pass:
    """One pass over a workload's configs, timed as a whole."""

    wall_s: float
    runs: list[Run]
    problems: list[str] = field(default_factory=list)

    @property
    def requests(self) -> int:
        """Simulated requests of the runs that completed."""
        return sum(r.metrics["total_requests"] for r in self.runs if r.metrics is not None)

    @property
    def digest(self) -> str:
        return digest([r.metrics for r in self.runs])


def digest(metrics: list) -> str:
    """Short content hash of full simulated-metrics dicts (floats exact)."""
    blob = json.dumps(metrics, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def describe(exc: BaseException) -> str:
    return f"{type(exc).__name__} in {error_layer(exc)}: {exc}"


def check_run(cfg: SimConfig, m: dict) -> list[str]:
    """Conservation checks every completed config run must pass."""
    problems = []
    if TRACES[cfg.workload].burstiness == 0:
        expected = cfg.epochs * cfg.requests_per_epoch
        if m["total_requests"] != expected:
            problems.append(f"total_requests {m['total_requests']} != {expected}")
    if cfg.service and m["service_requests_total"] != m["total_requests"]:
        problems.append(
            f"service_requests_total {m['service_requests_total']} "
            f"!= total_requests {m['total_requests']}"
        )
    # Every unit of wear is a routed write or a migration's whole-chunk copy.
    wear = math.fsum(m["per_osd_wear"])
    expected = cfg.wear_per_write * (
        m["total_writes"] + m["migrations_total"] * cfg.migration_write_cost
    )
    if not math.isclose(wear, expected, rel_tol=1e-12):
        problems.append(f"wear {wear!r} != writes + migration copies {expected!r}")
    return [f"{cfg.cache_name()}: {p}" for p in problems]


def run_config(cfg: SimConfig, explain: bool = False) -> Run:
    """Simulate one config; an exception is caught and recorded, not raised."""
    recorders = (DecisionRecorder(),) if explain else ()
    try:
        metrics = core.simulate(cfg, recorders=recorders)
    except Exception as exc:  # a crashing config is an outcome to report
        return Run(cfg.cache_name(), error=describe(exc))
    return Run(cfg.cache_name(), metrics=metrics)


class ConfigList:
    """A workload that simulates its configs one after another."""

    def __init__(self, configs: list[tuple[SimConfig, bool]]):
        self.configs = configs

    def run_pass(self) -> Pass:
        t0 = time.perf_counter()
        runs = [run_config(cfg, explain) for cfg, explain in self.configs]
        wall = time.perf_counter() - t0
        for (cfg, _), run in zip(self.configs, runs):
            if run.metrics is not None:
                run.problems = check_run(cfg, run.metrics)
        return Pass(wall, runs)

    def close(self) -> None:
        pass


class SweepGrid:
    """``edm.sweep.sweep`` inline into a cold cache, then a warm pass.

    Time series and the run log are on, as users run a sweep.  Each pass
    gets a fresh directory, created and removed outside the timed region.
    """

    def __init__(self, configs: list[SimConfig], work_dir: Path):
        self.configs = configs
        self.work_dir = work_dir

    def _sweep(self, pass_dir: Path):
        return sweep_mod.sweep(
            self.configs,
            cache_dir=pass_dir / "cache",
            workers=1,
            timeseries_dir=pass_dir / "series",
            run_log=pass_dir / "runs.jsonl",
        )

    def run_pass(self) -> Pass:
        pass_dir = Path(tempfile.mkdtemp(prefix="sweep-", dir=self.work_dir))
        try:
            t0 = time.perf_counter()
            try:
                cold = self._sweep(pass_dir)
                warm = self._sweep(pass_dir)
            except Exception as exc:
                wall = time.perf_counter() - t0
                error = describe(exc)
                return Pass(wall, [Run(c.cache_name(), error=error) for c in self.configs])
            wall = time.perf_counter() - t0
            runs = [
                Run(cfg.cache_name(), metrics=m, problems=check_run(cfg, m))
                for cfg, m in zip(self.configs, cold.records)
            ]
            return Pass(wall, runs, self._check(pass_dir, cold, warm))
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)

    def _check(self, pass_dir: Path, cold, warm) -> list[str]:
        n = len(self.configs)
        problems = []
        if cold.simulated != n:
            problems.append(f"cold sweep simulated {cold.simulated} of {n} configs")
        if warm.cache_hits != n or warm.simulated != 0:
            problems.append(
                f"warm sweep: {warm.cache_hits} cache hits, {warm.simulated} simulated, "
                f"expected {n} hits"
            )
        if digest(warm.records) != digest(cold.records):
            problems.append("warm sweep metrics differ from the cold sweep's")
        series = len(list((pass_dir / "series").glob("*.npz")))
        if series != n:
            problems.append(f"{series} time-series files for {n} configs")
        ends = sum(r["event"] == "run_end" for r in read_run_log(pass_dir / "runs.jsonl"))
        if ends != n:
            problems.append(f"{ends} run_end records for {n} configs")
        return problems

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


def _degraded(seed: int, e: int) -> list[tuple[SimConfig, bool]]:
    """Six configs covering all six policies and every scenario layer.

    Event epochs and P/E ratings scale with the run length ``e`` so a
    shortened run still fires them.  The endurance ratings let three drives
    wear out one after another; at these ratings the count holds across seeds.
    """
    b = dict(workload="deasna", num_osds=20, seed=seed, epochs=e)
    return [
        (SimConfig(
            policy="hdf", **b,
            faults=(f"fail:3@{e // 4};fail:12@{e // 2};fail:15@{3 * e // 4};slow:5@{e // 8}x0.5;"
                    f"hiccup:7@{3 * e // 8}+{e // 16}x0.25"),
        ), False),
        (SimConfig(
            policy="cmt", **b,
            endurance=f"pe:{220 * e}", topology=f"add:4@{e // 2}/cap:2,pe:{800 * e}",
        ), False),
        (SimConfig(policy="pswl", **b, topology=f"add:4@{e // 4};drain:2@{5 * e // 8}"), False),
        (SimConfig(
            policy="consolidate", **b, redundancy="ec:4+2",
            faults=f"fail:6@{3 * e // 8};fail:13@{5 * e // 8};hiccup:1@{5 * e // 32}+{e // 32}x0.5",
            service="rate:1600;queue:256", topology=f"add:2@{e // 2}",
        ), False),
        # The decision recorder puts selection and re-placement on their
        # explained paths.
        (SimConfig(
            policy="cdf", **b, redundancy="rep:3",
            faults=f"fail:4@{5 * e // 16};fail:17@{e // 2};fail:11@{11 * e // 16}",
        ), True),
        (SimConfig(
            policy="baseline", **b, faults=f"fail:9@{3 * e // 16}", endurance=f"pe:{300 * e}",
        ), False),
    ]


def known_defects(name: str, seed: int) -> list[SimConfig]:
    """Configs that crash at this commit, run outside the workload's operations.

    Redundancy with endurance wear-outs: re-placement finds no OSD outside
    the chunk's placement group and raises mid-run.  A fail-soft fix turns
    the probe into a completed run, which then faces the output checks.
    """
    if name != "degraded":
        return []
    e = EPOCHS[name]
    return [SimConfig(
        workload="deasna", num_osds=20, policy="cmt", seed=seed, epochs=e,
        redundancy="rep:3", endurance=f"pe:{12 * e}",
    )]


def prepare(name: str, seed: int, work_dir: Path, epochs: int | None = None):
    """Build a workload's configs (validating every spec) and its directories."""
    e = epochs or EPOCHS[name]
    if name == "plain":
        cfg = SimConfig(workload="deasna", num_osds=200, policy="cmt", seed=seed, epochs=e)
        return ConfigList([(cfg, False)])
    if name == "serviced":
        # One bursty config's wear CoV spreads 17-30% (IQR/median) over ten
        # seeds; the mean over six consecutive seeds spreads about 8%.
        return ConfigList([
            (SimConfig(
                workload="deasna2", num_osds=20, policy="cmt", seed=seed + i, epochs=e,
                requests_per_epoch=65536, service="rate:16000;queue:1024",
            ), False)
            for i in range(SERVICED_SEEDS)
        ])
    if name == "degraded":
        return ConfigList(_degraded(seed, e))
    if name == "sweep":
        grid = sweep_mod.default_grid(
            workloads=("deasna", "lair62b"), osds=(20,), policies=POLICIES,
            seeds=(seed,), epochs=e,
        )
        work_dir.mkdir(parents=True, exist_ok=True)
        return SweepGrid(grid, Path(tempfile.mkdtemp(prefix="sweep-", dir=work_dir)))
    raise ValueError(f"unknown workload {name!r}; have {NAMES}")


def sim_metrics(runs: list[Run]) -> dict[str, float]:
    """The paper's simulated outcomes over a pass's completed runs."""
    done = [r.metrics for r in runs if r.metrics is not None]
    return {
        "sim.load_cov_mean": statistics.fmean(m["load_cov_mean"] for m in done),
        "sim.wear_cov": statistics.fmean(m["wear_cov"] for m in done),
        "sim.migration_mb": math.fsum(m["migration_cost_mb"] for m in done),
    }


def lat_p99(runs: list[Run]) -> float:
    """Mean ``service_lat_p99`` over serviced runs; 0.0 when none is serviced."""
    p99 = [r.metrics["service_lat_p99"] for r in runs
           if r.metrics is not None and "service_lat_p99" in r.metrics]
    return statistics.fmean(p99) if p99 else 0.0
