"""Benchmark harness: ``python -m edm.bench``.

Times the full 64-config sweep cold (force re-simulation, cache rewritten)
and warm (pure cache reads), plus single-config engine throughput, and
writes ``BENCH_sweep.json`` at the repo root so later PRs have a perf
trajectory to beat.  ``--quick`` shrinks the grid for CI smoke and writes
``BENCH_quick.json`` instead, so toy numbers never clobber the real
baseline unless ``--out`` says so explicitly.

The perf *history* lives next door: ``--append-history`` appends each
report (stamped with git SHA + timestamp) to ``BENCH_history.jsonl``, and
``--compare BASELINE.json [--max-regression 0.15]`` diffs this run's
throughput against a previous report and exits nonzero on regression --
the CI perf gate.  See :mod:`edm.obs.history`.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

from edm import __version__
from edm.cache import DEFAULT_CACHE_DIR
from edm.config import SimConfig
from edm.engine.core import simulate
from edm.obs import (
    DEFAULT_HISTORY,
    append_history,
    baseline_from_history,
    compare_reports,
    configure_logging,
    get_logger,
    load_report,
)
from edm.obs.log import level_from_args
from edm.sweep import default_grid, sweep
from edm.telemetry import TimeSeriesRecorder

DEFAULT_OUT = Path("BENCH_sweep.json")
QUICK_OUT = Path("BENCH_quick.json")

log = get_logger("bench")


def bench_single_config(
    requests_target: int = 2_000_000,
    telemetry: bool = False,
    repeats: int = 3,
) -> dict:
    """Single-config throughput through the vectorized path.

    ``telemetry=True`` attaches a full-rate ``TimeSeriesRecorder`` so the
    report tracks the observer layer's overhead next to the bare engine.
    A tiny untimed warm-up run precedes the measurement so one-off import
    and allocation costs never land inside the timed region.  The run
    repeats ``repeats`` times and reports the fastest (best-of-N filters
    scheduler noise; the simulation itself is deterministic, so every
    repeat does identical work).
    """
    # deasna has constant epoch volume, so requests_simulated is exact.
    base = SimConfig(workload="deasna", num_osds=20, policy="cmt")
    per_epoch = base.requests_per_epoch
    epochs = max(1, -(-requests_target // per_epoch))
    cfg = SimConfig(
        workload=base.workload,
        num_osds=base.num_osds,
        policy=base.policy,
        epochs=epochs,
        requests_per_epoch=per_epoch,
    )
    warmup = SimConfig(
        workload=base.workload,
        num_osds=base.num_osds,
        policy=base.policy,
        epochs=2,
        requests_per_epoch=256,
    )
    simulate(warmup)
    elapsed = float("inf")
    for _ in range(max(1, repeats)):
        recorders = (TimeSeriesRecorder(),) if telemetry else ()
        t0 = time.perf_counter()
        metrics = simulate(cfg, recorders=recorders)
        elapsed = min(elapsed, time.perf_counter() - t0)
    simulated = metrics["total_requests"]
    return {
        "config": cfg.cache_name(),
        "epochs": epochs,
        "telemetry": telemetry,
        "requests_simulated": simulated,
        "seconds": elapsed,
        "requests_per_sec": simulated / elapsed if elapsed > 0 else float("inf"),
    }


def run_bench(
    out_path: Path = DEFAULT_OUT,
    cache_dir=DEFAULT_CACHE_DIR,
    workers: int | None = None,
    quick: bool = False,
) -> dict:
    overrides = {"epochs": 32, "requests_per_epoch": 1024} if quick else {}
    # The bench grid is pinned to the paper's four policies (64 configs):
    # perf history comparisons (`bench --compare`) require the workload mix
    # to stay constant across releases, so zoo additions must not grow it.
    grid = default_grid(policies=("baseline", "cdf", "hdf", "cmt"), **overrides)

    log.info("cold sweep: %d configs (force re-simulate)", len(grid))
    t0 = time.perf_counter()
    cold = sweep(grid, cache_dir=cache_dir, workers=workers, force=True)
    cold_s = time.perf_counter() - t0

    log.info("warm sweep: pure cache reads")
    t0 = time.perf_counter()
    warm = sweep(grid, cache_dir=cache_dir, workers=workers)
    warm_s = time.perf_counter() - t0

    target = 200_000 if quick else 2_000_000
    single = bench_single_config(target)
    single_telemetry = bench_single_config(target, telemetry=True)
    overhead = (
        single_telemetry["seconds"] / single["seconds"] - 1.0
        if single["seconds"] > 0
        else 0.0
    )

    report = {
        "edm_version": __version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "quick": quick,
        "sweep": {
            "configs": len(grid),
            "cold_seconds": cold_s,
            "warm_seconds": warm_s,
            "speedup_warm_over_cold": cold_s / warm_s if warm_s > 0 else float("inf"),
            "warm_cache_hits": warm.cache_hits,
            "total_requests_simulated": cold.total_requests,
            "requests_per_sec_cold": cold.total_requests / cold_s if cold_s > 0 else 0.0,
        },
        "single_config": single,
        "single_config_telemetry": single_telemetry,
        "telemetry_overhead_frac": overhead,
    }
    out_path = Path(out_path)
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m edm.bench",
        description=(
            "Benchmark the EDM sweep engine (cold vs warm); writes BENCH_sweep.json "
            "(or BENCH_quick.json under --quick)"
        ),
    )
    ap.add_argument(
        "--out",
        default=None,
        help=f"output JSON path (default {DEFAULT_OUT}, or {QUICK_OUT} with --quick)",
    )
    ap.add_argument("--cache-dir", default=str(DEFAULT_CACHE_DIR))
    ap.add_argument("--workers", type=int, default=None)
    ap.add_argument(
        "--quick", action="store_true", help="tiny epochs/requests (CI smoke)"
    )
    ap.add_argument(
        "--append-history",
        nargs="?",
        const=str(DEFAULT_HISTORY),
        default=None,
        metavar="PATH",
        help=f"append this report (+ git SHA, timestamp) to a JSONL history (default {DEFAULT_HISTORY})",
    )
    ap.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE",
        help="diff throughput against a baseline; exit nonzero on regression.  "
        "A .json path is a single report; a .jsonl path is a history file, "
        "compared against its newest entry of this run's quick/full mode",
    )
    ap.add_argument(
        "--max-regression",
        type=float,
        default=0.15,
        help="allowed fractional throughput drop for --compare (default 0.15 = 15%%)",
    )
    ap.add_argument("-v", "--verbose", action="count", default=0)
    ap.add_argument("--log-level", default=None, help="DEBUG/INFO/WARNING/ERROR")
    args = ap.parse_args(argv)
    configure_logging(level_from_args(args.verbose, args.log_level))

    # Quick mode gets its own default output so toy numbers never silently
    # overwrite the real BENCH_sweep.json baseline.
    out = Path(args.out) if args.out else (QUICK_OUT if args.quick else DEFAULT_OUT)

    report = run_bench(
        out_path=out,
        cache_dir=Path(args.cache_dir),
        workers=args.workers,
        quick=args.quick,
    )
    s = report["sweep"]
    print(
        f"sweep: {s['configs']} configs | cold {s['cold_seconds']:.2f}s "
        f"({s['requests_per_sec_cold']:,.0f} req/s) | warm {s['warm_seconds']:.3f}s "
        f"| speedup {s['speedup_warm_over_cold']:.1f}x"
    )
    sc = report["single_config"]
    print(
        f"single-config: {sc['requests_simulated']:,} requests in {sc['seconds']:.2f}s "
        f"= {sc['requests_per_sec']:,.0f} req/s "
        f"(telemetry overhead {report['telemetry_overhead_frac'] * 100:+.1f}%)"
    )
    log.info("wrote %s", out)

    if args.append_history:
        entry = append_history(report, path=args.append_history)
        log.info("appended history entry (git %s) to %s", entry["git_sha"], args.append_history)

    if args.compare:
        try:
            if Path(args.compare).suffix == ".jsonl":
                baseline = baseline_from_history(args.compare, quick=report["quick"])
            else:
                baseline = load_report(args.compare)
            regressions = compare_reports(report, baseline, args.max_regression)
        except (OSError, ValueError, json.JSONDecodeError) as e:
            log.error("cannot compare against %s: %s", args.compare, e)
            return 2
        if regressions:
            for r in regressions:
                log.error("REGRESSION: %s", r.describe())
            print(
                f"FAIL: {len(regressions)} throughput metric(s) regressed more than "
                f"{args.max_regression * 100:.0f}% vs {args.compare}"
            )
            return 1
        print(
            f"OK: throughput within {args.max_regression * 100:.0f}% of baseline {args.compare}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
