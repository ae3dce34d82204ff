"""Run one benchmark workload; the last line of stdout is its result as JSON.

    python3 perfbench/run.py --workload plain --seed 12345 --seconds 10 --trace 0

Run from the root of a checkout; the simulator is imported from ``src/``.
With ``--trace 0`` the workload runs bare, pass after pass, for ``--seconds``
and the end-to-end metrics are reported as medians over passes.  With
``--trace 1`` bare and traced passes alternate for ``--seconds`` and the
per-layer metrics of the traced passes are reported; their spans are
written to ``.perfbench/`` once the run ends.  Either way every completed
config run faces the output checks in :mod:`perfbench.workloads`, and the
result's ``correct`` is false if any check failed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_SAMPLES = 7
MIN_PASSES = 3


def measure_setup(name: str, seed: int, cal) -> float:
    """Median set-up seconds of fresh interpreters, at reference machine speed.

    Each sample is scaled like a pass, by the calibration loops timed just
    before and just after it.  A first, unreported sample warms the file and
    bytecode caches.
    """
    cmd = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), name, str(seed), str(WORK)]
    samples = []
    before = cal.seconds()
    for _ in range(SETUP_SAMPLES + 1):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        after = cal.seconds()
        speed = 2 * cal.reference_s / (before + after)
        samples.append(float(out.stdout.strip().splitlines()[-1]) * speed)
        before = after
    return statistics.median(samples[1:])


class Outcome:
    """Runs, check failures and report lines gathered over a benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.errors: list[str] = []
        self.notes: list[str] = []

    def add_pass(self, p) -> None:
        self.attempted += len(p.runs)
        self.failed += sum(r.failed for r in p.runs)
        self.problems += p.problems
        for r in p.runs:
            self.problems += r.problems
            if r.error is not None:
                self.errors.append(f"{r.config}: {r.error}")

    def same_outputs(self, passes, label: str) -> None:
        digests = {p.digest for p in passes}
        if len(digests) > 1:
            self.problems.append(f"{label}: simulated metrics differ between passes {digests}")


def known_crashes(workloads, name: str, seed: int, out: Outcome) -> tuple[int, list[str]]:
    """Run the workload's known-defect configs once; count those that still raise."""
    raised, lines = 0, []
    for cfg in workloads.known_defects(name, seed):
        run = workloads.run_config(cfg)
        if run.error is not None:
            raised += 1
            lines.append(f"known crash (not an operation): {run.config}: {run.error}")
        else:
            out.problems += workloads.check_run(cfg, run.metrics)
            lines.append(f"known defect no longer crashes: {run.config}")
    return raised, lines


def bare_metrics(wl, args, out: Outcome, cal, setup_s: float):
    """Bare passes for ``--seconds``, each rate scaled to reference machine speed.

    The scale comes from the calibration loops timed just before and just
    after each pass.
    """
    passes, rates, speeds = [], [], []
    before = cal.seconds()
    end = time.perf_counter() + args.seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < end:
        p = wl.run_pass()
        after = cal.seconds()
        out.add_pass(p)
        passes.append(p)
        speeds.append(2 * cal.reference_s / (before + after))
        rates.append(p.requests / p.wall_s / 1e6 / speeds[-1])
        before = after
    out.same_outputs(passes, "bare")
    out.notes.append(f"machine speed: median {statistics.median(speeds):.3f} of the reference "
                     f"over {len(speeds) + 1} calibration loops; host timings are scaled by it")
    metrics = {
        "host_mreq_per_s": statistics.median(rates),
        "setup_s": setup_s,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return passes, metrics


def traced_metrics(workloads, layers, wl, args, out: Outcome):
    bare, traced, per_pass, gaps = [], [], [], []
    first_log = None
    end = time.perf_counter() + args.seconds
    while len(traced) < MIN_PASSES or time.perf_counter() < end:
        p = wl.run_pass()
        out.add_pass(p)
        bare.append(p)
        log = layers.SpanLog()
        origin = time.perf_counter()
        with layers.tracing(log):
            t = wl.run_pass()
        out.add_pass(t)
        traced.append(t)
        per_pass.append(layers.layer_metrics(log, t.wall_s))
        gaps += layers.epoch_ms(log)
        if first_log is None:
            first_log = (log, origin)
    out.same_outputs(bare, "bare")
    out.same_outputs([bare[0], *traced], "traced vs bare")
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    metrics.update(layers.epoch_stats(gaps))
    metrics["trace.overhead_frac"] = (
        statistics.median(t.wall_s for t in traced) / statistics.median(p.wall_s for p in bare)
        - 1.0
    )
    metrics["sim.lat_p99"] = workloads.lat_p99(bare[0].runs)
    path = WORK / f"spans-{args.workload}-s{args.seed}.jsonl"
    layers.write_spans(first_log[0], path, first_log[1])
    return bare, metrics, path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("plain", "serviced", "degraded", "sweep"))
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "edm" / "__init__.py").is_file():
        print(f"perfbench: simulator source not found under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.calibrate import Calibration

    cal = Calibration()
    setup_s = 0.0 if args.trace else measure_setup(args.workload, args.seed, cal)

    import edm
    from perfbench import layers, workloads

    if not Path(edm.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: edm imported from {edm.__file__}, not {SRC}", file=sys.stderr)
        return 2

    out = Outcome()
    wl = workloads.prepare(args.workload, args.seed, WORK)
    try:
        if args.trace:
            passes, metrics, spans = traced_metrics(workloads, layers, wl, args, out)
        else:
            passes, metrics = bare_metrics(wl, args, out, cal, setup_s)
        raised, crash_lines = known_crashes(workloads, args.workload, args.seed, out)
    finally:
        wl.close()
    if all(r.metrics is None for r in passes[0].runs):
        print(f"perfbench: no config run of {args.workload} completed: {out.errors[:3]}",
              file=sys.stderr)
        return 1
    if args.trace:
        metrics["known_crash.raised"] = raised
    else:
        metrics.update(workloads.sim_metrics(passes[0].runs))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if list(units) != list(metrics):
        print(f"perfbench: measured {sorted(metrics)}, BENCHMARK.json lists {sorted(units)}",
              file=sys.stderr)
        return 1

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} passes, {out.attempted} config runs, {out.failed} failed")
    print(f"  digest {passes[0].digest} of the simulated metrics of "
          f"{len(passes[0].runs)} config runs")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:.6g} {units[name]}")
    for line in out.notes + crash_lines + [f"error: {e}" for e in out.errors[:10]]:
        print(f"  {line}")
    for p in out.problems[:20]:
        print(f"  check failed: {p}")
    if args.trace:
        print(f"  spans of the first traced pass: {spans.relative_to(ROOT)}")

    result = {
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
