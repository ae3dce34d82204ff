"""Perf history and the regression gate.

``BENCH_sweep.json`` is a single overwritable snapshot; this module gives the
bench a *trajectory* and a gate:

* :func:`append_history` appends each bench report -- stamped with the git
  SHA and a wall-clock timestamp -- as one JSONL line to
  ``BENCH_history.jsonl``, so `edm bench --append-history` accumulates a
  per-commit perf record that plots and bisects.
* :func:`compare_reports` diffs the throughput metrics of a fresh report
  against a baseline report and returns the metrics that regressed more
  than ``max_regression`` (a fraction: 0.15 == "fail if >15% slower").
  ``edm bench --compare baseline.json`` exits nonzero when that list is
  non-empty, which is what CI gates on.

Throughput metrics compared (higher is better):

    sweep.requests_per_sec_cold     cold 64-config sweep throughput
    single_config.requests_per_sec  bare single-config engine throughput

Reports are only comparable like-for-like: a ``--quick`` report must be
compared against a ``--quick`` baseline (grids differ otherwise), and
:func:`compare_reports` refuses mismatched pairs.  When the baseline comes
out of a ``.jsonl`` history, :func:`baseline_from_history` picks the newest
entry of the current report's mode, and errors clearly when none exists.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

DEFAULT_HISTORY = Path("BENCH_history.jsonl")

#: (dotted path into the report, short label) of gated throughput metrics.
THROUGHPUT_METRICS = (
    ("sweep.requests_per_sec_cold", "cold-sweep throughput"),
    ("single_config.requests_per_sec", "single-config throughput"),
)


def git_sha(cwd: str | os.PathLike | None = None) -> str:
    """Current commit SHA, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def append_history(
    report: dict,
    path: str | os.PathLike = DEFAULT_HISTORY,
    sha: str | None = None,
) -> dict:
    """Append one history entry (report + git SHA + timestamp) as a JSONL line."""
    entry = {
        "ts": time.time(),
        "git_sha": sha if sha is not None else git_sha(),
        "report": report,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as f:
        f.write(json.dumps(entry, separators=(",", ":")) + "\n")
    return entry


def read_history(path: str | os.PathLike = DEFAULT_HISTORY) -> list[dict]:
    """All history entries, oldest first."""
    entries = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    return entries


def baseline_from_history(
    path: str | os.PathLike,
    quick: bool | None = None,
) -> dict:
    """Most recent history report, of the given quick/full mode when set.

    ``bench --compare`` pointed at a ``.jsonl`` history instead of a single
    report gates against this entry.  Raises ``ValueError`` when the history
    holds no entry of the requested mode, rather than comparing a quick run
    against a full baseline.
    """
    entries = read_history(path)
    if not entries:
        raise ValueError(f"history {path} is empty; nothing to compare against")
    for entry in reversed(entries):
        report = entry.get("report")
        if not isinstance(report, dict):
            continue
        if quick is None or bool(report.get("quick")) == quick:
            return report
    mode = "" if quick is None else (" quick" if quick else " full")
    raise ValueError(
        f"history {path} has no{mode} entry; append one with "
        f"`python -m edm.bench{' --quick' if quick else ''} --append-history {path}`"
    )


def _dig(report: dict, dotted: str):
    node = report
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


@dataclass(frozen=True)
class Regression:
    """One gated metric that fell more than the allowed fraction."""

    metric: str
    label: str
    baseline: float
    current: float

    @property
    def change_frac(self) -> float:
        """Relative change, negative == slower than baseline."""
        return (self.current - self.baseline) / self.baseline if self.baseline else 0.0

    def describe(self) -> str:
        return (
            f"{self.label} ({self.metric}): {self.current:,.0f} req/s vs "
            f"baseline {self.baseline:,.0f} req/s ({self.change_frac * 100:+.1f}%)"
        )


def compare_reports(
    current: dict, baseline: dict, max_regression: float = 0.15
) -> list[Regression]:
    """Throughput metrics of ``current`` that regressed past the threshold.

    Returns an empty list when everything is within ``max_regression`` of the
    baseline.  Raises ``ValueError`` for incomparable reports (quick vs full)
    or a baseline missing the gated metrics.
    """
    if max_regression < 0:
        raise ValueError(f"max_regression must be >= 0, got {max_regression}")
    if bool(current.get("quick")) != bool(baseline.get("quick")):
        raise ValueError(
            "refusing to compare a quick report against a full baseline "
            f"(current quick={current.get('quick')}, baseline quick={baseline.get('quick')})"
        )
    regressions: list[Regression] = []
    for dotted, label in THROUGHPUT_METRICS:
        base = _dig(baseline, dotted)
        cur = _dig(current, dotted)
        if base is None:
            raise ValueError(f"baseline report is missing metric {dotted!r}")
        if cur is None:
            raise ValueError(f"current report is missing metric {dotted!r}")
        # A zero/negative/non-numeric baseline has no meaningful regression
        # ratio: comparing against it would either divide by zero or wave
        # every regression through (anything is >= 0% of 0).  Refuse loudly
        # instead; bench --compare surfaces this as a clear error + exit 2.
        if not isinstance(base, (int, float)) or isinstance(base, bool) or base <= 0:
            raise ValueError(
                f"baseline metric {dotted!r} is not a positive number (got {base!r}); "
                "cannot gate on a regression ratio against it"
            )
        if not isinstance(cur, (int, float)) or isinstance(cur, bool) or cur < 0:
            raise ValueError(
                f"current metric {dotted!r} is not a non-negative number (got {cur!r})"
            )
        if cur < base * (1.0 - max_regression):
            regressions.append(
                Regression(metric=dotted, label=label, baseline=float(base), current=float(cur))
            )
    return regressions


def load_report(path: str | os.PathLike) -> dict:
    """Read one bench report JSON (as written by ``edm bench``)."""
    report = json.loads(Path(path).read_text())
    if not isinstance(report, dict):
        raise ValueError(f"{path} is not a bench report (expected a JSON object)")
    return report
