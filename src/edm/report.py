"""Aggregate cached sweep results into the paper's comparison table.

Reads every metrics pickle in a ``.repro-cache``-style directory, drops stale
entries (engine-version or config drift, judged by recomputing the content
hash from the stored config), and aggregates policy x workload cells --
load CoV, wear spread, wear CoV, migration cost -- averaged across cluster
sizes and seeds.  Each scenario layer in :data:`edm.spec.LAYERS` adds a spec
column and its own report columns (tail latency for serviced runs, cold-drive
share and drain moves for elastic ones, reconstruction traffic and lost
chunks for redundant ones), each shown only when such a scenario is present
so plain reports keep their historical shape.  Renders markdown (for
docs/PRs) or JSON (for tooling).
"""

from __future__ import annotations

import json
import math
import pickle
from dataclasses import dataclass
from pathlib import Path

from edm.config import SimConfig, config_hash
from edm.spec import LAYERS

# (metrics key, column header, format spec)
TABLE_COLUMNS = (
    ("load_cov_mean", "load CoV", ".4f"),
    ("load_peak_ratio_mean", "peak ratio", ".3f"),
    ("wear_spread", "wear spread", ".0f"),
    ("wear_cov", "wear CoV", ".4f"),
    ("migration_cost_mb", "migration MB", ".0f"),
)

@dataclass(frozen=True)
class LoadedResults:
    """Cached metrics surviving validation, plus how many entries were stale."""

    metrics: list[dict]
    stale: int


def load_cached_metrics(cache_dir: str | Path) -> LoadedResults:
    """Load every valid metrics payload under ``cache_dir`` (sorted by name)."""
    rows: list[dict] = []
    stale = 0
    for path in sorted(Path(cache_dir).glob("*.pkl")):
        try:
            with open(path, "rb") as f:
                payload = pickle.load(f)
            cfg = SimConfig.from_dict(payload["config"])
            fresh = payload["config_hash"] == config_hash(cfg)
            metrics = payload["metrics"]
        except Exception:
            stale += 1
            continue
        if not fresh or not isinstance(metrics, dict):
            stale += 1
            continue
        rows.append(metrics)
    return LoadedResults(metrics=rows, stale=stale)


def aggregate(metrics_rows: list[dict]) -> list[dict]:
    """Mean per (workload, policy, one spec per scenario layer) cell, sorted.

    A run carries no key for a layer that is off, so healthy, unrated,
    unserviced, static, redundancy-free runs land in the all-``""`` scenario
    and a plain cache aggregates exactly as before; every fault scenario,
    endurance model, service model, topology plan and redundancy scheme
    becomes a separate row comparable side by side with its baseline.  A
    layer's report columns are averaged only where the layer is on (and only
    over finite values -- an empty histogram's NaN percentile would
    otherwise poison the cell mean).
    """
    groups: dict[tuple[str, ...], list[dict]] = {}
    for m in metrics_rows:
        key = (m["workload"], m["policy"], *(m.get(layer.field, "") for layer in LAYERS))
        groups.setdefault(key, []).append(m)
    out = []
    for (workload, policy, *specs), rows in sorted(groups.items()):
        cell = {"workload": workload, "policy": policy}
        cell.update((layer.field, spec) for layer, spec in zip(LAYERS, specs))
        cell["runs"] = len(rows)
        for key, _header, _fmt in TABLE_COLUMNS:
            cell[key] = sum(r[key] for r in rows) / len(rows)
        for layer, spec in zip(LAYERS, specs):
            if not spec:
                continue
            for key, _header, _fmt in layer.columns:
                vals = [r[key] for r in rows if key in r and math.isfinite(r[key])]
                cell[key] = sum(vals) / len(vals) if vals else math.nan
        out.append(cell)
    return out


def _format_optional(v, fmt: str) -> str:
    """A scenario column's value, or ``-`` where the cell has none."""
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return "-"
    return format(v, fmt)


def render_markdown(cells: list[dict]) -> str:
    # A layer's spec and report columns only appear once one of its
    # scenarios is present, so plain healthy-cluster reports keep their
    # historical shape.
    shown = [layer for layer in LAYERS if any(c.get(layer.field) for c in cells)]
    headers = ["workload", "policy", *(layer.field for layer in shown), "runs"]
    headers += [h for _k, h, _f in TABLE_COLUMNS]
    headers += [h for layer in shown for _k, h, _f in layer.columns]
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for c in cells:
        values = [c["workload"], c["policy"]]
        values += [c.get(layer.field) or layer.off for layer in shown]
        values.append(str(c["runs"]))
        values += [format(c[key], fmt) for key, _h, fmt in TABLE_COLUMNS]
        values += [
            _format_optional(c.get(key), fmt) for layer in shown for key, _h, fmt in layer.columns
        ]
        lines.append("| " + " | ".join(values) + " |")
    return "\n".join(lines)


def render_json(cells: list[dict]) -> str:
    return json.dumps(cells, indent=2)


def render(cells: list[dict], fmt: str = "markdown") -> str:
    if fmt == "markdown":
        return render_markdown(cells)
    if fmt == "json":
        return render_json(cells)
    raise ValueError(f"unknown report format {fmt!r}, expected 'markdown' or 'json'")
