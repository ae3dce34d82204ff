"""Outside-in per-layer tracing of the simulator.

:func:`tracing` wraps the public entry points of each layer -- the
functions and methods listed in :func:`targets` -- for the duration of a
traced pass and puts the originals back afterwards.  No code under ``src/``
changes, and untraced passes run bare.

Every wrapped call records a span: its layer, start, end, parent span and
the id of the config run it belongs to (a new id starts at each
``simulate`` call).  Spans stay in memory until the benchmark writes them
out.  A layer's self time is its spans' duration minus the part covered by
their child spans; ``engine.core`` is what the ``simulate`` loop spends
outside every wrapped call.  Counts are taken at the same boundaries from
arguments, return values and public counters.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
import traceback
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import edm
import edm.engine.core as core
from edm.cache import ResultCache
from edm.config import SimConfig
from edm.endurance import EnduranceTracker
from edm.engine.kernels import EpochKernel
from edm.engine.metrics import MetricsAccumulator
from edm.faults import FaultRuntime
from edm.obs import DecisionRecorder, RunLogWriter
from edm.policies import POLICIES
from edm.redundancy import RedundancyRuntime
from edm.service import ServiceRuntime
from edm.telemetry import TimeSeries, TimeSeriesRecorder
from edm.topology import TopologyRuntime
from edm.workloads import TRACES

# ``edm.sweep`` the attribute is the function; the module is in sys.modules.
sweep_mod = importlib.import_module("edm.sweep")

#: Layers in reporting order, named after the modules that implement them.
LAYERS = (
    "workloads",
    "engine.kernels",
    "service",
    "policies",
    "engine.migrate",
    "engine.replace",
    "faults",
    "endurance",
    "topology",
    "redundancy",
    "engine.metrics",
    "telemetry",
    "obs",
    "cache",
    "sweep",
    "engine.core",
    "config",
)

#: Counts reported next to each layer's self time, share and calls.
COUNTS = (
    "workloads.requests",
    "workloads.ns_per_chunk",
    "service.accepted",
    "service.dropped",
    "service.ns_per_request",
    "policies.moves_proposed",
    "engine.migrate.moves_applied",
    "engine.migrate.useful_ratio",
    "engine.replace.bursts",
    "engine.replace.chunks",
    "engine.replace.ms_per_burst",
    "faults.events",
    "endurance.events",
    "topology.events",
    "redundancy.reads",
    "cache.hits",
    "cache.misses",
)

# Functions of edm.engine.core that belong to the re-placement layer.
_REPLACE_FUNCS = frozenset({
    "replace_dead_chunks",
    "_assign_replacements_loop",
    "_assign_replacements_batched",
    "_assign_replacements_explained",
    "_assign_replacements_grouped",
})


@dataclass(frozen=True)
class Target:
    """One wrapped attribute: ``owner.attr`` is timed as ``layer``.

    ``count(counts, args, result, before)`` adds the call's counts;
    ``before(args)`` snapshots what ``count`` needs from before the call.
    """

    owner: object
    attr: str
    layer: str
    count: Callable | None = None
    before: Callable | None = None


class SpanLog:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self) -> None:
        # [span id, parent id, parent layer, run id, layer, start, end]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.run = 0
        self._stack: list[list] = []

    def open(self, layer: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [
            len(self.spans),
            parent[0] if parent else -1,
            parent[4] if parent else None,
            self.run,
            layer,
            time.perf_counter(),
            0.0,
        ]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[6] = time.perf_counter()
        self._stack.pop()


def _owners(classes, attr: str) -> list[type]:
    """The classes among ``classes`` and their bases that define ``attr``."""
    out = []
    for cls in classes:
        owner = next(k for k in cls.__mro__ if attr in vars(k))
        if owner not in out:
            out.append(owner)
    return out


def _subclasses(cls: type) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def _add(name: str, value: int) -> Callable:
    def count(counts, args, result, before):
        counts[name] += value(args, result, before)
    return count


def _events(layer: str) -> Callable:
    return _add(f"{layer}.events", lambda a, r, b: len(r))


def _epoch_counts(counts, args, result, before):
    requests, _ = result
    counts["workloads.requests"] += int(requests.sum())
    counts["workloads.chunks"] += requests.size


def _service_step(counts, args, result, before):
    rt = args[0]
    offered = rt.requests_total - before[0]
    dropped = rt.dropped_total - before[1]
    counts["service.accepted"] += offered - dropped
    counts["service.dropped"] += dropped


def _apply_migrations(counts, args, result, before):
    counts["engine.migrate.moves_offered"] += np.size(args[1]) // 2
    counts["engine.migrate.moves_applied"] += result


def _cache_load(counts, args, result, before):
    counts["cache.misses" if result is None else "cache.hits"] += 1


def targets() -> list[Target]:
    """Every wrapped entry point, resolved to the class that defines it."""
    out = [
        Target(k, "epoch_counts", "workloads", _epoch_counts)
        for k in _owners(TRACES.values(), "epoch_counts")
    ]
    out += [
        Target(k, "epoch_update", "engine.kernels")
        for k in _subclasses(EpochKernel) if "epoch_update" in vars(k)
    ]
    out.append(Target(
        ServiceRuntime, "step", "service", _service_step,
        before=lambda a: (a[0].requests_total, a[0].dropped_total),
    ))
    out += [
        Target(k, attr, "policies", _add("policies.moves_proposed", lambda a, r, b: len(r)))
        for attr in ("select", "select_explained")
        for k in _owners(POLICIES.values(), attr)
    ]
    out.append(Target(core, "apply_migrations", "engine.migrate", _apply_migrations))
    out.append(Target(
        core, "replace_dead_chunks", "engine.replace",
        _add("engine.replace.chunks", lambda a, r, b: r),
    ))
    out.append(Target(FaultRuntime, "step", "faults", _events("faults")))
    out.append(Target(EnduranceTracker, "step", "endurance", _events("endurance")))
    out.append(Target(EnduranceTracker, "update_rate", "endurance"))
    out.append(Target(TopologyRuntime, "step", "topology", _events("topology")))
    out.append(Target(TopologyRuntime, "retire", "topology"))
    out.append(Target(
        RedundancyRuntime, "on_reconstruction", "redundancy",
        _add("redundancy.reads", lambda a, r, b: a[0].reconstruction_reads - b),
        before=lambda a: a[0].reconstruction_reads,
    ))
    out += [Target(MetricsAccumulator, h, "engine.metrics") for h in ("on_epoch", "finalize")]
    out += [
        Target(TimeSeriesRecorder, h, "telemetry")
        for h in ("on_run_start", "on_topology", "on_fault", "on_epoch", "on_migration",
                  "finalize")
        # A hook the recorder does not override stays unwrapped: the engine
        # treats an overridden hook differently (see on_decision).
        if h in vars(TimeSeriesRecorder)
    ]
    out.append(Target(TimeSeries, "save_npz", "telemetry"))
    out.append(Target(DecisionRecorder, "on_decision", "obs"))
    out.append(Target(RunLogWriter, "emit", "obs"))
    out.append(Target(ResultCache, "load", "cache", _cache_load))
    out.append(Target(ResultCache, "store", "cache"))
    out.append(Target(sweep_mod, "sweep", "sweep"))
    # The sweep calls its own imported name; both are the same function.
    out.append(Target(core, "simulate", "engine.core"))
    out.append(Target(sweep_mod, "simulate", "engine.core"))
    out.append(Target(SimConfig, "__init__", "config"))
    return out


def _wrap(log: SpanLog, target: Target, fn: Callable) -> Callable:
    layer, count, before = target.layer, target.count, target.before
    new_run = layer == "engine.core"

    def traced(*args, **kwargs):
        pre = before(args) if before is not None else None
        if new_run:
            log.run += 1
        span = log.open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            log.close(span)
        # A layer calling back into itself (a policy's select_explained
        # delegating to select) is one call into the layer.
        if count is not None and span[2] != layer:
            count(log.counts, args, result, pre)
        return result

    return traced


@contextmanager
def tracing(log: SpanLog):
    """Wrap every target for the ``with`` block; restore the originals after."""
    saved = []
    try:
        for t in targets():
            original = vars(t.owner)[t.attr]
            saved.append((t.owner, t.attr, original))
            setattr(t.owner, t.attr, _wrap(log, t, original))
        yield log
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(log: SpanLog, wall_s: float) -> dict[str, float]:
    """Per-layer self time, share of ``wall_s``, calls and counts of one pass."""
    child_s: dict[int, float] = defaultdict(float)
    for sid, parent, _, _, _, t0, t1 in log.spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    self_s: dict[str, float] = defaultdict(float)
    outer_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for sid, _, parent_layer, _, layer, t0, t1 in log.spans:
        self_s[layer] += (t1 - t0) - child_s[sid]
        if parent_layer != layer:
            calls[layer] += 1
            outer_s[layer] += t1 - t0
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.share"] = self_s[layer] / wall_s
        out[f"{layer}.calls"] = calls[layer]
    c = log.counts
    out["workloads.requests"] = c["workloads.requests"]
    out["workloads.ns_per_chunk"] = _per(self_s["workloads"] * 1e9, c["workloads.chunks"])
    out["service.accepted"] = c["service.accepted"]
    out["service.dropped"] = c["service.dropped"]
    out["service.ns_per_request"] = _per(
        self_s["service"] * 1e9, c["service.accepted"] + c["service.dropped"]
    )
    out["policies.moves_proposed"] = c["policies.moves_proposed"]
    out["engine.migrate.moves_applied"] = c["engine.migrate.moves_applied"]
    out["engine.migrate.useful_ratio"] = _per(
        c["engine.migrate.moves_applied"], c["engine.migrate.moves_offered"]
    )
    out["engine.replace.bursts"] = calls["engine.replace"]
    out["engine.replace.chunks"] = c["engine.replace.chunks"]
    out["engine.replace.ms_per_burst"] = _per(
        outer_s["engine.replace"] * 1e3, calls["engine.replace"]
    )
    for name in ("faults.events", "endurance.events", "topology.events",
                 "redundancy.reads", "cache.hits", "cache.misses"):
        out[name] = c[name]
    return out


def epoch_ms(log: SpanLog) -> list[float]:
    """Host milliseconds per simulated epoch: gaps between a run's samplings.

    The sampler runs once per epoch, so the gap between two consecutive
    ``workloads`` span starts of one config run spans one full epoch.
    """
    starts: dict[int, list[float]] = defaultdict(list)
    for _, _, _, run, layer, t0, _ in log.spans:
        if layer == "workloads":
            starts[run].append(t0)
    return [
        (b - a) * 1e3 for ts in starts.values() for a, b in zip(ts, ts[1:])
    ]


def epoch_stats(gaps: list[float]) -> dict[str, float]:
    """p50 / p99 of the per-epoch host time, with the sample count."""
    if len(gaps) < 2:
        return {"epoch_ms.p50": 0.0, "epoch_ms.p99": 0.0, "epoch_ms.n": len(gaps)}
    q = statistics.quantiles(gaps, n=100, method="inclusive")
    return {"epoch_ms.p50": statistics.median(gaps), "epoch_ms.p99": q[98],
            "epoch_ms.n": len(gaps)}


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def write_spans(log: SpanLog, path: Path, origin: float) -> None:
    """One JSON line per span, times in seconds from ``origin``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        for sid, parent, _, run, layer, t0, t1 in log.spans:
            f.write(json.dumps({
                "id": sid, "parent": parent, "run": run, "name": layer,
                "start": t0 - origin, "end": t1 - origin,
            }) + "\n")


def error_layer(exc: BaseException) -> str:
    """The layer of the innermost simulator frame an exception passed through."""
    pkg = Path(edm.__file__).resolve().parent
    layer = "perfbench"
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        path = Path(frame.f_code.co_filename).resolve()
        if not path.is_relative_to(pkg):
            continue
        parts = path.relative_to(pkg).with_suffix("").parts
        if parts == ("engine", "core"):
            name = frame.f_code.co_name
            layer = (
                "engine.replace" if name in _REPLACE_FUNCS
                else "engine.migrate" if name == "apply_migrations"
                else "engine.core"
            )
        elif parts[0] == "engine":
            layer = ".".join(parts[:2])
        elif parts[0] in ("config", "spec"):
            layer = "config"
        else:
            layer = parts[0]
    return layer
