"""Simulation configuration and content hashing.

A SimConfig fully determines a simulation run: identical configs produce
bit-identical metrics.  ``config_hash`` is the content key used by the
result cache -- any field change (or an engine format bump) invalidates
previously cached pickles.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

from edm.spec import LAYERS, SpecError

# Bump when the engine's semantics or the metrics format change, so stale
# cached results from older engines are never returned.
# 2: observer-hook engine API; policy aliases canonicalized before hashing.
# 3: fault injection (``faults`` field, alive/capacity state) and CMT
#    destination scoring normalized by cluster-wide scales.
# 4: endurance model (``endurance`` field, rated-lifetime / wear-rate state,
#    wear-out failures) and CMT's predicted-wear-out destination term.
# 5: request-level service model (``service`` field, queue/latency state,
#    tail-latency metrics block).  Metrics-format change only: unserviced
#    configs compute bit-identical values, re-keyed so old cache entries
#    without the latency block are never returned.
# 6: workload streams are a function of the traffic alone (seed material
#    SEED_SCHEMA_VERSION 3), so every config draws a new stream and cached
#    metrics from the old streams must never be returned.
# 7: head/tail workload sampler (seed material SEED_SCHEMA_VERSION 4): the
#    same distribution drawn from a different sequence of random numbers,
#    so every stream, and every cached metric, changes.
ENGINE_VERSION = 7

# Version of the *seed material* fed to rng_seed_sequence.  Deliberately
# decoupled from ENGINE_VERSION: bumping the cache format must not reseed
# every workload stream, or results silently change across engine releases.
# Bump only to intentionally re-randomize every workload.
# 3: hash the TRAFFIC_FIELDS allowlist instead of every field but a blocklist,
#    so policies, policy knobs and every scenario layer share one stream.
# 4: the head/tail sampler draws each stream from new random numbers; the
#    bump re-keys traffic files, so none recorded by the old sampler is
#    ever replayed as if it were this stream.
SEED_SCHEMA_VERSION = 4

# The fields that describe the *traffic*, and the only ones fed to the seed
# material.  Everything else -- the policy and its knobs, fault plans,
# endurance ratings, service models, topology plans, redundancy schemes, and
# any field added later -- changes how the cluster responds to the traffic,
# never the traffic itself, so configs that differ only there replay one
# request stream and their comparisons are paired.
TRAFFIC_FIELDS = (
    "workload",
    "num_osds",
    "chunks_per_osd",
    "skew",
    "seed",
    "epochs",
    "requests_per_epoch",
)

WORKLOADS = ("deasna", "deasna2", "lair62", "lair62b")
# Canonical policy names.  Kept as a literal tuple (the config layer cannot
# import edm.policies -- policies import this module); the registry in
# edm.policies asserts at import time that its classes match this list, and
# tests/test_policies.py pins the two against each other.
POLICIES = ("baseline", "cdf", "hdf", "cmt", "pswl", "consolidate")

# Accepted spellings for canonical policy names.  Aliases are resolved before
# validation and hashing, so SimConfig(policy="edm") and policy="cmt" are the
# same config (and hit the same cache entry).
POLICY_ALIASES = {"edm": "cmt"}


@dataclass(frozen=True)
class SimConfig:
    """One simulation configuration.

    The first five fields mirror the cache-key filename
    ``<workload>-<N>osd-<policy>-s<skew>-r<seed>.pkl``; the rest are engine
    knobs with defaults sized so a full 64-config sweep stays well under a
    minute on one core.
    """

    workload: str = "deasna"
    num_osds: int = 16
    policy: str = "cmt"
    skew: float = 0.02
    seed: int = 12345

    # Engine sizing
    epochs: int = 256
    requests_per_epoch: int = 8192
    chunks_per_osd: int = 64

    # Heat / load tracking (exponential moving averages)
    heat_alpha: float = 0.3
    load_alpha: float = 0.5

    # Wear model: each write costs this many erase-count units; migrating a
    # chunk rewrites it wholesale on the destination SSD.
    wear_per_write: float = 1.0
    migration_write_cost: float = 64.0
    chunk_size_mb: float = 64.0

    # Migration policy knobs
    migrate_interval: int = 8
    overload_tolerance: float = 0.05
    max_migrations_per_interval: int = 8
    migration_cooldown_epochs: int = 16
    wear_weight: float = 1.0

    # Fault scenario: empty string = healthy cluster.  Parsed and
    # canonicalized by edm.faults.plan (e.g. "fail:3@100;slow:5@50x0.5"), so
    # equivalent spellings hash to the same cache entry.  The spec never
    # feeds the workload RNG: faulted and healthy runs see identical traffic.
    faults: str = ""

    # Endurance model: empty string = unlimited rated lifetime.  Parsed and
    # canonicalized by edm.endurance.spec (e.g. "pe:5000" or
    # "pe:3000@0-3,10000@4-7"); an OSD whose consumed cycles reach its rating
    # fails at the next epoch boundary.  Like ``faults``, the spec never
    # feeds the workload RNG.
    endurance: str = ""
    # EWMA smoothing for the per-OSD wear rate that drives epochs-to-wear-out
    # prediction, and the weight of that predicted-wear-out term in CMT's
    # destination score (0 disables the term).
    wear_rate_alpha: float = 0.3
    endurance_weight: float = 1.0

    # Service model: empty string = no request-level timing (requests stay
    # pure units of load).  Parsed and canonicalized by edm.service.spec
    # (e.g. "rate:800;queue:64" or "rate:800;rate:400@0-3"); enables per-OSD
    # bounded queues and p50/p99/p999 latency metrics.  Like ``faults`` and
    # ``endurance``, the spec never feeds the workload RNG.
    service: str = ""
    # Request-equivalents of service time one migrated chunk charges to each
    # of its source and destination queues, and the window over which that
    # pending work drains into the queues (1/cooldown per epoch).
    service_migration_cost: float = 64.0
    service_cooldown_epochs: int = 8

    # Topology plan: empty string = static cluster.  Parsed and canonicalized
    # by edm.topology.spec (e.g. "add:4@128/cap:2,rate:1600,pe:10000" or
    # "drain:2@64"); scale-out grows the cluster at epoch boundaries with
    # cold drives of the given device class, drain evacuates and retires an
    # OSD through the policy's destination scoring.  Like ``faults``, the
    # spec never feeds the workload RNG: the chunk set -- and therefore the
    # traffic -- is fixed at the initial cluster size, so an elastic run
    # replays exactly the static run's request stream.
    topology: str = ""

    # Redundancy scheme: empty string = independent chunks.  Parsed and
    # canonicalized by edm.redundancy.spec (``rep:3`` / ``ec:4+2``);
    # consecutive chunks form placement groups whose members must live on
    # pairwise-distinct OSDs (round-robin initial layout instead of the
    # contiguous default), and a failed OSD's chunks are *reconstructed* --
    # surviving group members read, a fresh copy written -- instead of
    # merely re-placed.  Like ``faults``, the spec never feeds the workload
    # RNG: traffic is drawn per chunk, so a redundant run replays exactly
    # the plain run's request stream against a different layout.
    redundancy: str = ""

    def __post_init__(self) -> None:
        if self.policy in POLICY_ALIASES:
            object.__setattr__(self, "policy", POLICY_ALIASES[self.policy])
        if self.workload not in WORKLOADS:
            raise ValueError(f"unknown workload {self.workload!r}, expected one of {WORKLOADS}")
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}, expected one of {POLICIES} "
                f"or an alias in {sorted(POLICY_ALIASES)}"
            )
        if self.num_osds < 2:
            raise ValueError("num_osds must be >= 2")
        if self.epochs < 1:
            raise ValueError(
                f"epochs must be >= 1, got {self.epochs}: a zero-epoch run has no "
                "load vector to finalize and never drives observer hooks"
            )
        if self.requests_per_epoch < 1 or self.chunks_per_osd < 1:
            raise ValueError("requests_per_epoch and chunks_per_osd must be >= 1")
        if not 0.0 < self.heat_alpha <= 1.0:
            raise ValueError(f"heat_alpha must be in (0, 1], got {self.heat_alpha}")
        if not 0.0 < self.load_alpha <= 1.0:
            raise ValueError(f"load_alpha must be in (0, 1], got {self.load_alpha}")
        if self.skew < 0:
            raise ValueError(f"skew must be >= 0, got {self.skew}")
        if self.migrate_interval < 1:
            raise ValueError(f"migrate_interval must be >= 1, got {self.migrate_interval}")
        if self.max_migrations_per_interval < 1:
            raise ValueError(
                "max_migrations_per_interval must be >= 1, "
                f"got {self.max_migrations_per_interval}"
            )
        if not 0.0 < self.wear_rate_alpha <= 1.0:
            raise ValueError(f"wear_rate_alpha must be in (0, 1], got {self.wear_rate_alpha}")
        if self.endurance_weight < 0:
            raise ValueError(f"endurance_weight must be >= 0, got {self.endurance_weight}")
        if self.service_migration_cost < 0:
            raise ValueError(
                f"service_migration_cost must be >= 0, got {self.service_migration_cost}"
            )
        if self.service_cooldown_epochs < 1:
            raise ValueError(
                f"service_cooldown_epochs must be >= 1, got {self.service_cooldown_epochs}"
            )
        plans = {}
        for layer in LAYERS:
            spec = getattr(self, layer.field)
            if spec:
                plan = layer.parse(spec, num_osds=self.num_osds)
                object.__setattr__(self, layer.field, plan.spec)
                if plan:
                    plans[layer.field] = plan
        _check_across_layers(self, plans)

    @property
    def num_chunks(self) -> int:
        return self.num_osds * self.chunks_per_osd

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Drops the retired ``kernel`` key, which older versions stored: it
        chose between bit-identical epoch-kernel backends and never fed
        :func:`config_hash`, so cache entries written with it stay fresh.
        Any other unknown key still raises.
        """
        return cls(**{k: v for k, v in d.items() if k != "kernel"})

    def cache_name(self) -> str:
        """Filename stem matching the historical .repro-cache key format.

        Each active scenario layer appends its registry letter and a short
        spec digest, in :data:`~edm.spec.LAYERS` order (``-f1a2b3c4`` for a
        fault scenario, then ``-e``, ``-q``, ``-t`` and ``-g`` for endurance,
        service, topology and redundancy), so the same base config under
        different scenarios never collides on filename; healthy, unrated,
        unserviced, static, plain configs keep the historical stem
        byte-for-byte.
        """
        stem = f"{self.workload}-{self.num_osds}osd-{self.policy}-s{self.skew:g}-r{self.seed}"
        for layer in LAYERS:
            spec = getattr(self, layer.field)
            if spec:
                stem += f"-{layer.letter}{hashlib.sha256(spec.encode()).hexdigest()[:8]}"
        return stem


def _check_across_layers(cfg: SimConfig, plans: dict) -> None:
    """The config-time checks that span two scenario layers.

    ``plans`` maps each active layer's field to its parsed spec.  Endurance
    wear-outs depend on the traffic, so no config-time check can see them.
    """
    topology, service = plans.get("topology"), plans.get("service")
    if topology and service and service.default_rate is None:
        for ev in topology.adds:
            if ev.rate is None:
                raise SpecError(
                    f"topology event {ev.render()!r} adds OSDs "
                    f"with no service rate, and service spec "
                    f"{cfg.service!r} has no default rate band; "
                    f"give the add a 'rate:' attribute or add a "
                    f"default rate"
                )
    scheme = plans.get("redundancy")
    if not scheme:
        return
    # A placement group needs `width` distinct live OSDs at every moment, so
    # walk fault and topology events in simulate()'s order -- within an
    # epoch, topology adds, then drains, then faults -- and reject the plans
    # at the first event that leaves fewer alive.  An OSD leaves once,
    # whether it fails, drains, or both.
    width = scheme.group_width
    faults = plans.get("faults")
    order = {"add": 0, "drain": 1, "fail": 2}
    events = [*(topology.events if topology else ()), *(faults.failures if faults else ())]
    events.sort(key=lambda ev: (ev.epoch, order[ev.kind]))
    total = alive = cfg.num_osds
    gone: set[int] = set()
    for ev in events:
        if ev.kind == "add":
            total += ev.count
            alive += ev.count
            continue
        if ev.osd in gone:
            continue
        gone.add(ev.osd)
        alive -= 1
        if alive >= width:
            continue
        if ev.kind == "drain":
            what = f"topology plan {cfg.topology!r} drains the cluster down to {alive}"
            other = f" (with fault plan {cfg.faults!r})" if faults else ""
        else:
            what = f"fault plan {cfg.faults!r} leaves only {alive} of {total} alive"
            other = f" (with topology plan {cfg.topology!r})" if topology else ""
        raise SpecError(
            f"redundancy scheme {cfg.redundancy!r} needs {width} distinct OSDs "
            f"per group, but at epoch {ev.epoch} {what}{other}"
        )


def config_hash(cfg: SimConfig) -> str:
    """Stable content hash of a config plus the engine version.

    An *empty* ``topology`` or ``redundancy`` is dropped from the payload
    (their registry entries set ``hash_empty=False``): a static, plain
    config computes bit-identical metrics with or without the field, so
    introducing it must not invalidate any pre-existing cache entry.

    ``service_metrics_rev`` (the service layer's ``hash_marker``) re-keys
    only serviced configs: revision 2 fixed the degraded-mode queue-depth
    aggregates (dead OSDs no longer counted as permanent zeros) and gave the
    latency histogram a dedicated overflow bin, so serviced cache entries
    written by the old accounting are never returned; unserviced configs are
    untouched.  Revision 3 sums each OSD's
    epoch latencies as a closed-form series instead of request by request,
    which moves ``service_lat_mean`` and ``migration_spike_ratio`` by at
    most a few ulps (histogram, percentiles and max are unchanged).
    """
    payload = {"engine_version": ENGINE_VERSION, **cfg.to_dict()}
    for layer in LAYERS:
        if payload[layer.field]:
            payload.update(layer.hash_marker)
        elif not layer.hash_empty:
            del payload[layer.field]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def seed_material_hash(cfg: SimConfig) -> str:
    """Stable hash of the fields that identify a config's workload stream.

    Unlike :func:`config_hash` (the cache key), this covers only
    :data:`TRAFFIC_FIELDS` -- configs that differ in policy, policy knobs or
    any scenario layer replay exactly the same request stream -- and pins
    :data:`SEED_SCHEMA_VERSION` instead of :data:`ENGINE_VERSION`, so engine
    format bumps don't silently reseed every workload.  It is also the key
    under which a sweep stores a shared stream (see
    :mod:`edm.workloads.traffic`).
    """
    payload = {"seed_schema_version": SEED_SCHEMA_VERSION}
    payload.update((name, getattr(cfg, name)) for name in TRAFFIC_FIELDS)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def rng_seed_sequence(cfg: SimConfig):
    """Deterministic per-config seed material for the workload stream.

    Mixes the user seed with the config's seed-material hash, so the stream
    is a function of the traffic fields alone: every policy, and every
    fault, endurance, service, topology or redundancy scenario, sees the
    same requests at the same seed, while runs stay reproducible across
    processes and platforms.
    """
    import numpy as np

    digest = seed_material_hash(cfg)
    words = [int(digest[i : i + 8], 16) for i in range(0, 32, 8)]
    return np.random.SeedSequence([cfg.seed, *words])
