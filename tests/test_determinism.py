"""Same config + seed => bit-identical metrics; different seed => different."""

from dataclasses import fields

import pytest

from conftest import cfg_factory
from edm.config import TRAFFIC_FIELDS, SimConfig, config_hash, rng_seed_sequence
from edm.engine.core import simulate

# Every SimConfig field, classified as traffic (feeds the workload stream)
# or not, with a valid alternative value against the cfg_factory defaults.
# A new field fails test_every_field_is_classified until it is added here.
SEED_TABLE = {
    "workload": (True, "lair62"),
    "num_osds": (True, 8),
    "policy": (False, "hdf"),
    "skew": (True, 0.5),
    "seed": (True, 999),
    "epochs": (True, 16),
    "requests_per_epoch": (True, 256),
    "chunks_per_osd": (True, 4),
    "heat_alpha": (False, 0.5),
    "load_alpha": (False, 0.25),
    "wear_per_write": (False, 2.0),
    "migration_write_cost": (False, 32.0),
    "chunk_size_mb": (False, 128.0),
    "migrate_interval": (False, 4),
    "overload_tolerance": (False, 0.1),
    "max_migrations_per_interval": (False, 4),
    "migration_cooldown_epochs": (False, 8),
    "wear_weight": (False, 2.0),
    "faults": (False, "fail:1@8"),
    "endurance": (False, "pe:900"),
    "wear_rate_alpha": (False, 0.5),
    "endurance_weight": (False, 2.0),
    "service": (False, "rate:120;queue:64"),
    "service_migration_cost": (False, 8.0),
    "service_cooldown_epochs": (False, 4),
    "topology": (False, "add:2@8"),
    "redundancy": (False, "rep:2"),
}


@pytest.mark.parametrize("policy", ["baseline", "hdf", "cmt"])
def test_repeat_run_identical(policy, make_cfg):
    cfg = make_cfg(policy=policy)
    assert simulate(cfg) == simulate(cfg)


def test_different_seed_differs(make_cfg):
    a = simulate(make_cfg())
    b = simulate(make_cfg(seed=999))
    assert a != b


def test_different_policy_same_seed_different_workload_stream_ok(small_cfg, make_cfg):
    # Policies replay the same workload stream but configs hash differently;
    # the run must still be internally deterministic.
    hdf = make_cfg(policy="hdf")
    assert simulate(hdf) == simulate(hdf)
    assert simulate(hdf) != simulate(small_cfg)


def test_config_hash_stability_and_sensitivity(small_cfg, make_cfg):
    assert config_hash(small_cfg) == config_hash(make_cfg())
    bumped = make_cfg(epochs=small_cfg.epochs + 1)
    assert config_hash(bumped) != config_hash(small_cfg)


def test_metrics_are_plain_python(small_cfg):
    m = simulate(small_cfg)
    assert all(isinstance(v, (int, float, str, list)) for v in m.values())
    assert all(isinstance(w, float) for w in m["per_osd_wear"])


def test_every_field_is_classified():
    assert set(SEED_TABLE) == {f.name for f in fields(SimConfig)}
    assert {name for name, (traffic, _) in SEED_TABLE.items() if traffic} == set(TRAFFIC_FIELDS)


@pytest.mark.parametrize("name", sorted(SEED_TABLE))
def test_only_traffic_fields_feed_the_seed(name):
    traffic, value = SEED_TABLE[name]
    base = cfg_factory()
    changed = cfg_factory(**{name: value})
    assert getattr(changed, name) != getattr(base, name)
    same = rng_seed_sequence(changed).entropy == rng_seed_sequence(base).entropy
    assert same is not traffic
