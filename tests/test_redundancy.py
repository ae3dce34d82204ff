"""Redundancy layer unit tests: scheme arithmetic, config integration,
group layout, reconstruction charging, and report wiring.

End-to-end redundancy behavior (spread invariant under disruptions, wear
identity, golden digests) lives in test_invariants_property.py /
test_golden_metrics.py; this module pins the pieces in isolation.
"""

import numpy as np
import pytest

from conftest import cfg_factory
from edm import report as report_mod
from edm.config import TRAFFIC_FIELDS, config_hash
from edm.engine.core import simulate
from edm.engine.state import init_state
from edm.redundancy import RedundancyRuntime, RedundancyScheme, group_members
from edm.spec import SpecError

# --- scheme arithmetic -------------------------------------------------------


@pytest.mark.parametrize("spec,width,reads,tolerated", [
    ("rep:2", 2, 1, 1),
    ("rep:3", 3, 1, 2),
    ("ec:4+2", 6, 4, 2),
    ("ec:2+1", 3, 2, 1),
    ("", 0, 0, 0),
])
def test_scheme_arithmetic(spec, width, reads, tolerated):
    scheme = RedundancyScheme.parse(spec, num_osds=16)
    assert scheme.group_width == width
    assert scheme.reads_per_loss == reads
    assert scheme.tolerated_losses == tolerated
    assert bool(scheme) == bool(spec)


# --- config integration ------------------------------------------------------


def test_config_canonicalizes_and_suffixes_cache_name():
    plain = cfg_factory()
    cfg = cfg_factory(redundancy="rep:03")
    assert cfg.redundancy == "rep:3"  # canonical form stored on the config
    # -g + 8 hex chars of sha256(canonical spec), after every other suffix.
    assert cfg.cache_name().startswith(plain.cache_name() + "-g")
    assert len(cfg.cache_name()) == len(plain.cache_name()) + 10
    assert cfg.cache_name() == cfg_factory(redundancy="rep:3").cache_name()
    assert cfg.cache_name() != cfg_factory(redundancy="ec:2+1").cache_name()


def test_empty_redundancy_leaves_hash_and_name_untouched():
    # Forward-compatibility contract: a redundancy-free config hashes (and
    # cache-keys) exactly as it did before the field existed, so no cached
    # result or pinned golden went stale when the field was added.
    plain = cfg_factory()
    assert "redundancy" not in plain.to_dict() or not plain.to_dict()["redundancy"]
    assert config_hash(plain) == config_hash(cfg_factory(redundancy=""))
    assert "-g" not in plain.cache_name()


def test_redundancy_is_seed_excluded():
    # Same derived RNG streams with and without a scheme: the workload replay
    # is identical, only placement and accounting differ.
    assert "redundancy" not in TRAFFIC_FIELDS


def test_config_rejects_width_wider_than_cluster():
    with pytest.raises(SpecError, match="needs 6 distinct OSDs per group"):
        cfg_factory(num_osds=4, redundancy="ec:4+2")


def test_config_rejects_fault_plan_that_breaks_feasibility():
    with pytest.raises(SpecError, match="leaves only 3 of 4 alive"):
        cfg_factory(num_osds=4, redundancy="ec:2+2", faults="fail:1@8")


def test_config_rejects_topology_plan_that_drains_too_deep():
    with pytest.raises(SpecError, match="drains the cluster down to 3"):
        cfg_factory(num_osds=4, redundancy="rep:4", topology="drain:0@8")


# Fault and topology plans are checked together, on one timeline in the
# engine's order (adds, then drains, then faults within an epoch): both
# configs below used to pass config checks and crash mid-run with "no
# constraint-satisfying destination".


def test_config_rejects_a_drain_after_a_failure_at_the_drain_epoch():
    with pytest.raises(SpecError) as err:
        cfg_factory(
            num_osds=4, redundancy="rep:3", faults="fail:0@10", topology="drain:1@20"
        )
    msg = str(err.value)
    assert "at epoch 20" in msg and "drains the cluster down to 2" in msg
    assert "'drain:1@20'" in msg and "'fail:0@10'" in msg


def test_config_rejects_a_drain_that_a_later_scale_out_cannot_undo():
    with pytest.raises(SpecError, match="at epoch 5 .* drains the cluster down to 2"):
        cfg_factory(num_osds=3, redundancy="rep:3", topology="drain:0@5;add:1@10")


def test_config_rejects_a_failure_after_a_drain_at_the_failure_epoch():
    with pytest.raises(SpecError, match="at epoch 20 fault plan 'fail:1@20' leaves only 2 of 4"):
        cfg_factory(
            num_osds=4, redundancy="rep:3", faults="fail:1@20", topology="drain:0@10"
        )


@pytest.mark.parametrize(
    "num_osds, faults, topology",
    [
        # An OSD that fails and is drained leaves the cluster once.
        (4, "fail:0@10", "drain:0@20"),
        (4, "fail:0@20", "drain:0@10"),
        # Within an epoch the add lands before the drain or the failure.
        (3, "", "add:1@5;drain:0@5"),
        (3, "fail:0@10", "add:1@10"),
        # Two failures, with a scale-out between them.
        (4, "fail:0@10;fail:1@20", "add:1@15"),
    ],
)
def test_plans_that_keep_a_group_width_alive_run_to_completion(num_osds, faults, topology):
    cfg = cfg_factory(num_osds=num_osds, redundancy="rep:3", faults=faults, topology=topology)
    metrics = simulate(cfg)
    assert metrics["osds_alive_final"] >= 3


# --- group layout ------------------------------------------------------------


def test_init_state_lays_out_round_robin_groups():
    cfg = cfg_factory(num_osds=8, redundancy="ec:4+2")
    state = init_state(cfg)
    assert state.group_width == 6
    # Consecutive-id windows of `width` chunks share a group...
    assert np.array_equal(state.chunk_group, np.arange(cfg.num_chunks) // 6)
    # ...and the round-robin owners give every full group distinct OSDs.
    assert np.array_equal(
        state.chunk_owner, (np.arange(cfg.num_chunks) % 8).astype(np.int32)
    )
    state.validate()  # group-uniqueness holds at epoch 0


def test_group_members_window_and_trailing_partial():
    cfg = cfg_factory(num_osds=8, redundancy="ec:4+2")  # 64 chunks, width 6
    state = init_state(cfg)
    assert group_members(state, 7).tolist() == [6, 7, 8, 9, 10, 11]
    # 64 = 10 full groups of 6 + a trailing partial group of 4.
    assert group_members(state, 63).tolist() == [60, 61, 62, 63]


def test_plain_config_has_no_grouping():
    state = init_state(cfg_factory())
    assert state.chunk_group is None
    assert state.group_width == 0


# --- reconstruction charging -------------------------------------------------


def test_reconstruction_counts_reads_and_charges_queues():
    cfg = cfg_factory(num_osds=8, redundancy="ec:2+1", service="rate:100")
    state = init_state(cfg)
    rt = RedundancyRuntime(RedundancyScheme.parse(cfg.redundancy), cfg)
    # Kill OSD 1: it owns chunks 1, 9, 17, ... (round-robin layout).
    state.osd_alive[1] = False
    lost = np.flatnonzero(state.chunk_owner == 1)[:2]
    rt.on_reconstruction(state, lost)
    # ec:2+1 reads 2 survivors per lost chunk.
    assert rt.reconstruction_chunks == 2
    assert rt.reconstruction_reads == 4
    assert rt.data_loss_chunks == 0
    # The reads landed in the surviving sources' queues, not the dead OSD's.
    assert state.osd_mig_backlog[1] == 0
    assert state.osd_mig_backlog.sum() == pytest.approx(
        4 * cfg.service_migration_cost
    )


def test_reconstruction_without_service_model_charges_no_queues():
    cfg = cfg_factory(num_osds=8, redundancy="rep:3")
    state = init_state(cfg)
    rt = RedundancyRuntime(RedundancyScheme.parse(cfg.redundancy), cfg)
    state.osd_alive[0] = False
    rt.on_reconstruction(state, np.flatnonzero(state.chunk_owner == 0)[:3])
    assert rt.reconstruction_reads == 3  # rep reads one survivor per loss
    assert (state.osd_mig_backlog == 0).all()


def test_too_few_survivors_counts_data_loss():
    cfg = cfg_factory(num_osds=8, redundancy="ec:4+2")
    state = init_state(cfg)
    rt = RedundancyRuntime(RedundancyScheme.parse(cfg.redundancy), cfg)
    # Chunk 0's group is chunks 0-5 on OSDs 0-5; kill 0 and three peers so
    # only 2 of the 4 needed read sources survive.
    state.osd_alive[[0, 1, 2, 3]] = False
    rt.on_reconstruction(state, np.array([0]))
    assert rt.data_loss_chunks == 1
    assert rt.reconstruction_reads == 2  # charges whatever reads remain


def test_metrics_block_shape():
    cfg = cfg_factory(num_osds=8, redundancy="rep:3")
    block = RedundancyRuntime(RedundancyScheme.parse(cfg.redundancy), cfg).metrics_block()
    assert block["redundancy"] == "rep:3"
    assert block["redundancy_group_width"] == 3
    for key in (
        "reconstruction_chunks_total",
        "reconstruction_reads_total",
        "reconstruction_read_mb",
        "reconstruction_write_mb",
        "data_loss_chunks_total",
    ):
        assert block[key] == 0


# --- end-to-end metrics + report wiring --------------------------------------


def test_redundant_run_surfaces_reconstruction_metrics():
    cfg = cfg_factory(num_osds=8, seed=7, redundancy="ec:4+2", faults="fail:1@8")
    metrics = simulate(cfg)
    assert metrics["redundancy"] == "ec:4+2"
    assert metrics["reconstruction_chunks_total"] == metrics["replacement_moves_total"]
    assert metrics["reconstruction_read_mb"] == pytest.approx(
        metrics["reconstruction_reads_total"] * cfg.chunk_size_mb
    )
    assert metrics["data_loss_chunks_total"] == 0


def test_plain_run_has_no_reconstruction_keys():
    metrics = simulate(cfg_factory())
    assert not any(k.startswith("reconstruction") for k in metrics)
    assert "redundancy" not in metrics


def test_report_shows_redundancy_column_only_when_present():
    cfg = cfg_factory(num_osds=8, seed=7, redundancy="ec:4+2", faults="fail:1@8")
    redundant = simulate(cfg)
    plain = simulate(cfg_factory(policy="hdf"))
    cells = report_mod.aggregate([redundant, plain])
    table = report_mod.render_markdown(cells)
    assert "redundancy" in table and "recon reads" in table
    assert "| ec:4+2 |" in table
    assert "| plain |" in table  # the redundancy-free row's placeholder
    # A purely plain cache keeps its historical column set.
    plain_table = report_mod.render_markdown(report_mod.aggregate([plain]))
    assert "redundancy" not in plain_table and "recon reads" not in plain_table
