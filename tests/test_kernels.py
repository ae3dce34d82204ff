"""Fused epoch kernel, batched re-placement, deferred CoV: bit-identity guarantees.

The fused kernel (src/edm/engine/kernels.py), the vectorized failure
re-placement (engine/core.py) and the block-deferred load-CoV fold
(engine/metrics.py) all promise *byte-equal* metrics against their
reference implementations.  This module pins those promises:

  * the fused kernel matches an unfused transcription of the same math;
  * the batched greedy destination assignment replays the sequential
    per-chunk loop bit-for-bit, for every registry policy;
  * the deferred load-CoV block equals a per-epoch scalar fold, across a
    failure and a topology scale-out;
  * migration wear accrual via bincount matches the per-element scatter it
    replaced, duplicates included.
"""

import json
import hashlib

import numpy as np
import pytest

from conftest import cfg_factory, make_state
from edm.config import POLICIES, SimConfig, config_hash, seed_material_hash
from edm.engine import core as core_mod
from edm.engine import metrics as metrics_mod
from edm.engine.core import (
    _assign_replacements_batched,
    _assign_replacements_loop,
    apply_migrations,
    simulate,
)
from edm.engine.kernels import EpochKernel
from edm.policies import get_policy
from edm.telemetry.recorder import Recorder

# Configs whose runs re-place chunks through the batched path: a mid-run
# failure burst, and a rated cluster that wears out.
REPLACEMENT_SAMPLES = {
    "cmt-faulted": dict(policy="cmt", faults="fail:1@8;slow:2@4x0.5"),
    "hdf-faulted": dict(policy="hdf", faults="fail:3@10", num_osds=8),
    "cmt-rated": dict(policy="cmt", endurance="pe:900"),
    "cmt-degraded-rated": dict(policy="cmt", faults="fail:1@8", endurance="pe:900"),
}


def digest(metrics: dict) -> str:
    blob = json.dumps(metrics, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def test_kernel_field_never_feeds_hash_or_seed():
    # Older versions stored a ``kernel`` backend choice in every config
    # dict; a stored dict carrying it rebuilds the very same config.
    cfg = cfg_factory()
    old = SimConfig.from_dict({**cfg.to_dict(), "kernel": "numpy"})
    assert old == cfg
    assert config_hash(old) == config_hash(cfg)
    assert old.cache_name() == cfg.cache_name()
    assert seed_material_hash(old) == seed_material_hash(cfg)


# ---------------------------------------------------------------------------
# Batched re-placement vs the sequential reference loop


@pytest.mark.parametrize("name", sorted(REPLACEMENT_SAMPLES))
def test_batched_replacement_matches_loop(name, monkeypatch):
    cfg = cfg_factory(**{"num_osds": 8, "seed": 7, **REPLACEMENT_SAMPLES[name]})
    fast = simulate(cfg)
    calls = []

    def loop(order, proj, alive_ids, policy, state, cfg):
        calls.append(order.size)
        return _assign_replacements_loop(order, proj, alive_ids, policy, state, cfg, -1)

    monkeypatch.setattr(core_mod, "_assign_replacements_batched", loop)
    slow = simulate(cfg)
    assert calls  # the run really re-placed chunks through the loop
    assert fast == slow
    assert digest(fast) == digest(slow)


@pytest.mark.parametrize("policy", POLICIES)
def test_assign_replacements_paths_agree_directly(policy):
    # Unit-level: same inputs through both assignment paths, byte-equal
    # destinations and identical projected-load evolution.
    cfg = cfg_factory(num_osds=8, policy=policy, endurance="pe:5000")
    rng = np.random.default_rng(3)
    state = make_state(
        cfg,
        heat=rng.uniform(0.1, 5.0, cfg.num_chunks),
        wear=rng.uniform(0.0, 50.0, cfg.num_osds),
        load_ema=rng.uniform(0.5, 2.0, cfg.num_osds),
    )
    state.osd_alive[2] = False  # the "dead" source
    pol = get_policy(policy)
    order = np.flatnonzero(state.chunk_owner == 2)
    order = order[np.argsort(-state.chunk_heat[order], kind="stable")]
    alive_ids = np.flatnonzero(state.osd_alive)
    proj_a = state.osd_load_ema.copy()
    proj_b = state.osd_load_ema.copy()
    dsts_loop = _assign_replacements_loop(order, proj_a, alive_ids, pol, state, cfg, 2)
    dsts_batch = _assign_replacements_batched(order, proj_b, alive_ids, pol, state, cfg)
    np.testing.assert_array_equal(dsts_loop, dsts_batch)
    assert proj_a.tobytes() == proj_b.tobytes()  # bit-equal, not approx


# ---------------------------------------------------------------------------
# Deferred load-CoV block vs a per-epoch scalar fold


class ScalarCovFold(Recorder):
    """The per-epoch scalar fold the accumulator's CoV block must equal."""

    def on_run_start(self, cfg, state):
        self.cov_sum = self.peak_sum = 0.0
        self.epochs = 0
        self.baseline = 0.0
        self.start = None
        self.recovery = -1

    def on_fault(self, state, event, replaced):
        if event.kind == "fail":
            self.baseline = self.cov_sum / max(self.epochs, 1)
            self.start = state.epoch
            self.recovery = -1

    def on_epoch(self, state, load, stats):
        mean = load.mean()
        if mean > 0:
            self.cov_sum += float(load.std() / mean)
            self.peak_sum += float(load.max() / mean)
        self.epochs += 1
        la = load[state.osd_alive]
        am = la.mean() if la.size else 0.0
        cov_alive = float(la.std() / am) if am > 0 else 0.0
        if self.start is not None and self.recovery < 0:
            if cov_alive <= max(self.baseline * 1.1, self.baseline + 1e-9):
                self.recovery = stats.epoch - self.start


def test_cov_block_matches_a_scalar_fold_across_failure_and_scale_out(monkeypatch):
    # Blocks of 3 rows put a partial block in flight at the failure (epoch
    # 8), at the scale-out (epoch 16) and at the end of the run.  At this
    # seed the recovery epoch count moves if the failure's baseline misses
    # the two buffered epochs before it.
    monkeypatch.setattr(metrics_mod, "_COV_BLOCK", 3)
    cfg = cfg_factory(
        num_osds=6, policy="baseline", seed=4, faults="fail:1@8", topology="add:2@16"
    )
    fold = ScalarCovFold()
    m = simulate(cfg, recorders=(fold,))
    assert m["osds_total_final"] == 8 and m["fault_failures"] == 1
    assert m["load_cov_mean"] == fold.cov_sum / fold.epochs
    assert m["load_peak_ratio_mean"] == fold.peak_sum / fold.epochs
    assert m["fault_recovery_epochs"] == fold.recovery


# ---------------------------------------------------------------------------
# Migration wear accrual: bincount vs per-element scatter


def test_apply_migrations_duplicate_destination_wear(small_cfg):
    cfg = small_cfg
    state = make_state(cfg)
    # Pile many chunks onto one destination plus a couple elsewhere --
    # the exact shape np.add.at handled element-by-element.
    # Owners: chunks 0-7 on OSD 0, 8-15 on OSD 1 (make_state layout); every
    # move below is real, with four piling onto OSD 3.
    moves = np.array([[0, 3], [1, 3], [2, 3], [8, 2], [9, 3], [10, 2]])
    before = state.osd_wear.copy()
    ref = before.copy()
    np.add.at(ref, moves[:, 1], cfg.migration_write_cost * cfg.wear_per_write)
    applied = apply_migrations(state, moves, cfg)
    assert applied == len(moves)
    np.testing.assert_array_equal(state.osd_wear, ref)
    assert state.osd_wear[3] == before[3] + 4 * cfg.migration_write_cost * cfg.wear_per_write


def test_apply_migrations_wear_skips_dropped_moves(small_cfg):
    state = make_state(small_cfg)
    owner0 = int(state.chunk_owner[0])
    moves = np.array([
        [0, (owner0 + 1) % small_cfg.num_osds],  # real move
        [0, (owner0 + 2) % small_cfg.num_osds],  # duplicate chunk: dropped
        [1, int(state.chunk_owner[1])],          # no-op: dropped
        [2, small_cfg.num_osds + 5],             # out of range: dropped
    ])
    applied = apply_migrations(state, moves, small_cfg)
    assert applied == 1
    per_move = small_cfg.migration_write_cost * small_cfg.wear_per_write
    assert state.osd_wear.sum() == pytest.approx(per_move)


# ---------------------------------------------------------------------------
# Workload float64 emission (the kernel consumes weights without casts)


def test_epoch_counts_emits_reused_float64_buffers(small_cfg):
    from edm.workloads import make_workload

    wl = make_workload(small_cfg, np.random.default_rng(1))
    c0, w0 = wl.epoch_counts(0)
    assert c0.dtype == np.float64 and w0.dtype == np.float64
    assert np.array_equal(c0, np.round(c0))  # integer-valued
    assert np.array_equal(w0, np.round(w0))
    assert c0.sum() == small_cfg.requests_per_epoch
    assert (w0 <= c0).all()
    c1, w1 = wl.epoch_counts(1)
    assert c1 is c0 and w1 is w0  # per-instance buffers, rewritten in place


def test_kernel_epoch_update_matches_unfused_reference(small_cfg):
    # The fused numpy kernel vs a straightforward transcription of the
    # pre-fusion engine math, same state, byte-equal everywhere.
    cfg = small_cfg
    rng = np.random.default_rng(5)
    state = make_state(cfg, heat=rng.uniform(0, 2, cfg.num_chunks))
    ref = make_state(cfg, heat=state.chunk_heat.copy())
    ref.osd_load_ema[:] = state.osd_load_ema
    counts = rng.integers(0, 50, cfg.num_chunks).astype(np.float64)
    writes = np.minimum(counts, rng.integers(0, 20, cfg.num_chunks)).astype(np.float64)

    load = EpochKernel(cfg).epoch_update(state, counts, writes)

    ref_load = np.bincount(ref.chunk_owner, weights=counts, minlength=cfg.num_osds)
    ref.osd_wear += (
        np.bincount(ref.chunk_owner, weights=writes, minlength=cfg.num_osds)
        * cfg.wear_per_write
    )
    a = cfg.heat_alpha
    ref.chunk_heat = (1.0 - a) * ref.chunk_heat + a * counts
    ref.chunk_write_heat = (1.0 - a) * ref.chunk_write_heat + a * writes
    la = cfg.load_alpha
    ref.osd_load_ema = (1.0 - la) * ref.osd_load_ema + la * ref_load

    assert load.tobytes() == ref_load.tobytes()
    assert state.osd_wear.tobytes() == ref.osd_wear.tobytes()
    assert state.chunk_heat.tobytes() == ref.chunk_heat.tobytes()
    assert state.chunk_write_heat.tobytes() == ref.chunk_write_heat.tobytes()
    assert state.osd_load_ema.tobytes() == ref.osd_load_ema.tobytes()
