"""Cross-policy determinism regression: golden metrics hashes.

Each case hashes the full metrics dict (canonical JSON) of one fixed small
config.  The hashes are pinned to ENGINE_VERSION: any change to routing,
policy scoring, wear accounting, fault handling, or metric computation --
intended or not -- flips a digest and fails here.

If a failure is *intentional* (you changed engine semantics on purpose):
  1. bump ENGINE_VERSION in src/edm/config.py and document what changed,
  2. re-generate the digests below (the failure message prints the new one),
  3. update GOLDEN in the same commit as the semantic change.
Never update a digest without a version bump: an unexplained flip means the
engine silently stopped reproducing published results.

One sanctioned exception to the full bump: a fix confined to *serviced*
metrics may instead bump the ``service_metrics_rev`` marker inside
``SimConfig.config_hash`` (see src/edm/config.py).  That invalidates cache
entries for serviced configs only -- unserviced sweep caches survive -- and
correspondingly only the serviced digests below may be re-pinned in that
commit; every unserviced digest passing unchanged is the proof the fix
stayed confined.  Used by rev 2: dead OSDs had been counted as permanent
zeros in the queue-depth mean/CoV, and the latency histogram's top bin
conflated finite latencies with overflow (only the degraded serviced case
actually drifted; re-pinned under the same ENGINE_VERSION).  Used by rev 3:
the epoch service step sums each OSD's latencies as a closed-form series,
not request by request.  Both serviced digests drifted, through the last
bit of ``service_lat_mean`` (cmt-serviced, 1.8e-16 relative) and of
``migration_spike_ratio`` (both, at most 2.1e-16 relative); every other
key, and every unserviced digest, is unchanged.
"""

import hashlib
import json

import pytest

from conftest import cfg_factory
from edm.config import ENGINE_VERSION
from edm.engine.core import simulate

PINNED_ENGINE_VERSION = 5

# The first five digests predate the service model (ENGINE_VERSION 4) and
# were NOT re-generated for version 5: unserviced configs must keep
# computing bit-identical metrics, so these very digests passing is the
# proof the service threading left the existing engine untouched.
GOLDEN = {
    "baseline": "204bf55851419b3ce608213e5ebc7695fe4159753d878af9728027e93e8975cd",
    "cdf": "18eeff315672328aed5db035f3a97a062d95b5e847094106c564416f15da7a64",
    "hdf": "7587520683ebd85a86a34428ec624a27dfd5854c2042302c0ac41dc52ec49215",
    "cmt": "4cc68da3d89eeaec163922899a83ecbfa1aac9a038eb6f7d99284664736bac10",
    "cmt-degraded-rated": "b27d481f49c3ab7265d1b077a8c99668af5015eacd5e98bc96753e2a35179800",
    "cmt-serviced": "67c919ced4e0f33fef688f46214d59f22693269523c0af74b0462a4b52d67e79",
    "cmt-serviced-degraded": "8cb1d9f334ce63e55bd766d9625d3218c7a5be92d849eba55ac760c2da9ea046",
    # Policy-zoo + redundancy digests, pinned under the same ENGINE_VERSION 5:
    # new policies and the redundancy layer are gated on new config fields,
    # so every pre-existing digest above passing *unchanged* is the proof the
    # zoo and the grouping layer left redundancy-free configs bit-identical.
    "pswl": "85263f92242f360578b3fd3e60234d4eda749cde768e36ca01161980ecb51b48",
    "consolidate": "ec401fdb09f0219a1a7214d3534c67bdd2ff0414422d955db418d4176a8e2a7d",
    "cmt-ec-degraded": "0db5bb16757551b68fecc0c88c6293e7b2793d9bb736995a0fc084cff17b06bd",
}

CASES = {
    "baseline": dict(policy="baseline"),
    "cdf": dict(policy="cdf"),
    "hdf": dict(policy="hdf"),
    "cmt": dict(policy="cmt"),
    # Degraded + rated: exercises fault re-placement, wear-out failures, and
    # the endurance metrics block in one config.
    "cmt-degraded-rated": dict(policy="cmt", faults="fail:1@8", endurance="pe:900"),
    # Serviced: exercises the queue recursion, the latency histogram, and
    # migration work injection (ENGINE_VERSION 5).  Re-pinned under
    # service_metrics_rev 3 (closed-form latency sum).
    "cmt-serviced": dict(policy="cmt", service="rate:120;queue:256"),
    # Serviced + degraded: lost-work accounting and re-placement bursts
    # landing in the survivors' queues.  Re-pinned under service_metrics_rev
    # 2 (queue-depth aggregates alive-masked; the other six digests did not
    # move) and 3 (closed-form latency sum).
    "cmt-serviced-degraded": dict(
        policy="cmt", service="rate:60;rate:200@4-7;queue:64", faults="fail:1@8"
    ),
    # Policy zoo: the wear-probability-sensitive and consolidation policies
    # on the same plain config as the four paper policies.
    "pswl": dict(policy="pswl"),
    "consolidate": dict(policy="consolidate"),
    # Redundant + degraded: group-constrained re-placement and the
    # reconstruction traffic block (ec:4+2 groups, one scheduled failure).
    "cmt-ec-degraded": dict(policy="cmt", faults="fail:1@8", redundancy="ec:4+2"),
}


def metrics_digest(metrics: dict) -> str:
    blob = json.dumps(metrics, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def test_goldens_match_engine_version():
    assert ENGINE_VERSION == PINNED_ENGINE_VERSION, (
        f"ENGINE_VERSION is now {ENGINE_VERSION} but the golden digests were "
        f"generated under {PINNED_ENGINE_VERSION}.  If the engine's semantics "
        f"changed intentionally, re-generate GOLDEN in test_golden_metrics.py "
        f"and bump PINNED_ENGINE_VERSION in the same commit."
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_metrics_hash(name):
    cfg = cfg_factory(num_osds=8, seed=7, **CASES[name])
    digest = metrics_digest(simulate(cfg))
    assert digest == GOLDEN[name], (
        f"metrics for {name!r} drifted: got {digest}, pinned {GOLDEN[name]}.\n"
        f"The engine no longer reproduces this config bit-for-bit.  If that "
        f"is intentional, bump ENGINE_VERSION (cache invalidation), update "
        f"PINNED_ENGINE_VERSION and this digest in the same commit, and note "
        f"the semantic change in the ENGINE_VERSION comment; otherwise this "
        f"is a determinism regression -- find it before merging."
    )
