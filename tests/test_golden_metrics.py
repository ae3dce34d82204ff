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

PINNED_ENGINE_VERSION = 6

# Every digest was re-pinned once for ENGINE_VERSION 6, when the workload
# stream became a function of the traffic fields alone (seed material
# schema 3): all ten configs now draw a new stream, and every policy and
# scenario case below replays the *same* one.  No engine arithmetic changed.
GOLDEN = {
    "baseline": "393fadeca85f7068921fda9db902f53da5b775601675532e640408c790c85fa9",
    "cdf": "ddf0b69e2333cc4e58dbca65f722b4a1ddb7b9868dee5653c3d8562228d7680e",
    "hdf": "b168151c246bf65621024b3fa80d34f0cb1ae724f37711b713e9e7ad980e7cff",
    "cmt": "08e280144f42745235f1018a2d543417736267c2c2e02fd3a8e304041b6a8d0f",
    "cmt-degraded-rated": "da4bd56e6e85135c32078150cec0afd0e3c169b2d36a07464c4701fe54f68693",
    "cmt-serviced": "b641e4d42a5bff10b14dc0b28a7f366a8a28874546de1d03ec69d41dadaaea52",
    "cmt-serviced-degraded": "343e9769333f156ec193029103b236b55f415fc773293342fb74daf076a34eae",
    "pswl": "883ad51112b4aa5c12d740ce7edd0e575ebfb0f360d05023dc110a9945207cf5",
    "consolidate": "de94a4ebcaa96b114bfecbaa4f3e30413d9861a95627192fb0d6fabdc9e1c706",
    "cmt-ec-degraded": "6eceb6a62e51117c4d70c40932ea802abb947ebf193333a78a5502542368f066",
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
    # migration work injection.
    "cmt-serviced": dict(policy="cmt", service="rate:120;queue:256"),
    # Serviced + degraded: lost-work accounting and re-placement bursts
    # landing in the survivors' queues.
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
