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
from edm.config import ENGINE_VERSION, SimConfig, config_hash
from edm.engine.core import simulate

PINNED_ENGINE_VERSION = 7

# Every digest was re-pinned once for ENGINE_VERSION 6, when the workload
# stream became a function of the traffic fields alone (seed material
# schema 3): all ten configs now draw a new stream, and every policy and
# scenario case below replays the *same* one.  No engine arithmetic changed.
# They were re-pinned once more for ENGINE_VERSION 7 (seed material schema
# 4), when the head/tail sampler began drawing the same distribution from
# different random numbers.  No engine arithmetic changed then either.
GOLDEN = {
    "baseline": "8f3340ac36eb3aedf503c1f3783eef73b54605e2914af813d376dc08b4772bde",
    "cdf": "9d07aa308fd3a9f9c01e752bde3fb37e05864f600bf35fc02899c580abbc9802",
    "hdf": "1aa72e2dfc047d7933a5f3fc7cbddd2634a139bddce6eb45df012b789c2cffe9",
    "cmt": "0d31396152d2f12633e6d50f940c72feae25c96a7e9dc3e836d572472c8e88c2",
    "cmt-degraded-rated": "f215d6047adb8abcbf61d2470703cc9fba031e3794ef0dc9159366c24c1fc543",
    "cmt-serviced": "67befdfd37b36f60d9bb964609767a19ab540a228d182581b3575b8d696368e2",
    "cmt-serviced-degraded": "190aef2721e5953e24a5cc6a7e7e55271aa01eee6541b818cb4fbc8c2a1121cd",
    "pswl": "72910e81a1375fad2c6eb48589af1725cbc3c604e64097ccb397399f82e4a818",
    "consolidate": "063ab0f29e4c4574f3e1aac44ea298ecff3493b1187edb787a8c701ae0e2809a",
    "cmt-ec-degraded": "50b9177481d0c098ff320e0115a63fd7306e845c2cf2cd1a1d1c11eb38953a85",
}

# Cache keys of the cases above (at num_osds=8, seed=7).  Retiring a config
# field that never fed the hash (``kernel``) must leave every one as is.
GOLDEN_KEYS = {
    "baseline": ("cdf88a62d2fbc3ef89cad1eeb9badb2fcae5dcfb1fac6c0c538d989006a7488b",
                 "deasna-8osd-baseline-s0.02-r7"),
    "cdf": ("05aebc9382885c715b15182ceff86c96a905c6899e16898357e962278b1e94b9",
            "deasna-8osd-cdf-s0.02-r7"),
    "hdf": ("25b95f8e1b012240fa37bd81562c536c9ac2c59e83c3af8d9c823286118b350e",
            "deasna-8osd-hdf-s0.02-r7"),
    "cmt": ("f6606958479cd2218f0935f63a2f0f9b012ca1f36be191df2f193fa93726adf2",
            "deasna-8osd-cmt-s0.02-r7"),
    "cmt-degraded-rated": ("a0fe435984f76b47339fc491e3566e927438dfd2631a5b24d89c53dc78aa02c4",
                           "deasna-8osd-cmt-s0.02-r7-f566547e6-ecd6c549e"),
    "cmt-serviced": ("e9efb4a436332ac3d6644b9f4ef59df4c2a433a753512aa5e78f3dd4b1d024cd",
                     "deasna-8osd-cmt-s0.02-r7-qa26b9c63"),
    "cmt-serviced-degraded": ("4c2c0798fcfa97731a976b45c8009e101ccd94db78bee9ae3736ad07f91d94f0",
                              "deasna-8osd-cmt-s0.02-r7-f566547e6-q55a131f6"),
    "pswl": ("3f7fc0465fd072be210f68bdd8138f7273ed67bf11442ef694da9e087fc5400e",
             "deasna-8osd-pswl-s0.02-r7"),
    "consolidate": ("bcec8038a2c6837059e98a1b3280a32cf901c8240bcd9e40c7d6a131c94fe20b",
                    "deasna-8osd-consolidate-s0.02-r7"),
    "cmt-ec-degraded": ("4610fad6c9d423bcc3585e622160a2d878173e964a3c54073938e952d8ea7ac1",
                        "deasna-8osd-cmt-s0.02-r7-f566547e6-g6ada8e4b"),
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_config_cache_keys(name):
    # The cache key of every golden config, pinned literally: a change here
    # orphans every cache entry written for it.
    cfg = cfg_factory(num_osds=8, seed=7, **CASES[name])
    assert (config_hash(cfg), cfg.cache_name()) == GOLDEN_KEYS[name]


def test_five_layer_cache_key_is_pinned():
    # Every scenario layer at once, spelled non-canonically (a spaced fault
    # separator, service and topology clauses out of order, the ``edm``
    # policy alias): canonicalisation, each layer's hash contribution and
    # the order of the cache_name letters are all pinned.  Key only -- no
    # metrics digest.
    cfg = SimConfig(
        num_osds=8,
        seed=7,
        policy="edm",
        faults="slow:2@4x0.5; fail:1@8",
        endurance="pe:900",
        service="queue:256;rate:120",
        topology="drain:0@24;add:2@16/cap:2,rate:240",
        redundancy="rep:3",
    )
    assert config_hash(cfg) == (
        "b7f0bfc549f2d9207ee354fc89dfc2f0f647a61ff239140eb1435a6fe8365607"
    )
    assert cfg.cache_name() == (
        "deasna-8osd-cmt-s0.02-r7-f01b92dda-ecd6c549e-qa26b9c63-tb09a0f94-g61d650da"
    )
