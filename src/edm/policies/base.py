"""Migration policy interface and shared selection helpers.

Policies only *select* moves; the engine applies them.  The hot path
(routing, wear, EMAs) never enters policy code, so a policy is free to use
small per-OSD loops -- the cluster has tens of OSDs, not thousands.

The shared skeleton: find OSDs whose smoothed load exceeds the cluster mean
by ``overload_tolerance``, walk their chunks in a policy-defined order, and
ship each to a policy-chosen underloaded destination until the source is
back within tolerance or the per-interval budget runs out.

Degraded clusters: when ``state.degraded`` is set (any OSD dead or running
at off-nominal capacity), selection ranks OSDs by *effective* load --
``load / capacity``, infinite for dead OSDs -- and masks dead OSDs out of
both source and destination candidates.  A half-capacity disk therefore
reads as twice as loaded and sheds chunks; a dead disk can never be picked.
On a healthy cluster the degraded branch is never taken and every operation
is bit-identical to the fault-unaware engine.

Draining OSDs (topology scale-in, ``state.osd_draining``) are masked out of
destination candidates everywhere a policy picks one: a drive being
evacuated is a migration *source* only, never a landing spot.

Redundant placement (``state.chunk_group`` set, see :mod:`edm.redundancy`):
a chunk's destination candidates additionally exclude every OSD holding
another member of its placement group, so no group ever co-locates two
chunks on one OSD.  Plain configs carry ``chunk_group=None`` and skip the
filter entirely, keeping their selection bit-identical.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from edm.config import SimConfig
from edm.engine.state import ClusterState
from edm.faults import effective_load

EMPTY_MOVES = np.empty((0, 2), dtype=np.int64)


def group_constrained(
    candidates: np.ndarray, state: ClusterState, chunk: int
) -> np.ndarray:
    """Drop candidates already holding a member of ``chunk``'s placement group.

    No-op (the exact same array) when the config carries no redundancy
    scheme.  The chunk's own owner is among the excluded -- moving a chunk
    onto its current OSD is never useful -- and group membership is the
    consecutive-id layout of :func:`edm.engine.state.init_state`.
    """
    if state.chunk_group is None:
        return candidates
    w = state.group_width
    lo = (int(chunk) // w) * w
    owners = state.chunk_owner[lo : min(lo + w, state.num_chunks)]
    return candidates[~np.isin(candidates, owners)]


def sum_terms(terms: dict[str, np.ndarray]) -> np.ndarray:
    """Fold per-term score arrays into one total, strictly left to right.

    The fold order is the dict's insertion order, so a policy whose historical
    score was ``(a + b) + c`` reproduces that exact floating-point sequence by
    returning ``{"a": ..., "b": ..., "c": ...}`` -- which is what keeps the
    term decomposition and the destination pick bit-identical.
    """
    score = None
    for term in terms.values():
        score = term if score is None else score + term
    return score


class MigrationPolicy(ABC):
    name = "abstract"

    @abstractmethod
    def select(self, state: ClusterState, cfg: SimConfig) -> np.ndarray:
        """Return an int array (k, 2) of (chunk_id, dst_osd) moves."""

    def select_explained(self, state: ClusterState, cfg: SimConfig, emit) -> np.ndarray:
        """Like :meth:`select`, but report each destination pick via ``emit``.

        ``emit(chunk, src, dst, candidates, terms, scores)`` is called once
        per selected move with the per-term score decomposition (see
        :meth:`destination_terms`) over the candidate set.  The moves
        returned must be identical to a plain :meth:`select` call on the
        same state -- explanation observes the pick, never changes it.  The
        default covers policies without per-move scoring (baseline never
        picks a destination during selection) by just selecting.
        """
        return self.select(state, cfg)

    def destination_terms(
        self,
        candidates: np.ndarray,
        proj_load: np.ndarray,
        state: ClusterState,
        cfg: SimConfig,
    ) -> dict[str, np.ndarray]:
        """Per-term destination score decomposition over ``candidates``.

        Keys name the score terms, values are float arrays aligned with
        ``candidates``; lower total is better and the total is folded
        left-to-right over insertion order (see :func:`sum_terms`), so the
        decomposition *defines* the scoring: :meth:`pick_destination` is the
        argmin of the folded terms.  The default scores by projected load
        alone -- the least-loaded candidate wins.
        """
        return {"load": proj_load[candidates]}

    def pick_destination(
        self,
        candidates: np.ndarray,
        proj_load: np.ndarray,
        state: ClusterState,
        cfg: SimConfig,
    ) -> int:
        """Pick a destination among candidate OSD ids (default: least load).

        Shared by interval selection *and* failure re-placement: when an OSD
        dies, the engine routes its chunks through the active policy's
        destination scoring, so even the no-migration baseline has a
        well-defined answer here.  The score is the left-to-right fold of
        :meth:`destination_terms`, so the pick and its explanation can never
        disagree.
        """
        return int(candidates[np.argmin(sum_terms(
            self.destination_terms(candidates, proj_load, state, cfg)
        ))])

    def explain_destination(
        self,
        candidates: np.ndarray,
        proj_load: np.ndarray,
        state: ClusterState,
        cfg: SimConfig,
    ) -> tuple[int, dict[str, np.ndarray], np.ndarray]:
        """:meth:`pick_destination` plus its evidence.

        Returns ``(dst, terms, scores)``: the winning OSD id, the per-term
        decomposition over ``candidates``, and the folded total scores.  The
        winner is the argmin of ``scores`` computed with the exact arithmetic
        of :meth:`pick_destination`, so an explained pick is always the pick.
        """
        terms = self.destination_terms(candidates, proj_load, state, cfg)
        scores = sum_terms(terms)
        return int(candidates[np.argmin(scores)]), terms, scores

    def pick_destination_batch(
        self,
        candidates: np.ndarray,
        proj_rows: np.ndarray,
        state: ClusterState,
        cfg: SimConfig,
    ) -> np.ndarray:
        """Vectorized ``pick_destination`` over many projected-load vectors.

        ``proj_rows`` is a (rows, num_osds) matrix; the result's entry ``i``
        must equal ``pick_destination(candidates, proj_rows[i], ...)``
        **bit-for-bit** -- the engine's batched failure re-placement replays
        the scalar greedy through this method (see
        :func:`edm.engine.core.replace_dead_chunks`), so any subclass that
        overrides ``pick_destination`` must override this in lockstep and
        match it; ``tests/test_policy_conformance.py`` is the guard.

        Default scoring is raw projected load, so a row-wise argmin over the
        candidate columns reproduces the scalar pick exactly (ties resolve
        to the first minimum in both shapes).
        """
        return candidates[np.argmin(proj_rows[:, candidates], axis=1)]


class ThresholdPolicy(MigrationPolicy):
    """Overload-threshold skeleton shared by CDF / HDF / CMT."""

    def chunk_order(self, chunk_ids: np.ndarray, state: ClusterState) -> np.ndarray:
        """Order candidate chunks on an overloaded OSD (first = first moved)."""
        raise NotImplementedError

    def select(self, state: ClusterState, cfg: SimConfig) -> np.ndarray:
        return self._select(state, cfg, emit=None)

    def select_explained(self, state: ClusterState, cfg: SimConfig, emit) -> np.ndarray:
        return self._select(state, cfg, emit=emit)

    def _select(self, state: ClusterState, cfg: SimConfig, emit) -> np.ndarray:
        alive = state.osd_alive
        cap = state.osd_capacity
        if state.degraded:
            if not alive.any():
                return EMPTY_MOVES
            proj = effective_load(state.osd_load_ema, cap, alive)
            mean = proj[alive].mean()
        else:
            proj = state.osd_load_ema.copy()
            mean = proj.mean()
        if mean <= 0:
            return EMPTY_MOVES
        high = mean * (1.0 + cfg.overload_tolerance)
        overloaded = np.flatnonzero((proj > high) & alive)
        if overloaded.size == 0:
            return EMPTY_MOVES
        eligible = state.eligible_mask(cfg)

        budget = cfg.max_migrations_per_interval
        moves: list[tuple[int, int]] = []
        # Destinations already claimed this round, per placement group:
        # chunk_owner only changes when the engine applies the moves, so two
        # same-group chunks selected in one round would otherwise not see
        # each other's landing spots.  (Redundant configs only.)
        claimed: dict[int, list[int]] | None = (
            {} if state.chunk_group is not None else None
        )
        # Heaviest sources first.
        for src in overloaded[np.argsort(-proj[overloaded])]:
            if budget <= 0:
                break
            mine = np.flatnonzero((state.chunk_owner == src) & eligible)
            if mine.size == 0:
                continue
            for chunk in self.chunk_order(mine, state):
                if budget <= 0 or proj[src] <= high:
                    break
                under = np.flatnonzero(
                    (proj < mean) & alive & ~state.osd_draining
                )
                if under.size == 0:
                    break
                under = group_constrained(under, state, chunk)
                if claimed is not None:
                    taken = claimed.get(int(state.chunk_group[chunk]))
                    if taken:
                        under = under[~np.isin(under, taken)]
                if under.size == 0:
                    # Every underloaded OSD already holds (or was just
                    # claimed for) a member of this chunk's placement
                    # group; the next chunk may differ.
                    continue
                if emit is None:
                    dst = self.pick_destination(under, proj, state, cfg)
                    terms = scores = None
                else:
                    dst, terms, scores = self.explain_destination(under, proj, state, cfg)
                heat = state.chunk_heat[chunk]
                # A chunk's load lands scaled by the destination's capacity
                # (cap == 1.0 everywhere on a healthy cluster, so these
                # divisions are exact no-ops there).  Never move load onto an
                # OSD that would end up hotter than the source it came from.
                heat_dst = heat / cap[dst]
                if proj[dst] + heat_dst >= proj[src]:
                    continue
                if emit is not None:
                    emit(int(chunk), int(src), dst, under, terms, scores)
                if claimed is not None:
                    claimed.setdefault(int(state.chunk_group[chunk]), []).append(dst)
                moves.append((int(chunk), dst))
                proj[src] -= heat / cap[src]
                proj[dst] += heat_dst
                budget -= 1
        if not moves:
            return EMPTY_MOVES
        return np.asarray(moves, dtype=np.int64)


class NormalizedScorePolicy(ThresholdPolicy):
    """Destination scoring over cluster-mean-normalized load, with hooks.

    The scoring shape CMT established, factored so the zoo shares one
    scalar/batch pairing: the projected load of each candidate is normalized
    by the mean over *alive* OSDs (cluster-wide, never the candidate subset,
    so a drive's score is independent of who else is a candidate), then

      * :meth:`load_terms` maps that normalized load to one or more score
        terms with shape-agnostic arithmetic (the same expression must work
        on a 1-D candidate vector and a 2-D rows x candidates matrix), and
      * :meth:`static_destination_terms` appends terms that do not depend on
        projected load at all (wear, wear-out risk) -- frozen across a
        re-placement burst, broadcast across batch rows.

    ``destination_terms`` folds load terms first, static terms after, in
    insertion order; ``pick_destination_batch`` replays the identical
    floating-point sequence row-wise, so every subclass gets a batch path
    provably bit-identical to its scalar pick (pinned by
    tests/test_policy_conformance.py across the whole registry).
    """

    def load_terms(
        self, load_norm: np.ndarray, state: ClusterState, cfg: SimConfig
    ) -> dict[str, np.ndarray]:
        """Score terms computed from the normalized projected load."""
        return {"load": load_norm}

    def static_destination_terms(
        self, candidates: np.ndarray, state: ClusterState, cfg: SimConfig
    ) -> dict[str, np.ndarray]:
        """Load-independent score terms, aligned with ``candidates``."""
        return {}

    def destination_terms(self, candidates, proj_load, state, cfg):
        load = proj_load[candidates]
        alive = state.osd_alive
        mean_load = proj_load[alive].mean() if alive.any() else 0.0
        load_norm = load / mean_load if mean_load > 0 else load
        terms = dict(self.load_terms(load_norm, state, cfg))
        terms.update(self.static_destination_terms(candidates, state, cfg))
        return terms

    def pick_destination_batch(self, candidates, proj_rows, state, cfg):
        """Row-wise scoring, bit-identical to the scalar pick.

        Each row normalizes by its own alive-mean, falling back to the raw
        load for rows whose mean is not positive -- the same branch the
        scalar path takes.  Load terms fold first, then static terms (1-D,
        broadcast across rows) are added in order: the exact addition
        sequence of ``sum_terms`` over :meth:`destination_terms`.
        """
        alive = state.osd_alive
        load = proj_rows[:, candidates]
        if alive.any():
            mean_load = proj_rows[:, alive].mean(axis=1)[:, None]
        else:
            mean_load = np.zeros((len(proj_rows), 1))
        load_norm = load.copy()
        np.divide(load, mean_load, out=load_norm, where=mean_load > 0)
        score = sum_terms(self.load_terms(load_norm, state, cfg))
        for term in self.static_destination_terms(candidates, state, cfg).values():
            score = score + term
        return candidates[np.argmin(score, axis=1)]
