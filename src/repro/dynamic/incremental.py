"""Incremental re-replication: repair only what drifted.

The paper re-runs the whole Section 4 pipeline "during off-peak hours"
from collected statistics; :mod:`repro.dynamic.epochs` measured exactly
that (the ``periodic`` strategy).  But between consecutive epochs most
pages keep their popularity, so a from-scratch ``policy.run`` re-derives
an allocation that is almost entirely unchanged.  This module is the
incremental alternative, in the spirit of adaptive replication in CDNs
(PAPERS.md):

1. **Dirty-set detection** — diff the previous epoch's planner model
   against the new one.  A page is *dirty* when its popularity moved by
   more than ``dirty_threshold`` relative to ``max(f_old, f_new)``; any
   structural change (pages, objects, sizes, capacities — detected by
   :func:`repro.core.context.is_frequency_clone`) dirties everything and
   forces a full re-solve.
2. **Localized PARTITION** — re-run the batched PARTITION kernel on the
   *affected servers* only: those hosting a dirty page, plus those whose
   Eq. 8/10 constraint broke under the new frequencies.  The new model
   is a ``replace_frequencies`` clone, so its :class:`EvalContext`
   reuses the previous epoch's structural columns by reference
   (:func:`repro.core.context.adopt_frequency_context`) and only the
   frequency columns are refreshed — no structural rebuild per epoch.
3. **Localized repair** — Eq. 8-10 feasibility is restored with the
   existing greedy loops restricted (``servers=``) to the affected
   servers; OFF_LOADING (Eq. 9) is globally coupled and runs as-is when
   violated.  PARTITION decides each page independently and the
   restoration greedies sweep one server at a time, so a rebuilt server
   lands exactly on the marks a from-scratch solve would give it —
   drift relative to ``policy.run`` comes only from *untouched* servers
   whose pages moved sub-threshold.
4. **Hysteresis** — a from-scratch ``policy.run`` is triggered only when
   the incremental path stops paying: the dirty fraction exceeds
   ``full_resolve_dirty_fraction``, the accumulated replica churn since
   the last full solve exceeds ``churn_budget_bytes``, or a periodic
   audit (every ``audit_every`` re-plans) finds the incremental
   objective more than ``gap_threshold`` above the from-scratch one.

When the dirty set is empty and no constraint is violated, the result is
bit-identical to transplanting the previous allocation — and therefore
to a full re-solve on an identical-frequency clone (property-tested).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.allocation import Allocation, transplant_allocation
from repro.core.constraints import evaluate_constraints
from repro.core.context import (
    EvalContext,
    IncrementalObjective,
    adopt_frequency_context,
    is_frequency_clone,
)
from repro.core.fast_partition import (
    optional_marks_batched,
    partition_pages_batched,
)
from repro.core.offload import offload_repository
from repro.core.policy import RepositoryReplicationPolicy
from repro.core.restoration import (
    restore_processing_capacity,
    restore_storage_capacity,
)
from repro.core.types import SystemModel

__all__ = ["IncrementalConfig", "IncrementalReplanner", "ReplanStats"]


@dataclass(frozen=True)
class IncrementalConfig:
    """Tunables of the incremental re-planner."""

    dirty_threshold: float = 0.05
    """Relative frequency change marking a page dirty:
    ``|f_new - f_old| > dirty_threshold * max(f_old, f_new)``."""
    full_resolve_dirty_fraction: float = 0.25
    """Dirty-page fraction beyond which a from-scratch solve is cheaper
    than piecewise repair (hysteresis trigger #1)."""
    churn_budget_bytes: float | None = None
    """Cost-of-change budget: replica bytes moved (both directions) since
    the last full solve; exceeding it forces one (hysteresis trigger #2).
    ``None`` disables the budget."""
    audit_every: int = 4
    """Every ``audit_every``-th incremental re-plan also runs the full
    policy and compares objectives (hysteresis trigger #3).  ``0``
    disables auditing."""
    gap_threshold: float = 0.02
    """Relative objective gap (incremental vs from-scratch) above which
    an audit adopts the full solution."""

    def __post_init__(self) -> None:
        if self.dirty_threshold < 0:
            raise ValueError(
                f"dirty_threshold must be >= 0, got {self.dirty_threshold}"
            )
        if not 0.0 < self.full_resolve_dirty_fraction <= 1.0:
            raise ValueError(
                "full_resolve_dirty_fraction must be in (0, 1], got "
                f"{self.full_resolve_dirty_fraction}"
            )
        if self.churn_budget_bytes is not None and self.churn_budget_bytes <= 0:
            raise ValueError(
                f"churn_budget_bytes must be positive or None, got "
                f"{self.churn_budget_bytes}"
            )
        if self.audit_every < 0:
            raise ValueError(
                f"audit_every must be >= 0, got {self.audit_every}"
            )
        if self.gap_threshold < 0:
            raise ValueError(
                f"gap_threshold must be >= 0, got {self.gap_threshold}"
            )


@dataclass
class ReplanStats:
    """Accounting of one :meth:`IncrementalReplanner.replan` call."""

    mode: str
    """``"incremental"`` or ``"full"``."""
    full_reason: str | None
    """Why a full solve ran: ``"structural"``, ``"dirty-fraction"``,
    ``"churn-budget"``, ``"audit-gap"``; ``None`` for incremental."""
    n_dirty: int
    dirty_fraction: float
    objective: float
    """Exact composite ``D`` of the adopted allocation."""
    audit_gap: float | None = None
    """Relative objective gap measured by an audit (``None`` otherwise)."""
    rebuilt_servers: tuple[int, ...] = ()
    """Servers whose pages were re-partitioned and constraints restored
    (hosting a dirty page, or in violation after the frequency shift)."""
    offload_ran: bool = False
    churn_bytes_added: float = 0.0
    churn_bytes_removed: float = 0.0


class IncrementalReplanner:
    """Stateful epoch-to-epoch re-planner (see module docstring).

    Parameters
    ----------
    policy:
        The full pipeline used for epoch 0, for hysteresis full solves,
        and as the source of cost-model weights and optional policy for
        the incremental path (which runs in this process; a sharded
        policy shards only its full solves).
    model:
        The epoch-0 planner model.
    config:
        Hysteresis and dirty-set knobs.
    initial_allocation:
        Epoch-0 allocation over ``model``, if the caller already solved
        it (the epoch harness shares the ``static`` solve); ``None`` runs
        ``policy.run(model)``.
    """

    def __init__(
        self,
        policy: RepositoryReplicationPolicy,
        model: SystemModel,
        config: IncrementalConfig | None = None,
        initial_allocation: Allocation | None = None,
    ):
        self.policy = policy
        self.config = config or IncrementalConfig()
        self.model = model
        if initial_allocation is None:
            result = policy.run(model)
            self.allocation = result.allocation
            self.objective = result.objective
        else:
            if initial_allocation.model is not model:
                initial_allocation = transplant_allocation(
                    initial_allocation, model
                )
            self.allocation = initial_allocation
            self.objective = policy.cost_model(model).D(initial_allocation)
        self.full_resolves = 0
        self.incremental_replans = 0
        self._replans_since_audit = 0
        self._churn_since_full = 0.0

    # ------------------------------------------------------------------
    def dirty_pages(self, new_model: SystemModel) -> np.ndarray:
        """Page ids whose popularity drifted beyond the threshold."""
        f_old = self.model.frequencies
        f_new = new_model.frequencies
        denom = np.maximum(np.abs(f_old), np.abs(f_new))
        mask = np.abs(f_new - f_old) > self.config.dirty_threshold * denom
        return np.flatnonzero(mask)

    # ------------------------------------------------------------------
    def replan(self, new_model: SystemModel) -> ReplanStats:
        """Adopt ``new_model`` and repair the allocation; returns stats.

        Mutates the replanner's state: ``self.model``, ``self.allocation``
        and ``self.objective`` describe the adopted plan afterwards.
        """
        cfg = self.config
        if not is_frequency_clone(self.model, new_model):
            return self._full_resolve(new_model, "structural", dirty=None)

        dirty = self.dirty_pages(new_model)
        frac = len(dirty) / max(new_model.n_pages, 1)
        if frac > cfg.full_resolve_dirty_fraction:
            return self._full_resolve(new_model, "dirty-fraction", dirty)
        if (
            cfg.churn_budget_bytes is not None
            and self._churn_since_full >= cfg.churn_budget_bytes
        ):
            return self._full_resolve(new_model, "churn-budget", dirty)

        prev_alloc = self.allocation
        alloc, stats = self._replan_incremental(new_model, dirty)

        self._replans_since_audit += 1
        if cfg.audit_every and self._replans_since_audit >= cfg.audit_every:
            self._replans_since_audit = 0
            full = self.policy.run(new_model)
            gap = (
                (stats.objective - full.objective) / abs(full.objective)
                if full.objective
                else 0.0
            )
            stats.audit_gap = gap
            if gap > cfg.gap_threshold:
                return self._adopt(
                    new_model,
                    full.allocation,
                    full.objective,
                    prev_alloc,
                    ReplanStats(
                        mode="full",
                        full_reason="audit-gap",
                        n_dirty=stats.n_dirty,
                        dirty_fraction=stats.dirty_fraction,
                        objective=full.objective,
                        audit_gap=gap,
                    ),
                    reset_churn=True,
                )

        self.incremental_replans += 1
        return self._adopt(
            new_model, alloc, stats.objective, prev_alloc, stats,
            reset_churn=False,
        )

    # ------------------------------------------------------------------
    def _replan_incremental(
        self, new_model: SystemModel, dirty: np.ndarray
    ) -> tuple[Allocation, ReplanStats]:
        policy = self.policy
        # Frequency-only clone: reuse the previous epoch's structural
        # context columns (no-op when the clone came through
        # replace_frequencies, which already adopted them).
        adopt_frequency_context(self.model, new_model)
        ctx = EvalContext.for_model(new_model)
        alloc = transplant_allocation(self.allocation, new_model)
        cost = policy.cost_model(new_model)
        inc = IncrementalObjective(
            ctx, alloc, alpha1=policy.alpha1, alpha2=policy.alpha2
        )

        stats = ReplanStats(
            mode="incremental",
            full_reason=None,
            n_dirty=len(dirty),
            dirty_fraction=len(dirty) / max(new_model.n_pages, 1),
            objective=inc.D,
        )

        # Affected servers: those hosting a dirty page, plus those whose
        # constraint broke under the new frequencies alone (loads scale
        # with f even when marks are unchanged).
        report = evaluate_constraints(alloc)
        affected = sorted(
            set(new_model.page_server[dirty].tolist())
            | set(report.violated_servers_storage())
            | set(report.violated_servers_processing())
        )
        stats.rebuilt_servers = tuple(affected)

        if affected:
            # Re-run PARTITION on *every* page of the affected servers —
            # per-page independent, so this is exactly what a
            # from-scratch solve would decide for them before
            # restoration.  Newly needed replicas join the server's set
            # through the bulk mutators; replicas left unmarked stay
            # stored (the storage loop evicts them first, at zero cost).
            page_sel = np.isin(new_model.page_server, affected)
            rebuild = np.flatnonzero(page_sel)
            marks, streams, _, _ = partition_pages_batched(
                new_model, page_ids=rebuild
            )
            comp_e = np.flatnonzero(page_sel[ctx.comp_pages])
            to_local = comp_e[marks[comp_e]]
            to_remote = comp_e[~marks[comp_e]]
            alloc.set_comp_local_bulk(to_local, True)
            alloc.set_comp_local_bulk(to_remote, False)
            alloc.comp_stream[comp_e] = streams[comp_e]

            opt_marks = optional_marks_batched(
                new_model, policy.optional_policy
            )
            opt_e = np.flatnonzero(page_sel[ctx.opt_pages])
            alloc.set_opt_local_bulk(opt_e[opt_marks[opt_e]], True)
            alloc.set_opt_local_bulk(opt_e[~opt_marks[opt_e]], False)

            # Localized Eq. 8/10 repair: the greedy loops sweep one
            # server at a time and exit immediately on feasible ones, so
            # restricting them to the affected servers is the full-sweep
            # result without paying for the untouched servers.  Starting
            # from the unconstrained PARTITION marks, each rebuilt
            # server's final marks match the from-scratch pipeline's.
            restore_storage_capacity(alloc, cost, servers=affected)
            restore_processing_capacity(alloc, cost, servers=affected)
            report = evaluate_constraints(alloc)

        if not report.repo_ok:
            # Eq. 9 couples every server through the shared repository;
            # OFF_LOADING stays global.
            offload_repository(alloc, cost, policy.offload_config)
            stats.offload_ran = True

        # The phases above mutate the allocation directly; fold their
        # flips back and recompute exactly (resync is the bit-exact
        # escape hatch of IncrementalObjective).
        inc.comp_local = alloc.comp_local.copy()
        inc.comp_stream = alloc.comp_stream.copy()
        inc.opt_local = alloc.opt_local.copy()
        stats.objective = inc.resync()
        return alloc, stats

    # ------------------------------------------------------------------
    def _full_resolve(
        self,
        new_model: SystemModel,
        reason: str,
        dirty: np.ndarray | None,
    ) -> ReplanStats:
        n_pages = max(new_model.n_pages, 1)
        n_dirty = len(dirty) if dirty is not None else new_model.n_pages
        result = self.policy.run(new_model)
        return self._adopt(
            new_model,
            result.allocation,
            result.objective,
            self.allocation,
            ReplanStats(
                mode="full",
                full_reason=reason,
                n_dirty=n_dirty,
                dirty_fraction=n_dirty / n_pages,
                objective=result.objective,
            ),
            reset_churn=True,
        )

    def _adopt(
        self,
        new_model: SystemModel,
        alloc: Allocation,
        objective: float,
        prev_alloc: Allocation,
        stats: ReplanStats,
        reset_churn: bool,
    ) -> ReplanStats:
        from repro.analysis.compare import diff_allocations

        if is_frequency_clone(prev_alloc.model, new_model):
            diff = diff_allocations(prev_alloc, alloc)
            stats.churn_bytes_added = diff.total_bytes_added
            stats.churn_bytes_removed = diff.total_bytes_removed
        else:
            # A structural change re-provisions everything: no replica of
            # the old universe is meaningful in the new one, so the churn
            # is the full footprint out and the full footprint in.
            stats.churn_bytes_removed = float(
                prev_alloc.stored_bytes_all().sum()
            )
            stats.churn_bytes_added = float(alloc.stored_bytes_all().sum())
        if reset_churn:
            self.full_resolves += 1
            self._churn_since_full = 0.0
            self._replans_since_audit = 0
        else:
            self._churn_since_full += (
                stats.churn_bytes_added + stats.churn_bytes_removed
            )
        self.model = new_model
        self.allocation = alloc
        self.objective = objective
        return stats
