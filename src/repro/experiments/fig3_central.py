"""Figure 3 — response time vs local capacity for constrained repository.

Protocol (Section 5.2, third experiment): with 100% storage, local
processing capacities sweep as in Figure 2 while the repository's
capacity ``C(R)`` is fixed at 90%, 70% or 50% of the workload the
pre-off-loading allocation imposes on it; OFF_LOADING_REPOSITORY then
pushes the excess back onto the servers.

The paper's observations this experiment reproduces:

* with local capacities >= 70%, even a repository serving only 50% of
  its requests keeps the increase acceptable (~+40% over unconstrained);
* when local capacities drop to 50-60%, the increase is significant even
  at 90% central capacity — **local capacity dominates central
  capacity**: an off-loaded request needs local slack to land somewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.offload import OffloadConfig, offload_repository
from repro.core.policy import RepositoryReplicationPolicy
from repro.experiments.executor import map_run_points
from repro.experiments.runner import ExperimentConfig, RunContext, SweepResult
from repro.experiments.scaling import (
    clone_with_capacities,
    processing_capacities_for_fraction,
    repo_capacity_for_fraction,
    storage_capacities_for_fraction,
)

__all__ = [
    "Fig3Result",
    "run_fig3",
    "DEFAULT_LOCAL_FRACTIONS",
    "DEFAULT_CENTRAL_FRACTIONS",
]

#: Local-capacity sweep (x-axis).
DEFAULT_LOCAL_FRACTIONS: tuple[float, ...] = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
#: Central-capacity curves (the paper's 90%, 70%, 50%).
DEFAULT_CENTRAL_FRACTIONS: tuple[float, ...] = (0.9, 0.7, 0.5)


@dataclass
class Fig3Result(SweepResult):
    """Figure 3 sweep result (one curve per central-capacity level)."""


def _fig3_point(ctx: RunContext, point: tuple):
    """One Figure 3 work unit: one local-capacity tick, every central curve.

    The central-capacity levels share this unit's phases 1-3 policy run
    (the repository is unconstrained there), so they travel together as
    ``(local_fraction, central_fractions)`` and the unit returns one
    value per central level.
    """
    lf, central_fractions = point
    params = ctx.config.params
    storage_caps = storage_capacities_for_fraction(ctx.model, ctx.reference, 1.0)
    proc_caps = processing_capacities_for_fraction(ctx.model, lf)
    clone = clone_with_capacities(
        ctx.model, storage=storage_caps, processing=proc_caps
    )
    # phases 1-3 (repository unconstrained here)
    policy = RepositoryReplicationPolicy(
        alpha1=params.alpha1, alpha2=params.alpha2, shards=ctx.config.shards
    )
    pre = policy.run(clone)
    trace_c = ctx.retrace(clone)
    cost_c = policy.cost_model(clone)
    values: list[float] = []
    for q in central_fractions:
        alloc_q = pre.allocation.copy()
        capacity = repo_capacity_for_fraction(alloc_q, q)
        outcome = offload_repository(
            alloc_q, cost_c, OffloadConfig(), capacity=capacity
        )
        # An unrestored Eq. 9 means the repository runs saturated:
        # every repository-side service slows by P(R)/C(R).
        slowdown = max(1.0, outcome.final_repo_load / capacity)
        sim = ctx.simulate(alloc_q, trace_c, repo_slowdown=slowdown)
        values.append(ctx.relative_increase(sim))
    return values


def run_fig3(
    config: ExperimentConfig | None = None,
    local_fractions: Sequence[float] = DEFAULT_LOCAL_FRACTIONS,
    central_fractions: Sequence[float] = DEFAULT_CENTRAL_FRACTIONS,
) -> Fig3Result:
    """Regenerate Figure 3."""
    cfg = config or ExperimentConfig()
    central = tuple(float(q) for q in central_fractions)
    points = [(float(lf), central) for lf in local_fractions]
    matrix = map_run_points(cfg, _fig3_point, points)
    runs: dict[float, list[list[float]]] = {
        q: [[tick[qi] for tick in row] for row in matrix]
        for qi, q in enumerate(central_fractions)
    }

    return Fig3Result(
        title=(
            "Figure 3: % increase in response time vs local processing "
            "capacity, for constrained central (repository) capacity"
        ),
        x_label="local capacity",
        x_values=list(local_fractions),
        series={
            f"central {q:.0%}": SweepResult.aggregate(runs[q])
            for q in central_fractions
        },
        per_run={f"central {q:.0%}": runs[q] for q in central_fractions},
        n_runs=cfg.n_runs,
    )
