"""Figure 2 — response time vs local processing capacity (100% storage).

Protocol (Section 5.2, second experiment): storage is fixed at 100% (the
unconstrained replica set fits) while each server's Eq. 8 processing
capacity is swept from 100% down to 0% of the unconstrained allocation's
MO-download workload.  The paper reports a "double exponential" shape:

* above ~60% capacity the increase is marginal — processing restoration
  sheds the *cheapest* downloads first, and the most traffic-consuming
  objects stay local;
* below ~60% the increase accelerates, reaching the Remote policy's
  level at 0% (every MO download is forced onto the repository stream).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.baselines.remote import RemotePolicy
from repro.core.policy import RepositoryReplicationPolicy
from repro.experiments.executor import map_run_points
from repro.experiments.runner import ExperimentConfig, RunContext, SweepResult
from repro.experiments.scaling import (
    clone_with_capacities,
    processing_capacities_for_fraction,
    storage_capacities_for_fraction,
)

__all__ = ["Fig2Result", "run_fig2", "DEFAULT_PROCESSING_FRACTIONS"]

#: Default sweep ticks (the paper plots 0%..100%).
DEFAULT_PROCESSING_FRACTIONS: tuple[float, ...] = (
    0.0,
    0.1,
    0.2,
    0.3,
    0.4,
    0.5,
    0.6,
    0.7,
    0.8,
    0.9,
    1.0,
)


@dataclass
class Fig2Result(SweepResult):
    """Figure 2 sweep result (curve: proposed policy)."""


def _fig2_point(ctx: RunContext, point: tuple):
    """One Figure 2 work unit: the Remote scalar or one processing tick."""
    kind, value = point
    if kind == "scalar":
        return ctx.relative_increase(
            ctx.simulate(RemotePolicy().allocate(ctx.model))
        )
    params = ctx.config.params
    storage_caps = storage_capacities_for_fraction(ctx.model, ctx.reference, 1.0)
    proc_caps = processing_capacities_for_fraction(ctx.model, value)
    clone = clone_with_capacities(
        ctx.model, storage=storage_caps, processing=proc_caps
    )
    result = RepositoryReplicationPolicy(
        alpha1=params.alpha1, alpha2=params.alpha2, shards=ctx.config.shards
    ).run(clone)
    sim = ctx.simulate(result.allocation, ctx.retrace(clone))
    return ctx.relative_increase(sim)


def run_fig2(
    config: ExperimentConfig | None = None,
    fractions: Sequence[float] = DEFAULT_PROCESSING_FRACTIONS,
) -> Fig2Result:
    """Regenerate Figure 2."""
    cfg = config or ExperimentConfig()
    points = [("scalar", "remote")] + [("frac", float(f)) for f in fractions]
    matrix = map_run_points(cfg, _fig2_point, points)
    remote_vals = [row[0] for row in matrix]
    ours_runs = [row[1:] for row in matrix]

    return Fig2Result(
        title=(
            "Figure 2: % increase in response time vs local processing "
            "capacity (100% storage)"
        ),
        x_label="processing",
        x_values=list(fractions),
        series={"proposed": SweepResult.aggregate(ours_runs)},
        per_run={"proposed": ours_runs},
        scalars={
            "remote (all from repository)": float(np.mean(remote_vals)),
        },
        n_runs=cfg.n_runs,
    )
