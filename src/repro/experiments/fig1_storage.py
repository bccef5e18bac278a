"""Figure 1 — response time vs local storage capacity.

Protocol (Section 5.2, first experiment): the local processing
constraint is relaxed; available storage varies; the measured average
response times are reported **relative to the proposed policy with no
constraints imposed**.  Only the proposed policy and ideal LRU depend on
storage, so those are the plotted curves; Remote (≈ +335% in the paper)
and Local (≈ +23.8%) are storage-independent reference values.

The paper's stated landmarks this experiment reproduces:

* at 100% storage the proposed policy is optimal (0% increase) while LRU
  is comparable to the Local policy (~+24%),
* the proposed policy at ~65% storage matches LRU at 100%,
* at small storage both degrade toward (but stay far below) Remote.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.baselines.local import LocalPolicy
from repro.baselines.remote import RemotePolicy
from repro.core.policy import RepositoryReplicationPolicy
from repro.experiments.executor import map_run_points
from repro.experiments.runner import ExperimentConfig, RunContext, SweepResult
from repro.experiments.scaling import (
    clone_with_capacities,
    storage_capacities_for_fraction,
)
from repro.simulation.lru_sim import simulate_lru

__all__ = ["Fig1Result", "run_fig1", "DEFAULT_STORAGE_FRACTIONS"]

#: Default sweep ticks (the paper plots 20%..100%).
DEFAULT_STORAGE_FRACTIONS: tuple[float, ...] = (0.2, 0.35, 0.5, 0.65, 0.8, 1.0)


@dataclass
class Fig1Result(SweepResult):
    """Figure 1 sweep result (curves: proposed policy, ideal LRU)."""


def _fig1_point(ctx: RunContext, point: tuple):
    """One Figure 1 work unit: a reference scalar or one storage tick."""
    kind, value = point
    if kind == "scalar":
        # storage-independent baselines (paired on the same trace)
        policy = RemotePolicy() if value == "remote" else LocalPolicy()
        return ctx.relative_increase(ctx.simulate(policy.allocate(ctx.model)))
    frac = value
    params = ctx.config.params
    caps = storage_capacities_for_fraction(ctx.model, ctx.reference, frac)
    clone = clone_with_capacities(ctx.model, storage=caps)
    result = RepositoryReplicationPolicy(
        alpha1=params.alpha1, alpha2=params.alpha2, shards=ctx.config.shards
    ).run(clone)
    trace_c = ctx.retrace(clone)
    ours = ctx.relative_increase(ctx.simulate(result.allocation, trace_c))

    # LRU's cache budget: the same MO bytes the proposed policy
    # may replicate at this tick.
    cache_bytes = frac * ctx.reference.stored_bytes_all()
    lru_sim, _ = simulate_lru(
        ctx.trace,
        cache_bytes=cache_bytes,
        perturbation=ctx.config.perturbation,
        seed=ctx.sim_seed,
    )
    return ours, ctx.relative_increase(lru_sim)


def run_fig1(
    config: ExperimentConfig | None = None,
    fractions: Sequence[float] = DEFAULT_STORAGE_FRACTIONS,
) -> Fig1Result:
    """Regenerate Figure 1.

    Returns a :class:`Fig1Result` whose ``series`` maps
    ``"proposed"``/``"ideal-lru"`` to mean relative response-time
    increases per storage fraction, with ``scalars`` carrying the
    Remote/Local reference increases.
    """
    cfg = config or ExperimentConfig()
    points = [("scalar", "remote"), ("scalar", "local")] + [
        ("frac", float(f)) for f in fractions
    ]
    matrix = map_run_points(cfg, _fig1_point, points)
    remote_vals = [row[0] for row in matrix]
    local_vals = [row[1] for row in matrix]
    ours_runs = [[pair[0] for pair in row[2:]] for row in matrix]
    lru_runs = [[pair[1] for pair in row[2:]] for row in matrix]

    return Fig1Result(
        title="Figure 1: % increase in response time vs local storage capacity",
        x_label="storage",
        x_values=list(fractions),
        series={
            "proposed": SweepResult.aggregate(ours_runs),
            "ideal-lru": SweepResult.aggregate(lru_runs),
        },
        per_run={"proposed": ours_runs, "ideal-lru": lru_runs},
        scalars={
            "remote (all from repository)": float(np.mean(remote_vals)),
            "local (all from local server)": float(np.mean(local_vals)),
        },
        n_runs=cfg.n_runs,
    )
