"""Extension E4 — what is an extra download stream worth?

The paper fixes ``k = 2`` connections per page view (local server +
repository).  The k-stream engine removes that cap: a replica mesh adds
``k - 2`` repository-grade sites per server, PARTITION becomes an
argmin-over-k, and this extension sweeps ``k`` to measure the marginal
value of each added stream.

At each ``k`` the same seed regenerates the workload — the "mesh" RNG
stream is separate, so servers, pages, and the object catalogue are
bit-identical across the whole sweep and points are perfectly paired —
and unconstrained PARTITION plans against the wider topology.  Reported
per ``k``:

* the Eq. 7 planning objective ``D`` and its change versus ``k = 2``
  (non-increasing in ``k``: a wider argmin can only shorten the planned
  download time, which the sweep asserts),
* the share of compulsory downloads sent remote at all, and
* the share carried by the mesh (streams beyond the repository).

The trace simulator models the classic two-stream page view, so this
extension reports the *analytic* cost model rather than simulated
response times; the pairing across ``k`` makes the deltas meaningful on
their own.  Expected arc: the first extra stream is worth the most
(Table 1's repository links are the bottleneck, so a second slow pipe
absorbs real traffic), with diminishing returns as further streams
split a finite byte budget ever thinner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.cost_model import CostModel
from repro.core.partition import partition_all
from repro.experiments.executor import map_run_points
from repro.experiments.runner import ExperimentConfig, RunContext
from repro.util.tables import format_table
from repro.workload.generator import generate_workload

__all__ = ["StreamsResult", "run_streams", "DEFAULT_STREAMS"]

#: Stream counts swept (2 = the paper's local + repository model).
DEFAULT_STREAMS: tuple[int, ...] = (2, 3, 4, 5)


@dataclass
class StreamsResult:
    """Per-``k`` series of the planning objective and stream shares."""

    streams: list[int]
    objective: list[float]
    """Mean Eq. 7 objective ``D`` of unconstrained PARTITION."""
    vs_two_streams: list[float]
    """Relative change of ``D`` versus the ``k = 2`` point (<= 0)."""
    remote_share: list[float]
    """Mean share of compulsory downloads marked remote."""
    mesh_share: list[float]
    """Mean share of compulsory downloads on streams beyond the
    repository (0 at ``k = 2`` by construction)."""
    n_runs: int = 0

    def render(self) -> str:
        rows = [
            (
                f"{k}",
                f"{self.objective[i]:.0f}",
                f"{self.vs_two_streams[i]:+.1%}",
                f"{self.remote_share[i]:.0%}",
                f"{self.mesh_share[i]:.0%}",
            )
            for i, k in enumerate(self.streams)
        ]
        return (
            format_table(
                [
                    "streams k",
                    "objective D",
                    "vs k=2",
                    "downloads sent remote",
                    "carried by mesh",
                ],
                rows,
                title="Extension E4: value of extra download streams",
            )
            + f"\n(averaged over {self.n_runs} runs)"
        )


def _streams_point(ctx: RunContext, k: int):
    """One stream count on one run: ``(D, remote share, mesh share)``."""
    base = ctx.config.params
    params = base.with_(
        n_streams=k,
        n_repositories=max(base.n_repositories, k - 1),
        storage_capacity=np.inf,
        processing_capacity=np.inf,
        repository_capacity=np.inf,
    )
    model = generate_workload(params, seed=ctx.trace_seed)
    alloc = partition_all(model)
    cost = CostModel(model, alpha1=params.alpha1, alpha2=params.alpha2)
    remote = ~alloc.comp_local
    mesh = remote & (alloc.comp_stream > 1)
    return (
        cost.D(alloc),
        float(remote.mean()),
        float(mesh.mean()),
    )


def run_streams(
    config: ExperimentConfig | None = None,
    streams: Sequence[int] = DEFAULT_STREAMS,
) -> StreamsResult:
    """Sweep the per-page stream count ``k``; see module docstring."""
    cfg = config or ExperimentConfig()
    points = [int(k) for k in streams]
    matrix = map_run_points(cfg, _streams_point, points)
    arr = np.asarray(matrix, dtype=float)  # runs x streams x 3
    objective, remote, mesh = arr.mean(axis=0).T

    base = objective[points.index(2)] if 2 in points else objective[0]
    return StreamsResult(
        streams=points,
        objective=objective.tolist(),
        vs_two_streams=[float(d / base - 1.0) for d in objective],
        remote_share=remote.tolist(),
        mesh_share=mesh.tolist(),
        n_runs=cfg.n_runs,
    )
