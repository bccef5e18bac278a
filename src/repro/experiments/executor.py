"""Parallel experiment execution: fan ``(run, sweep-point)`` units out.

The paper's protocol averages every figure over independently generated
workloads and sweeps many configurations against the *same* paired
run — a grid of ``n_runs x n_points`` work units with **no data
dependencies between them**: every unit is a pure function of
``(ExperimentConfig, run_index, point)`` because runs derive isolated
RNG streams (:class:`~repro.util.rng.RngFactory`) and paired simulation
re-seeds per call.  :func:`map_run_points` exploits exactly that:

* units are dispatched in **run-major chunks** over a persistent
  :class:`~concurrent.futures.ProcessPoolExecutor`, so one chunk mostly
  touches one run and the worker's
  :class:`~repro.experiments.cache.ArtifactCache` turns the remaining
  per-unit artifact lookups into hits;
* ``jobs=1`` (the default) takes a **serial fallback path** with no
  pool, no pickling, and no behaviour change from the historical
  in-line loops;
* results are reassembled in unit order, so the parallel output is
  **bit-identical** to the serial output (asserted by
  ``tests/experiments/test_executor.py`` and ``benchmarks/bench_executor.py``);
* each worker chunk records into its own
  :class:`~repro.obs.registry.MetricsRegistry`; the parent merges the
  snapshots *in unit order* (counters added, spans appended, gauges
  last-write-wins), so merged run-manifest counters and deterministic
  gauges are independent of the worker count.  The execution
  environment itself is described by gauges: ``executor.workers``,
  ``executor.cache.*``.

Worker count resolution: an explicit ``jobs`` argument wins, then the
:class:`~repro.experiments.runner.ExperimentConfig` ``jobs`` field, and
the config default honours the ``REPRO_JOBS`` environment variable
(validated — non-positive or non-integer values are rejected naming the
variable).  The CLI exposes the same knob as ``--jobs``.
"""

from __future__ import annotations

import atexit
import math
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Sequence

from repro.experiments.cache import artifact_cache
from repro.experiments.runner import ExperimentConfig, RunContext, prepare_run
from repro.obs.manifest import WORKER_ENV_VAR
from repro.obs.registry import MetricsRegistry, get_registry, use_registry
from repro.util.validation import env_positive_int

__all__ = [
    "resolve_jobs",
    "map_runs",
    "map_run_points",
    "persistent_pool",
    "shutdown_pool",
]


def resolve_jobs(jobs: int | None = None) -> int:
    """Resolve the worker count: explicit value, else ``REPRO_JOBS``, else 1.

    Raises :class:`ValueError` for non-positive or non-integer values,
    naming the offending source.
    """
    if jobs is None:
        return env_positive_int("REPRO_JOBS", default=1)
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
    if jobs <= 0:
        raise ValueError(f"jobs must be a positive integer, got {jobs}")
    return jobs


# ----------------------------------------------------------------------
# persistent worker pool
# ----------------------------------------------------------------------
_POOL: ProcessPoolExecutor | None = None
_POOL_SIZE = 0


def _worker_init() -> None:
    """Mark the process as an executor worker (manifest paths pick up a
    per-worker suffix — see :func:`repro.obs.manifest.resolve_manifest_path`)."""
    os.environ[WORKER_ENV_VAR] = str(os.getpid())


def _get_pool(jobs: int) -> ProcessPoolExecutor:
    """A persistent pool of at least ``jobs`` workers.

    Persistence is what makes the cross-sweep artifact cache effective
    in parallel mode: workers survive between experiments, so the runs
    they prepared for Figure 1 are cache hits for Figure 2.
    """
    global _POOL, _POOL_SIZE
    if _POOL is None or _POOL_SIZE < jobs:
        if _POOL is not None:
            _POOL.shutdown(wait=True, cancel_futures=True)
        _POOL = ProcessPoolExecutor(
            max_workers=jobs, initializer=_worker_init
        )
        _POOL_SIZE = jobs
    return _POOL


def persistent_pool(jobs: int | None = None) -> ProcessPoolExecutor:
    """The persistent worker pool, for injection into lower layers.

    ``repro.core.shard`` takes its worker pool as a parameter (the
    layering lint forbids it importing this module); callers that want
    sharded policy runs to share this executor's warm workers pass
    ``pool=persistent_pool(n)`` to the policy.  ``jobs`` resolves like
    :func:`resolve_jobs` (explicit → ``REPRO_JOBS`` → 1).
    """
    return _get_pool(resolve_jobs(jobs))


def shutdown_pool() -> None:
    """Tear down the persistent worker pool (and its warm caches).

    Benchmarks call this between timed phases so a "cold" measurement
    really is cold; normal code never needs to."""
    global _POOL, _POOL_SIZE
    if _POOL is not None:
        _POOL.shutdown(wait=True, cancel_futures=True)
        _POOL = None
        _POOL_SIZE = 0


atexit.register(shutdown_pool)


# ----------------------------------------------------------------------
# work-unit execution
# ----------------------------------------------------------------------
def _run_chunk(
    config: ExperimentConfig,
    relaxed: bool,
    fn: Callable[[RunContext, Any], Any],
    chunk: list[tuple[int, int, Any]],
    record: bool,
) -> tuple[list[tuple[int, Any]], dict | None, tuple[int, int]]:
    """Execute one chunk of ``(unit_index, run_index, point)`` units.

    Runs in a worker process.  Returns the payloads tagged with their
    unit index, the chunk's metrics snapshot (when the parent is
    recording), and the worker cache's hit/miss delta for this chunk.
    """
    cache = artifact_cache()
    hits0, misses0 = cache.stats()
    results: list[tuple[int, Any]] = []
    registry = MetricsRegistry() if record else None
    with use_registry(registry):
        for unit_index, run_index, point in chunk:
            ctx = prepare_run(config, run_index, relaxed=relaxed)
            results.append((unit_index, fn(ctx, point)))
    hits1, misses1 = cache.stats()
    snapshot = registry.snapshot() if registry is not None else None
    return results, snapshot, (hits1 - hits0, misses1 - misses0)


class _RunOnly:
    """Adapter making a per-run function usable as a point function.

    A module-level class (rather than a closure) so instances pickle
    into worker processes.
    """

    def __init__(self, fn: Callable[[RunContext], Any]):
        self.fn = fn

    def __call__(self, ctx: RunContext, point: Any) -> Any:
        return self.fn(ctx)


def _chunked(
    units: list[tuple[int, int, Any]], chunksize: int
) -> list[list[tuple[int, int, Any]]]:
    return [units[i : i + chunksize] for i in range(0, len(units), chunksize)]


def map_run_points(
    config: ExperimentConfig,
    fn: Callable[[RunContext, Any], Any],
    points: Sequence[Any],
    *,
    relaxed: bool = True,
    jobs: int | None = None,
    chunksize: int | None = None,
) -> list[list[Any]]:
    """Evaluate ``fn(ctx, point)`` for every ``(run, point)`` pair.

    Returns a ``n_runs x len(points)`` matrix of payloads, indexed
    ``[run_index][point_index]`` — identical regardless of ``jobs``.

    Parameters
    ----------
    config:
        The experiment configuration; ``config.n_runs`` spans the run
        axis and ``config.jobs`` is the default worker count.
    fn:
        A **picklable** (module-level) callable.  It receives a fully
        prepared :class:`~repro.experiments.runner.RunContext` (from the
        artifact cache) and one entry of ``points``, and must depend on
        nothing else — every work unit may execute in a different
        process.
    points:
        The sweep axis.  Entries must be picklable and self-contained
        (tuples carrying the sweep parameters).
    relaxed:
        Passed through to :func:`~repro.experiments.runner.prepare_run`.
    jobs:
        Worker count override; defaults to ``config.jobs``.
    chunksize:
        Units per dispatched task.  The default targets two chunks per
        worker, capped at one run's worth of points so a chunk rarely
        straddles runs (keeping worker cache locality).
    """
    jobs = resolve_jobs(config.jobs if jobs is None else jobs)
    n_points = len(points)
    units = [
        (r * n_points + p, r, points[p])
        for r in range(config.n_runs)
        for p in range(n_points)
    ]
    reg = get_registry()
    if reg.enabled:
        reg.count("experiment.runs", config.n_runs)
        reg.count("executor.units", len(units))

    payloads: list[Any] = [None] * len(units)
    effective_jobs = min(jobs, len(units))
    if effective_jobs <= 1:
        if reg.enabled:
            reg.gauge("executor.workers", 1)
        with reg.span("experiment-sweep"):
            for unit_index, run_index, point in units:
                ctx = prepare_run(config, run_index, relaxed=relaxed)
                payloads[unit_index] = fn(ctx, point)
    else:
        if chunksize is None:
            chunksize = max(
                1, min(n_points, math.ceil(len(units) / (effective_jobs * 2)))
            )
        chunks = _chunked(units, chunksize)
        if reg.enabled:
            reg.gauge("executor.workers", effective_jobs)
            reg.gauge("executor.chunks", len(chunks))
        pool = _get_pool(effective_jobs)
        with reg.span("experiment-sweep"):
            futures = [
                pool.submit(_run_chunk, config, relaxed, fn, chunk, reg.enabled)
                for chunk in chunks
            ]
            worker_hits = worker_misses = 0
            # Collect in chunk (= unit) order: merge order is then
            # deterministic and identical to the serial recording order.
            for future in futures:
                results, snapshot, (hits, misses) = future.result()
                for unit_index, payload in results:
                    payloads[unit_index] = payload
                if snapshot is not None:
                    reg.merge_snapshot(snapshot)
                worker_hits += hits
                worker_misses += misses
        if reg.enabled:
            reg.gauge("executor.cache.worker_hits", worker_hits)
            reg.gauge("executor.cache.worker_misses", worker_misses)

    return [
        payloads[r * n_points : (r + 1) * n_points]
        for r in range(config.n_runs)
    ]


def map_runs(
    config: ExperimentConfig,
    fn: Callable[[RunContext], Any],
    *,
    relaxed: bool = True,
    jobs: int | None = None,
) -> list[Any]:
    """Evaluate ``fn(ctx)`` once per run (one work unit per run).

    The run-granular convenience wrapper over :func:`map_run_points`;
    ``fn`` must be picklable (module-level) just the same.
    """
    matrix = map_run_points(
        config, _RunOnly(fn), [None], relaxed=relaxed, jobs=jobs
    )
    return [row[0] for row in matrix]
