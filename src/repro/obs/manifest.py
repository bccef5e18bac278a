"""Structured run manifests: one JSON document per policy/experiment run.

A manifest is the machine-readable record the benchmark suite and the
CLI emit so the performance trajectory of this repository stays diffable
across PRs: what ran (command, seed, workload scale, shards, git SHA),
how long each phase took (wall-clock spans from the active
:class:`~repro.obs.registry.MetricsRegistry`), and what the run did
(restoration counters, off-loading rounds, simulation percentiles,
constraint status).

Schema (``repro/run-manifest-v1``)
----------------------------------
::

    {
      "schema": "repro/run-manifest-v1",
      "created_at": "2026-08-05T12:00:00Z",   # UTC, ISO-8601
      "git_sha": "abc123..." | null,          # null outside a checkout
      "run": {...},                            # caller-supplied identity:
                                               # command, seed, scale,
                                               # shards, n_runs, ...
      "phases": [                              # every span, in completion
        {"name": "...", "path": "policy/partition", "seconds": 0.12}
      ],
      "phase_seconds": {"policy/partition": 0.12, ...},  # per-path totals
      "counters": {"restoration.storage.evictions": 42.0, ...},
      "gauges": {"policy.objective": 123.4, ...},
      "policy": {...},                         # optional PolicyResult digest
      "simulation": {...}                      # optional SimulationResult digest
    }

``policy`` and ``simulation`` sections are populated from live result
objects when the caller has them (:func:`policy_section`,
:func:`simulation_section`); registry counters/gauges carry the same
information in aggregate form when it does not.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import time
from typing import Any

from repro.obs.registry import MetricsRegistry

__all__ = [
    "SCHEMA",
    "ENV_VAR",
    "WORKER_ENV_VAR",
    "build_manifest",
    "write_manifest",
    "policy_section",
    "simulation_section",
    "resolve_manifest_path",
    "git_revision",
]

SCHEMA = "repro/run-manifest-v1"

#: Environment variable enabling metrics globally: its value is the
#: manifest output path (a ``.json`` file, or a directory that receives
#: one timestamped manifest per run).
ENV_VAR = "REPRO_METRICS"

#: Set (to the worker's pid) inside the parallel experiment executor's
#: worker processes.  :func:`resolve_manifest_path` appends a
#: ``-w<pid>`` suffix to explicit ``.json`` targets when it is present,
#: so concurrent workers can never clobber each other's manifests.
WORKER_ENV_VAR = "REPRO_EXECUTOR_WORKER"


def git_revision(cwd: str | os.PathLike | None = None) -> str | None:
    """Current git commit SHA, or ``None`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def policy_section(result: Any) -> dict:
    """Digest a :class:`~repro.core.policy.PolicyResult` for the manifest."""
    storage = result.storage_stats
    processing = result.processing_stats
    section = {
        "objective": result.objective,
        "unconstrained_objective": result.unconstrained_objective,
        "feasible": result.feasible,
        "phases_run": list(result.phases_run),
        "phase_seconds": dict(result.phase_seconds),
        "constraints": {
            "storage_ok": result.constraints.storage_ok,
            "local_ok": result.constraints.local_ok,
            "repo_ok": result.constraints.repo_ok,
        },
        "storage_restoration": {
            "evictions": storage.evictions,
            "repartitioned_pages": storage.repartitioned_pages,
            "bytes_freed": storage.bytes_freed,
            "objective_delta": storage.objective_delta,
        },
        "processing_restoration": {
            "switches": processing.switches,
            "deallocations": processing.deallocations,
            "load_shed": processing.load_shed,
            "objective_delta": processing.objective_delta,
        },
    }
    offload = result.offload_outcome
    section["offload"] = (
        None
        if offload is None
        else {
            "restored": offload.restored,
            "rounds": offload.rounds,
            "messages": offload.messages,
            "initial_repo_load": offload.initial_repo_load,
            "final_repo_load": offload.final_repo_load,
            "total_absorbed": offload.total_absorbed,
        }
    )
    return section


def simulation_section(sim: Any) -> dict:
    """Digest a :class:`~repro.simulation.metrics.SimulationResult`."""
    quantiles = (50, 90, 95, 99)
    values = sim.percentile_page_times(quantiles)
    return {
        "n_requests": sim.n_requests,
        "n_optional_downloads": len(sim.optional_times),
        "mean_page_time": sim.mean_page_time,
        "mean_optional_time": sim.mean_optional_time,
        "percentiles": {
            f"p{q}": float(v) for q, v in zip(quantiles, values)
        },
        "bottleneck_fraction_remote": sim.bottleneck_fraction_remote(),
    }


def build_manifest(
    registry: MetricsRegistry,
    run: dict | None = None,
    policy: Any | None = None,
    simulation: Any | None = None,
) -> dict:
    """Assemble a manifest document from the registry and run identity.

    Parameters
    ----------
    registry:
        The metrics registry that observed the run.
    run:
        Caller-supplied identity fields (command, seed, scale, shards,
        n_runs, ...) — copied verbatim under ``"run"``.
    policy:
        Optional :class:`~repro.core.policy.PolicyResult` to digest.
    simulation:
        Optional :class:`~repro.simulation.metrics.SimulationResult`.
    """
    doc: dict = {
        "schema": SCHEMA,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": git_revision(),
        "run": dict(run or {}),
        "phases": [rec.as_dict() for rec in registry.spans],
        "phase_seconds": registry.phase_seconds(),
        "counters": dict(registry.counters),
        "gauges": dict(registry.gauges),
    }
    if policy is not None:
        doc["policy"] = policy_section(policy)
    if simulation is not None:
        doc["simulation"] = simulation_section(simulation)
    return doc


def resolve_manifest_path(
    spec: str | os.PathLike, name: str = "run"
) -> pathlib.Path:
    """Turn a ``--metrics-out`` / ``REPRO_METRICS`` value into a file path.

    A value ending in ``.json`` names the file directly; anything else is
    treated as a directory receiving ``<name>-<utc-timestamp>.json``
    (collisions disambiguated by pid so parallel runs never clobber).
    Inside an executor worker process (``REPRO_EXECUTOR_WORKER`` set)
    explicit ``.json`` targets additionally gain a ``-w<pid>`` suffix,
    keeping per-artifact manifest paths unique per worker/run.
    """
    path = pathlib.Path(spec)
    worker = os.environ.get(WORKER_ENV_VAR, "").strip()
    if path.suffix == ".json":
        if worker:
            return path.with_name(f"{path.stem}-w{worker}{path.suffix}")
        return path
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    return path / f"{name}-{stamp}-{os.getpid()}.json"


def write_manifest(
    path: str | os.PathLike, manifest: dict
) -> pathlib.Path:
    """Serialise ``manifest`` to ``path`` (parents created), return it."""
    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return out
