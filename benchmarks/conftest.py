"""Shared benchmark infrastructure.

Every bench module regenerates one paper artifact (a table or figure) and
additionally times a representative unit of work with pytest-benchmark.
The regenerated artifact is

* printed to stdout (visible with ``pytest -s``), and
* written to ``benchmarks/out/<name>.txt`` so results persist without
  capturing flags.

The whole suite runs with the :mod:`repro.obs` observability layer
enabled: alongside each ``.txt`` artifact a structured **run manifest**
(``benchmarks/out/<scale>/manifests/<name>.json``) records per-phase
wall-clock spans, restoration/simulation counters, and provenance
(seed, scale, shards, git SHA), so the performance trajectory stays
diffable across PRs.

Scale knobs (environment; integer values are validated — non-positive
or non-integer settings fail fast naming the variable):

* ``REPRO_BENCH_SCALE``    — ``paper`` | ``small`` (default) | ``tiny``
* ``REPRO_BENCH_RUNS``     — runs per experiment (default 5)
* ``REPRO_BENCH_REQUESTS`` — trace length per server
* ``REPRO_JOBS``           — sweep worker processes (default 1 = serial;
  results are bit-identical — see ``repro.experiments.executor``)

The defaults finish the whole suite in a few minutes; EXPERIMENTS.md
records a ``paper``-scale run.  Ad-hoc paper-scale console logs belong
under ``benchmarks/out/`` (gitignored), not in the repository root.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro import obs
from repro.experiments.runner import ExperimentConfig

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    """The experiment configuration honouring REPRO_BENCH_* overrides."""
    return ExperimentConfig.from_env()


@pytest.fixture(scope="session", autouse=True)
def bench_metrics() -> obs.MetricsRegistry:
    """Session-wide recording registry feeding the run manifests."""
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        yield registry


@pytest.fixture(scope="session")
def save_artifact(bench_config, bench_metrics):
    """Persist + print a regenerated table/figure, plus its manifest.

    Artifacts are namespaced by workload scale (``out/<scale>/…``) so a
    quick small-scale run never clobbers a paper-scale record, and each
    file carries a provenance header.  The metrics collected since the
    previous artifact are snapshotted into
    ``out/<scale>/manifests/<name>.json`` and the registry is cleared, so
    each manifest accounts for exactly one regenerated artifact.
    """
    import os

    scale = os.environ.get("REPRO_BENCH_SCALE", "small").lower()

    def _save(name: str, text: str) -> pathlib.Path:
        out = OUT_DIR / scale
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"{name}.txt"
        header = (
            f"# scale={scale} runs={bench_config.n_runs} "
            f"requests/server={bench_config.params.requests_per_server}\n"
        )
        path.write_text(header + text + "\n")
        manifest = obs.build_manifest(
            bench_metrics,
            run={
                "entry": "benchmarks",
                "artifact": name,
                "scale": scale,
                "runs": bench_config.n_runs,
                "requests_per_server": bench_config.params.requests_per_server,
                "shards": bench_config.shards,
                "seed": bench_config.base_seed,
                "jobs": bench_config.jobs,
            },
        )
        # resolve_manifest_path keeps the per-artifact path unique per
        # executor worker (a "-w<pid>" suffix), so a parallel session
        # can never clobber the parent's manifest.
        obs.write_manifest(
            obs.resolve_manifest_path(
                out / "manifests" / f"{name}.json", name=name
            ),
            manifest,
        )
        bench_metrics.clear()
        print(f"\n{text}\n[saved to {path}]")
        return path

    return _save


@pytest.fixture(scope="session")
def save_timings():
    """Persist machine-readable kernel timings as ``BENCH_<name>.json``.

    The kernel benches (``bench_*_kernel.py``) assert speedup floors;
    this fixture additionally records the raw numbers they measured —
    per-workload/per-phase wall-clock seconds and speedups — under
    ``benchmarks/out/<scale>/BENCH_<name>.json`` together with git/seed
    provenance, so the performance trajectory is diffable across PRs
    without re-parsing the human-readable tables.
    """
    import os

    scale = os.environ.get("REPRO_BENCH_SCALE", "small").lower()

    def _save(name: str, payload: dict) -> pathlib.Path:
        out = OUT_DIR / scale
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"BENCH_{name}.json"
        doc = {
            "bench": name,
            "scale": scale,
            "git_sha": obs.git_revision(),
            **payload,
        }
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"[timings saved to {path}]")
        return path

    return _save
