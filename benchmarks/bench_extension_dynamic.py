"""Extension E1 — dynamic re-replication under access drift.

Not a paper artifact: this bench quantifies the Section 4.1 discussion
("allocation decisions made off-line using the past access patterns may
be inaccurate due to the dynamic nature of the Web, e.g., breaking
news") by comparing allocate-once, nightly re-allocation from observed
statistics, the incremental re-planner, and a perfect-knowledge oracle
across drift regimes.

``test_bench_incremental_vs_full`` additionally times the incremental
re-plan against a from-scratch ``policy.run`` per epoch under gentle
(<5% dirty) drift and asserts the speedup/objective-gap floors; the raw
numbers land in ``BENCH_extension_dynamic.json``.
"""

import os
import time

import numpy as np
import pytest

from repro.core.partition import partition_all
from repro.core.policy import RepositoryReplicationPolicy
from repro.dynamic.drift import rotate_hot_set
from repro.dynamic.epochs import EpochConfig, run_dynamic_experiment
from repro.dynamic.incremental import IncrementalConfig, IncrementalReplanner
from repro.experiments.scaling import (
    clone_with_capacities,
    storage_capacities_for_fraction,
)
from repro.util.tables import format_table
from repro.workload.generator import generate_workload


@pytest.fixture(scope="module")
def dynamic(bench_config, save_artifact):
    results = {}
    for label, drift_every in (("persistent news cycle", 2), ("per-epoch churn", 1)):
        results[label] = run_dynamic_experiment(
            params=bench_config.params,
            config=EpochConfig(
                n_epochs=6,
                drift_every=drift_every,
                requests_per_server=min(
                    bench_config.params.requests_per_server, 1000
                ),
            ),
            seed=bench_config.base_seed,
        )
    table = format_table(
        [
            "drift regime",
            "static vs oracle",
            "periodic vs oracle",
            "incremental vs oracle",
        ],
        [
            (
                label,
                f"{res.staleness_penalty():+.1%}",
                f"{res.periodic_gap():+.1%}",
                f"{res.incremental_gap():+.1%}",
            )
            for label, res in results.items()
        ],
        title="Extension E1: re-allocation cadence vs drift regime",
    )
    details = "\n\n".join(res.render() for res in results.values())
    save_artifact("extension_dynamic", f"{table}\n\n{details}")
    return results


def test_bench_staleness_costs_under_persistent_drift(dynamic):
    res = dynamic["persistent news cycle"]
    assert res.staleness_penalty() > 0.0


def test_bench_periodic_tracks_oracle_under_persistent_drift(dynamic):
    res = dynamic["persistent news cycle"]
    assert res.periodic_gap() < res.staleness_penalty() + 0.05


def test_bench_incremental_tracks_oracle(dynamic):
    res = dynamic["persistent news cycle"]
    assert res.incremental_gap() < res.staleness_penalty() + 0.05


def test_bench_incremental_vs_full(bench_config, save_timings):
    """Per-epoch planning cost: incremental re-plan vs from-scratch run.

    Gentle, localized drift (one server's hot set rotates per epoch —
    a news cycle rarely hits every site at once) on a
    storage-constrained universe.  Floors: at paper scale the
    incremental path must be >= 3x faster per epoch with the objective
    within 1% of the from-scratch solve; smaller scales assert the same
    gap and a sanity speedup >= 1 (fixed per-epoch overheads weigh more
    when the universe is tiny).
    """
    scale = os.environ.get("REPRO_BENCH_SCALE", "small").lower()
    base = generate_workload(bench_config.params, seed=bench_config.base_seed)
    caps = storage_capacities_for_fraction(base, partition_all(base), 0.6)
    truth = clone_with_capacities(base, storage=caps)
    policy = RepositoryReplicationPolicy(shards=bench_config.shards)
    replanner = IncrementalReplanner(
        policy, truth, IncrementalConfig(audit_every=0)
    )

    epochs = []
    for epoch in range(1, 4):
        truth = rotate_hot_set(
            truth,
            fraction=0.5,
            seed=epoch,
            servers=[epoch % truth.n_servers],
        )
        t0 = time.perf_counter()
        stats = replanner.replan(truth)
        t_inc = time.perf_counter() - t0
        t0 = time.perf_counter()
        full = policy.run(truth)
        t_full = time.perf_counter() - t0
        assert stats.mode == "incremental"
        assert stats.dirty_fraction < 0.05
        gap = (replanner.objective - full.objective) / abs(full.objective)
        assert gap <= 0.01, f"epoch {epoch}: objective gap {gap:.3%}"
        epochs.append(
            {
                "epoch": epoch,
                "incremental_s": t_inc,
                "full_s": t_full,
                "speedup": t_full / t_inc,
                "dirty_fraction": stats.dirty_fraction,
                "objective_gap": gap,
            }
        )

    speedup = sum(e["full_s"] for e in epochs) / sum(
        e["incremental_s"] for e in epochs
    )
    save_timings(
        "extension_dynamic",
        {
            "seed": bench_config.base_seed,
            "shards": bench_config.shards,
            "n_pages": truth.n_pages,
            "n_servers": truth.n_servers,
            "drift": "rotate_hot_set(fraction=0.5, servers=[1 of N])",
            "storage_fraction": 0.6,
            "epochs": epochs,
            "speedup": speedup,
        },
    )
    floor = 3.0 if scale == "paper" else 1.0
    assert speedup >= floor, (
        f"incremental replan speedup {speedup:.2f}x below the "
        f"{floor:.1f}x floor at scale={scale}"
    )


def test_bench_dynamic_timing(benchmark, bench_config, dynamic):
    cfg = EpochConfig(n_epochs=2, requests_per_server=300)
    benchmark(
        lambda: run_dynamic_experiment(
            bench_config.params, cfg, seed=bench_config.base_seed
        )
    )
