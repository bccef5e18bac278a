"""Compute (and optionally refresh) the golden regression snapshots.

The goldens pin the *numerical results* of the replication pipeline on
seeded workloads so performance PRs cannot silently change allocations:

* ``table1_unconstrained`` — pure PARTITION on the seeded Table 1
  workload (all capacities relaxed): objective values ``D``/``D1``/``D2``
  and the per-server replica-set sizes.
* ``small_constrained_frac50`` — the full policy on the seeded ``small``
  workload with per-server storage clamped to 50% of the unconstrained
  need, exercising storage restoration and the re-partition path.
* ``small_processing_frac50`` — per-server processing clamped to 50% of
  the unconstrained MO-download load, exercising processing restoration
  (greedy remote switches + eager sibling rescoring).
* ``small_offload_frac50`` — repository capacity clamped to 50% of the
  post-restoration repository load, exercising the OFF_LOADING
  negotiation and its server-side absorption loop.
* ``dynamic_incremental`` — four epochs of the incremental re-planner
  under localized hot-set rotation at 60% storage, pinning the dirty-set
  detection, per-server rebuild, and churn accounting of the dynamic
  extension.

Refreshing (ONLY after an intentional algorithmic change, never to make
a perf PR pass):

    PYTHONPATH=src python -m tests.regression.refresh_goldens

then commit the updated ``goldens.json`` together with an explanation of
why the numbers legitimately moved.  ``test_golden_table1.py`` recomputes
the same quantities in every arm of :mod:`tests.reference_arm` — the
default ``batched`` engine, the ``scalar`` oracles of
:mod:`repro.core.reference` and (for the full-policy scenarios) the
``sharded`` run on per-server shards — and compares all of them against
the *same* snapshot: the goldens are engine-independent by contract.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.core.partition import partition_all
from repro.core.policy import RepositoryReplicationPolicy
from repro.core.reference import partition_all_reference
from repro.experiments.scaling import (
    clone_with_capacities,
    processing_capacities_for_fraction,
    repo_capacity_for_fraction,
    storage_capacities_for_fraction,
)
from repro.workload.generator import generate_workload
from repro.workload.params import WorkloadParams
from tests.reference_arm import arm, arm_shards

GOLDEN_PATH = pathlib.Path(__file__).parent / "goldens.json"

#: Workload seed shared by snapshot and test.
SEED = 123


def _relaxed(params: WorkloadParams) -> WorkloadParams:
    return params.with_(
        storage_capacity=float("inf"),
        processing_capacity=float("inf"),
        repository_capacity=float("inf"),
    )


def _partition(model, kernel: str):
    """The arm's PARTITION: the scalar oracle for ``"scalar"``."""
    if kernel == "scalar":
        return partition_all_reference(model)
    return partition_all(model)


def _solve(model, kernel: str):
    """One full policy run in the arm ``kernel``."""
    with arm(kernel):
        return RepositoryReplicationPolicy(shards=arm_shards(kernel)).run(model)


def compute_table1_unconstrained(kernel: str = "batched") -> dict:
    """Pure PARTITION on the relaxed Table 1 workload."""
    model = generate_workload(_relaxed(WorkloadParams.paper()), seed=SEED)
    cost = RepositoryReplicationPolicy().cost_model(model)
    alloc = _partition(model, kernel)
    return {
        "D": cost.D(alloc),
        "D1": cost.D1(alloc),
        "D2": cost.D2(alloc),
        "replica_sizes": [len(r) for r in alloc.replicas],
        "comp_local": int(alloc.comp_local.sum()),
        "opt_local": int(alloc.opt_local.sum()),
    }


def compute_small_constrained(kernel: str = "batched") -> dict:
    """Full policy on the small workload at 50% storage."""
    model = generate_workload(_relaxed(WorkloadParams.small()), seed=SEED)
    reference = _partition(model, kernel)
    caps = storage_capacities_for_fraction(model, reference, 0.5)
    clone = clone_with_capacities(model, storage=caps)
    result = _solve(clone, kernel)
    cost = RepositoryReplicationPolicy().cost_model(clone)
    alloc = result.allocation
    return {
        "D": cost.D(alloc),
        "D1": cost.D1(alloc),
        "D2": cost.D2(alloc),
        "replica_sizes": [len(r) for r in alloc.replicas],
        "comp_local": int(alloc.comp_local.sum()),
        "opt_local": int(alloc.opt_local.sum()),
        "evictions": result.storage_stats.evictions,
        "repartitioned_pages": result.storage_stats.repartitioned_pages,
    }


def compute_small_processing(kernel: str = "batched") -> dict:
    """Full policy on the small workload at 50% processing headroom."""
    model = generate_workload(_relaxed(WorkloadParams.small()), seed=SEED)
    reference = _partition(model, kernel)
    caps = np.maximum(
        processing_capacities_for_fraction(model, 0.5, reference) + 1e-9,
        1e-6,
    )
    clone = clone_with_capacities(model, processing=caps)
    result = _solve(clone, kernel)
    cost = RepositoryReplicationPolicy().cost_model(clone)
    alloc = result.allocation
    return {
        "D": cost.D(alloc),
        "comp_local": int(alloc.comp_local.sum()),
        "opt_local": int(alloc.opt_local.sum()),
        "replica_sizes": [len(r) for r in alloc.replicas],
        "switches": result.processing_stats.switches,
        "deallocations": result.processing_stats.deallocations,
    }


def compute_small_offload(kernel: str = "batched") -> dict:
    """Full policy on the small workload at 50% repository capacity."""
    model = generate_workload(_relaxed(WorkloadParams.small()), seed=SEED)
    reference = _partition(model, kernel)
    repo_cap = repo_capacity_for_fraction(reference, 0.5)
    clone = clone_with_capacities(model, repo_capacity=repo_cap)
    result = _solve(clone, kernel)
    cost = RepositoryReplicationPolicy().cost_model(clone)
    alloc = result.allocation
    out = result.offload_outcome
    return {
        "D": cost.D(alloc),
        "comp_local": int(alloc.comp_local.sum()),
        "opt_local": int(alloc.opt_local.sum()),
        "restored": out.restored,
        "rounds": out.rounds,
        "messages": out.messages,
        "final_repo_load": out.final_repo_load,
        "total_absorbed": out.total_absorbed,
    }


def compute_dynamic_incremental(kernel: str = "batched") -> dict:
    """Incremental re-planner trajectory on the seeded small workload.

    Four epochs of localized hot-set rotation (one server per epoch) at
    60% storage: every epoch stays on the incremental path, pinning the
    dirty-set detection, the per-server rebuild, the localized Eq. 8-10
    repair, and the churn accounting.
    """
    model = generate_workload(_relaxed(WorkloadParams.small()), seed=SEED)
    reference = _partition(model, kernel)
    caps = storage_capacities_for_fraction(model, reference, 0.6)
    truth = clone_with_capacities(model, storage=caps)
    with arm(kernel):
        return _replan_epochs(truth, kernel)


def _replan_epochs(truth, kernel: str) -> dict:
    from repro.dynamic.drift import rotate_hot_set
    from repro.dynamic.incremental import (
        IncrementalConfig,
        IncrementalReplanner,
    )

    policy = RepositoryReplicationPolicy(shards=arm_shards(kernel))
    replanner = IncrementalReplanner(
        policy, truth, IncrementalConfig(audit_every=0)
    )
    epochs = []
    for epoch in range(1, 5):
        truth = rotate_hot_set(
            truth, fraction=0.5, seed=epoch, servers=[epoch % truth.n_servers]
        )
        stats = replanner.replan(truth)
        epochs.append(
            {
                "mode": stats.mode,
                "n_dirty": stats.n_dirty,
                "rebuilt_servers": list(stats.rebuilt_servers),
                "objective": stats.objective,
                "churn_bytes_added": stats.churn_bytes_added,
                "churn_bytes_removed": stats.churn_bytes_removed,
            }
        )
    return {
        "epochs": epochs,
        "full_resolves": replanner.full_resolves,
        "incremental_replans": replanner.incremental_replans,
    }


def compute_goldens(kernel: str = "batched") -> dict:
    return {
        "seed": SEED,
        "table1_unconstrained": compute_table1_unconstrained(kernel),
        "small_constrained_frac50": compute_small_constrained(kernel),
        "small_processing_frac50": compute_small_processing(kernel),
        "small_offload_frac50": compute_small_offload(kernel),
        "dynamic_incremental": compute_dynamic_incremental(kernel),
    }


def main() -> None:
    goldens = compute_goldens()
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    print(json.dumps(goldens, indent=2))


if __name__ == "__main__":
    main()
