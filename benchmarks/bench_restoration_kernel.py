"""Kernel bench — batched vs scalar greedy restoration.

Times the two Section 4.2 restoration loops (storage and processing)
on the batched engine and on their scalar oracles
(:mod:`repro.core.reference`) over seeded paper-shaped workloads and asserts the
acceptance floor for :mod:`repro.core.fast_restoration`: **the batched
restoration path is ≥5× scalar on the dense paper-scale workload**, with
bit-identical decision sequences verified in the same run (final
allocations and phase statistics are compared before any timing).

Workloads
---------
``table1``
    The verbatim Table 1 shape.  Its pages reference only 5-45
    compulsory objects, so each greedy event rescores a handful of
    candidates and the batched kernel's bulk scoring has little to
    amortise — the floor here is only "not slower".
``table1-dense``
    Table 1 volume at 10× page density (tenfold objects per page, a
    tenth the pages — the same total entry count).  Restoration cost
    concentrates in candidate rescoring exactly as at table1 scale, but
    per-event batches are wide enough for the vectorised Eq. 3-5
    pipeline to dominate the Python-loop scalar path.  This mirrors
    ``bench_partition_kernel.py``, which pins its ≥5× floor on the 10×
    page-count workload.

Each phase restores against capacities cut to ``FRAC`` of the
unconstrained policy's need (storage bytes and processing load
respectively) — the mid-range operating point of the paper's Figure 1/2
sweeps.  OFF_LOADING has one kernel (the scalar absorption loop, which
outran the deleted batched one), so it has no arm here.

Scale note: ``REPRO_BENCH_SCALE`` does not apply here — the bench always
measures the paper shapes (that is what the acceptance criterion pins);
use ``REPRO_BENCH_KERNEL_REPEATS`` (default 2) to change the timing
repeats.  One repeat already implies a full scalar dense run (~2 min).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.constraints import html_request_load, local_processing_load
from repro.core.cost_model import CostModel
from repro.core.partition import partition_all
from repro.core.reference import (
    restore_processing_reference,
    restore_storage_reference,
)
from repro.core.restoration import (
    restore_processing_capacity,
    restore_storage_capacity,
)
from repro.core.types import SystemModel
from repro.experiments.scaling import clone_with_capacities
from repro.util.tables import format_table
from repro.workload.generator import generate_workload
from repro.workload.params import WorkloadParams

SEED = 123
REPEATS = int(os.environ.get("REPRO_BENCH_KERNEL_REPEATS", "2"))
FRAC = 0.5

WORKLOADS = {
    "table1": WorkloadParams.paper(),
    "table1-dense": WorkloadParams.paper().with_(
        pages_per_server=(40, 80),
        compulsory_per_page=(50, 450),
        optional_per_page=(100, 850),
    ),
    # the k-stream arm: Table 1 volume over a 4-stream replica mesh;
    # the ≥5x floor stays pinned to the k=2 dense arm above.
    "table1-k4": WorkloadParams.paper().with_(n_streams=4, n_repositories=3),
}

def _with_capacities(model: SystemModel, storage=None, processing=None) -> SystemModel:
    """Clone ``model`` with per-server capacity overrides."""
    return clone_with_capacities(model, storage=storage, processing=processing)


def _scenarios(model: SystemModel) -> dict:
    """One constrained model + phase callable per greedy loop."""
    ref = partition_all(model)
    html = model.html_bytes_by_server()
    caps = html + FRAC * ref.stored_bytes_all() + 1.0
    hl = html_request_load(model)
    load = local_processing_load(ref)
    pcaps = np.maximum(hl + FRAC * np.maximum(load - hl, 0.0) + 1e-9, 1e-6)
    return {
        "storage": (
            _with_capacities(model, storage=caps),
            {"scalar": restore_storage_reference, "batched": restore_storage_capacity},
        ),
        "processing": (
            _with_capacities(model, processing=pcaps),
            {
                "scalar": restore_processing_reference,
                "batched": restore_processing_capacity,
            },
        ),
    }


def _assert_identical(a, b, tag: str) -> None:
    assert np.array_equal(a.comp_local, b.comp_local), f"{tag}: comp_local"
    assert np.array_equal(a.opt_local, b.opt_local), f"{tag}: opt_local"
    for i in range(a.model.n_servers):
        assert a.replicas[i] == b.replicas[i], f"{tag}: replicas[{i}]"


@pytest.fixture(scope="module")
def kernel_results(save_artifact, save_timings):
    rows = []
    results: dict[str, dict] = {}
    for wname, params in WORKLOADS.items():
        model = generate_workload(
            params.with_(
                storage_capacity=float("inf"), processing_capacity=float("inf")
            ),
            seed=SEED,
        )
        results[wname] = {"phases": {}, "streams": model.n_streams}
        totals = {"scalar": 0.0, "batched": 0.0}
        for phase, (m2, arms) in _scenarios(model).items():
            cost = CostModel(m2)
            best: dict[str, float] = {}
            first: dict[str, tuple] = {}
            for kern in ("scalar", "batched"):
                t_best = float("inf")
                for rep in range(REPEATS):
                    alloc = partition_all(m2)
                    t0 = time.perf_counter()
                    stats = arms[kern](alloc, cost)
                    t_best = min(t_best, time.perf_counter() - t0)
                    if rep == 0:
                        first[kern] = (alloc, stats)
                best[kern] = t_best
            # decision identity, verified on the same runs just timed
            tag = f"{wname}/{phase}"
            _assert_identical(first["scalar"][0], first["batched"][0], tag)
            assert first["scalar"][1] == first["batched"][1], (
                f"{tag}: phase statistics diverged"
            )
            speedup = best["scalar"] / best["batched"]
            results[wname]["phases"][phase] = {
                "scalar_seconds": best["scalar"],
                "batched_seconds": best["batched"],
                "speedup": speedup,
            }
            totals["scalar"] += best["scalar"]
            totals["batched"] += best["batched"]
            rows.append(
                (
                    wname,
                    phase,
                    f"{best['scalar']:.2f}",
                    f"{best['batched']:.2f}",
                    f"{speedup:.1f}x",
                )
            )
        combined = totals["scalar"] / totals["batched"]
        results[wname]["scalar_seconds"] = totals["scalar"]
        results[wname]["batched_seconds"] = totals["batched"]
        results[wname]["combined_speedup"] = combined
        rows.append(
            (
                wname,
                "combined",
                f"{totals['scalar']:.2f}",
                f"{totals['batched']:.2f}",
                f"{combined:.1f}x",
            )
        )
    table = format_table(
        ["workload", "phase", "scalar s", "batched s", "speedup"],
        rows,
        title="restoration kernel wall-clock (best of "
        f"{REPEATS}, bit-identical decisions)",
    )
    save_artifact("restoration_kernel", table)
    save_timings(
        "restoration_kernel",
        {"seed": SEED, "repeats": REPEATS, "frac": FRAC, "workloads": results},
    )
    return results


def test_bench_batched_at_least_5x_on_dense_workload(kernel_results):
    """The ISSUE 4 acceptance floor: ≥5× on the dense paper workload."""
    assert kernel_results["table1-dense"]["combined_speedup"] >= 5.0


def test_bench_batched_not_slower_at_table1_scale(kernel_results):
    """Table 1's 5-45 objects/page leave little to vectorise per event;
    the batched path must still win overall at that scale."""
    assert kernel_results["table1"]["combined_speedup"] > 1.0


def test_bench_multipath_batched_not_slower_at_k4(kernel_results):
    """The k-stream restoration arm: batched must win at k=4 too."""
    k4 = kernel_results["table1-k4"]
    assert k4["streams"] == 4
    assert sorted(k4["phases"]) == ["processing", "storage"]
    assert k4["combined_speedup"] > 1.0


def test_bench_batched_kernel_timing(benchmark):
    """pytest-benchmark probe: one batched storage restoration."""
    model = generate_workload(
        WorkloadParams.small().with_(storage_capacity=float("inf")),
        seed=SEED,
    )
    ref = partition_all(model)
    caps = model.html_bytes_by_server() + FRAC * ref.stored_bytes_all() + 1.0
    m2 = _with_capacities(model, storage=caps)
    cost = CostModel(m2)

    def run():
        alloc = partition_all(m2)
        restore_storage_capacity(alloc, cost)

    benchmark(run)
