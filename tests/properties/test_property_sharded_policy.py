"""Differential shard-identity harness for the sharded policy kernel.

The contract of :mod:`repro.core.shard` is **bit-identity**: for any
model and any valid shard count, ``shards=N`` must reproduce the
in-process run — the same allocation (comp/opt marks *and*
replica sets), the same objectives, the same phase list, the same
restoration statistics and the same off-loading outcome, including every
greedy tie-break at shard boundaries.  These tests are the oracle for
that contract: random small universes with randomly tightened capacity
constraints are run through both kernels and compared field by field.

Shard counts exercised per example: ``1`` (the degenerate single-group
plan), ``2``, ``n_servers`` (one server per shard) and a ragged draw in
between — so group boundaries land on every kind of server split the
planner can produce.

The sharded runs use :class:`~repro.core.shard.InlineShardPool`:
Hypothesis drives hundreds of examples, and the pool-injection seam is
exactly what lets the *reconcile logic* be tested without paying for
process forks.  (Real-subprocess identity is covered once, at fixed
scale, by ``tests/core/test_shard_reconcile.py`` and the benchmark's
identity assertion.)

Two sub-contracts get their own differential properties on top of the
end-to-end runs: the **shard-local context build** (PARTITION and
optional marking over a :func:`~repro.core.context.EvalContext.for_servers`
restriction must map back through the global entry maps to the masked
full-model computation, for *any* server subset) and the
**scatter/gather OFF_LOADING split** (``offload_repository`` driven by
the process-parallel :class:`~repro.core.shard._ShardedScatter` must
leave the allocation and outcome bit-identical to the serial default).

A third property pins the **delta-round wire protocol** itself: random
off-loading sequences replayed through worker-resident delta shipping —
with resyncs randomly forced every 1-3 batches — and through the
full-state-per-batch baseline (``resync_every=1``) must land on the
same marks, replica sets, achieved loads and outcome as the serial
reference, for any shard plan the planner can produce.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import repository_load
from repro.core.context import EvalContext
from repro.core.cost_model import CostModel
from repro.core.fast_partition import (
    optional_marks_batched,
    partition_pages_batched,
)
from repro.core.offload import OffloadConfig, offload_repository
from repro.core.partition import partition_all
from repro.core.policy import PolicyResult, RepositoryReplicationPolicy
from repro.core.shard import (
    InlineShardPool,
    _ShardedScatter,
    _ShardOptions,
    plan_shards,
)
from repro.experiments.scaling import (
    clone_with_capacities,
    processing_capacities_for_fraction,
    repo_capacity_for_fraction,
    storage_capacities_for_fraction,
)
from tests.properties.strategies import system_models


def _assert_bit_identical(
    sharded: PolicyResult, batched: PolicyResult, label: str
) -> None:
    """Every decision-determined field of the two results must match."""
    a, b = sharded.allocation, batched.allocation
    assert np.array_equal(a.comp_local, b.comp_local), label
    assert np.array_equal(a.opt_local, b.opt_local), label
    for i in range(a.model.n_servers):
        assert a.replicas[i] == b.replicas[i], label
    assert sharded.objective == batched.objective, label
    assert (
        sharded.unconstrained_objective == batched.unconstrained_objective
    ), label
    assert sharded.phases_run == batched.phases_run, label
    assert sharded.storage_stats == batched.storage_stats, label
    assert sharded.processing_stats == batched.processing_stats, label
    assert sharded.offload_outcome == batched.offload_outcome, label
    assert sharded.constraints.ok == batched.constraints.ok, label
    a.check_invariants()


def _shard_counts(n_servers: int, data) -> list[int]:
    """1, 2, S and one ragged draw — deduplicated, ascending."""
    counts = {1, n_servers, min(2, n_servers)}
    counts.add(data.draw(st.integers(1, n_servers), label="ragged shards"))
    return sorted(counts)


def _run_all_shardings(model, data, optional_policy: str = "all") -> None:
    batched = RepositoryReplicationPolicy(
        optional_policy=optional_policy
    ).run(model)
    for shards in _shard_counts(model.n_servers, data):
        sharded = RepositoryReplicationPolicy(
            optional_policy=optional_policy,
            shards=shards,
            pool=InlineShardPool(),
        ).run(model)
        _assert_bit_identical(
            sharded, batched, f"shards={shards} of {model.n_servers}"
        )


@given(system_models(), st.data())
@settings(max_examples=40, deadline=None)
def test_sharded_identical_unconstrained(model, data):
    """Infinite capacities: the pipeline reduces to pure PARTITION, and
    every sharding of it must scatter back to the same allocation."""
    _run_all_shardings(model, data)


@given(
    system_models(max_servers=4, max_pages=10),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.05, 1.0),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_sharded_identical_constrained(model, sfrac, pfrac, rfrac, data):
    """Randomly tightened storage / processing / repository capacities:
    the restorations run inside shards, off-loading replays in the
    parent — decisions, stats and tie-breaks must match the reference."""
    ref = partition_all(model)
    m2 = clone_with_capacities(
        model,
        storage=storage_capacities_for_fraction(model, ref, sfrac) + 1.0,
        processing=processing_capacities_for_fraction(model, pfrac, ref) + 1e-9,
        repo_capacity=max(repo_capacity_for_fraction(ref, rfrac), 1e-6),
    )
    _run_all_shardings(m2, data)


@given(system_models(max_servers=4), st.floats(0.0, 1.0), st.data())
@settings(max_examples=25, deadline=None)
def test_sharded_identical_storage_only(model, frac, data):
    """Storage-only pressure with ``optional_policy="none"`` — the
    eviction/re-partition greedy is the most tie-break-sensitive loop."""
    ref = partition_all(model, optional_policy="none")
    m2 = clone_with_capacities(
        model,
        storage=storage_capacities_for_fraction(model, ref, frac) + 1.0,
    )
    _run_all_shardings(m2, data, optional_policy="none")


@given(system_models(), st.data())
@settings(max_examples=40, deadline=None)
def test_plan_shards_partitions_servers(model, data):
    """The shard plan is a true partition of the server set: every
    server in exactly one group, every group non-empty, ids ascending,
    and the plan is deterministic for equal models."""
    shards = data.draw(
        st.integers(1, model.n_servers), label="shard count"
    )
    groups = plan_shards(model, shards)
    assert len(groups) == shards
    seen = [i for g in groups for i in g]
    assert sorted(seen) == list(range(model.n_servers))
    for g in groups:
        assert len(g) >= 1
        assert list(g) == sorted(g)
    assert groups == plan_shards(model, shards)


@given(system_models(max_servers=4, max_pages=10), st.data())
@settings(max_examples=40, deadline=None)
def test_shard_local_context_matches_masked_full(model, data):
    """Shard-local context build: PARTITION and optional marking over a
    ``for_servers`` restriction, mapped back through the context's
    global entry maps, equal the full-model computation masked to the
    subset's entries — for any non-empty server subset."""
    servers = tuple(
        sorted(
            data.draw(
                st.sets(
                    st.integers(0, model.n_servers - 1), min_size=1
                ),
                label="server subset",
            )
        )
    )
    ctx = EvalContext.for_servers(model, servers)
    sub = ctx.model

    member = np.zeros(model.n_servers, dtype=bool)
    member[list(servers)] = True
    page_member = member[model.page_server]
    comp_member = page_member[model.comp_pages]
    opt_member = page_member[model.opt_pages]

    assert sub.n_servers == len(servers)
    assert sub.n_pages == int(page_member.sum())
    np.testing.assert_array_equal(
        ctx.global_comp_entries, np.flatnonzero(comp_member)
    )
    np.testing.assert_array_equal(
        ctx.global_opt_entries, np.flatnonzero(opt_member)
    )

    full_marks, _, _, _ = partition_pages_batched(
        model, page_ids=np.flatnonzero(page_member)
    )
    sub_marks, _, _, _ = partition_pages_batched(sub)
    got = np.zeros(len(model.comp_objects), dtype=bool)
    got[ctx.global_comp_entries[sub_marks]] = True
    np.testing.assert_array_equal(got, full_marks)

    full_opt = optional_marks_batched(model, "beneficial") & opt_member
    sub_opt = optional_marks_batched(sub, "beneficial")
    got_opt = np.zeros(len(model.opt_objects), dtype=bool)
    got_opt[ctx.global_opt_entries[sub_opt]] = True
    np.testing.assert_array_equal(got_opt, full_opt)


@given(system_models(max_servers=4, max_pages=10), st.floats(0.05, 0.9))
@settings(max_examples=25, deadline=None)
def test_parallel_scatter_matches_serial_offload(model, rfrac):
    """Scatter/gather OFF_LOADING: ``offload_repository`` driven by the
    process-parallel scatter (one single-server restricted absorption
    per addressed server, deltas applied in plan order) must leave the
    allocation and the outcome bit-identical to the serial default."""
    serial_alloc = partition_all(model, optional_policy="none")
    before = repository_load(serial_alloc)
    if before <= 0:
        return
    capacity = max(rfrac * before, 1e-6)
    cost = CostModel(model)
    serial_out = offload_repository(
        serial_alloc, cost, OffloadConfig(), capacity=capacity
    )

    par_alloc = partition_all(model, optional_policy="none")
    opts = _ShardOptions(
        alpha1=2.0, alpha2=1.0, optional_policy="none", record=False
    )
    scatter = _ShardedScatter(
        InlineShardPool(), ("model", model), model, opts
    )
    par_out = offload_repository(
        par_alloc, cost, OffloadConfig(), capacity=capacity, scatter=scatter
    )

    assert np.array_equal(serial_alloc.comp_local, par_alloc.comp_local)
    assert np.array_equal(serial_alloc.opt_local, par_alloc.opt_local)
    for i in range(model.n_servers):
        assert serial_alloc.replicas[i] == par_alloc.replicas[i]
    assert serial_out == par_out
    par_alloc.check_invariants()


@given(
    system_models(max_servers=4, max_pages=10),
    st.floats(0.05, 0.9),
    st.data(),
)
@settings(max_examples=25, deadline=None)
def test_delta_rounds_identical_to_full_state_and_serial(model, rfrac, data):
    """Delta-round wire protocol: random OFF_LOADING sequences replayed
    through worker-resident delta shipping (resyncs randomly forced
    every 1-3 batches, or never) and through the full-state-per-batch
    baseline must both match the serial reference bit for bit — marks,
    replica sets, achieved loads and outcome — under any shard plan.
    A resync may only ever change transport cost, never decisions."""
    serial_alloc = partition_all(model, optional_policy="none")
    before = repository_load(serial_alloc)
    if before <= 0:
        return
    capacity = max(rfrac * before, 1e-6)
    cost = CostModel(model)
    serial_out = offload_repository(
        serial_alloc, cost, OffloadConfig(), capacity=capacity
    )

    opts = _ShardOptions(
        alpha1=2.0, alpha2=1.0, optional_policy="none", record=False
    )
    groups = plan_shards(
        model, data.draw(st.integers(1, model.n_servers), label="shards")
    )
    resync_every = data.draw(
        st.none() | st.integers(1, 3), label="resync every"
    )
    arms = {
        "delta": {"groups": groups, "resync_every": resync_every},
        "full": {"groups": groups, "resync_every": 1},
    }
    for label, kwargs in arms.items():
        alloc = partition_all(model, optional_policy="none")
        scatter = _ShardedScatter(
            InlineShardPool(), ("model", model), model, opts, **kwargs
        )
        out = offload_repository(
            alloc, cost, OffloadConfig(), capacity=capacity, scatter=scatter
        )
        assert np.array_equal(serial_alloc.comp_local, alloc.comp_local), label
        assert np.array_equal(serial_alloc.opt_local, alloc.opt_local), label
        for i in range(model.n_servers):
            assert serial_alloc.replicas[i] == alloc.replicas[i], label
        assert out == serial_out, label
        alloc.check_invariants()
        # transport accounting: one record per round, both sides finite
        # and non-negative (the delta side includes sync payloads)
        for rec in scatter.rounds_bytes:
            assert rec["delta_bytes"] >= 0.0
            assert rec["full_bytes"] >= 0.0
