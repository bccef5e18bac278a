"""Edge-case tests for the shard planner and the reconcile step.

The property harness (``tests/properties/test_property_sharded_policy.py``)
sweeps random universes; this file pins the *structural* corners the
sharded kernel must survive:

* a shard whose servers own **zero pages** (a structured no-op worker),
* one server **dominating** the work — the planner must isolate it and
  the merge must still replay the global greedy order,
* **exact-capacity boundaries** straddling shards (one server exactly at
  its Eq. 10 capacity, another just below, in different groups),
* invalid shard counts (``shards > n_servers``, non-positive) raising
  validated errors,
* **real subprocess** identity runs, so the pickle → worker →
  reconcile path and the off-loading delta rounds (steady state and
  forced resyncs) are covered outside the inline pool,
* the **delta-round scatter** (worker-resident shard state, batched
  absorptions, epoch/resync protocol) driven deterministically —
  steady-state batching and forced resyncs,
* **fan-out failure**: a dying shard's exception reaches the caller.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from repro.core import shard
from repro.core.constraints import repository_load
from repro.core.cost_model import CostModel
from repro.core.offload import OffloadConfig, offload_repository
from repro.core.partition import partition_all
from repro.core.policy import RepositoryReplicationPolicy
from repro.core.shard import (
    InlineShardPool,
    _Lru,
    _run_shard,
    _ShardedScatter,
    _ShardOptions,
    plan_shards,
    resolve_shards,
    run_sharded_policy,
    shutdown_shard_pool,
)
from repro.core.types import (
    ObjectSpec,
    PageSpec,
    RepositorySpec,
    ServerSpec,
    SystemModel,
)
from repro.experiments.scaling import (
    clone_with_capacities,
    storage_capacities_for_fraction,
)
from repro.workload import WorkloadParams, generate_workload
from tests.conftest import build_micro_model


def _server(i, rate=10.0, storage=math.inf, processing=math.inf):
    return ServerSpec(
        server_id=i,
        storage_capacity=storage,
        processing_capacity=processing,
        rate=rate,
        overhead=1.0,
        repo_rate=2.0,
        repo_overhead=2.0,
    )


def _page(j, server, compulsory, optional=(), freq=1.0):
    return PageSpec(
        page_id=j,
        server=server,
        html_size=100,
        frequency=freq,
        compulsory=tuple(compulsory),
        optional=tuple(optional),
        optional_prob=0.5 if optional else 0.0,
    )


def _model_with_idle_server() -> SystemModel:
    """Three servers; server 1 owns no pages at all."""
    servers = [_server(0), _server(1), _server(2)]
    objects = [ObjectSpec(k, 100 * (k + 1)) for k in range(4)]
    pages = [
        _page(0, 0, (0, 1), optional=(3,)),
        _page(1, 2, (1, 2)),
        _page(2, 2, (0, 3)),
    ]
    return SystemModel(servers, RepositorySpec(), pages, objects)


def _assert_identical(sharded, batched):
    a, b = sharded.allocation, batched.allocation
    assert np.array_equal(a.comp_local, b.comp_local)
    assert np.array_equal(a.opt_local, b.opt_local)
    for i in range(a.model.n_servers):
        assert a.replicas[i] == b.replicas[i]
    assert sharded.objective == batched.objective
    assert sharded.unconstrained_objective == batched.unconstrained_objective
    assert sharded.phases_run == batched.phases_run
    assert sharded.storage_stats == batched.storage_stats
    assert sharded.processing_stats == batched.processing_stats
    assert sharded.offload_outcome == batched.offload_outcome
    a.check_invariants()


class TestEmptyShard:
    def test_plan_gives_idle_server_its_own_group(self):
        model = _model_with_idle_server()
        groups = plan_shards(model, 3)
        assert sorted(i for g in groups for i in g) == [0, 1, 2]
        assert (1,) in groups  # zero-weight server isolated, not dropped

    def test_identity_with_pageless_server(self):
        model = _model_with_idle_server()
        batched = RepositoryReplicationPolicy().run(model)
        for shards in (1, 2, 3):
            sharded = RepositoryReplicationPolicy(
                shards=shards, pool=InlineShardPool()
            ).run(model)
            _assert_identical(sharded, batched)
            assert sharded.allocation.replicas[1] == set()

    def test_identity_constrained_with_pageless_server(self):
        model = _model_with_idle_server()
        ref = partition_all(model)
        m2 = clone_with_capacities(
            model,
            storage=storage_capacities_for_fraction(model, ref, 0.4) + 1.0,
        )
        batched = RepositoryReplicationPolicy().run(m2)
        assert "storage-restoration" in batched.phases_run
        sharded = RepositoryReplicationPolicy(
            shards=3, pool=InlineShardPool()
        ).run(m2)
        _assert_identical(sharded, batched)


class TestDominantShard:
    def test_planner_isolates_the_heavy_server(self):
        """One server owning nearly all entries gets a group to itself;
        the light servers share the other group."""
        servers = [_server(0), _server(1), _server(2)]
        objects = [ObjectSpec(k, 50 + k) for k in range(8)]
        pages = [_page(j, 0, (j % 8, (j + 1) % 8, (j + 3) % 8)) for j in range(6)]
        pages.append(_page(6, 1, (0,)))
        pages.append(_page(7, 2, (1,)))
        model = SystemModel(servers, RepositorySpec(), pages, objects)
        groups = plan_shards(model, 2)
        assert (0,) in groups
        assert (1, 2) in groups

    def test_identity_when_one_shard_does_all_restoration(self):
        """Tighten only server 0's storage: its shard runs the whole
        eviction greedy while the other shard skips the phase — the OR'd
        phase list and merged stats must equal the global run's."""
        model = build_micro_model(storage=(700.0, math.inf))
        batched = RepositoryReplicationPolicy().run(model)
        assert "storage-restoration" in batched.phases_run
        sharded = RepositoryReplicationPolicy(
            shards=2, pool=InlineShardPool()
        ).run(model)
        _assert_identical(sharded, batched)


class TestExactCapacityBoundary:
    def test_exact_fit_server_untouched_across_shards(self):
        """Server 0 sits *exactly* at its Eq. 10 capacity (not a
        violation), server 1 just below its own — in separate shards.
        Only server 1 may evict; server 0's replicas survive unchanged."""
        model = build_micro_model()
        ref = partition_all(model)
        full = model.html_bytes_by_server() + ref.stored_bytes_all()
        m2 = clone_with_capacities(
            model, storage=np.array([full[0], full[1] - 1.0])
        )
        batched = RepositoryReplicationPolicy().run(m2)
        assert batched.phases_run.count("storage-restoration") == 1
        sharded = RepositoryReplicationPolicy(
            shards=2, pool=InlineShardPool()
        ).run(m2)
        _assert_identical(sharded, batched)
        assert sharded.allocation.replicas[0] == ref.replicas[0]
        assert (
            model.html_bytes_by_server()[1]
            + sharded.allocation.stored_bytes(1)
            <= full[1] - 1.0
        )


class TestInvalidShardCounts:
    def test_more_shards_than_servers_rejected(self):
        model = build_micro_model()
        with pytest.raises(ValueError, match="server count"):
            plan_shards(model, 3)
        with pytest.raises(ValueError, match="server count"):
            resolve_shards(3, n_servers=2)
        with pytest.raises(ValueError, match="server count"):
            run_sharded_policy(model, shards=5, pool=InlineShardPool())

    def test_non_positive_rejected(self):
        model = build_micro_model()
        with pytest.raises(ValueError, match="shards"):
            plan_shards(model, 0)
        with pytest.raises(ValueError, match="shards"):
            resolve_shards(0)
        with pytest.raises(ValueError, match="shards"):
            resolve_shards(-2, n_servers=4)

    def test_unset_without_model_stays_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        assert resolve_shards(None) is None

    def test_unset_with_model_stays_none(self, monkeypatch):
        """No implicit count: unset means the in-process pipeline."""
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        assert resolve_shards(None, n_servers=1) is None

    def test_pool_without_shards_rejected(self):
        with pytest.raises(ValueError, match="shard count"):
            RepositoryReplicationPolicy(pool=InlineShardPool())


class TestPlannerDeterminism:
    def test_single_server_shards(self):
        """``shards == n_servers``: every group is a singleton, ids
        ascending, every server present exactly once."""
        model = _model_with_idle_server()
        groups = plan_shards(model, model.n_servers)
        assert sorted(groups) == [(0,), (1,), (2,)]

    def test_weight_ties_break_by_server_id(self):
        """Equal-weight servers distribute by ascending id, so the plan
        is a pure function of the model (no dict/hash order leaks)."""
        servers = [_server(i) for i in range(4)]
        objects = [ObjectSpec(k, 100) for k in range(2)]
        # every server owns one page with one compulsory entry: all tied
        pages = [_page(j, j, (0,)) for j in range(4)]
        model = SystemModel(servers, RepositorySpec(), pages, objects)
        assert plan_shards(model, 2) == ((0, 2), (1, 3))

    def test_plan_stable_across_calls_and_equal_models(self):
        """Re-planning the same (or an equal) model yields the identical
        grouping — the property the worker-side digest cache and the
        golden regressions both lean on."""
        model = generate_workload(WorkloadParams.tiny(), seed=3)
        clone = generate_workload(WorkloadParams.tiny(), seed=3)
        for shards in (1, 2):
            first = plan_shards(model, shards)
            assert first == plan_shards(model, shards)
            assert first == plan_shards(clone, shards)

    def test_zero_entry_servers_spread_over_groups(self):
        """Many pageless servers must not pile into one group (load ties
        break by member count before group index)."""
        servers = [_server(i) for i in range(5)]
        objects = [ObjectSpec(0, 100)]
        pages = [_page(0, 0, (0,))]  # only server 0 owns a page
        model = SystemModel(servers, RepositorySpec(), pages, objects)
        groups = plan_shards(model, 3)
        assert sorted(i for g in groups for i in g) == [0, 1, 2, 3, 4]
        sizes = sorted(len(g) for g in groups)
        assert sizes == [1, 2, 2]  # idle servers spread, not stacked


class TestWorkerModelLru:
    def test_lru_evicts_least_recently_used(self):
        lru = _Lru(2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.get("a")  # refresh: "b" is now the LRU entry
        lru.put("c", 3)
        assert lru.get("b") is None
        assert (lru.get("a"), lru.get("c")) == (1, 3)
        assert len(lru) == 2


def _offload_constrained_model():
    """A small model whose constrained clone runs all four phases."""
    from repro.experiments.scaling import (
        processing_capacities_for_fraction,
        repo_capacity_for_fraction,
    )

    model = generate_workload(WorkloadParams.small(), seed=11)
    ref = partition_all(model)
    return clone_with_capacities(
        model,
        storage=storage_capacities_for_fraction(model, ref, 0.6),
        processing=processing_capacities_for_fraction(model, 0.7, ref),
        repo_capacity=repo_capacity_for_fraction(ref, 0.3),
    )


def _force_resync_every(monkeypatch, every: int | None) -> None:
    """Make ``run_sharded_policy`` build its scatter with ``resync_every``."""
    monkeypatch.setattr(
        shard,
        "_ShardedScatter",
        functools.partial(_ShardedScatter, resync_every=every),
    )


class TestRealProcessPool:
    def test_subprocess_identity_small_scale(self):
        """One real fork round trip over the pickle transport: the
        fan-out and the reconcile must match the batched kernel's exact
        result."""
        model = generate_workload(WorkloadParams.small(), seed=11)
        ref = partition_all(model)
        m2 = clone_with_capacities(
            model,
            storage=storage_capacities_for_fraction(model, ref, 0.5) + 1.0,
        )
        batched = RepositoryReplicationPolicy().run(m2)
        try:
            sharded = run_sharded_policy(m2, shards=2)
        finally:
            shutdown_shard_pool()
        _assert_identical(sharded, batched)

    def test_subprocess_offload_scatter_identity(self):
        """Constrain the repository so OFF_LOADING runs: the per-round
        absorptions scatter to real worker processes (delta rounds over
        worker-resident state, residency seeded by the fan-out) and the
        gathered outcome must match the serial reference bit for bit."""
        m2 = _offload_constrained_model()
        batched = RepositoryReplicationPolicy().run(m2)
        assert "off-loading" in batched.phases_run
        try:
            sharded = run_sharded_policy(m2, shards=2)
        finally:
            shutdown_shard_pool()
        _assert_identical(sharded, batched)

    def test_subprocess_resync_every_batch_identity(self, monkeypatch):
        """``resync_every=1`` forces a full epoch resync on every batch,
        so the recovery path (full state re-ship) crosses a process
        boundary on every round and must stay bit-identical."""
        _force_resync_every(monkeypatch, 1)
        m2 = _offload_constrained_model()
        batched = RepositoryReplicationPolicy().run(m2)
        assert "off-loading" in batched.phases_run
        try:
            sharded = run_sharded_policy(m2, shards=2)
        finally:
            shutdown_shard_pool()
        _assert_identical(sharded, batched)

    def test_subprocess_delta_rounds_forced_resync_identity(self, monkeypatch):
        """``resync_every=2`` interleaves resident fast paths with full
        epoch resyncs on a real pool — the recovery path must be
        bit-identical, not just the steady state."""
        _force_resync_every(monkeypatch, 2)
        m2 = _offload_constrained_model()
        batched = RepositoryReplicationPolicy().run(m2)
        assert "off-loading" in batched.phases_run
        try:
            sharded = run_sharded_policy(m2, shards=2)
        finally:
            shutdown_shard_pool()
        _assert_identical(sharded, batched)


# ----------------------------------------------------------------------
# delta-round scatter: batching, epochs, resyncs
# ----------------------------------------------------------------------
def _tiny_offload_case(seed: int = 7):
    """A tiny model plus a repository capacity that forces off-loading."""
    model = generate_workload(WorkloadParams.tiny(), seed=seed)
    base = partition_all(model, optional_policy="none")
    before = repository_load(base)
    assert before > 0, "seed must produce repository load to off-load"
    return model, max(0.3 * before, 1e-6)


def _scatter_offload_arms(model, capacity, opts=None, **scatter_kwargs):
    """Serial vs scatter-driven OFF_LOADING; asserts identity, returns
    the scatter so callers can inspect its protocol counters."""
    cost = CostModel(model)
    serial_alloc = partition_all(model, optional_policy="none")
    serial_out = offload_repository(
        serial_alloc, cost, OffloadConfig(), capacity=capacity
    )
    if opts is None:
        opts = _ShardOptions(
            alpha1=2.0, alpha2=1.0, optional_policy="none", record=False
        )
    par_alloc = partition_all(model, optional_policy="none")
    scatter = _ShardedScatter(
        InlineShardPool(), ("model", model), model, opts, **scatter_kwargs
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
    return scatter


class TestDeltaRoundScatter:
    def test_delta_scatter_one_submission_per_shard_per_round(self):
        """Steady state: each shard syncs exactly once (its first batch,
        lazily — no fan-out seeded residency here), then rides the
        resident fast path; submissions equal processed batches (no
        hidden two-phase resubmits)."""
        model, capacity = _tiny_offload_case()
        groups = plan_shards(model, min(2, model.n_servers))
        scatter = _scatter_offload_arms(model, capacity, groups=groups)
        assert scatter._submissions == sum(scatter._batches)
        assert len(scatter.rounds_bytes) >= 1
        for g, batches in enumerate(scatter._batches):
            assert scatter._resyncs[g] == (1 if batches else 0)
        for rec in scatter.rounds_bytes:
            assert rec["delta_bytes"] >= 0.0
            assert rec["full_bytes"] >= 0.0

    def test_delta_scatter_forced_resync_identity(self):
        """``resync_every=1``: every batch re-ships full shard state —
        transport only; decisions stay bit-identical."""
        model, capacity = _tiny_offload_case()
        scatter = _scatter_offload_arms(model, capacity, resync_every=1)
        for g, batches in enumerate(scatter._batches):
            assert scatter._resyncs[g] == batches


# ----------------------------------------------------------------------
# fan-out failure
# ----------------------------------------------------------------------
def _boom_run_shard(*_args, **_kwargs):
    raise RuntimeError("shard worker boom")


class _PoisonedFanoutPool(InlineShardPool):
    """An inline pool that fails one shard's fan-out task."""

    def __init__(self, poison_idx: int):
        self._poison = poison_idx
        self._seq = 0

    def submit(self, fn, /, *args, **kwargs):
        idx, self._seq = self._seq, self._seq + 1
        if idx == self._poison and fn is _run_shard:
            return super().submit(_boom_run_shard)
        return super().submit(fn, *args, **kwargs)


class TestFanoutFailure:
    def test_failed_shard_reraises(self):
        """A shard that dies in the fan-out surfaces its exception from
        ``run_sharded_policy`` instead of reconciling a partial plan."""
        model = generate_workload(WorkloadParams.tiny(), seed=3)
        with pytest.raises(RuntimeError, match="boom"):
            run_sharded_policy(
                model, shards=2, pool=_PoisonedFanoutPool(poison_idx=1)
            )
