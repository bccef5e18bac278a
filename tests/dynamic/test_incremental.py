"""Tests for repro.dynamic.incremental — the incremental re-planner."""

import numpy as np
import pytest

from repro.core.allocation import Allocation
from repro.core.constraints import evaluate_constraints
from repro.core.policy import RepositoryReplicationPolicy
from repro.dynamic.drift import (
    jitter_frequencies,
    replace_frequencies,
    rotate_hot_set,
)
from repro.dynamic.incremental import (
    IncrementalConfig,
    IncrementalReplanner,
    ReplanStats,
)
from repro.workload.generator import generate_workload
from repro.workload.params import WorkloadParams


@pytest.fixture(scope="module")
def policy():
    return RepositoryReplicationPolicy()


@pytest.fixture(scope="module")
def constrained_model():
    """Small model with storage at 60% of the unconstrained footprint,
    so restoration actually has work to do after drift."""
    from repro.core.partition import partition_all
    from repro.experiments.scaling import (
        clone_with_capacities,
        storage_capacities_for_fraction,
    )

    base = generate_workload(WorkloadParams.small(), seed=7)
    caps = storage_capacities_for_fraction(base, partition_all(base), 0.6)
    return clone_with_capacities(base, storage=caps)


class TestIncrementalConfig:
    def test_defaults_valid(self):
        IncrementalConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dirty_threshold": -0.1},
            {"full_resolve_dirty_fraction": 0.0},
            {"full_resolve_dirty_fraction": 1.5},
            {"churn_budget_bytes": 0.0},
            {"churn_budget_bytes": -5.0},
            {"audit_every": -1},
            {"gap_threshold": -0.01},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            IncrementalConfig(**kwargs)


class TestDirtyPages:
    def test_detects_only_drifted_pages(self, micro_model, policy):
        rp = IncrementalReplanner(policy, micro_model)
        f = micro_model.frequencies.copy()
        f[1] *= 1.2  # 20% move, well past the 5% default threshold
        clone = replace_frequencies(micro_model, f)
        assert rp.dirty_pages(clone).tolist() == [1]

    def test_below_threshold_clean(self, micro_model, policy):
        rp = IncrementalReplanner(policy, micro_model)
        f = micro_model.frequencies * 1.01
        clone = replace_frequencies(micro_model, f)
        assert rp.dirty_pages(clone).size == 0

    def test_identical_frequencies_clean(self, micro_model, policy):
        rp = IncrementalReplanner(policy, micro_model)
        clone = replace_frequencies(micro_model, micro_model.frequencies)
        assert rp.dirty_pages(clone).size == 0


class TestBitIdentity:
    def test_empty_dirty_set_matches_full_resolve(self, tiny_model, policy):
        full = policy.run(tiny_model)
        rp = IncrementalReplanner(
            policy, tiny_model, initial_allocation=full.allocation
        )
        clone = replace_frequencies(tiny_model, tiny_model.frequencies)
        stats = rp.replan(clone)

        assert stats.mode == "incremental"
        assert stats.n_dirty == 0
        # the allocation is bit-identical to the from-scratch solve on the
        # identical-frequency clone (which, the pipeline being
        # deterministic, equals the epoch-0 solve)
        resolve = policy.run(clone)
        for ref in (full.allocation, resolve.allocation):
            assert np.array_equal(rp.allocation.comp_local, ref.comp_local)
            assert np.array_equal(rp.allocation.opt_local, ref.opt_local)
            assert rp.allocation.replicas == ref.replicas
        assert stats.objective == pytest.approx(full.objective, rel=1e-12)
        assert stats.churn_bytes_added == 0.0
        assert stats.churn_bytes_removed == 0.0

    @pytest.mark.parametrize("k", [2, 3])
    def test_rotation_rebuild_matches_full_resolve(self, k, policy):
        """Storage-constrained k-stream models with an uncapacitated
        repository (OFF_LOADING is k=2-only): the rebuilt pages must
        carry the batched kernel's marks *and* streams — a stale stream
        left by the previous epoch's evictions would skew restoration —
        and the stream topology must survive the drift."""
        from repro.core.partition import partition_all
        from repro.experiments.scaling import (
            clone_with_capacities,
            storage_capacities_for_fraction,
        )

        params = WorkloadParams.tiny().with_(
            n_streams=k,
            n_repositories=max(WorkloadParams.tiny().n_repositories, k - 1),
            storage_capacity=float("inf"),
            processing_capacity=float("inf"),
        )
        base = generate_workload(params, seed=5)
        caps = storage_capacities_for_fraction(base, partition_all(base), 0.6)
        model = clone_with_capacities(base, storage=caps)
        rp = IncrementalReplanner(
            policy, model, IncrementalConfig(audit_every=0)
        )
        truth = rotate_hot_set(model, fraction=1.0, seed=1, servers=[0])
        assert truth.n_streams == k
        stats = rp.replan(truth)
        assert stats.mode == "incremental"
        assert stats.rebuilt_servers
        full = policy.run(truth)
        assert np.array_equal(rp.allocation.comp_local, full.allocation.comp_local)
        assert np.array_equal(
            rp.allocation.comp_stream, full.allocation.comp_stream
        )
        assert np.array_equal(rp.allocation.opt_local, full.allocation.opt_local)
        assert stats.objective == full.objective

    def test_adopts_new_model_instance(self, tiny_model, policy):
        rp = IncrementalReplanner(policy, tiny_model)
        clone = replace_frequencies(tiny_model, tiny_model.frequencies)
        rp.replan(clone)
        assert rp.model is clone
        assert rp.allocation.model is clone


class TestFeasibilityAndGap:
    def test_every_epoch_feasible_and_near_optimal(
        self, constrained_model, policy
    ):
        """Property (a) + (b): Eq. 8-10 hold after every incremental
        epoch, and the objective stays within a bounded gap of a
        from-scratch solve under gentle (<5% dirty) drift."""
        rp = IncrementalReplanner(
            policy, constrained_model, IncrementalConfig(audit_every=0)
        )
        truth = constrained_model
        saw_incremental = False
        for epoch in range(1, 5):
            truth = rotate_hot_set(truth, fraction=0.2, seed=epoch)
            stats = rp.replan(truth)
            if stats.mode == "incremental":
                saw_incremental = True
                assert stats.dirty_fraction < 0.25
            report = evaluate_constraints(rp.allocation)
            assert report.ok, f"epoch {epoch}: {report}"
            full = policy.run(truth)
            gap = (rp.objective - full.objective) / abs(full.objective)
            assert gap < 0.05, f"epoch {epoch}: gap {gap:.3%}"
            # the stats objective is the exact D of the adopted plan
            cost = policy.cost_model(truth)
            assert rp.objective == pytest.approx(
                cost.D(rp.allocation), rel=1e-12
            )
        assert saw_incremental

    def test_rebuild_is_local_to_drifted_server(
        self, constrained_model, policy
    ):
        rp = IncrementalReplanner(
            policy, constrained_model, IncrementalConfig(audit_every=0)
        )
        # bump a single page: only its hosting server can become dirty
        # or newly violated, so only that server is rebuilt
        j = 0
        f = constrained_model.frequencies.copy()
        f[j] *= 1.5
        truth = replace_frequencies(constrained_model, f)
        before = rp.allocation
        stats = rp.replan(truth)
        assert stats.mode == "incremental"
        assert stats.n_dirty == 1
        host = int(constrained_model.page_server[j])
        assert stats.rebuilt_servers == (host,)
        # every other server's plan is untouched
        for i in range(truth.n_servers):
            if i != host:
                assert rp.allocation.replicas[i] == before.replicas[i]


class TestHysteresis:
    def test_structural_change_forces_full(self, tiny_model, policy):
        rp = IncrementalReplanner(policy, tiny_model)
        other = generate_workload(WorkloadParams.tiny(), seed=99)
        stats = rp.replan(other)
        assert stats.mode == "full"
        assert stats.full_reason == "structural"
        assert stats.dirty_fraction == 1.0
        assert rp.full_resolves == 1

    def test_heavy_drift_forces_full(self, tiny_model, policy):
        rp = IncrementalReplanner(policy, tiny_model)
        heavy = jitter_frequencies(tiny_model, sigma=1.0, seed=3)
        stats = rp.replan(heavy)
        assert stats.mode == "full"
        assert stats.full_reason == "dirty-fraction"
        assert stats.dirty_fraction > 0.25

    def test_churn_budget_forces_full(self, constrained_model, policy):
        rp = IncrementalReplanner(
            policy,
            constrained_model,
            IncrementalConfig(churn_budget_bytes=1.0, audit_every=0),
        )
        truth = rotate_hot_set(constrained_model, fraction=0.2, seed=1)
        first = rp.replan(truth)
        assert first.mode == "incremental"
        assert first.churn_bytes_added + first.churn_bytes_removed > 1.0
        # any next re-plan exceeds the 1-byte budget accumulated above
        truth2 = rotate_hot_set(truth, fraction=0.2, seed=2)
        second = rp.replan(truth2)
        assert second.mode == "full"
        assert second.full_reason == "churn-budget"
        # the full solve resets the accumulated churn
        truth3 = rotate_hot_set(truth2, fraction=0.2, seed=3)
        third = rp.replan(truth3)
        assert third.mode == "incremental"

    def test_audit_measures_gap(self, constrained_model, policy):
        rp = IncrementalReplanner(
            policy,
            constrained_model,
            IncrementalConfig(audit_every=1, gap_threshold=10.0),
        )
        truth = rotate_hot_set(constrained_model, fraction=0.2, seed=1)
        stats = rp.replan(truth)
        assert stats.mode == "incremental"
        assert stats.audit_gap is not None
        assert stats.audit_gap < 10.0

    def test_audit_adopts_full_when_gap_exceeded(
        self, constrained_model, policy
    ):
        # start from a deliberately terrible allocation (nothing local):
        # the incremental path only repairs dirty pages, so the audit's
        # from-scratch solve wins by far more than the 2% threshold
        rp = IncrementalReplanner(
            policy,
            constrained_model,
            IncrementalConfig(audit_every=1, gap_threshold=0.02),
            initial_allocation=Allocation(constrained_model),
        )
        # single-page drift: only one server is rebuilt, the rest stay
        # terrible — the audit must notice and adopt the full solve
        f = constrained_model.frequencies.copy()
        f[0] *= 1.5
        truth = replace_frequencies(constrained_model, f)
        stats = rp.replan(truth)
        assert stats.mode == "full"
        assert stats.full_reason == "audit-gap"
        assert stats.audit_gap > 0.02
        # the adopted plan is the audit's from-scratch solution
        full = policy.run(truth)
        assert stats.objective == pytest.approx(full.objective, rel=1e-12)

    def test_audit_disabled(self, constrained_model, policy):
        rp = IncrementalReplanner(
            policy, constrained_model, IncrementalConfig(audit_every=0)
        )
        truth = rotate_hot_set(constrained_model, fraction=0.2, seed=1)
        stats = rp.replan(truth)
        assert stats.mode == "incremental"
        assert stats.audit_gap is None


class TestAccounting:
    def test_counts_replans_and_full_resolves(self, constrained_model, policy):
        rp = IncrementalReplanner(
            policy, constrained_model, IncrementalConfig(audit_every=0)
        )
        truth = constrained_model
        n_full = n_inc = 0
        for epoch in range(1, 4):
            truth = rotate_hot_set(truth, fraction=0.2, seed=epoch)
            stats = rp.replan(truth)
            if stats.mode == "full":
                n_full += 1
            else:
                n_inc += 1
        assert rp.full_resolves == n_full
        assert rp.incremental_replans == n_inc

    def test_initial_allocation_transplanted(self, tiny_model, policy):
        clone = replace_frequencies(tiny_model, tiny_model.frequencies)
        alloc = policy.run(tiny_model).allocation
        rp = IncrementalReplanner(policy, clone, initial_allocation=alloc)
        assert rp.allocation.model is clone

    def test_stats_shape(self, tiny_model, policy):
        rp = IncrementalReplanner(policy, tiny_model)
        stats = rp.replan(replace_frequencies(tiny_model, tiny_model.frequencies))
        assert isinstance(stats, ReplanStats)
        assert stats.mode in ("incremental", "full")
        assert stats.churn_bytes_added >= 0.0
        assert stats.churn_bytes_removed >= 0.0
