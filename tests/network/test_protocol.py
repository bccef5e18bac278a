"""Tests for repro.network — the distributed policy run."""

import math

import numpy as np
import pytest

from repro.core.policy import RepositoryReplicationPolicy
from repro.network import run_distributed_policy
from repro.network.messages import (
    NewRequirementMessage,
    StatusMessage,
)
from tests.conftest import build_micro_model
from repro.workload.generator import generate_workload
from repro.workload.params import WorkloadParams


def _assert_same_allocation(a, b):
    assert np.array_equal(a.comp_local, b.comp_local)
    assert np.array_equal(a.opt_local, b.opt_local)
    assert a.replicas == b.replicas


class TestEquivalenceWithCentralised:
    def test_unconstrained(self, micro_model):
        cen = RepositoryReplicationPolicy().run(micro_model)
        dist = run_distributed_policy(micro_model)
        _assert_same_allocation(cen.allocation, dist.allocation)
        assert dist.objective == pytest.approx(cen.objective)

    def test_storage_constrained(self):
        m = build_micro_model(storage=(700.0, 900.0))
        cen = RepositoryReplicationPolicy().run(m)
        dist = run_distributed_policy(m)
        _assert_same_allocation(cen.allocation, dist.allocation)

    def test_offload_constrained(self):
        m = build_micro_model(repo_capacity=1.0)
        cen = RepositoryReplicationPolicy(optional_policy="none").run(m)
        dist = run_distributed_policy(m, optional_policy="none")
        _assert_same_allocation(cen.allocation, dist.allocation)
        assert dist.offload_restored == cen.offload_outcome.restored

    def test_generated_workload_constrained(self):
        params = WorkloadParams.tiny().with_(
            repository_capacity=3.0, storage_capacity=5e7
        )
        m = generate_workload(params, seed=13)
        cen = RepositoryReplicationPolicy().run(m)
        dist = run_distributed_policy(m)
        _assert_same_allocation(cen.allocation, dist.allocation)
        assert dist.feasible == cen.feasible

    @pytest.mark.parametrize("k", [2, 3])
    def test_stream_mesh_matches_central(self, k):
        """Nodes install PARTITION's per-entry streams: at k > 2 a remote
        download lands on the mesh site PARTITION chose, not stream 1."""
        params = WorkloadParams.tiny().with_(
            n_streams=k, n_repositories=2, repository_capacity=math.inf
        )
        m = generate_workload(params, seed=7)
        cen = RepositoryReplicationPolicy().run(m)
        dist = run_distributed_policy(m)
        _assert_same_allocation(cen.allocation, dist.allocation)
        assert np.array_equal(
            dist.allocation.comp_stream, cen.allocation.comp_stream
        )
        assert dist.objective == cen.objective


class TestProtocolBehaviour:
    def test_message_counts_unconstrained(self, micro_model):
        dist = run_distributed_policy(micro_model)
        # 2 statuses + 2 END broadcasts, no rounds
        assert dist.offload_rounds == 0
        assert dist.bus_stats.by_kind["StatusMessage"] == 2
        assert dist.bus_stats.by_kind["OffloadEndMessage"] == 2
        assert "NewRequirementMessage" not in dist.bus_stats.by_kind

    def test_rounds_and_answers_match(self):
        m = build_micro_model(repo_capacity=1.0)
        dist = run_distributed_policy(m, optional_policy="none")
        assert dist.offload_rounds >= 1
        assert (
            dist.bus_stats.by_kind["NewRequirementMessage"]
            == dist.bus_stats.by_kind["WorkloadAnswerMessage"]
        )

    def test_unrestorable_flagged(self):
        m = build_micro_model(processing=(3.0, 1.5), repo_capacity=0.1)
        dist = run_distributed_policy(m, optional_policy="none")
        assert not dist.offload_restored
        assert not dist.feasible

    def test_summary_mentions_traffic(self, micro_model):
        s = run_distributed_policy(micro_model).summary()
        assert "messages" in s
        assert "off-loading rounds" in s

    def test_absorbed_by_server_recorded(self):
        m = build_micro_model(repo_capacity=1.0)
        dist = run_distributed_policy(m, optional_policy="none")
        assert dist.absorbed_by_server
        assert sum(dist.absorbed_by_server.values()) > 0
