"""Tests for repro.baselines.popularity — the popularity-greedy baseline."""

import numpy as np
import pytest

from repro.baselines.popularity import PopularityPolicy
from repro.core.constraints import storage_used
from repro.core.cost_model import CostModel
from repro.core.partition import partition_all


class TestReplicaSelection:
    def test_budget_respected(self, small_model):
        budget = 5e7
        alloc = PopularityPolicy(storage_bytes=budget).allocate(small_model)
        assert np.all(alloc.stored_bytes_all() <= budget + 1e-6)

    def test_zero_budget_nothing_stored(self, micro_model):
        alloc = PopularityPolicy(storage_bytes=0.0).allocate(micro_model)
        assert all(len(r) == 0 for r in alloc.replicas)
        assert not alloc.comp_local.any()

    def test_huge_budget_stores_all_references(self, micro_model):
        alloc = PopularityPolicy(storage_bytes=1e12).allocate(micro_model)
        for i in range(micro_model.n_servers):
            assert alloc.replicas[i] == micro_model.objects_referenced_by_server(i)

    def test_most_popular_per_byte_first(self, micro_model):
        # S0 rate/byte scores: obj0 1/100=.01, obj2 2/300=.0067,
        # obj1 1/200=.005, obj4 0.1/50=.002.  Greedy packing into 300 B:
        # obj0 (100) fits, obj2 (300) would overflow, obj1 (200) fits.
        alloc = PopularityPolicy(storage_bytes=300.0).allocate(micro_model)
        assert alloc.replicas[0] == {0, 1}

    def test_default_budget_uses_model_capacity(self):
        from tests.conftest import build_micro_model

        m = build_micro_model(storage=(700.0, 800.0))
        alloc = PopularityPolicy().allocate(m)
        assert np.all(storage_used(alloc) <= np.array([700.0, 800.0]) + 1e-6)


class TestMarking:
    def test_all_stored_marks_everything_stored(self, micro_model):
        alloc = PopularityPolicy(storage_bytes=1e12, marking="all-stored").allocate(
            micro_model
        )
        assert alloc.comp_local.all()

    def test_balanced_equals_partition_at_full_budget(self, micro_model):
        alloc = PopularityPolicy(storage_bytes=1e12, marking="balanced").allocate(
            micro_model
        )
        ref = partition_all(micro_model)
        assert np.array_equal(alloc.comp_local, ref.comp_local)

    def test_balanced_no_worse_objective(self, small_model):
        budget = 5e7
        cost = CostModel(small_model)
        a = PopularityPolicy(storage_bytes=budget, marking="all-stored").allocate(
            small_model
        )
        b = PopularityPolicy(storage_bytes=budget, marking="balanced").allocate(
            small_model
        )
        assert cost.D(b) <= cost.D(a) + 1e-6

    def test_same_replica_bytes_across_markings(self, small_model):
        budget = 5e7
        a = PopularityPolicy(storage_bytes=budget, marking="all-stored").allocate(
            small_model
        )
        b = PopularityPolicy(storage_bytes=budget, marking="balanced").allocate(
            small_model
        )
        assert a.replicas == b.replicas

    def test_invalid_marking_rejected(self):
        with pytest.raises(ValueError, match="marking"):
            PopularityPolicy(marking="nope")  # type: ignore[arg-type]

    def test_invariants(self, small_model):
        alloc = PopularityPolicy(storage_bytes=3e7, marking="balanced").allocate(
            small_model
        )
        alloc.check_invariants()

    def test_name(self):
        assert PopularityPolicy(marking="balanced").name == "popularity-balanced"


class TestMeshStreams:
    def test_balanced_installs_partition_streams_at_k3(self):
        """At k=3 the balanced marking keeps PARTITION's remote stream
        choices: every page's marks *and* streams equal a scalar
        ``partition_page`` over the same stored set."""
        from repro.core.partition import partition_page
        from repro.workload.generator import generate_workload
        from repro.workload.params import WorkloadParams

        params = WorkloadParams.tiny().with_(n_streams=3, n_repositories=2)
        model = generate_workload(params, seed=3)
        budget = 0.3 * model.total_object_bytes() / model.n_servers
        alloc = PopularityPolicy(storage_bytes=budget, marking="balanced").allocate(
            model
        )
        indptr = model.comp_indptr
        for j, page in enumerate(model.pages):
            marks, streams, _, _ = partition_page(
                model, j, allowed=alloc.replicas[page.server]
            )
            sl = slice(indptr[j], indptr[j + 1])
            assert np.array_equal(alloc.comp_local[sl], marks)
            assert np.array_equal(alloc.comp_stream[sl], streams)
        # the mesh is actually used: some remote entry sits past stream 1
        assert (alloc.comp_stream[~alloc.comp_local] > 1).any()
        alloc.check_invariants()
