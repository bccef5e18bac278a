"""Differential-oracle property tests for the batched PARTITION kernel.

The scalar greedy (:func:`repro.core.partition.partition_page`) is the
reference oracle; the batched kernel
(:mod:`repro.core.fast_partition`) must reproduce its marks and stream
times **bit-exactly** — assertions below use ``==`` on floats and
``array_equal`` on marks, no tolerances — for every page, every
``SortOrder``, arbitrary ``allowed`` whitelists, and every optional
policy.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fast_partition import (
    comp_allowed_mask,
    optional_marks_batched,
    partition_all_batched,
    partition_pages_batched,
)
from repro.core.partition import _optional_marks, partition_all, partition_page
from repro.core.reference import partition_all_reference
from tests.properties.strategies import system_models

ORDERS = ("decreasing", "increasing", "document")


def assert_batch_matches_oracle(model, order, allowed_per_server=None):
    """Bit-exact comparison of the batch kernel against the scalar oracle."""
    mask = comp_allowed_mask(model, allowed_per_server)
    marks, _, local_t, (remote_t,) = partition_pages_batched(
        model, allowed_mask=mask, order=order
    )
    for j in range(model.n_pages):
        allowed = (
            None
            if allowed_per_server is None
            else allowed_per_server.get(model.pages[j].server, ())
        )
        ref_marks, _, ref_lt, (ref_rt,) = partition_page(model, j, allowed, order=order)
        sl = model.comp_slice(j)
        assert np.array_equal(marks[sl], ref_marks), f"page {j} marks diverge"
        assert local_t[j] == ref_lt, f"page {j} local time diverges"
        assert remote_t[j] == ref_rt, f"page {j} remote time diverges"


@given(system_models(), st.sampled_from(ORDERS))
@settings(max_examples=60, deadline=None)
def test_batched_matches_scalar_unrestricted(model, order):
    assert_batch_matches_oracle(model, order)


@given(system_models(), st.sampled_from(ORDERS), st.data())
@settings(max_examples=60, deadline=None)
def test_batched_matches_scalar_with_whitelists(model, order, data):
    allowed_per_server = {}
    for i in range(model.n_servers):
        # a random subset per server; servers may be missing entirely
        # (partition_all treats a missing key as "nothing allowed")
        if data.draw(st.booleans(), label=f"server {i} present"):
            allowed_per_server[i] = data.draw(
                st.sets(st.integers(0, model.n_objects - 1)),
                label=f"server {i} whitelist",
            )
    assert_batch_matches_oracle(model, order, allowed_per_server)


@given(system_models(), st.sampled_from(("all", "beneficial", "none")))
@settings(max_examples=60, deadline=None)
def test_optional_marks_batched_matches_scalar(model, policy):
    batched = optional_marks_batched(model, policy)
    for j in range(model.n_pages):
        ref = _optional_marks(model, j, policy, None)
        assert np.array_equal(batched[model.opt_slice(j)], ref)


@given(
    system_models(),
    st.sampled_from(ORDERS),
    st.sampled_from(("all", "beneficial", "none")),
)
@settings(max_examples=40, deadline=None)
def test_partition_all_kernels_build_equal_allocations(model, order, policy):
    """Marks, replica sets, and mark-count bookkeeping all coincide."""
    scalar = partition_all_reference(model, optional_policy=policy, order=order)
    batched = partition_all(model, optional_policy=policy, order=order)
    assert scalar == batched
    assert scalar._mark_counts == batched._mark_counts
    batched.check_invariants()


@given(system_models(), st.data())
@settings(max_examples=40, deadline=None)
def test_partition_all_batched_with_whitelists(model, data):
    allowed_per_server = {
        i: data.draw(
            st.sets(st.integers(0, model.n_objects - 1)), label=f"server {i}"
        )
        for i in range(model.n_servers)
    }
    scalar = partition_all_reference(model, allowed_per_server=allowed_per_server)
    batched = partition_all_batched(
        model, allowed_per_server=allowed_per_server
    )
    assert scalar == batched


@given(system_models(), st.data())
@settings(max_examples=40, deadline=None)
def test_batched_page_subset_matches_full_run(model, data):
    """Partitioning a subset of pages yields the same per-page output as
    the full batch (pages are independent under PARTITION)."""
    subset = data.draw(
        st.lists(
            st.integers(0, model.n_pages - 1), unique=True, min_size=0
        ),
        label="page subset",
    )
    full_marks, _, full_lt, (full_rt,) = partition_pages_batched(model)
    sub_marks, _, sub_lt, (sub_rt,) = partition_pages_batched(
        model, page_ids=np.asarray(subset, dtype=np.intp)
    )
    for pos, j in enumerate(subset):
        sl = model.comp_slice(j)
        assert np.array_equal(sub_marks[sl], full_marks[sl])
        assert sub_lt[pos] == full_lt[j]
        assert sub_rt[pos] == full_rt[j]
    # entries of unselected pages stay untouched
    selected = np.zeros(len(model.comp_objects), dtype=bool)
    for j in subset:
        selected[model.comp_slice(j)] = True
    assert not sub_marks[~selected].any()
