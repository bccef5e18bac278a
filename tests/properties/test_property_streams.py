"""Property-based tests: the k-stream PARTITION generalization.

Two contracts pin the argmin-over-k engine:

* **Oracle** — on tiny pages the k-way greedy is checked against the
  brute-force optimum over *all* ``k^n`` stream assignments: greedy is
  never better than optimal (sanity of both) and never worse than the
  dump-everything-on-one-stream bound.  (Idle streams still charge
  their Eq. 4 overhead — the k=2 convention carried over — so optima
  of *restricted* stream subsets are not comparable per page.)
* **Differential** — the scalar and batched kernels agree field by
  field (marks, streams, bit-equal times) at every k, the paper's
  k = 2 included.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost_model import CostModel
from repro.core.fast_partition import partition_pages_batched
from repro.core.partition import partition_all, partition_page
from repro.core.reference import partition_all_reference
from tests.properties.strategies import mesh_models


def _page_net(model, j):
    """Per-stream ``(overhead, seconds-per-byte)`` rows for page ``j``."""
    page = model.pages[j]
    i = page.server
    rows = [(model.server_overhead[i], 1.0 / model.server_rate[i])]
    for r in range(model.n_streams - 1):
        rows.append(
            (model.stream_overheads[i, r], 1.0 / model.stream_rates[i, r])
        )
    return rows


def _optimal_kway_max(model, j):
    """Brute-force optimal max over all stream assignments of page ``j``.

    ``k^n`` assignments — fine for the ≤6-object pages the strategy
    generates.  Every stream's overhead counts even when it carries no
    bytes, matching the engine's cost model.
    """
    page = model.pages[j]
    rows = _page_net(model, j)
    sizes = [model.objects[k].size for k in page.compulsory]
    best = np.inf
    for assign in itertools.product(range(len(rows)), repeat=len(sizes)):
        stream_bytes = [0.0] * len(rows)
        for which, sz in zip(assign, sizes):
            stream_bytes[which] += sz
        t = max(
            ov + spb * (b + (page.html_size if s == 0 else 0.0))
            for s, ((ov, spb), b) in enumerate(zip(rows, stream_bytes))
        )
        best = min(best, t)
    return best


@given(mesh_models(min_streams=2, max_streams=4, max_pages=4))
@settings(max_examples=60, deadline=None)
def test_kway_greedy_vs_bruteforce(model):
    """Brute force ≤ greedy ≤ worst dump-everything-on-one-stream."""
    for j in range(model.n_pages):
        marks, streams, lt, stream_times = partition_page(model, j)
        greedy = max([lt] + list(stream_times))
        opt = _optimal_kway_max(model, j)
        assert greedy >= opt - 1e-9
        # every stream's final time is bounded by it receiving all bytes
        page = model.pages[j]
        total = sum(model.objects[k].size for k in page.compulsory)
        bound = max(
            ov + spb * (total + (page.html_size if s == 0 else 0.0))
            for s, (ov, spb) in enumerate(_page_net(model, j))
        )
        assert greedy <= bound + 1e-9


@given(mesh_models(min_streams=2, max_streams=4, max_pages=4))
@settings(max_examples=60, deadline=None)
def test_kway_scalar_matches_batched(model):
    """Scalar and batched kernels agree field-by-field at every k."""
    b_marks, b_streams, b_lt, b_st = partition_pages_batched(model)
    assert b_st.shape == (model.n_streams - 1, model.n_pages)
    for j in range(model.n_pages):
        sl = model.comp_slice(j)
        marks, streams, lt, stream_times = partition_page(model, j)
        assert np.array_equal(marks, b_marks[sl])
        assert np.array_equal(streams, b_streams[sl])
        assert (streams[marks] == 1).all()
        assert lt == b_lt[j]
        assert [t[j] for t in b_st] == list(stream_times)


@given(
    mesh_models(min_streams=2, max_streams=4, max_pages=5),
    st.sampled_from(["batched", "scalar"]),
)
@settings(max_examples=40, deadline=None)
def test_kway_allocation_kernels_agree(model, kernel):
    """``partition_all`` and its scalar oracle produce one answer, and
    its stream marks yield a consistent Eq. 7 objective."""
    ref = partition_all_reference(model)
    alloc = (partition_all if kernel == "batched" else partition_all_reference)(model)
    assert alloc == ref
    cost = CostModel(model)
    assert cost.D(alloc) == cost.D(ref)
