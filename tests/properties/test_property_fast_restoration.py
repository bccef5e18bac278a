"""Differential-oracle property tests for the batched restoration kernel.

The scalar greedy loops in :mod:`repro.core.reference` are the
reference oracles; the batched kernel
(:mod:`repro.core.fast_restoration`) must reproduce their **decision
sequences bit-exactly** — same evictions, same comp/opt switches, in
the same order, at every stream count k.  Rather than instrumenting the
loops, the tests compare everything the decisions determine: final
``comp_local``/``opt_local`` masks, replica sets, and the phase
statistics dataclasses (whose counters and float deltas only coincide
when every step matched).

Two layers:

* heap level — :class:`VectorLazyHeap` against the scalar ``_LazyHeap``
  under random push/mutate/kill/pop interleavings, including the
  ``purge_dead`` reserve mode (death is permanent there, matching the
  engine contract);
* engine level — each restoration phase run by the oracle and by the
  engine on random capacity-constrained k ∈ {2, 3, 4} models, each arm
  building its own
  input allocation via an identical ``partition_all`` (no shared state,
  no deepcopy aliasing).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import html_request_load, local_processing_load
from repro.core.cost_model import CostModel
from repro.core.fast_restoration import VectorLazyHeap, restore_storage_batched
from repro.core.partition import partition_all
from repro.core.reference import (
    _LazyHeap,
    restore_processing_reference,
    restore_storage_reference,
)
from repro.core.restoration import (
    _TOL,
    StorageRestorationStats,
    restore_processing_capacity,
    restore_storage_capacity,
)
from repro.experiments.scaling import clone_with_capacities
from tests.properties.strategies import mesh_models

# ----------------------------------------------------------------------
# heap level
# ----------------------------------------------------------------------

#: Scores drawn from a small grid so ties (the delicate part of the
#: counter-ordered pop sequence) occur constantly.
_scores = st.one_of(
    st.integers(0, 4).map(float),
    st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False),
)

_heap_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.lists(_scores, min_size=1, max_size=6)),
        st.tuples(st.just("mutate"), st.integers(0, 11), _scores),
        st.tuples(st.just("kill"), st.integers(0, 11)),
        st.tuples(st.just("pop"), st.just(None)),
    ),
    max_size=60,
)


def _run_heap_differential(n_keys, ops, data, active_target, use_purge):
    """Replay one op sequence through both heaps, comparing every pop."""
    f = np.zeros(n_keys, dtype=np.float64)
    alive = np.ones(n_keys, dtype=bool)
    scalar = _LazyHeap()
    batched = VectorLazyHeap(
        active_target=active_target,
        purge_dead=alive if use_purge else None,
    )
    for op, *payload in ops:
        if op == "push":
            scores = payload[0]
            keys = [
                data.draw(st.integers(0, n_keys - 1), label="push key")
                for _ in scores
            ]
            for sc, key in zip(scores, keys):
                f[key] = sc  # pushed at the current fresh score
                scalar.push(sc, key)
            batched.push_batch(
                np.asarray(scores, dtype=np.float64),
                np.asarray(keys, dtype=np.int64),
            )
        elif op == "mutate":
            key, sc = payload
            if key < n_keys:
                f[key] = sc
        elif op == "kill":
            key = payload[0]
            if key < n_keys:
                alive[key] = False  # permanent: purge_dead contract holds
        else:  # pop
            want = scalar.pop_valid(
                rescore=lambda k: f[k], alive=lambda k: alive[k]
            )
            got = batched.pop_round(f, alive, _TOL)
            assert got == want, f"pop diverged: scalar={want} batched={got}"
            if not use_purge:
                # without reserve purging both heaps hold the same
                # multiset of unconsumed entries at all times
                assert len(batched) == len(scalar)


@given(
    st.integers(1, 12),
    _heap_ops,
    st.data(),
    st.sampled_from((2, 4, 1024)),
)
@settings(max_examples=150, deadline=None)
def test_vector_heap_matches_scalar_heap(n_keys, ops, data, active_target):
    """Tiny ``active_target`` values force the spill/run-merge/refill
    machinery to engage even on short sequences."""
    _run_heap_differential(n_keys, ops, data, active_target, use_purge=False)


@given(
    st.integers(1, 12),
    _heap_ops,
    st.data(),
    st.sampled_from((2, 4)),
)
@settings(max_examples=150, deadline=None)
def test_vector_heap_matches_scalar_heap_with_purge(
    n_keys, ops, data, active_target
):
    """``purge_dead`` drops dead reserve entries eagerly; the pop
    sequence must still be identical because dead keys can never win."""
    _run_heap_differential(n_keys, ops, data, active_target, use_purge=True)


def test_vector_heap_drains_interleaved_ties():
    """Deterministic smoke: all-equal scores drain in push order across
    multiple active/reserve boundaries."""
    f = np.full(40, 1.0)
    alive = np.ones(40, dtype=bool)
    heap = VectorLazyHeap(active_target=2)
    for start in range(0, 40, 5):
        keys = np.arange(start, start + 5, dtype=np.int64)
        heap.push_batch(np.ones(5), keys)
    popped = []
    while True:
        out = heap.pop_round(f, alive, _TOL)
        if out is None:
            break
        popped.append(out[1])
    assert popped == list(range(40))


# ----------------------------------------------------------------------
# engine level
# ----------------------------------------------------------------------
def _with_capacities(model, storage=None, processing=None):
    return clone_with_capacities(model, storage=storage, processing=processing)


def _assert_same_decisions(m2, phase):
    """Run ``phase`` under both kernels on independently built inputs."""
    cost = CostModel(m2)
    out = {}
    for kernel in ("scalar", "batched"):
        alloc = partition_all(m2)  # fresh build per kernel — no aliasing
        stats = phase(alloc, cost, kernel)
        out[kernel] = (alloc, stats)
    a, b = out["scalar"][0], out["batched"][0]
    assert np.array_equal(a.comp_local, b.comp_local)
    assert np.array_equal(a.comp_stream, b.comp_stream)
    assert np.array_equal(a.opt_local, b.opt_local)
    for i in range(m2.n_servers):
        assert a.replicas[i] == b.replicas[i]
    assert out["scalar"][1] == out["batched"][1], "phase statistics diverged"
    b.check_invariants()


@given(mesh_models(), st.floats(0.0, 1.0))
@settings(max_examples=50, deadline=None)
def test_storage_restoration_kernels_identical(model, frac):
    ref = partition_all(model)
    caps = model.html_bytes_by_server() + frac * ref.stored_bytes_all() + 1.0
    _assert_same_decisions(
        _with_capacities(model, storage=caps),
        lambda a, c, k: (
            restore_storage_reference if k == "scalar" else restore_storage_capacity
        )(a, c),
    )


@given(mesh_models(), st.floats(0.0, 1.0))
@settings(max_examples=30, deadline=None)
def test_storage_batched_repartition_identical(model, frac):
    """Every flip set through the batched re-partition kernel (the
    default size threshold keeps small models on the scalar one)."""
    ref = partition_all(model)
    caps = model.html_bytes_by_server() + frac * ref.stored_bytes_all() + 1.0

    def every_flip_batched(alloc, cost, kernel):
        if kernel == "scalar":
            return restore_storage_reference(alloc, cost)
        stats = StorageRestorationStats()
        for i in range(alloc.model.n_servers):
            stats.merge(restore_storage_batched(alloc, cost, i, batch_min_pages=1))
        return stats

    _assert_same_decisions(_with_capacities(model, storage=caps), every_flip_batched)


@given(mesh_models(), st.floats(0.0, 1.0))
@settings(max_examples=50, deadline=None)
def test_processing_restoration_kernels_identical(model, frac):
    ref = partition_all(model)
    html = html_request_load(model)
    load = local_processing_load(ref)
    caps = np.maximum(
        html + frac * np.maximum(load - html, 0.0) + 1e-9, 1e-6
    )
    _assert_same_decisions(
        _with_capacities(model, processing=caps),
        lambda a, c, k: (
            restore_processing_reference
            if k == "scalar"
            else restore_processing_capacity
        )(a, c),
    )
