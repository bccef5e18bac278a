"""Tests for the lazily-revalidated min-heap behind the greedy loops."""

import pytest

from repro.core.cost_model import CostModel
from repro.core.partition import partition_all
from repro.core.reference import _LazyHeap
from repro.core.restoration import restore_storage_capacity
from tests.conftest import build_micro_model


class TestLazyHeap:
    def test_pop_min(self):
        h = _LazyHeap()
        scores = {"a": 3.0, "b": 1.0, "c": 2.0}
        for k, s in scores.items():
            h.push(s, k)
        got = h.pop_valid(rescore=lambda k: scores[k], alive=lambda k: True)
        assert got == (1.0, "b")

    def test_stale_entry_reinserted(self):
        h = _LazyHeap()
        h.push(1.0, "a")
        h.push(2.0, "b")
        current = {"a": 5.0, "b": 2.0}  # a's score rose after the push
        got = h.pop_valid(rescore=lambda k: current[k], alive=lambda k: True)
        assert got == (2.0, "b")
        # "a" must still be retrievable at its fresh score
        got2 = h.pop_valid(rescore=lambda k: current[k], alive=lambda k: True)
        assert got2 == (5.0, "a")

    def test_decreased_score_accepted_at_fresh_value(self):
        h = _LazyHeap()
        h.push(4.0, "a")
        got = h.pop_valid(rescore=lambda k: 1.0, alive=lambda k: True)
        assert got == (1.0, "a")  # fresh (lower) score is returned

    def test_dead_entries_skipped(self):
        h = _LazyHeap()
        h.push(1.0, "dead")
        h.push(2.0, "alive")
        got = h.pop_valid(
            rescore=lambda k: 2.0, alive=lambda k: k == "alive"
        )
        assert got == (2.0, "alive")

    def test_empty_returns_none(self):
        h = _LazyHeap()
        assert h.pop_valid(rescore=lambda k: 0.0, alive=lambda k: True) is None

    def test_duplicates_tolerated(self):
        h = _LazyHeap()
        h.push(1.0, "a")
        h.push(1.5, "a")  # stale duplicate
        seen = []
        while True:
            got = h.pop_valid(rescore=lambda k: 1.0, alive=lambda k: True)
            if got is None:
                break
            seen.append(got)
        assert seen == [(1.0, "a"), (1.0, "a")]

    def test_len(self):
        h = _LazyHeap()
        assert len(h) == 0
        h.push(1.0, "a")
        assert len(h) == 1


class TestAmortisationFlag:
    def test_raw_criterion_restores_too(self):
        m = build_micro_model(storage=(700.0, 900.0))
        alloc = partition_all(m)
        cost = CostModel(m)
        stats = restore_storage_capacity(alloc, cost, amortise=False)
        from repro.core.constraints import evaluate_constraints

        assert evaluate_constraints(alloc).storage_ok
        assert stats.evictions > 0

    def test_amortised_no_worse_on_micro(self):
        m = build_micro_model(storage=(700.0, 900.0))
        cost = CostModel(m)
        a = partition_all(m)
        restore_storage_capacity(a, cost, amortise=True)
        b = partition_all(m)
        restore_storage_capacity(b, cost, amortise=False)
        assert cost.D(a) <= cost.D(b) + 1e-9
