"""Property-based tests: PARTITION invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost_model import CostModel
from repro.core.partition import partition_all, partition_page
from tests.properties.strategies import system_models


@given(system_models())
@settings(max_examples=60, deadline=None)
def test_partition_times_match_cost_model(model):
    """The stream times PARTITION reports equal Eq. 3/4 for its marks."""
    alloc = partition_all(model, optional_policy="none")
    cost = CostModel(model)
    times = cost.page_times(alloc)
    for j in range(model.n_pages):
        _, _, lt, (rt,) = partition_page(model, j)
        assert np.isclose(lt, times.local[j])
        assert np.isclose(rt, times.remote[j])


@given(system_models())
@settings(max_examples=60, deadline=None)
def test_partition_marks_within_compulsory(model):
    alloc = partition_all(model, optional_policy="none")
    # optional part untouched
    assert not alloc.opt_local.any()


@given(system_models())
@settings(max_examples=50, deadline=None)
def test_allowed_none_is_unrestricted(model):
    for j in range(model.n_pages):
        a, _, lt_a, (rt_a,) = partition_page(model, j, allowed=None)
        universe = set(range(model.n_objects))
        b, _, lt_b, (rt_b,) = partition_page(model, j, allowed=universe)
        assert np.array_equal(a, b)
        assert np.isclose(lt_a, lt_b) and np.isclose(rt_a, rt_b)


@given(system_models())
@settings(max_examples=50, deadline=None)
def test_allowed_empty_forces_remote(model):
    for j in range(model.n_pages):
        marks, _, lt, (rt,) = partition_page(model, j, allowed=set())
        assert not marks.any()
        page = model.pages[j]
        srv = model.servers[page.server]
        total = sum(model.objects[k].size for k in page.compulsory)
        assert np.isclose(rt, srv.repo_overhead + srv.repo_spb * total)
        assert np.isclose(lt, srv.overhead + srv.spb * page.html_size)


def _optimal_page_max(model, j, allowed=None):
    """Brute-force optimal balanced max over all local/remote splits.

    Exponential in the compulsory count — fine for the ≤6-object pages
    the strategy generates.
    """
    page = model.pages[j]
    srv = model.servers[page.server]
    objs = [k for k in page.compulsory if allowed is None or k in allowed]
    forced = sum(
        model.objects[k].size for k in page.compulsory if k not in objs
    )
    best = np.inf
    for mask in range(1 << len(objs)):
        local_bytes = sum(
            model.objects[k].size
            for b, k in enumerate(objs)
            if mask & (1 << b)
        )
        remote_bytes = forced + sum(
            model.objects[k].size
            for b, k in enumerate(objs)
            if not mask & (1 << b)
        )
        lt = srv.overhead + srv.spb * (page.html_size + local_bytes)
        rt = srv.repo_overhead + srv.repo_spb * remote_bytes
        best = min(best, max(lt, rt))
    return best


@given(system_models())
@settings(max_examples=50, deadline=None)
def test_restricting_allowed_never_beats_optimum(model):
    """Restricted greedy ≥ restricted optimum ≥ unrestricted optimum.

    The greedy itself is *not* monotone under restriction — forcing an
    object remote can perturb later choices into a luckily better max
    (a real counterexample exists at 11 objects) — so the true ordering
    is stated against the brute-force optimal split: no restriction can
    beat the unrestricted optimum, and every greedy run is bounded
    below by its own restricted optimum.
    """
    rng = np.random.default_rng(0)
    for j in range(model.n_pages):
        _, _, lt, (rt,) = partition_page(model, j)
        page = model.pages[j]
        if not page.compulsory:
            continue
        opt_full = _optimal_page_max(model, j)
        assert max(lt, rt) >= opt_full - 1e-9
        subset = {k for k in page.compulsory if rng.random() < 0.5}
        marks, _, lt2, (rt2,) = partition_page(model, j, allowed=subset)
        marked = {k for k, m in zip(page.compulsory, marks) if m}
        assert marked <= subset
        opt_sub = _optimal_page_max(model, j, allowed=subset)
        assert opt_sub >= opt_full - 1e-9
        assert max(lt2, rt2) >= opt_sub - 1e-9


@given(system_models())
@settings(max_examples=50, deadline=None)
def test_greedy_local_improvement(model):
    """No single object flip strictly improves the page max under the
    sorted greedy *for the last object placed*.

    Full 1-flip optimality is not guaranteed by the greedy, but the
    balanced max must never exceed the all-on-one-stream bound.
    """
    for j in range(model.n_pages):
        marks, _, lt, (rt,) = partition_page(model, j)
        page = model.pages[j]
        srv = model.servers[page.server]
        total = sum(model.objects[k].size for k in page.compulsory)
        bound = max(
            srv.overhead + srv.spb * (page.html_size + total),
            srv.repo_overhead + srv.repo_spb * total,
            srv.overhead + srv.spb * page.html_size,
        )
        assert max(lt, rt) <= bound + 1e-9
