"""Tests for repro.core.context: EvalContext + IncrementalObjective."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import Allocation, ReverseIndex
from repro.core.context import (
    EvalContext,
    IncrementalObjective,
    adopt_frequency_context,
    clear_derived_state,
    is_frequency_clone,
    rebuild_contexts,
)
from repro.core.cost_model import CostModel
from repro.core.partition import partition_all
from repro.core.types import PageSpec, SystemModel
from tests.properties.strategies import system_models


def freq_clone(model: SystemModel, frequencies) -> SystemModel:
    """A structural clone of ``model`` with new page frequencies (the
    core-level equivalent of ``repro.dynamic.drift.replace_frequencies``,
    without the automatic context adoption)."""
    pages = [
        PageSpec(
            page_id=p.page_id,
            server=p.server,
            html_size=p.html_size,
            frequency=float(frequencies[j]),
            compulsory=p.compulsory,
            optional=p.optional,
            optional_prob=p.optional_prob,
            optional_rate_scale=p.optional_rate_scale,
        )
        for j, p in enumerate(model.pages)
    ]
    return SystemModel(model.servers, model.repository, pages, model.objects)


class TestCaching:
    def test_for_model_cached(self, micro_model):
        a = EvalContext.for_model(micro_model)
        b = EvalContext.for_model(micro_model)
        assert a is b

    def test_rebuild_contexts_disables_cache(self, micro_model):
        cached = EvalContext.for_model(micro_model)
        with rebuild_contexts():
            fresh = EvalContext.for_model(micro_model)
            assert fresh is not cached
        assert EvalContext.for_model(micro_model) is cached

    def test_clear_derived_state(self, micro_model):
        before = EvalContext.for_model(micro_model)
        clear_derived_state(micro_model)
        after = EvalContext.for_model(micro_model)
        assert after is not before


class TestColumns:
    def test_entry_columns_match_model_gathers(self, micro_model):
        m = micro_model
        ctx = EvalContext.for_model(m)
        assert np.array_equal(ctx.comp_server, m.page_server[m.comp_pages])
        assert np.array_equal(ctx.comp_sizes, m.sizes[m.comp_objects])
        assert np.array_equal(ctx.comp_freq, m.frequencies[m.comp_pages])
        assert np.array_equal(ctx.opt_sizes, m.sizes[m.opt_objects])
        assert np.array_equal(
            ctx.opt_freq_weight,
            (m.frequencies[m.opt_pages] * m.optional_rate_scale[m.opt_pages])
            * m.opt_probs,
        )

    def test_per_server_fixed_terms(self, micro_model):
        m = micro_model
        ctx = EvalContext.for_model(m)
        assert np.array_equal(ctx.html_bytes_by_server, m.html_bytes_by_server())

    def test_groups_match_reverse_index(self, micro_model):
        m = micro_model
        ctx = EvalContext.for_model(m)
        rev = ReverseIndex.for_model(m)
        for i in range(m.n_servers):
            entries, starts, counts = ctx.comp_group(i)
            # entries are grouped by object with ascending entry ids —
            # the ReverseIndex tuple order
            for k in range(m.n_objects):
                ce, _ = rev.entries_for(i, k)
                sl = starts[k], starts[k] + counts[k]
                assert tuple(entries[sl[0] : sl[1]].tolist()) == ce

    def test_pair_table_covers_every_entry(self, micro_model):
        m = micro_model
        ctx = EvalContext.for_model(m)
        assert np.array_equal(
            ctx.pair_server[ctx.comp_pair], ctx.comp_server
        )
        assert np.array_equal(
            ctx.pair_object[ctx.comp_pair], m.comp_objects
        )
        assert np.array_equal(ctx.pair_server[ctx.opt_pair], ctx.opt_server)
        assert np.array_equal(ctx.pair_object[ctx.opt_pair], m.opt_objects)


class TestIsFrequencyClone:
    def test_same_instance(self, micro_model):
        assert is_frequency_clone(micro_model, micro_model)

    def test_frequency_clone_accepted(self, micro_model):
        clone = freq_clone(micro_model, [9.0, 8.0, 7.0, 6.0])
        assert is_frequency_clone(micro_model, clone)
        assert is_frequency_clone(clone, micro_model)

    def test_structural_change_detected(self, micro_model, tiny_model):
        assert not is_frequency_clone(micro_model, tiny_model)

    def test_capacity_change_detected(self, micro_model):
        from tests.conftest import build_micro_model

        tighter = build_micro_model(storage=(700.0, 900.0))
        assert not is_frequency_clone(micro_model, tighter)


class TestAdoptFrequencyContext:
    def test_structural_columns_shared_by_reference(self, micro_model):
        base_ctx = EvalContext.for_model(micro_model)
        clone = freq_clone(micro_model, [9.0, 8.0, 7.0, 6.0])
        assert adopt_frequency_context(micro_model, clone)
        ctx = EvalContext.for_model(clone)
        assert ctx is not base_ctx
        # structural columns transfer by reference — no rebuild
        assert ctx.comp_sizes is base_ctx.comp_sizes
        assert ctx.opt_sizes is base_ctx.opt_sizes
        assert ctx.pair_indptr is base_ctx.pair_indptr
        assert ctx.page_server is base_ctx.page_server
        # frequency columns are fresh arrays bound to the clone
        assert ctx.frequencies is clone.frequencies
        assert ctx.comp_freq is not base_ctx.comp_freq

    def test_refreshed_columns_bit_identical_to_fresh_build(self, micro_model):
        new_f = [9.0, 8.0, 7.0, 6.0]
        EvalContext.for_model(micro_model)
        adopted = freq_clone(micro_model, new_f)
        adopt_frequency_context(micro_model, adopted)
        fresh = freq_clone(micro_model, new_f)  # no adoption: full build
        ctx_a = EvalContext.for_model(adopted)
        ctx_f = EvalContext.for_model(fresh)
        for col in (
            "frequencies",
            "comp_freq",
            "opt_freq_weight",
            "html_request_load",
        ):
            assert np.array_equal(getattr(ctx_a, col), getattr(ctx_f, col)), col
        assert ctx_a.scalars.freq == ctx_f.scalars.freq

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_adoption_bit_identical_property(self, data):
        """For any universe and any new frequency vector, the adopted
        (refreshed) context equals a from-scratch build exactly."""
        model = data.draw(system_models())
        EvalContext.for_model(model)
        new_f = data.draw(
            st.lists(
                st.floats(0.0, 50.0, allow_nan=False),
                min_size=model.n_pages,
                max_size=model.n_pages,
            )
        )
        adopted = freq_clone(model, new_f)
        adopt_frequency_context(model, adopted)
        fresh = freq_clone(model, new_f)
        ctx_a = EvalContext.for_model(adopted)
        ctx_f = EvalContext.for_model(fresh)
        for col in (
            "frequencies",
            "comp_freq",
            "opt_freq_weight",
            "html_request_load",
        ):
            assert np.array_equal(getattr(ctx_a, col), getattr(ctx_f, col)), col
        assert ctx_a.scalars.freq == ctx_f.scalars.freq

    def test_structural_mismatch_rejected(self, micro_model, tiny_model):
        with pytest.raises(ValueError, match="frequency-only clone"):
            adopt_frequency_context(micro_model, tiny_model)

    def test_no_cached_context_returns_false(self, micro_model):
        clone = freq_clone(micro_model, [1.0, 1.0, 1.0, 1.0])
        assert not adopt_frequency_context(micro_model, clone)

    def test_existing_context_kept(self, micro_model):
        EvalContext.for_model(micro_model)
        clone = freq_clone(micro_model, [1.0, 1.0, 1.0, 1.0])
        own = EvalContext.for_model(clone)  # clone builds its own first
        assert not adopt_frequency_context(micro_model, clone)
        assert EvalContext.for_model(clone) is own

    def test_reverse_index_transferred(self, micro_model):
        ReverseIndex.for_model(micro_model)
        clone = freq_clone(micro_model, [2.0, 2.0, 2.0, 2.0])
        adopt_frequency_context(micro_model, clone)
        rev = ReverseIndex.for_model(clone)
        assert rev.model is clone
        assert rev.comp_entries is ReverseIndex.for_model(micro_model).comp_entries


class TestIncrementalObjective:
    def test_resync_bit_identical_to_cost_model(self, micro_model):
        alloc = partition_all(micro_model)
        cost = CostModel(micro_model, alpha1=2.0, alpha2=1.0)
        inc = IncrementalObjective(alloc.ctx, alloc, alpha1=2.0, alpha2=1.0)
        assert inc.D == cost.D(alloc)
        assert inc.D1 == cost.D1(alloc)
        assert inc.D2 == cost.D2(alloc)

    def test_flip_tracks_exact_evaluator(self, micro_model):
        rng = np.random.default_rng(7)
        alloc = partition_all(micro_model)
        cost = CostModel(micro_model, alpha1=2.0, alpha2=1.0)
        inc = IncrementalObjective(alloc.ctx, alloc, alpha1=2.0, alpha2=1.0)
        shadow = alloc.copy()
        for _ in range(25):
            if rng.random() < 0.5 and len(shadow.comp_local):
                e = rng.integers(0, len(shadow.comp_local), size=2)
                to = bool(rng.random() < 0.5)
                inc.flip_comp(e, to)
                shadow.set_comp_local_bulk(np.unique(e), to)
            elif len(shadow.opt_local):
                e = rng.integers(0, len(shadow.opt_local), size=2)
                to = bool(rng.random() < 0.5)
                inc.flip_opt(e, to)
                shadow.set_opt_local_bulk(np.unique(e), to)
            exact = cost.D(shadow)
            assert inc.D == pytest.approx(exact, rel=1e-12, abs=1e-9)
        # the escape hatch lands exactly on the full evaluator
        assert inc.resync() == cost.D(shadow)

    def test_noop_flips_ignored(self, micro_model):
        alloc = partition_all(micro_model)
        inc = IncrementalObjective(alloc.ctx, alloc)
        d0 = inc.D
        already = alloc.comp_local.nonzero()[0]
        assert inc.flip_comp(already, True) == d0
        assert inc.flip_comp(np.array([], dtype=np.intp), False) == d0

    def test_duplicate_entries_flip_once(self, micro_model):
        alloc = Allocation(micro_model)
        cost = CostModel(micro_model)
        inc = IncrementalObjective(alloc.ctx, alloc)
        inc.flip_comp(np.array([2, 2, 0, 2]), True)
        shadow = Allocation(micro_model)
        shadow.set_comp_local_bulk(np.array([0, 2]), True)
        assert inc.resync() == cost.D(shadow)

    def test_resync_every_clears_drift(self, micro_model):
        alloc = Allocation(micro_model)
        cost = CostModel(micro_model)
        inc = IncrementalObjective(alloc.ctx, alloc, resync_every=1)
        shadow = Allocation(micro_model)
        for e in range(min(4, len(alloc.comp_local))):
            inc.flip_comp(np.array([e]), True)
            shadow.set_comp_local(e, True)
            # resync_every=1 forces an exact recompute after every flip
            assert inc.D == cost.D(shadow)

    def test_invalid_args_rejected(self, micro_model):
        alloc = Allocation(micro_model)
        with pytest.raises(ValueError, match="alpha"):
            IncrementalObjective(alloc.ctx, alloc, alpha1=0.0)
        with pytest.raises(ValueError, match="resync_every"):
            IncrementalObjective(alloc.ctx, alloc, resync_every=0)
