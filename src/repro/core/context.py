"""One columnar home for per-model derived state: the :class:`EvalContext`.

Every layer of the pipeline — PARTITION (Section 4.2), the Eq. 8/10
restoration loops, OFF_LOADING (Eq. 9), the Eq. 3-7 cost model, the
baselines and the request-level simulator — evaluates the same matrices
``U``, ``U'``, ``A``, ``X``, ``X'`` over the same per-entry attributes.
Before this module each consumer re-derived its own slice of that state
(`CostModel` columns, `Allocation`'s pair grouping, the eviction
scorer's per-server gather, ad-hoc ``ReverseIndex`` threading …), once
per phase or worse.

:class:`EvalContext` is the consolidation: an immutable struct-of-arrays
built **once per** :class:`SystemModel` and cached on the model
(mirroring ``ReverseIndex.for_model``); the batched engines and the
scalar oracles of :mod:`repro.core.reference` read the same instance.
All expressions here are copied *verbatim* from the consumers they
replace — the arrays are bit-identical to what each consumer used to
compute privately, which is what keeps the golden regressions and the
differential oracle suites unchanged.

:class:`IncrementalObjective` layers delta evaluation of the composite
objective ``D = α₁·D₁ + α₂·D₂`` on top of the context: bulk mark flips
update the per-page byte totals and stream times of only the touched
pages.  Per-page byte totals are maintained *additively*, so ``D`` can
drift from the exact value by float-rounding ulps over long edit
sequences; :meth:`IncrementalObjective.resync` is the exact-recompute
escape hatch, restoring bit-equality with ``CostModel.D`` (the identity
argument lives in DESIGN.md Appendix E).
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.types import SystemModel, restrict_to_servers

__all__ = [
    "EvalContext",
    "IncrementalObjective",
    "ScalarViews",
    "rebuild_contexts",
    "clear_derived_state",
    "is_frequency_clone",
    "adopt_frequency_context",
]


@dataclass(frozen=True)
class ScalarViews:
    """Plain-list per-page attribute views (see :attr:`EvalContext.scalars`).

    NumPy scalar indexing costs ~1 microsecond per access; the greedy
    restoration loops evaluate millions of single-page times, so they
    read these plain ``list`` views instead.
    """

    ovhd_local: list[float]
    spb_local: list[float]
    html: list[float]
    freq: list[float]
    #: per page, the overheads / seconds-per-byte of its k−1 remote
    #: streams; element 0 of each row is the repository connection
    ovhd_remote: list[list[float]]
    spb_remote: list[list[float]]


_CACHE_ATTR = "_repro_eval_context_cache"
#: Per-model cache of server-subset contexts, keyed by the server-id
#: tuple (see ``EvalContext.for_servers``).
_SUBSET_CACHE_ATTR = "_repro_subset_context_cache"

#: Derived-state cache attributes attached to SystemModel instances.
_MODEL_CACHE_ATTRS = (
    _CACHE_ATTR,
    _SUBSET_CACHE_ATTR,
    "_repro_reverse_index_cache",
    "_fast_comp_cache",
)

_CACHE_ENABLED = [True]


@contextlib.contextmanager
def rebuild_contexts() -> Iterator[None]:
    """Disable the per-model context cache inside the ``with`` block.

    Every :meth:`EvalContext.for_model` call then builds a fresh context
    — the pre-consolidation behaviour where each consumer re-derived its
    own columns.  Used by ``benchmarks/bench_policy_end_to_end.py`` as
    the rebuild baseline arm; never use it in production paths.
    """
    _CACHE_ENABLED[0] = False
    try:
        yield
    finally:
        _CACHE_ENABLED[0] = True


def clear_derived_state(model: SystemModel) -> None:
    """Drop every derived-state cache attached to ``model``.

    Covers the eval context, the reverse index, and the plain-list
    PARTITION views.  Benchmark helper (cold-start timings); production
    code never needs it — the caches are pure functions of the model.
    """
    for attr in _MODEL_CACHE_ATTRS:
        if hasattr(model, attr):
            delattr(model, attr)


def is_frequency_clone(base: SystemModel, model: SystemModel) -> bool:
    """Whether ``model`` differs from ``base`` only in page frequencies.

    Checks every structural input the :class:`EvalContext` columns are
    derived from — page/object layout, sizes, per-server network
    attributes and capacities, optional probabilities and rate scales.
    ``True`` means all non-frequency derived state (CSR groups, pair
    tables, size expansions, Eq. 6 single-download times) is valid for
    ``model`` as-is, so :func:`adopt_frequency_context` may transfer it
    instead of rebuilding.  O(entries) array comparisons — orders of
    magnitude cheaper than a context rebuild.
    """
    if base is model:
        return True
    return (
        base.n_pages == model.n_pages
        and base.n_servers == model.n_servers
        and base.n_objects == model.n_objects
        and np.array_equal(base.comp_objects, model.comp_objects)
        and np.array_equal(base.opt_objects, model.opt_objects)
        and np.array_equal(base.page_server, model.page_server)
        and np.array_equal(base.sizes, model.sizes)
        and np.array_equal(base.html_sizes, model.html_sizes)
        and np.array_equal(base.opt_probs, model.opt_probs)
        and np.array_equal(base.optional_rate_scale, model.optional_rate_scale)
        and np.array_equal(base.server_rate, model.server_rate)
        and np.array_equal(base.server_overhead, model.server_overhead)
        and np.array_equal(base.server_repo_rate, model.server_repo_rate)
        and np.array_equal(base.server_repo_overhead, model.server_repo_overhead)
        and np.array_equal(base.stream_rates, model.stream_rates)
        and np.array_equal(base.stream_overheads, model.stream_overheads)
        and np.array_equal(base.server_storage, model.server_storage)
        and np.array_equal(base.server_capacity, model.server_capacity)
        and base.repository == model.repository
    )


def adopt_frequency_context(base: SystemModel, model: SystemModel) -> bool:
    """Seed ``model``'s derived-state caches from ``base``'s.

    ``model`` must be a frequency-only clone of ``base`` (same pages,
    objects, servers, sizes; only ``frequencies`` may differ — verified,
    raising :class:`ValueError` otherwise).  When ``base`` carries a
    cached :class:`EvalContext`, a refreshed context is installed on
    ``model``: structural columns (sizes, CSR groups, pair tables,
    stream-seed expansions) are shared **by reference** and only the
    frequency-derived columns are recomputed.  The (purely structural)
    reverse index and plain-list PARTITION views transfer too.

    Returns ``True`` when a context was transferred, ``False`` when
    ``base`` had none cached (nothing to do — ``model`` will build its
    own lazily).  The dynamic re-replication loop calls this through
    ``repro.dynamic.drift.replace_frequencies`` so consecutive epoch
    models never rebuild structural state.
    """
    if not is_frequency_clone(base, model):
        raise ValueError(
            "adopt_frequency_context requires a frequency-only clone: "
            "the models differ structurally"
        )
    if base is model:
        return True
    # Structural caches outside the context: plain-list PARTITION views
    # (sizes/order only) and the (server, object) -> entries reverse
    # index.  Both are pure functions of the structure.
    src_fast = getattr(base, "_fast_comp_cache", None)
    if src_fast is not None and getattr(model, "_fast_comp_cache", None) is None:
        model._fast_comp_cache = src_fast
    src_rev = getattr(base, "_repro_reverse_index_cache", None)
    if src_rev is not None and (
        getattr(model, "_repro_reverse_index_cache", None) is None
    ):
        from repro.core.allocation import ReverseIndex

        rev = ReverseIndex.__new__(ReverseIndex)
        rev.model = model
        rev.comp_entries = src_rev.comp_entries
        rev.opt_entries = src_rev.opt_entries
        setattr(model, "_repro_reverse_index_cache", rev)

    src_ctx: EvalContext | None = getattr(base, _CACHE_ATTR, None)
    if src_ctx is None or not _CACHE_ENABLED[0]:
        return False
    if getattr(model, _CACHE_ATTR, None) is not None:
        return False  # model already has its own context; keep it
    # a shallow copy shares every structural column by reference
    ctx = copy.copy(src_ctx)
    ctx.model = model
    ctx._refresh_frequency_columns()
    setattr(model, _CACHE_ATTR, ctx)
    return True


class EvalContext:
    """Immutable columnar derived state of one :class:`SystemModel`.

    Obtain instances through :meth:`for_model` — direct construction
    bypasses the per-model cache.  All array attributes are read-only
    views shared across every consumer; treat them as immutable.

    Column groups
    -------------
    * **per page** — ``page_spb_local``/``page_spb_repo`` (seconds per
      byte on the local / repository connection), ``page_ovhd_local``/
      ``page_ovhd_repo`` (connection overheads), plus the ``html_sizes``
      and ``frequencies`` aliases.
    * **per compulsory entry** (aligned with ``Allocation.comp_local``) —
      owning page/server, object id, object size, page frequency.
    * **per optional entry** — the same index columns plus the Eq. 6
      single-download times (``opt_time_local``/``opt_time_repo``) and
      the expected request weight ``opt_freq_weight`` =
      ``f(W_j)·scale·U'_jk``.
    * **per server** — hosted-HTML bytes (the fixed Eq. 10 term) and the
      HTML request load (the fixed Eq. 8 term).
    * **pair table** — the distinct ``(server, object)`` pairs any entry
      can mark, with per-entry pair indices (``comp_pair``/``opt_pair``)
      so mark-count bookkeeping reduces to ``np.bincount``.
    * **per-server CSR groups** — every server's entries sorted by
      object, with dense per-object ``starts``/``counts`` tables (see
      :meth:`comp_group`), feeding the eviction scorer and the reverse
      index without any per-phase scan-and-sort.
    """

    #: Global↔local maps of a server-subset context (see
    #: :meth:`for_servers`); ``None`` on a full-model context.
    global_servers: np.ndarray | None = None
    global_pages: np.ndarray | None = None
    global_comp_entries: np.ndarray | None = None
    global_opt_entries: np.ndarray | None = None

    def __init__(self, model: SystemModel):
        self.model = model
        self._build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        m = self.model
        self.n_pages = m.n_pages
        self.n_servers = m.n_servers
        self.n_objects = m.n_objects

        srv = m.page_server
        self.page_server = srv
        self.html_sizes = m.html_sizes
        self.frequencies = m.frequencies
        #: per-page seconds-per-byte on the local / repository connection
        self.page_spb_local = 1.0 / m.server_rate[srv]
        self.page_spb_repo = 1.0 / m.server_repo_rate[srv]
        #: per-page connection overheads
        self.page_ovhd_local = m.server_overhead[srv]
        self.page_ovhd_repo = m.server_repo_overhead[srv]

        self.comp_pages = m.comp_pages
        self.comp_objects = m.comp_objects
        self.comp_server = srv[m.comp_pages]
        self.comp_sizes = m.sizes[m.comp_objects]
        self.comp_freq = m.frequencies[m.comp_pages]

        po = m.opt_pages
        self.opt_pages = po
        self.opt_objects = m.opt_objects
        self.opt_server = srv[po]
        self.opt_sizes = m.sizes[m.opt_objects]
        self.opt_probs = m.opt_probs
        # Per-optional-entry single-download times (each needs its own TCP
        # connection, Eq. 6): local vs repository.
        self.opt_time_local = (
            self.page_ovhd_local[po] + self.page_spb_local[po] * self.opt_sizes
        )
        self.opt_time_repo = (
            self.page_ovhd_repo[po] + self.page_spb_repo[po] * self.opt_sizes
        )
        #: expected weight of each optional entry: f(W_j)·scale·U'_jk
        self.opt_freq_weight = (
            m.frequencies[po] * m.optional_rate_scale[po] * m.opt_probs
        )

        # Per-remote-stream seed columns (the k-stream generalization of
        # the Eq. 3-5 local/repository pair).  Element 0 IS the
        # repository column — the same array objects as
        # ``page_spb_repo`` / ``page_ovhd_repo`` / ``opt_time_repo`` —
        # so the paper's two-stream model is the one-element case.
        self.n_streams = int(m.n_streams)
        spb_rows = [self.page_spb_repo]
        ovhd_rows = [self.page_ovhd_repo]
        opt_rows = [self.opt_time_repo]
        for r in range(1, self.n_streams - 1):
            spb_r = 1.0 / m.stream_rates[srv, r]
            ovhd_r = m.stream_overheads[srv, r]
            spb_rows.append(spb_r)
            ovhd_rows.append(ovhd_r)
            opt_rows.append(ovhd_r[po] + spb_r[po] * self.opt_sizes)
        self.page_spb_streams = tuple(spb_rows)
        self.page_ovhd_streams = tuple(ovhd_rows)
        self.opt_time_streams = tuple(opt_rows)
        # Eq. 6 remote downloads take the cheapest stream (lowest index
        # on ties); ``min`` returns one of its inputs exactly
        stack = np.stack(opt_rows)
        self.opt_time_remote = stack.min(axis=0)
        self.opt_best_stream = (stack.argmin(axis=0) + 1).astype(np.int8)

        self.html_bytes_by_server = m.html_bytes_by_server()
        load = np.zeros(m.n_servers)
        np.add.at(load, srv, m.frequencies)
        self.html_request_load = load

        self.scalars = ScalarViews(
            ovhd_local=self.page_ovhd_local.tolist(),
            spb_local=self.page_spb_local.tolist(),
            html=m.html_sizes.tolist(),
            freq=m.frequencies.tolist(),
            ovhd_remote=np.stack(ovhd_rows, axis=1).tolist(),
            spb_remote=np.stack(spb_rows, axis=1).tolist(),
        )

        self._build_pair_table()
        (
            self._comp_grouped,
            self._comp_srv_indptr,
            self._comp_starts,
            self._comp_counts,
        ) = self._build_groups(self.comp_server, self.comp_objects)
        (
            self._opt_grouped,
            self._opt_srv_indptr,
            self._opt_starts,
            self._opt_counts,
        ) = self._build_groups(self.opt_server, self.opt_objects)

    def _build_pair_table(self) -> None:
        """The distinct ``(server, object)`` pairs, sorted ascending.

        ``comp_pair[e]`` / ``opt_pair[e]`` give each entry's row in the
        table; ``pair_indptr`` slices the (server-contiguous) table per
        server.  Mark counting becomes ``np.bincount`` over pair indices
        — integer counts, so exact regardless of accumulation order.
        """
        n_obj = self.n_objects
        key_c = self.comp_server * n_obj + self.comp_objects
        key_o = self.opt_server * n_obj + self.opt_objects
        keys = np.unique(np.concatenate([key_c, key_o]))
        self.n_pairs = len(keys)
        self.pair_server = keys // n_obj
        self.pair_object = keys % n_obj
        self.comp_pair = keys.searchsorted(key_c)
        self.opt_pair = keys.searchsorted(key_o)
        self.pair_indptr = self.pair_server.searchsorted(
            np.arange(self.n_servers + 1)
        )

    def _build_groups(
        self, entry_server: np.ndarray, entry_objects: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, tuple, tuple]:
        """Per-server entries grouped by object (stable: entry ascending).

        Returns ``(grouped, srv_indptr, starts, counts)`` where
        ``grouped[srv_indptr[i]:srv_indptr[i+1]]`` are server ``i``'s
        entries sorted by ``(object, entry)``, and ``starts[i]`` /
        ``counts[i]`` are dense per-object tables into that slice —
        the same layout ``fast_restoration._group_by_object`` produced
        per phase, now built once per model.
        """
        ne = len(entry_server)
        order = np.lexsort((np.arange(ne), entry_objects, entry_server))
        srv_indptr = entry_server[order].searchsorted(
            np.arange(self.n_servers + 1)
        )
        starts: list[np.ndarray] = []
        counts: list[np.ndarray] = []
        for i in range(self.n_servers):
            sl_objs = entry_objects[order[srv_indptr[i] : srv_indptr[i + 1]]]
            cnt = np.bincount(sl_objs, minlength=self.n_objects)
            starts.append(cnt.cumsum() - cnt)
            counts.append(cnt)
        return order, srv_indptr, tuple(starts), tuple(counts)

    def _refresh_frequency_columns(self) -> None:
        """Recompute the frequency-derived columns from ``self.model``.

        Called on a context whose structural columns were shared from a
        frequency-only clone (see :func:`adopt_frequency_context`).
        Exactly the frequency-derived columns are rebuilt — the expressions
        are copied verbatim from :meth:`_build`, so a refreshed context
        is bit-identical to a from-scratch build on the same model
        (property-tested in ``tests/core/test_context.py``).
        """
        m = self.model
        self.frequencies = m.frequencies
        self.comp_freq = m.frequencies[self.comp_pages]
        self.opt_freq_weight = (
            m.frequencies[self.opt_pages]
            * m.optional_rate_scale[self.opt_pages]
            * self.opt_probs
        )
        load = np.zeros(m.n_servers)
        np.add.at(load, self.page_server, m.frequencies)
        self.html_request_load = load
        self.scalars = dataclasses.replace(
            self.scalars, freq=m.frequencies.tolist()
        )

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def comp_group(self, server_id: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(entries, starts, counts)`` — server's compulsory entries
        grouped by object.  ``entries[starts[k]:starts[k]+counts[k]]``
        are the (ascending) entries referencing object ``k``; the dense
        tables span all ``n_objects``."""
        sl = slice(
            self._comp_srv_indptr[server_id], self._comp_srv_indptr[server_id + 1]
        )
        return (
            self._comp_grouped[sl],
            self._comp_starts[server_id],
            self._comp_counts[server_id],
        )

    def opt_group(self, server_id: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Optional-entry counterpart of :meth:`comp_group`."""
        sl = slice(
            self._opt_srv_indptr[server_id], self._opt_srv_indptr[server_id + 1]
        )
        return (
            self._opt_grouped[sl],
            self._opt_starts[server_id],
            self._opt_counts[server_id],
        )

    def comp_entries_of(self, server_id: int) -> np.ndarray:
        """Server's compulsory entries in **ascending entry order**.

        Unlike :meth:`comp_group` (grouped by object), this is the raw
        per-entry id list sorted ascending — the order in which
        ``Allocation.comp_local`` slices enumerate a server and the
        order the sharded delta wire format ships mark columns in
        (DESIGN.md Appendix I).  Built once per context via a stable
        argsort over ``comp_server`` and cached.
        """
        order, bounds = self._entries_by_server("comp")
        return order[bounds[server_id] : bounds[server_id + 1]]

    def opt_entries_of(self, server_id: int) -> np.ndarray:
        """Optional-entry counterpart of :meth:`comp_entries_of`."""
        order, bounds = self._entries_by_server("opt")
        return order[bounds[server_id] : bounds[server_id + 1]]

    def _entries_by_server(self, which: str) -> tuple[np.ndarray, np.ndarray]:
        attr = f"_lazy_{which}_by_server"
        cached = getattr(self, attr, None)
        if cached is None:
            entry_server = (
                self.comp_server if which == "comp" else self.opt_server
            )
            order = np.argsort(entry_server, kind="stable")
            bounds = entry_server[order].searchsorted(
                np.arange(self.n_servers + 1)
            )
            cached = (order, bounds)
            setattr(self, attr, cached)
        return cached

    @property
    def reverse_index(self):
        """The (cached) ``(server, object) → entries`` dict maps."""
        from repro.core.allocation import ReverseIndex

        return ReverseIndex.for_model(self.model)

    @property
    def fast_comp(self):
        """Plain-list PARTITION views (see ``SystemModel.fast_comp``)."""
        return self.model.fast_comp

    # ------------------------------------------------------------------
    # cache
    # ------------------------------------------------------------------
    @classmethod
    def for_model(cls, model: SystemModel) -> "EvalContext":
        """The (cached) context of ``model``: only the first call per
        model pays the build."""
        if not _CACHE_ENABLED[0]:
            return cls(model)
        ctx: EvalContext | None = getattr(model, _CACHE_ATTR, None)
        if ctx is None:
            ctx = cls(model)
            setattr(model, _CACHE_ATTR, ctx)
        return ctx

    @classmethod
    def for_servers(
        cls,
        model: SystemModel,
        servers,
    ) -> "EvalContext":
        """A context over only the sub-universe hosted by ``servers``.

        Builds a :func:`repro.core.types.restrict_to_servers` submodel
        (vectorised column slicing — objects keep global ids, pages and
        entries are renumbered densely in global order) and runs the
        normal :meth:`_build` over it, so **every** derived structure —
        entry columns, Eq. 3-5 stream seeds, pair table, per-server CSR
        groups, scalar views — is sized to the subset.  This is what
        makes a shard worker's setup cost proportional to its shard
        instead of to the whole model (DESIGN.md Appendix H).

        The returned context carries the global↔local index maps as
        ``global_servers`` / ``global_pages`` / ``global_comp_entries``
        / ``global_opt_entries`` (ascending global ids per local
        position), and its model is cached under the parent model per
        server subset so repeated requests (e.g. benchmark runs) build
        once.  Because the restriction preserves relative order
        everywhere — including the filtered ``comp_sorted`` permutation
        — any per-server decision sequence computed on the subset is
        bit-identical to the same computation on the full model masked
        to those servers (property-tested in
        ``tests/properties/test_property_sharded_policy.py``).
        """
        key = tuple(int(i) for i in servers)
        cache: dict | None = None
        if _CACHE_ENABLED[0]:
            cache = getattr(model, _SUBSET_CACHE_ATTR, None)
            if cache is None:
                cache = {}
                setattr(model, _SUBSET_CACHE_ATTR, cache)
            ctx = cache.get(key)
            if ctx is not None:
                return ctx
        sub, maps = restrict_to_servers(model, key)
        ctx = cls.for_model(sub)
        ctx.global_servers = maps["servers"]
        ctx.global_pages = maps["pages"]
        ctx.global_comp_entries = maps["comp_entries"]
        ctx.global_opt_entries = maps["opt_entries"]
        if cache is not None:
            cache[key] = ctx
        return ctx


class IncrementalObjective:
    """Delta-maintained composite objective ``D = α₁·D₁ + α₂·D₂``.

    Tracks its own copy of the mark arrays plus the per-page stream byte
    totals and times (Eq. 3-6).  :meth:`flip_comp` / :meth:`flip_opt`
    update only the touched pages; :meth:`resync` is the exact-recompute
    escape hatch whose result is bit-identical to ``CostModel.D`` on the
    same marks (both run the identical bincount → stream-time → dot
    pipeline).  Between resyncs ``D`` may drift from the exact value by
    accumulated float-rounding ulps — bounded in practice well below the
    greedy loops' ``1e-9`` tie tolerance, and property-tested against
    the exact evaluator.

    Parameters
    ----------
    ctx:
        The model's :class:`EvalContext`.
    alloc:
        Allocation whose marks seed the objective (copied, not aliased).
    alpha1, alpha2:
        Objective weights (Table 1 uses ``(2, 1)``).
    resync_every:
        Optional flip-batch period of automatic exact recomputes
        (mirroring the greedy loops' drift resyncs); ``None`` disables.
    """

    def __init__(
        self,
        ctx: EvalContext,
        alloc,
        alpha1: float = 2.0,
        alpha2: float = 1.0,
        resync_every: int | None = None,
    ):
        if alpha1 <= 0 or alpha2 <= 0:
            raise ValueError(
                f"alpha weights must be positive, got ({alpha1}, {alpha2})"
            )
        if resync_every is not None and resync_every <= 0:
            raise ValueError(
                f"resync_every must be positive or None, got {resync_every}"
            )
        self.ctx = ctx
        self.alpha1 = float(alpha1)
        self.alpha2 = float(alpha2)
        self.resync_every = resync_every
        self.comp_local = np.asarray(alloc.comp_local, dtype=bool).copy()
        self.opt_local = np.asarray(alloc.opt_local, dtype=bool).copy()
        streams = getattr(alloc, "comp_stream", None)
        if streams is None:
            streams = np.ones(len(self.comp_local), dtype=np.int8)
        self.comp_stream = np.asarray(streams, dtype=np.int8).copy()
        self._applied = 0
        self.resync()

    # ------------------------------------------------------------------
    def resync(self) -> float:
        """Exact recompute from the tracked marks; returns the fresh ``D``.

        Runs the same expression tree as ``CostModel.D`` (bincount byte
        totals → Eq. 3/4 stream times → Eq. 5 max → Eq. 6 optional sum →
        frequency dots), so the result is bit-identical to the full
        evaluator — the escape hatch that clears accumulated drift.
        """
        c = self.ctx
        sel = self.comp_local
        self._lb = np.bincount(
            c.comp_pages[sel], weights=c.comp_sizes[sel], minlength=c.n_pages
        )
        page_t = c.page_ovhd_local + c.page_spb_local * (c.html_sizes + self._lb)
        rem = ~sel
        rb_rows = []
        for r in range(1, c.n_streams):
            sel_r = rem & (self.comp_stream == r)
            rb = np.bincount(
                c.comp_pages[sel_r], weights=c.comp_sizes[sel_r], minlength=c.n_pages
            )
            rb_rows.append(rb)
            page_t = np.maximum(
                page_t, c.page_ovhd_streams[r - 1] + c.page_spb_streams[r - 1] * rb
            )
        self._rb_streams = tuple(rb_rows)
        self._page_t = page_t
        per_entry = np.where(self.opt_local, c.opt_time_local, c.opt_time_remote)
        self._opt_base = np.bincount(
            c.opt_pages, weights=c.opt_probs * per_entry, minlength=c.n_pages
        )
        self._opt_t = self._opt_base * self.ctx.model.optional_rate_scale
        self._d1 = float(np.dot(c.frequencies, self._page_t))
        self._d2 = float(np.dot(c.frequencies, self._opt_t))
        self._applied = 0
        return self.D

    # ------------------------------------------------------------------
    @property
    def D1(self) -> float:
        """:math:`D_1 = \\sum_j f(W_j)\\,Time(W_j)` (Eq. 5 aggregate)."""
        return self._d1

    @property
    def D2(self) -> float:
        """:math:`D_2 = \\sum_j f(W_j)\\,Time(W_j, M)` (Eq. 6 aggregate)."""
        return self._d2

    @property
    def D(self) -> float:
        """The weighted composite :math:`\\alpha_1 D_1 + \\alpha_2 D_2`."""
        return self.alpha1 * self._d1 + self.alpha2 * self._d2

    # ------------------------------------------------------------------
    def _changed(
        self, entries: np.ndarray, marks: np.ndarray, to_local: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(changed entry ids, positions of those ids in ``entries``)``.

        The positions keep any per-entry payload (the k>2 target-stream
        column) aligned with ``changed`` through the no-op filter and
        the duplicate dedup.
        """
        entries = np.asarray(entries, dtype=np.intp)
        idx = np.flatnonzero(marks[entries] != bool(to_local))
        changed = entries[idx]
        if len(changed) > 1 and not (changed[1:] > changed[:-1]).all():
            changed, first = np.unique(changed, return_index=True)
            idx = idx[first]
        return changed, idx

    def flip_comp(
        self,
        entries: np.ndarray,
        to_local: bool,
        streams: np.ndarray | None = None,
    ) -> float:
        """Flip compulsory marks in bulk; returns the updated ``D``.

        Entries already in the target state (and duplicates) are ignored,
        mirroring ``Allocation.set_comp_local_bulk``.  At k>2 a flip to
        remote lands each entry on ``streams`` (aligned with
        ``entries``; default stream 1, the repository), and a flip to
        local debits the stream the entry was previously assigned to.
        """
        changed, idx = self._changed(entries, self.comp_local, to_local)
        if len(changed) == 0:
            return self.D
        c = self.ctx
        pages = c.comp_pages[changed]
        sizes = c.comp_sizes[changed]
        if to_local:
            moved = self.comp_stream[changed]
            sign = -1.0
        else:
            moved = (
                np.ones(len(changed), dtype=np.int8)
                if streams is None
                else np.asarray(streams, dtype=np.int8)[idx]
            )
            self.comp_stream[changed] = moved
            sign = 1.0
        self.comp_local[changed] = to_local
        np.add.at(self._lb, pages, -sign * sizes)
        for r, rb in enumerate(self._rb_streams, 1):
            on_r = moved == r
            np.add.at(rb, pages[on_r], sign * sizes[on_r])
        up = np.unique(pages)
        new_t = c.page_ovhd_local[up] + c.page_spb_local[up] * (
            c.html_sizes[up] + self._lb[up]
        )
        for r, rb in enumerate(self._rb_streams, 1):
            new_t = np.maximum(
                new_t,
                c.page_ovhd_streams[r - 1][up] + c.page_spb_streams[r - 1][up] * rb[up],
            )
        self._d1 += float(np.dot(c.frequencies[up], new_t - self._page_t[up]))
        self._page_t[up] = new_t
        return self._bump()

    def flip_opt(self, entries: np.ndarray, to_local: bool) -> float:
        """Flip optional marks in bulk; returns the updated ``D``."""
        changed, _ = self._changed(entries, self.opt_local, to_local)
        if len(changed) == 0:
            return self.D
        c = self.ctx
        self.opt_local[changed] = to_local
        diff = c.opt_time_local[changed] - c.opt_time_remote[changed]
        if not to_local:
            diff = -diff
        pages = c.opt_pages[changed]
        np.add.at(self._opt_base, pages, c.opt_probs[changed] * diff)
        up = np.unique(pages)
        new_t = self._opt_base[up] * self.ctx.model.optional_rate_scale[up]
        self._d2 += float(np.dot(c.frequencies[up], new_t - self._opt_t[up]))
        self._opt_t[up] = new_t
        return self._bump()

    def _bump(self) -> float:
        self._applied += 1
        if self.resync_every is not None and self._applied >= self.resync_every:
            return self.resync()
        return self.D
