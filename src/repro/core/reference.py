"""Scalar reference oracles for PARTITION and the restoration loops.

The paper-faithful per-page / per-candidate implementations of Section
4.2, kept as the oracles the differential suites, the golden
regressions and the kernel benches compare the vectorised engines
against:

* :func:`partition_all_reference` — the per-page PARTITION loop over
  :func:`~repro.core.partition.partition_page` (batched twin:
  :func:`~repro.core.partition.partition_all`);
* :func:`restore_storage_reference` / :func:`restore_processing_reference`
  — the Eq. 10 / Eq. 8 greedy loops on a lazily-revalidated ``heapq``
  (batched twins: :func:`~repro.core.restoration.restore_storage_capacity`
  / :func:`~repro.core.restoration.restore_processing_capacity`).

Each oracle takes the same arguments as its twin and returns the same
allocation and statistics bit for bit.  Nothing under ``src/repro``
imports this module (``scripts/check_layering.py`` enforces it): only
tests and ``benchmarks/`` call it, so the program has one engine.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Collection, Iterable

import numpy as np

from repro.core.allocation import Allocation, ReverseIndex
from repro.core.constraints import local_processing_load
from repro.core.cost_model import CostModel
from repro.core.partition import (
    OptionalPolicy,
    SortOrder,
    _optional_marks,
    partition_page,
)
from repro.core.restoration import (
    _TOL,
    InfeasibleError,
    ProcessingRestorationStats,
    StorageRestorationStats,
    _resolve_servers,
)
from repro.core.types import SystemModel

__all__ = [
    "partition_all_reference",
    "restore_storage_reference",
    "restore_processing_reference",
]


# ----------------------------------------------------------------------
# PARTITION
# ----------------------------------------------------------------------
def partition_all_reference(
    model: SystemModel,
    optional_policy: OptionalPolicy = "all",
    allowed_per_server: dict[int, Collection[int]] | None = None,
    order: SortOrder = "decreasing",
) -> Allocation:
    """Scalar oracle of :func:`~repro.core.partition.partition_all`: the
    per-page greedy, one page at a time."""
    alloc = Allocation(model)
    for j in range(model.n_pages):
        page = model.pages[j]
        allowed = (
            None
            if allowed_per_server is None
            else allowed_per_server.get(page.server, ())
        )
        sl = model.comp_slice(j)
        comp_marks, alloc.comp_stream[sl], _, _ = partition_page(
            model, j, allowed, order=order
        )
        for off, val in enumerate(comp_marks):
            if val:
                alloc.set_comp_local(sl.start + off, True)
        opt_marks = _optional_marks(model, j, optional_policy, allowed)
        slo = model.opt_slice(j)
        for off, val in enumerate(opt_marks):
            if val:
                alloc.set_opt_local(slo.start + off, True)
    return alloc


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
class _PageState:
    """Incrementally maintained per-page stream byte totals.

    Kept as plain Python lists: the greedy loops evaluate single-page
    times millions of times, and list indexing is several times faster
    than NumPy scalar indexing.  ``stream_bytes[j][r-1]`` is page
    ``j``'s byte total on remote stream ``r``; a move to remote lands on
    the stream whose resulting time is lowest (ties to the lowest stream
    index).
    """

    def __init__(self, cost: CostModel, alloc: Allocation):
        self.cost = cost
        self.alloc = alloc
        self.local_bytes: list[float] = cost.local_mo_bytes(alloc).tolist()
        self.stream_bytes: list[list[float]] = np.stack(
            cost.remote_mo_bytes_by_stream(alloc), axis=1
        ).tolist()

    def page_time(self, j: int) -> float:
        return self.cost.page_time_from_bytes(
            j, self.local_bytes[j], *self.stream_bytes[j]
        )

    def best_stream(self, j: int, size: float) -> int:
        """Remote stream (1-based) with the lowest time after +``size``."""
        s = self.cost.scalars
        best, best_t = 0, np.inf
        for r, (ov, sp, sb) in enumerate(
            zip(s.ovhd_remote[j], s.spb_remote[j], self.stream_bytes[j]), 1
        ):
            t = ov + sp * (sb + size)
            if t < best_t:
                best, best_t = r, t
        return best

    def page_time_if_moved_remote(self, j: int, size: float) -> float:
        sb = self.stream_bytes[j][:]
        sb[self.best_stream(j, size) - 1] += size
        return self.cost.page_time_from_bytes(j, self.local_bytes[j] - size, *sb)

    def move_remote(self, j: int, size: float, stream: int) -> None:
        self.local_bytes[j] -= size
        self.stream_bytes[j][stream - 1] += size

    def move_local(self, j: int, size: float, stream: int) -> None:
        self.local_bytes[j] += size
        self.stream_bytes[j][stream - 1] -= size

    def hop(self, j: int, size: float, old: int, new: int) -> None:
        self.stream_bytes[j][old - 1] -= size
        self.stream_bytes[j][new - 1] += size


def _eviction_delta(
    cost: CostModel,
    alloc: Allocation,
    state: _PageState,
    server_id: int,
    object_id: int,
    rev: ReverseIndex | None = None,
) -> float:
    """Objective change from deallocating ``object_id`` at ``server_id``.

    Every page currently downloading the object locally would switch that
    download to the repository stream (Eq. 3/4 totals shift); every
    optional local mark pays the repository single-download time instead.
    The follow-up re-partitioning can only improve on this, so the score
    is a safe upper bound for ranking.
    """
    m = alloc.model
    if rev is None:
        rev = ReverseIndex.for_model(m)
    comp_e, opt_e = rev.entries_for(server_id, object_id)
    size = float(m.sizes[object_id])
    freq = cost.scalars.freq
    comp_pages = m.comp_pages
    comp_local = alloc.comp_local
    delta = 0.0
    for e in comp_e:
        if comp_local[e]:
            j = int(comp_pages[e])
            old = state.page_time(j)
            new = state.page_time_if_moved_remote(j, size)
            delta += cost.alpha1 * freq[j] * (new - old)
    opt_local = alloc.opt_local
    for e in opt_e:
        if opt_local[e]:
            delta += cost.optional_entry_delta(e, to_local=False)
    return delta


class _LazyHeap:
    """Min-heap with lazy revalidation of scores.

    Entries are ``(score, tiebreak, key)``.  ``pop_valid`` recomputes the
    score via ``rescore``; if the fresh score exceeds the stored one the
    entry is reinserted, otherwise the key is returned.  Keys may appear
    multiple times; ``alive`` filters out retired keys.
    """

    def __init__(self):
        self._heap: list[tuple[float, int, object]] = []
        self._counter = itertools.count()

    def push(self, score: float, key: object) -> None:
        heapq.heappush(self._heap, (score, next(self._counter), key))

    def pop_valid(self, rescore, alive) -> tuple[float, object] | None:
        while self._heap:
            score, _, key = heapq.heappop(self._heap)
            if not alive(key):
                continue
            fresh = rescore(key)
            if fresh > score + _TOL:
                self.push(fresh, key)
                continue
            return fresh, key
        return None

    def __len__(self) -> int:
        return len(self._heap)


# ----------------------------------------------------------------------
# storage restoration (Eq. 10)
# ----------------------------------------------------------------------
def _restore_storage_one_server(
    alloc: Allocation,
    cost: CostModel,
    state: _PageState,
    server_id: int,
    amortise: bool = True,
) -> StorageRestorationStats:
    m = alloc.model
    # one O(E) reverse-index build (cached per model) shared by every score
    rev = ReverseIndex.for_model(m)
    stats = StorageRestorationStats()

    capacity = m.server_storage[server_id]
    html_bytes = float(
        m.html_sizes[np.asarray(m.pages_by_server[server_id], dtype=np.intp)].sum()
    ) if m.pages_by_server[server_id] else 0.0
    used = html_bytes + alloc.stored_bytes(server_id)
    if used <= capacity + _TOL:
        return stats
    if html_bytes > capacity + _TOL:
        raise InfeasibleError(
            f"server {server_id}: hosted HTML ({html_bytes:.0f} B) alone "
            f"exceeds storage capacity ({capacity:.0f} B)"
        )

    heap = _LazyHeap()

    def score(k: int) -> float:
        raw = _eviction_delta(cost, alloc, state, server_id, int(k), rev)
        if not amortise:
            return raw
        return raw / float(m.sizes[int(k)])

    for k in alloc.replicas[server_id]:
        heap.push(score(k), k)

    def repartition_flipped(pages: list[int]) -> None:
        """Re-run PARTITION for the pages an eviction touched, restricted
        to the server's remaining replica set."""
        for j in pages:
            marks, streams, _, _ = partition_page(
                m, j, allowed=alloc.replicas[server_id]
            )
            apply_repartition(j, marks, streams)

    def apply_repartition(j: int, marks: np.ndarray, streams: np.ndarray) -> None:
        """Install page ``j``'s re-partitioned marks, refreshing state.

        ``streams`` carries the per-entry owning remote stream; a remote
        entry that merely changed stream still shifts the page's stream
        totals, so it counts as a change.
        """
        sl = m.comp_slice(j)
        stale: set[int] = set()
        changed = False
        for off in range(sl.stop - sl.start):
            e = sl.start + off
            new = bool(marks[off])
            k = int(m.comp_objects[e])
            r_old = int(alloc.comp_stream[e])
            r = int(streams[off])
            if bool(alloc.comp_local[e]) != new:
                size = float(m.sizes[k])
                if new:
                    state.move_local(j, size, r_old)
                    alloc.set_comp_local(e, True)
                else:
                    alloc.set_comp_local(e, False)
                    alloc.comp_stream[e] = r
                    state.move_remote(j, size, r)
                changed = True
                stale.add(k)
            elif new:
                # still marked local: its eviction delta shifts with the
                # page's new stream totals
                stale.add(k)
            elif r_old != r:
                # remote entry hopping streams: totals shift on both
                state.hop(j, float(m.sizes[k]), r_old, r)
                alloc.comp_stream[e] = r
                changed = True
        if changed:
            stats.repartitioned_pages += 1
            replicas = alloc.replicas[server_id]
            for k in stale:
                if k in replicas:
                    heap.push(score(k), k)

    while used > capacity + _TOL:
        popped = heap.pop_valid(
            rescore=score, alive=lambda k: k in alloc.replicas[server_id]
        )
        if popped is None:
            raise InfeasibleError(
                f"server {server_id}: storage constraint unrestorable "
                f"(used {used:.0f} B > capacity {capacity:.0f} B with no "
                "replicas left)"
            )
        delta, k = popped
        k = int(k)
        size = float(m.sizes[k])
        # flip marks to remote, updating page stream totals
        comp_e, opt_e = rev.entries_for(server_id, k)
        flipped_pages: list[int] = []
        for e in comp_e:
            if alloc.comp_local[e]:
                j = int(m.comp_pages[e])
                alloc.set_comp_local(e, False)
                r = state.best_stream(j, size)
                alloc.comp_stream[e] = r
                state.move_remote(j, size, r)
                flipped_pages.append(j)
        for e in opt_e:
            if alloc.opt_local[e]:
                alloc.set_opt_local(e, False)
        alloc.replicas[server_id].discard(k)
        used -= size
        stats.evictions += 1
        stats.bytes_freed += size
        stats.objective_delta += delta * size if amortise else delta
        stats.evicted_objects.append((server_id, k))
        # Paper: after each deallocation, try to reduce the retrieval time
        # of the affected pages using objects that are stored but unmarked.
        if flipped_pages:
            repartition_flipped(flipped_pages)
    return stats


def restore_storage_reference(
    alloc: Allocation,
    cost: CostModel,
    server_id: int | None = None,
    amortise: bool = True,
    servers: Iterable[int] | None = None,
) -> StorageRestorationStats:
    """Scalar oracle of
    :func:`~repro.core.restoration.restore_storage_capacity` (same
    parameters, same evictions in the same order, same stats)."""
    stats = StorageRestorationStats()
    state = _PageState(cost, alloc)
    for i in _resolve_servers(alloc.model.n_servers, server_id, servers):
        stats.merge(
            _restore_storage_one_server(alloc, cost, state, i, amortise=amortise)
        )
    return stats


# ----------------------------------------------------------------------
# processing restoration (Eq. 8)
# ----------------------------------------------------------------------
def _candidate_load(alloc: Allocation, key: tuple[str, int]) -> float:
    """Requests/second shed by switching candidate ``key`` to remote."""
    m = alloc.model
    kind, e = key
    if kind == "comp":
        return float(m.frequencies[m.comp_pages[e]])
    j = int(m.opt_pages[e])
    return float(
        m.frequencies[j] * m.optional_rate_scale[j] * m.opt_probs[e]
    )


def _restore_processing_one_server(
    alloc: Allocation,
    cost: CostModel,
    state: _PageState,
    server_id: int,
) -> ProcessingRestorationStats:
    m = alloc.model
    stats = ProcessingRestorationStats()
    capacity = float(m.server_capacity[server_id])
    if np.isinf(capacity):
        return stats

    pages_here = np.asarray(m.pages_by_server[server_id], dtype=np.intp)
    html_load = float(m.frequencies[pages_here].sum()) if len(pages_here) else 0.0
    load = float(local_processing_load(alloc)[server_id])
    if load <= capacity + _TOL:
        return stats
    if html_load > capacity + _TOL:
        raise InfeasibleError(
            f"server {server_id}: HTML request load ({html_load:.2f} req/s) "
            f"alone exceeds processing capacity ({capacity:.2f} req/s)"
        )

    heap = _LazyHeap()

    def score(key: tuple[str, int]) -> float:
        kind, e = key
        shed = _candidate_load(alloc, key)
        if shed <= 0:
            return np.inf
        if kind == "comp":
            j = int(m.comp_pages[e])
            size = float(m.sizes[m.comp_objects[e]])
            old = state.page_time(j)
            new = state.page_time_if_moved_remote(j, size)
            raw = cost.alpha1 * m.frequencies[j] * (new - old)
        else:
            raw = cost.optional_entry_delta(e, to_local=False)
        return raw / shed

    def alive(key: tuple[str, int]) -> bool:
        kind, e = key
        return bool(
            alloc.comp_local[e] if kind == "comp" else alloc.opt_local[e]
        )

    ctx = alloc.ctx
    for e in (alloc.comp_local & (ctx.comp_server == server_id)).nonzero()[0]:
        heap.push(score(("comp", int(e))), ("comp", int(e)))
    for e in (alloc.opt_local & (ctx.opt_server == server_id)).nonzero()[0]:
        heap.push(score(("opt", int(e))), ("opt", int(e)))

    # Absolute tolerance scaled to the capacity: the running ``load``
    # accumulates one floating subtraction per switch, and a fraction-0
    # sweep must terminate exactly when only HTML requests remain.
    tol = max(_TOL, 1e-9 * max(capacity, html_load, 1.0))
    switches_since_resync = 0
    while True:
        if switches_since_resync >= 4096:
            # periodic mid-loop resync bounds accumulated drift
            load = float(local_processing_load(alloc)[server_id])
            switches_since_resync = 0
        if load <= capacity + tol:
            # The running accumulator says Eq. 8 holds — but it drifts by
            # one floating subtraction per switch, so near-tolerance
            # capacities could otherwise terminate one switch early or
            # late.  Trust only an exact recomputation to declare done.
            load = float(local_processing_load(alloc)[server_id])
            if load <= capacity + tol:
                break
        popped = heap.pop_valid(rescore=score, alive=alive)
        if popped is None:
            # no candidates left: re-verify against the exact load before
            # declaring infeasibility (the accumulator may overestimate)
            load = float(local_processing_load(alloc)[server_id])
            if load <= capacity + tol:
                break
            raise InfeasibleError(
                f"server {server_id}: processing constraint unrestorable "
                f"(load {load:.2f} req/s > capacity {capacity:.2f} req/s "
                "with no local downloads left)"
            )
        amortised, key = popped
        kind, e = key
        shed = _candidate_load(alloc, key)
        if kind == "comp":
            e = int(e)
            j = int(m.comp_pages[e])
            k = int(m.comp_objects[e])
            size = float(m.sizes[k])
            alloc.set_comp_local(e, False)
            r = state.best_stream(j, size)
            alloc.comp_stream[e] = r
            state.move_remote(j, size, r)
            # every other local candidate of this page is now stale
            sl = m.comp_slice(j)
            for e2 in range(sl.start, sl.stop):
                if e2 != e and alloc.comp_local[e2]:
                    heap.push(score(("comp", e2)), ("comp", e2))
        else:
            e = int(e)
            k = int(m.opt_objects[e])
            alloc.set_opt_local(e, False)
        stats.switches += 1
        stats.load_shed += shed
        stats.objective_delta += amortised * shed
        load -= shed
        switches_since_resync += 1
        # Paper: an object no longer marked local by any page on the
        # server is deallocated, freeing storage as a bonus.
        if alloc.mark_count(server_id, k) == 0 and k in alloc.replicas[server_id]:
            alloc.replicas[server_id].discard(k)
            stats.deallocations += 1
    # the break above recomputed ``load`` exactly, so Eq. 8 provably holds
    assert load <= capacity + tol, (
        f"server {server_id}: Eq. 8 violated on exit "
        f"({load:.6f} > {capacity:.6f} + tol)"
    )
    return stats


def restore_processing_reference(
    alloc: Allocation,
    cost: CostModel,
    server_id: int | None = None,
    servers: Iterable[int] | None = None,
) -> ProcessingRestorationStats:
    """Scalar oracle of
    :func:`~repro.core.restoration.restore_processing_capacity`."""
    stats = ProcessingRestorationStats()
    state = _PageState(cost, alloc)
    for i in _resolve_servers(alloc.model.n_servers, server_id, servers):
        stats.merge(_restore_processing_one_server(alloc, cost, state, i))
    return stats
