"""Greedy constraint restoration (Section 4.2).

The unconstrained PARTITION output may violate the storage constraint
(Eq. 10) or the local processing constraint (Eq. 8).  The paper restores
them greedily:

**Storage** — repeatedly deallocate the stored MO whose removal hurts the
objective ``D`` least, *amortised over the object's size* ("to make our
criterion more judicious over large ... objects").  After each
deallocation, pages that were downloading the victim locally are
**re-partitioned** restricted to the server's remaining replica set —
"some MOs although stored in the server may not be marked for a local
download ... marking the above MOs for local downloads can now reduce
it".  Iterate until Eq. 10 holds.

**Local processing** — repeatedly switch the (page, local MO) download
pair whose move to the repository degrades ``D`` least, amortised over
the request workload the switch sheds ("over the difference between the
new workload and the required one").  An object left with no local mark
anywhere on the server is deallocated, freeing storage too.  Iterate
until Eq. 8 holds.

Both loops use a lazily-revalidated min-heap: candidate scores are pushed
eagerly, and on pop the score is recomputed against current state —
stale entries are reinserted with their fresh score.  Whenever an action
changes a page's stream totals, fresh scores for every candidate touching
that page are pushed, so the heap always contains an up-to-date entry for
every candidate.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.core.allocation import Allocation, ReverseIndex
from repro.core.constraints import local_processing_load
from repro.core.cost_model import CostModel
from repro.core.context import engine_kernel
from repro.core.partition import Kernel, partition_page, resolve_kernel
from repro.obs.registry import get_registry

__all__ = [
    "restore_storage_capacity",
    "restore_processing_capacity",
    "StorageRestorationStats",
    "ProcessingRestorationStats",
    "InfeasibleError",
]

_TOL = 1e-9

#: Minimum flip-set size for the batched re-partition kernel; below this
#: the scalar greedy wins on fixed dispatch overhead (results are
#: bit-identical either way).  On Table 1 pages (~45 greedy steps) one
#: batched call costs ~1.1 ms whatever the page count up to a few
#: hundred, against ~10-20 µs per page for the scalar kernel: the
#: crossover sits near 64-128 pages (2-core x86 host).
_BATCH_MIN_PAGES = 64


def _resolve_servers(
    n_servers: int,
    server_id: int | None,
    servers: Iterable[int] | None,
) -> list[int]:
    """Normalize the two server-restriction parameters to a sorted list.

    ``server_id`` (legacy single-server form) and ``servers`` (the
    incremental re-planner's localized-repair form) are mutually
    exclusive; with neither, every server is visited.  Duplicates
    collapse and the ascending order matches the full sweep, so a
    restricted run over all servers is bit-identical to the default.
    """
    if servers is not None:
        if server_id is not None:
            raise ValueError(
                "restoration accepts either server_id or servers, not both"
            )
        out = sorted({int(i) for i in servers})
        for i in out:
            if not 0 <= i < n_servers:
                raise ValueError(
                    f"server index {i} out of range [0, {n_servers})"
                )
        return out
    if server_id is None:
        return list(range(n_servers))
    return [server_id]


class InfeasibleError(RuntimeError):
    """Raised when a constraint cannot be restored by any decision.

    For storage this means a server's hosted HTML alone exceeds its
    capacity; for processing it means even serving HTML documents exceeds
    ``C(S_i)`` — both are workload-configuration errors, not algorithmic
    states.
    """


@dataclass
class StorageRestorationStats:
    """Accounting of one storage-restoration run."""

    evictions: int = 0
    repartitioned_pages: int = 0
    objective_delta: float = 0.0
    bytes_freed: float = 0.0
    evicted_objects: list[tuple[int, int]] = field(default_factory=list)

    def merge(self, other: "StorageRestorationStats") -> None:
        self.evictions += other.evictions
        self.repartitioned_pages += other.repartitioned_pages
        self.objective_delta += other.objective_delta
        self.bytes_freed += other.bytes_freed
        self.evicted_objects.extend(other.evicted_objects)


@dataclass
class ProcessingRestorationStats:
    """Accounting of one processing-restoration run."""

    switches: int = 0
    deallocations: int = 0
    objective_delta: float = 0.0
    load_shed: float = 0.0

    def merge(self, other: "ProcessingRestorationStats") -> None:
        self.switches += other.switches
        self.deallocations += other.deallocations
        self.objective_delta += other.objective_delta
        self.load_shed += other.load_shed


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


def restore_storage_capacity(
    alloc: Allocation,
    cost: CostModel,
    server_id: int | None = None,
    amortise: bool = True,
    kernel: Kernel = "batched",
    servers: Iterable[int] | None = None,
) -> StorageRestorationStats:
    """Restore Eq. 10 in place; return accounting statistics.

    Parameters
    ----------
    alloc:
        Allocation to repair (mutated).
    cost:
        Cost model supplying the objective ``D``.
    server_id:
        Restrict to one server; default repairs every violating server.
    servers:
        Restrict to an explicit server subset (ascending sweep, as the
        default full sweep would visit them).  Mutually exclusive with
        ``server_id``.  The incremental re-planner passes the servers
        whose load or storage actually changed.
    amortise:
        Divide each candidate's objective damage by its size (the paper's
        criterion, "more judicious over large ... objects").  ``False``
        ranks by raw damage — the ablation baseline.
    kernel:
        ``"batched"`` (default) runs the whole greedy loop on the
        vectorised engine of :mod:`repro.core.fast_restoration` (bulk
        dirty-slice rescoring + array-backed lazy heap); ``"scalar"``
        keeps this module's per-candidate reference loop.  Results are
        bit-identical either way — same evictions, same order, same
        stats.

    Raises
    ------
    InfeasibleError
        If a server's HTML alone exceeds its storage capacity.
    """
    kernel = engine_kernel(resolve_kernel(kernel))
    reg = get_registry()
    stats = StorageRestorationStats()
    server_list = _resolve_servers(alloc.model.n_servers, server_id, servers)
    rescore: dict = {}
    with reg.span("restore-storage"):
        if kernel == "batched":
            from repro.core.fast_restoration import restore_storage_batched

            for i in server_list:
                stats.merge(
                    restore_storage_batched(
                        alloc,
                        cost,
                        i,
                        amortise=amortise,
                        batch_min_pages=_BATCH_MIN_PAGES,
                        counters=rescore,
                    )
                )
        else:
            state = _PageState(cost, alloc)
            for i in server_list:
                stats.merge(
                    _restore_storage_one_server(
                        alloc, cost, state, i, amortise=amortise
                    )
                )
    if reg.enabled:
        reg.count("restoration.storage.runs")
        reg.count("restoration.storage.evictions", stats.evictions)
        reg.count(
            "restoration.storage.repartitioned_pages", stats.repartitioned_pages
        )
        reg.count("restoration.storage.bytes_freed", stats.bytes_freed)
        reg.count(
            "restoration.storage.objective_delta", stats.objective_delta
        )
        if rescore:
            reg.count(
                "restoration.storage.rescore_batches", rescore.get("batches", 0)
            )
            reg.count(
                "restoration.storage.rescored_candidates",
                rescore.get("candidates", 0),
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


def restore_processing_capacity(
    alloc: Allocation,
    cost: CostModel,
    server_id: int | None = None,
    kernel: Kernel = "batched",
    servers: Iterable[int] | None = None,
) -> ProcessingRestorationStats:
    """Restore Eq. 8 in place; return accounting statistics.

    ``kernel="batched"`` (default) runs the vectorised engine of
    :mod:`repro.core.fast_restoration`; ``"scalar"`` keeps the reference
    loop.  Decision sequences, stats and final allocations are
    bit-identical either way.  ``servers`` restricts the sweep to an
    explicit subset (mutually exclusive with ``server_id``); see
    :func:`restore_storage_capacity`.

    Raises
    ------
    InfeasibleError
        If a server's HTML request load alone exceeds ``C(S_i)``.
    """
    kernel = engine_kernel(resolve_kernel(kernel))
    reg = get_registry()
    stats = ProcessingRestorationStats()
    server_list = _resolve_servers(alloc.model.n_servers, server_id, servers)
    rescore: dict = {}
    with reg.span("restore-processing"):
        if kernel == "batched":
            from repro.core.fast_restoration import restore_processing_batched

            for i in server_list:
                stats.merge(
                    restore_processing_batched(alloc, cost, i, counters=rescore)
                )
        else:
            state = _PageState(cost, alloc)
            for i in server_list:
                stats.merge(
                    _restore_processing_one_server(alloc, cost, state, i)
                )
    if reg.enabled:
        reg.count("restoration.processing.runs")
        reg.count("restoration.processing.switches", stats.switches)
        reg.count("restoration.processing.deallocations", stats.deallocations)
        reg.count("restoration.processing.load_shed", stats.load_shed)
        reg.count(
            "restoration.processing.objective_delta", stats.objective_delta
        )
        if rescore:
            reg.count(
                "restoration.processing.rescore_batches",
                rescore.get("batches", 0),
            )
            reg.count(
                "restoration.processing.rescored_candidates",
                rescore.get("candidates", 0),
            )
    return stats
