"""Batched greedy-restoration engines behind :mod:`repro.core.restoration`.

The Section 4.2 restoration loops (storage and processing) are
specified in :mod:`repro.core.reference` as scalar oracles built on a
lazily-revalidated ``heapq``: every
candidate action is pushed with its score, and each pop recomputes the
candidate's score against current state — stale entries are reinserted,
fresh ones accepted.  At paper scale one restoration run performs ~10^6
heap operations and ~10^6 scalar Eq. 3-5 evaluations.

This module re-implements those loops on flat NumPy arrays while
producing **bit-identical decision sequences** — every eviction and
switch happens for the same candidate with the same score and the same
tie-break as the scalar path.  Two ideas make that possible:

1. **Dirty-slice rescoring.**  Fresh scores live in a dense ``f`` array
   indexed by candidate key.  An action only perturbs the scores of
   candidates touching the mutated pages, so the engines track a dirty
   set and recompute exactly that slice in bulk (one fused Eq. 3-5
   pipeline + one ``np.bincount`` segment sum whose in-order
   accumulation replays the scalar per-candidate ``+=`` fold
   term-for-term).

2. **A closed form for one lazy pop** (:class:`VectorLazyHeap`).
   Between two state changes the fresh scores are fixed, so one whole
   ``pop_valid`` call — including every dead pop, stale reinsert and
   revalidation along the way — collapses to ``W = min(A, B)`` where
   ``A`` is the first entry in ``(score, counter)`` order that is alive
   and revalidates (``f[k] <= stored + tol``), and ``B`` is the
   minimum-``f`` stale-but-alive entry before ``A`` (first occurrence
   on ties; it wins only if strictly below ``A``'s stored score because
   its reinsert counter is newer).  Entries before the winner are
   consumed: dead ones dropped, stale ones reinserted with fresh scores
   in scan order — exactly what the scalar loop does one pop at a time.

See DESIGN.md Appendix D for the full argument.
"""

from __future__ import annotations

import numpy as np

from repro.core.allocation import Allocation
from repro.core.constraints import local_processing_load
from repro.core.cost_model import CostModel
from repro.core.fast_partition import partition_pages_batched
from repro.core.partition import partition_page

__all__ = [
    "VectorLazyHeap",
    "restore_storage_batched",
    "restore_processing_batched",
]

#: kept in lockstep with ``restoration._TOL`` / ``offload._TOL``
_TOL = 1e-9

_REFILL = object()  # internal sentinel: scan exhausted the active array


class VectorLazyHeap:
    """Array-backed priority queue replicating ``_LazyHeap`` semantics.

    Entries are ``(score, counter, key)`` with a monotonically increasing
    counter as the tie-break, exactly like the scalar heap.  The entries
    are split into a small sorted *active* prefix (everything with score
    ``<= tau``) scanned vectorised, and a *reserve* holding the tail
    (score ``> tau``).  The reserve is log-structured: pushes land in a
    small unsorted buffer, full buffers become sorted runs, and runs of
    similar size are merged so at most ``O(log n)`` exist — refilling the
    active array then peels only the run *fronts* (the globally smallest
    entries are always within the first ``target`` of each run), keeping
    every reserve operation amortised instead of rescanning the whole
    tail.

    ``purge_dead``, when given, is a live reference to the engine's
    by-key aliveness mask under the contract that **death is permanent**
    (storage evictions and processing switches never resurrect a key).
    Dead entries can never be accepted and are invisible to every
    decision the scalar heap makes, so the reserve drops them whenever a
    merge or refill touches them anyway — the multiset of *live*
    entries, and hence the pop sequence, is untouched.  A caller whose
    keys can come back to life must not pass it.

    ``pop_round`` performs one full ``pop_valid`` equivalent: given the
    current fresh-score array ``f`` and aliveness mask, it returns the
    same ``(fresh_score, key)`` the scalar loop would return, consumes
    the same entries, and performs the same stale reinserts with the
    same counter ordering (see the module docstring for the
    ``W = min(A, B)`` argument).  The optional ``dirty``/``rescore``
    hooks refresh stale slices of ``f`` lazily, chunk by chunk, as the
    scan reaches them — candidates the scan never touches are never
    rescored, exactly like the scalar heap's revalidate-on-pop.
    """

    def __init__(
        self, active_target: int = 1024, purge_dead: np.ndarray | None = None
    ):
        self._s = np.empty(0, dtype=np.float64)
        self._c = np.empty(0, dtype=np.int64)
        self._k = np.empty(0, dtype=np.int64)
        self._h = 0  # consumed prefix of the active arrays
        self._tau = np.inf  # active/reserve score boundary
        self._buf: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._buf_n = 0  # entries sitting in the unsorted buffer
        self._runs: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._count = 0  # next push counter (scalar ``itertools.count``)
        self._n = 0  # unconsumed entries
        self._target = int(active_target)
        self._spill_at = 4 * self._target
        self._buf_max = 32 * self._target
        self._purge = purge_dead

    def __len__(self) -> int:
        return self._n

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def push_batch(self, scores: np.ndarray, keys: np.ndarray) -> None:
        """Push entries in order; counters are assigned in input order."""
        scores = np.asarray(scores, dtype=np.float64)
        keys = np.asarray(keys, dtype=np.int64)
        self._push_raw(scores, keys, skip=-1)

    def _push_raw(self, scores: np.ndarray, keys: np.ndarray, skip: int) -> None:
        """Insert a batch; ``skip >= 0`` consumes that row's counter but
        drops the entry (an accepted winner leaves the heap, yet its
        reinsert slot still advanced the scalar counter)."""
        n = len(scores)
        if n == 0:
            return
        counters = np.arange(self._count, self._count + n, dtype=np.int64)
        self._count += n
        if skip >= 0:
            keep = np.ones(n, dtype=bool)
            keep[skip] = False
            scores = scores[keep]
            counters = counters[keep]
            keys = keys[keep]
            n -= 1
            if n == 0:
                return
        # stable sort by score: equal scores keep input (= counter) order,
        # so the batch itself ends up in (score, counter) order
        order = np.argsort(scores, kind="stable")
        scores = scores[order]
        counters = counters[order]
        keys = keys[order]
        self._n += n
        if np.isinf(self._tau):
            lo = n
        else:
            lo = int(np.searchsorted(scores, self._tau, side="right"))
        if lo < n:
            self._buf.append((scores[lo:], counters[lo:], keys[lo:]))
            self._buf_n += n - lo
            if self._buf_n >= self._buf_max:
                self._flush_buf()
        if lo > 0:
            self._merge_active(scores[:lo], counters[:lo], keys[:lo])
            self._maybe_spill()

    def _drop_dead(self, s, c, k):
        """Filter a reserve slice through the permanent-death mask."""
        keep = self._purge[k]
        if not keep.all():
            self._n -= len(k) - int(np.count_nonzero(keep))
            return s[keep], c[keep], k[keep]
        return s, c, k

    def _flush_buf(self) -> None:
        """Sort the push buffer into one reserve run (amortised)."""
        if not self._buf:
            return
        if len(self._buf) == 1:
            bs, bc, bk = self._buf[0]
        else:
            bs = np.concatenate([t[0] for t in self._buf])
            bc = np.concatenate([t[1] for t in self._buf])
            bk = np.concatenate([t[2] for t in self._buf])
        self._buf = []
        self._buf_n = 0
        if self._purge is not None:
            bs, bc, bk = self._drop_dead(bs, bc, bk)
            if not len(bk):
                return
        # the concatenated buffer is counter-ordered between batches and
        # (score, counter)-ordered within each, so a stable sort on score
        # alone yields exact (score, counter) order — no lexsort needed
        order = np.argsort(bs, kind="stable")
        self._runs.append((bs[order], bc[order], bk[order]))
        self._balance_runs()

    def _balance_runs(self) -> None:
        """Merge similar-sized runs so at most O(log n) exist.  Each
        entry takes part in O(log n) merges over its reserve lifetime."""
        runs = self._runs
        while len(runs) >= 2 and len(runs[-2][0]) <= 2 * len(runs[-1][0]):
            s2, c2, k2 = runs.pop()
            s1, c1, k1 = runs.pop()
            s = np.concatenate((s1, s2))
            c = np.concatenate((c1, c2))
            k = np.concatenate((k1, k2))
            if self._purge is not None:
                s, c, k = self._drop_dead(s, c, k)
            # timsort gallops through the two pre-sorted halves in ~O(n);
            # ties keep concat order, which is only wrong if a tie block
            # mixes the halves with inverted counters — detect exactly
            # that and fall back to the full (score, counter) lexsort
            order = np.argsort(s, kind="stable")
            ms, mc = s[order], c[order]
            if np.any((ms[1:] == ms[:-1]) & (mc[1:] < mc[:-1])):
                order = np.lexsort((c, s))
                ms, mc = s[order], c[order]
            runs.append((ms, mc, k[order]))

    def _merge_active(self, bs, bc, bk) -> None:
        h = self._h
        rs, rc, rk = self._s[h:], self._c[h:], self._k[h:]
        # new entries have strictly larger counters than every existing
        # one, so on score ties they sort after: side="right"
        pos = np.searchsorted(rs, bs, side="right")
        tgt = pos + np.arange(len(bs))
        total = len(rs) + len(bs)
        out_s = np.empty(total, dtype=np.float64)
        out_c = np.empty(total, dtype=np.int64)
        out_k = np.empty(total, dtype=np.int64)
        mask = np.ones(total, dtype=bool)
        mask[tgt] = False
        out_s[tgt] = bs
        out_c[tgt] = bc
        out_k[tgt] = bk
        out_s[mask] = rs
        out_c[mask] = rc
        out_k[mask] = rk
        self._s, self._c, self._k = out_s, out_c, out_k
        self._h = 0

    def _maybe_spill(self) -> None:
        """Move the active tail to a reserve chunk when it outgrows the
        merge-friendly size (keeps per-push merge cost bounded)."""
        h = self._h
        if len(self._s) - h <= self._spill_at:
            return
        v = float(self._s[h + self._target - 1])
        cut = h + int(np.searchsorted(self._s[h:], v, side="right"))
        if cut >= len(self._s):
            return
        # the active tail is already (score, counter)-sorted: a run as-is
        self._runs.append(
            (self._s[cut:].copy(), self._c[cut:].copy(), self._k[cut:].copy())
        )
        self._balance_runs()
        self._s = self._s[h:cut].copy()
        self._c = self._c[h:cut].copy()
        self._k = self._k[h:cut].copy()
        self._h = 0
        self._tau = v  # reserve invariant: every reserve entry is > tau

    def _has_reserve(self) -> bool:
        return bool(self._buf_n or self._runs)

    def _refill(self) -> None:
        """Pull the globally smallest reserve entries into the active
        array.  Every run is sorted, so the ``target`` smallest reserve
        entries all sit within the first ``target`` of each run: one
        ``np.partition`` over those fronts finds the pivot and each run
        hands over its ``<= pivot`` prefix (ties included), preserving
        the tau invariant exactly without touching the runs' tails."""
        T = self._target
        self._flush_buf()
        runs = self._runs
        if not runs:
            self._tau = np.inf  # reserve empty: future pushes go active
            return
        if len(runs) == 1:
            cat = runs[0][0][:T]
        else:
            cat = np.concatenate([r[0][:T] for r in runs])
        if len(cat) > T:
            v = float(np.partition(cat, T - 1)[T - 1])
        else:
            v = np.inf
        parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        rest: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for s, c, k in runs:
            cnt = (
                len(s)
                if np.isinf(v)
                else int(np.searchsorted(s, v, side="right"))
            )
            if cnt:
                parts.append((s[:cnt], c[:cnt], k[:cnt]))
            if cnt < len(s):
                rest.append((s[cnt:], c[cnt:], k[cnt:]))
        self._runs = rest
        if len(parts) == 1:
            ts, tc, tk = parts[0]
        else:
            ts = np.concatenate([p[0] for p in parts])
            tc = np.concatenate([p[1] for p in parts])
            tk = np.concatenate([p[2] for p in parts])
        if self._purge is not None:
            ts, tc, tk = self._drop_dead(ts, tc, tk)
        order = np.argsort(ts, kind="stable")
        ms, mc = ts[order], tc[order]
        if np.any((ms[1:] == ms[:-1]) & (mc[1:] < mc[:-1])):
            order = np.lexsort((tc, ts))
        # every taken entry is > old tau, so appending keeps (s, c) order
        self._s = np.concatenate((self._s[self._h :], ts[order]))
        self._c = np.concatenate((self._c[self._h :], tc[order]))
        self._k = np.concatenate((self._k[self._h :], tk[order]))
        self._h = 0
        self._tau = v

    # ------------------------------------------------------------------
    # extraction
    # ------------------------------------------------------------------
    def pop_round(
        self,
        f: np.ndarray,
        alive: np.ndarray,
        tol: float = _TOL,
        dirty: np.ndarray | None = None,
        rescore=None,
    ) -> tuple[float, int] | None:
        """One scalar ``pop_valid`` equivalent against fresh scores ``f``
        and aliveness mask ``alive`` (both indexed by key).

        ``dirty``/``rescore``: optional lazy-refresh hooks.  ``dirty`` is
        a by-key staleness mask; as the scan reaches a chunk, the fresh
        scores of its dirty alive keys are recomputed in one
        ``rescore(keys)`` call and the flags cleared — the batched
        mirror of the scalar heap recomputing a candidate's score the
        moment it pops."""
        while True:
            out = self._scan(f, alive, tol, dirty, rescore)
            if out is not _REFILL:
                return out
            self._refill()

    def _scan(self, f, alive, tol, dirty, rescore):
        s, k, h = self._s, self._k, self._h
        n = len(s)
        # A = first alive entry whose fresh score revalidates
        a_idx = -1
        pos = h
        chunk = 128
        while pos < n:
            end = min(n, pos + chunk)
            kk = k[pos:end]
            ok = alive[kk]
            if ok.any():
                if dirty is not None:
                    dm = dirty[kk] & ok
                    if dm.any():
                        sel = kk[dm]
                        f[sel] = rescore(sel)
                        dirty[sel] = False
                acc = ok & (f[kk] <= s[pos:end] + tol)
                nz = acc.nonzero()[0]
                if len(nz):
                    a_idx = pos + int(nz[0])
                    break
            pos = end
            chunk = min(chunk * 4, 1 << 16)
        if a_idx < 0 and self._has_reserve():
            return _REFILL  # the scalar scan would keep popping
        hi = a_idx if a_idx >= 0 else n
        ks = k[h:hi]
        al = alive[ks]
        st = al.nonzero()[0]  # stale-but-alive prefix entries
        fB = None
        if len(st):
            fs = f[ks[st]]
            b = int(np.argmin(fs))  # first occurrence wins ties
            fB = float(fs[b])
        if a_idx >= 0 and (fB is None or not (fB < float(s[a_idx]))):
            # A wins (a reinserted B at fB == s_A has a newer counter and
            # would pop after A — strict inequality is the exact boundary)
            kA = int(k[a_idx])
            out = (float(f[kA]), kA)
            self._n -= a_idx + 1 - h
            self._h = a_idx + 1
            if len(st):
                # prefix stale entries were reinserted before A popped
                self._push_raw(fs, ks[st].astype(np.int64), skip=-1)
            return out
        if fB is not None:
            # B wins: the scalar loop pops every entry with score <= fB
            # (their counters predate B's reinsert), reinserting the
            # stale ones, then accepts B's reinserted entry
            ss = s[h:hi]
            cut = int(np.searchsorted(ss, fB, side="right"))
            within = st[st < cut]
            vals = f[ks[within]]
            keys2 = ks[within].astype(np.int64)
            bpos = int(np.searchsorted(within, st[b]))
            kB = int(keys2[bpos])
            self._n -= cut
            self._h = h + cut
            self._push_raw(vals, keys2, skip=bpos)
            return (fB, kB)
        # every remaining entry is dead and the reserve is empty
        self._n -= n - h
        self._h = n
        return None


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def _expand(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ragged-expand CSR (starts, counts) rows into (index, owner) pairs."""
    counts = np.asarray(counts, dtype=np.intp)
    if len(counts) == 1:
        c0 = int(counts[0])
        s0 = int(starts[0])
        return (
            np.arange(s0, s0 + c0, dtype=np.intp),
            np.zeros(c0, dtype=np.intp),
        )
    total = int(counts.sum())
    owner = np.repeat(np.arange(len(counts), dtype=np.intp), counts)
    if total == 0:
        return np.empty(0, dtype=np.intp), owner
    cum = np.concatenate(([0], np.cumsum(counts)[:-1]))
    within = np.arange(total, dtype=np.intp) - np.repeat(cum, counts)
    idx = np.repeat(np.asarray(starts, dtype=np.intp), counts) + within
    return idx, owner


def _bump(counters: dict | None, n: int) -> None:
    if counters is not None and n:
        counters["batches"] = counters.get("batches", 0) + 1
        counters["candidates"] = counters.get("candidates", 0) + n


def _moved_remote_times(tl, tl2, ovhds, spbs, rbs, sz):
    """Page times before and after moving ``sz`` bytes off the local
    stream onto the remote stream that ends up shortest.

    ``tl``/``tl2`` are the local stream times before/after the move;
    ``ovhds``/``spbs``/``rbs`` hold one array per remote stream (overhead,
    seconds-per-byte, byte total).  Each stream's after-move time is >=
    its before-move time (sizes and seconds-per-byte are positive, and
    IEEE add and multiply are monotone), so the receiving stream's new
    time is the minimum after-time and the new remote max is
    ``max(best after-time, old remote max)`` — exact, with no argmin or
    scatter.  With one remote stream that max is the after-time itself.
    """
    rem_old = best2 = None
    for ovr, spr, rb in zip(ovhds, spbs, rbs):
        tr = ovr + spr * rb
        tr2 = ovr + spr * (rb + sz)
        if rem_old is None:
            rem_old, best2 = tr, tr2
        else:
            np.maximum(rem_old, tr, out=rem_old)
            np.minimum(best2, tr2, out=best2)
    # the temporaries above are private, so the maxima reuse them
    np.maximum(best2, rem_old, out=best2)
    return np.maximum(tl, rem_old, out=rem_old), np.maximum(tl2, best2, out=best2)


def _best_stream(scalars, RBs: list[np.ndarray], j: int, size: float) -> int:
    """0-based remote stream of page ``j`` with the lowest time after
    receiving ``size`` bytes; a later stream must be strictly shorter
    (the scalar ``_PageState.best_stream`` rule)."""
    ovhds = scalars.ovhd_remote[j]
    spbs = scalars.spb_remote[j]
    best = 0
    best_t = ovhds[0] + spbs[0] * (RBs[0].item(j) + size)
    for r in range(1, len(RBs)):
        t = ovhds[r] + spbs[r] * (RBs[r].item(j) + size)
        if t < best_t:
            best, best_t = r, t
    return best


# ----------------------------------------------------------------------
# storage restoration (Eq. 10)
# ----------------------------------------------------------------------
class _EvictionScorer:
    """Bulk eviction-delta evaluation for one server.

    Precomputes a per-compulsory-entry attribute matrix (one 2-D fancy
    gather per flush) and per-object CSR group tables so that scoring a
    set of candidate objects is a single fused Eq. 3-5 pipeline plus one
    ``np.bincount`` segment sum.  The bincount accumulates weights
    sequentially in input order — compulsory terms in ascending entry
    order, then optional terms — replaying the scalar
    ``_eviction_delta`` ``+=`` fold bit-for-bit.
    """

    def __init__(self, cost: CostModel, alloc: Allocation, server_id: int):
        m = alloc.model
        self.m = m
        ctx = alloc.ctx
        # the per-server object-grouped CSR tables live in the shared
        # EvalContext
        self.ce, self.cstarts, self.ccounts = ctx.comp_group(server_id)
        pg = ctx.comp_pages[self.ce].astype(np.intp)
        self.pg = pg
        # rows: ovhd_l, spb_l, html, alpha1*freq, size, then ovhd_r and
        # spb_r of every remote stream r
        rows = [
            ctx.page_ovhd_local[pg],
            ctx.page_spb_local[pg],
            ctx.html_sizes[pg],
            cost.alpha1 * ctx.comp_freq[self.ce],
            ctx.comp_sizes[self.ce],
        ]
        for ov, sp in zip(ctx.page_ovhd_streams, ctx.page_spb_streams):
            rows += [ov[pg], sp[pg]]
        self.attrs = np.vstack(rows)
        self.oe, self.ostarts, self.ocounts = ctx.opt_group(server_id)
        self.oterm = cost.bulk_optional_entry_delta(self.oe, to_local=False)
        self.sizes = m.sizes

    def comp_entries(self, k: int) -> np.ndarray:
        """This object's compulsory entries on the server (ascending)."""
        s = self.cstarts[k]
        return self.ce[s : s + self.ccounts[k]]

    def opt_entries(self, k: int) -> np.ndarray:
        s = self.ostarts[k]
        return self.oe[s : s + self.ocounts[k]]

    def flush(
        self,
        cand: np.ndarray,
        comp_local: np.ndarray,
        opt_local: np.ndarray,
        LB: np.ndarray,
        RBs: list[np.ndarray],
        amortise: bool,
    ) -> np.ndarray:
        """Fresh eviction scores for candidate objects ``cand``.

        ``RBs[r-1]`` is stream ``r``'s per-page byte totals.  Each
        marked entry is scored as moving to the remote stream that ends
        up shortest after receiving it (see :func:`_moved_remote_times`).
        """
        idx, owner = _expand(self.cstarts[cand], self.ccounts[cand])
        if len(idx):
            mk = comp_local[self.ce[idx]]
            idx = idx[mk]
            owner = owner[mk]
        pg = self.pg[idx]
        A = self.attrs[:, idx]
        ovl, spl, html, a1f, sz = A[:5]
        lb = LB[pg]
        tl = ovl + spl * (html + lb)
        tl2 = ovl + spl * (html + (lb - sz))
        old, new = _moved_remote_times(
            tl, tl2, A[5::2], A[6::2], [RB[pg] for RB in RBs], sz
        )
        wc = a1f * (new - old)
        ocounts = self.ocounts[cand]
        if ocounts.any():
            oidx, oowner = _expand(self.ostarts[cand], ocounts)
            if len(oidx):
                omk = opt_local[self.oe[oidx]]
                oidx = oidx[omk]
                oowner = oowner[omk]
            ow = self.oterm[oidx]
            sums = np.bincount(
                np.concatenate((owner, oowner)),
                weights=np.concatenate((wc, ow)),
                minlength=len(cand),
            )
        else:
            # no optional terms: the concatenated fold degenerates to
            # the compulsory stream — same accumulation order
            sums = np.bincount(owner, weights=wc, minlength=len(cand))
        if amortise:
            sums = sums / self.sizes[cand]
        return sums


def restore_storage_batched(
    alloc: Allocation,
    cost: CostModel,
    server_id: int,
    amortise: bool = True,
    batch_min_pages: int = 64,
    counters: dict | None = None,
):
    """Batched twin of ``reference._restore_storage_one_server``.

    Produces the identical eviction sequence, statistics and final
    allocation (including ``replicas`` set mutation history — flips go
    through the per-entry setters in the scalar order).
    """
    # deferred: restoration imports this module at load time
    from repro.core.restoration import InfeasibleError, StorageRestorationStats

    m = alloc.model
    stats = StorageRestorationStats()
    capacity = m.server_storage[server_id]
    html_bytes = (
        float(
            m.html_sizes[
                np.asarray(m.pages_by_server[server_id], dtype=np.intp)
            ].sum()
        )
        if m.pages_by_server[server_id]
        else 0.0
    )
    used = html_bytes + alloc.stored_bytes(server_id)
    if used <= capacity + _TOL:
        return stats
    if html_bytes > capacity + _TOL:
        raise InfeasibleError(
            f"server {server_id}: hosted HTML ({html_bytes:.0f} B) alone "
            f"exceeds storage capacity ({capacity:.0f} B)"
        )

    scorer = _EvictionScorer(cost, alloc, server_id)
    scal = alloc.ctx.scalars
    LB = cost.local_mo_bytes(alloc)
    RBs = list(cost.remote_mo_bytes_by_stream(alloc))
    comp_stream = alloc.comp_stream
    comp_local = alloc.comp_local
    opt_local = alloc.opt_local
    sizes_list = m.sizes.tolist()
    comp_objects = m.comp_objects
    comp_indptr = m.comp_indptr
    indptr = m.fast_comp[3]

    n_obj = len(m.sizes)
    f = np.zeros(n_obj)
    replica_mask = np.zeros(n_obj, dtype=bool)
    # evicted objects never return: dead reserve entries may be purged
    heap = VectorLazyHeap(purge_dead=replica_mask)
    replicas = alloc.replicas[server_id]
    dirty = np.zeros(n_obj, dtype=bool)

    init_keys = np.fromiter(replicas, dtype=np.intp, count=len(replicas))
    replica_mask[init_keys] = True
    vals = scorer.flush(init_keys, comp_local, opt_local, LB, RBs, amortise)
    _bump(counters, len(init_keys))
    f[init_keys] = vals
    heap.push_batch(vals, init_keys)

    allowed_mask = np.zeros(len(comp_objects), dtype=bool)
    rows = alloc.ctx.comp_group(server_id)[0]
    allowed_mask[rows] = np.isin(comp_objects[rows], init_keys)

    def rescore(keys: np.ndarray) -> np.ndarray:
        """Scan-time refresh of candidates whose pages changed without a
        repartition push (the scalar path rescores them lazily on pop)."""
        vals = scorer.flush(keys, comp_local, opt_local, LB, RBs, amortise)
        _bump(counters, len(keys))
        return vals

    def flush_batch(keys: list[int]) -> None:
        """Recompute + push fresh scores (the scalar post-change pushes)."""
        karr = np.asarray(keys, dtype=np.intp)
        vals = scorer.flush(karr, comp_local, opt_local, LB, RBs, amortise)
        _bump(counters, len(karr))
        f[karr] = vals
        heap.push_batch(vals, karr)

    def prepare_repartition(j: int, marks: np.ndarray, streams: np.ndarray):
        """Diff the page's re-partitioned ``marks``/``streams`` against its
        current state without mutating anything.  Page slices are
        disjoint, so every page of one eviction can be diffed up front —
        the state each diff sees is the same one the scalar interleaved
        flip/diff sequence sees.

        A remote entry that merely hops streams counts as a change (its
        page's stream totals shift) but does not enter the stale set —
        matching the scalar ``apply_repartition``.
        """
        start, stop = indptr[j], indptr[j + 1]
        cur = comp_local[start:stop]
        local_either = cur | marks
        changed = cur != marks
        cur_streams = comp_stream[start:stop]
        if cur_streams.tobytes() != streams.tobytes():
            # some entry's stream differs: remote-to-remote hops count
            changed |= ~local_either & (cur_streams != streams)
        offs = changed.nonzero()[0]
        if not len(offs):
            return None  # scalar: ``changed`` stays False, nothing pushed
        objs_page = comp_objects[start:stop]
        # stale set built with the scalar insertion sequence (ascending
        # offsets, flipped-or-still-marked); iteration below replays the
        # scalar's hash-order walk, so it must stay a real set
        stale = set(objs_page[local_either.nonzero()[0]].tolist())
        push_keys = [k2 for k2 in stale if k2 in replicas]
        return (
            j, start, offs, objs_page[offs], marks[offs], streams[offs],
            stale, push_keys,
        )

    def apply_flips(plan) -> None:
        """Mark flips and stream hops in ascending entry order, through
        the per-entry setter, accumulating the byte totals one move at a
        time — the scalar ``apply_repartition`` float-op sequence."""
        j, start, offs, objs, new_marks, new_streams, stale, _ = plan
        lb = LB[j]
        rbs = [RB[j] for RB in RBs]
        for off, k2, newv, r in zip(
            offs.tolist(), objs.tolist(), new_marks.tolist(), new_streams.tolist()
        ):
            e = start + off
            size2 = sizes_list[k2]
            r_old = int(comp_stream[e])
            if newv:
                alloc.set_comp_local(e, True)
                lb += size2
                rbs[r_old - 1] -= size2
                continue
            if comp_local[e]:
                alloc.set_comp_local(e, False)
                lb -= size2
            else:
                rbs[r_old - 1] -= size2
            rbs[r - 1] += size2
            if r != r_old:
                comp_stream[e] = r
        LB[j] = lb
        for RB, rb in zip(RBs, rbs):
            RB[j] = rb
        stats.repartitioned_pages += 1
        # the pushed entries carry full fresh scores, so pending dirt on
        # these candidates is settled
        dirty[np.fromiter(stale, dtype=np.intp, count=len(stale))] = False

    def repartition_flipped(pages: list[int]) -> None:
        if len(pages) >= batch_min_pages:
            batch_marks, batch_streams, _, _ = partition_pages_batched(
                m, page_ids=pages, allowed_mask=allowed_mask
            )
            plans = []
            for j in pages:
                sl = m.comp_slice(j)
                plans.append(
                    prepare_repartition(j, batch_marks[sl], batch_streams[sl])
                )
        else:
            plans = [
                prepare_repartition(
                    j, *partition_page(m, j, allowed=replicas, ctx=alloc.ctx)[:2]
                )
                for j in pages
            ]
        plans = [p for p in plans if p is not None]
        if not plans:
            return
        # A pushed candidate scores identically whether computed right
        # after its own page's flips or after every page's: a key absent
        # from the other pages' stale sets holds no local marks there, so
        # their byte-total changes never enter its Eq. 3-5 sum.  When the
        # per-page push-key sets are disjoint the pushes therefore fuse
        # into one batch (concatenated in page order — same counters);
        # on overlap, fall back to the scalar flip/push interleave.
        disjoint = True
        if len(plans) > 1:
            seen: set[int] = set()
            for plan in plans:
                for k2 in plan[7]:
                    if k2 in seen:
                        disjoint = False
                        break
                    seen.add(k2)
                if not disjoint:
                    break
        if disjoint:
            for plan in plans:
                apply_flips(plan)
            all_keys = [k2 for plan in plans for k2 in plan[7]]
            if all_keys:
                flush_batch(all_keys)
        else:
            for plan in plans:
                apply_flips(plan)
                if plan[7]:
                    flush_batch(plan[7])

    while used > capacity + _TOL:
        popped = heap.pop_round(f, replica_mask, _TOL, dirty, rescore)
        if popped is None:
            raise InfeasibleError(
                f"server {server_id}: storage constraint unrestorable "
                f"(used {used:.0f} B > capacity {capacity:.0f} B with no "
                "replicas left)"
            )
        delta, k = popped
        size = sizes_list[k]
        comp_e = scorer.comp_entries(k)
        marked = comp_local[comp_e]
        flip_e = comp_e[marked]
        flip_pages = m.comp_pages[flip_e]
        flipped_pages = flip_pages.tolist()
        for e, j in zip(flip_e.tolist(), flipped_pages):
            alloc.set_comp_local(e, False)
            r = _best_stream(scal, RBs, j, size)
            comp_stream[e] = r + 1
            LB[j] -= size
            RBs[r][j] += size
        opt_e = scorer.opt_entries(k)
        for e in opt_e[opt_local[opt_e]].tolist():
            alloc.set_opt_local(e, False)
        replicas.discard(k)
        replica_mask[k] = False
        if len(comp_e):
            allowed_mask[comp_e] = False
        used -= size
        stats.evictions += 1
        stats.bytes_freed += size
        stats.objective_delta += delta * size if amortise else delta
        stats.evicted_objects.append((server_id, k))
        if flipped_pages:
            # candidates still marked on the touched pages now score
            # differently; repartition pushes fresh entries for changed
            # pages, flush_dirty covers the unchanged ones before the
            # next pop
            starts = comp_indptr[flip_pages]
            ents, _ = _expand(starts, comp_indptr[flip_pages + 1] - starts)
            dirty[comp_objects[ents[comp_local[ents]]]] = True
            repartition_flipped(flipped_pages)
    return stats


# ----------------------------------------------------------------------
# processing restoration (Eq. 8)
# ----------------------------------------------------------------------
def restore_processing_batched(
    alloc: Allocation,
    cost: CostModel,
    server_id: int,
    counters: dict | None = None,
):
    """Batched twin of ``reference._restore_processing_one_server``."""
    from repro.core.restoration import InfeasibleError, ProcessingRestorationStats

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

    ctx = alloc.ctx
    LB = cost.local_mo_bytes(alloc)
    RBs = list(cost.remote_mo_bytes_by_stream(alloc))
    comp_stream = alloc.comp_stream
    NC = len(m.comp_objects)
    n_keys = NC + len(m.opt_objects)
    f = np.zeros(n_keys)
    alive = np.zeros(n_keys, dtype=bool)
    # switched downloads never come back: dead entries may be purged
    heap = VectorLazyHeap(purge_dead=alive)

    def comp_scores(entries: np.ndarray) -> np.ndarray:
        # move-remote lands on the per-entry best stream (scalar
        # ``page_time_if_moved_remote`` rule)
        j = ctx.comp_pages[entries]
        size = ctx.comp_sizes[entries]
        lb = LB[j]
        ovl = ctx.page_ovhd_local[j]
        spl = ctx.page_spb_local[j]
        html = ctx.html_sizes[j]
        old, new = _moved_remote_times(
            ovl + spl * (html + lb),
            ovl + spl * (html + (lb - size)),
            [ov[j] for ov in ctx.page_ovhd_streams],
            [sp[j] for sp in ctx.page_spb_streams],
            [RB[j] for RB in RBs],
            size,
        )
        shed = ctx.comp_freq[entries]
        raw = (cost.alpha1 * shed) * (new - old)
        out = np.full(len(entries), np.inf)
        pos = shed > 0
        out[pos] = raw[pos] / shed[pos]
        _bump(counters, len(entries))
        return out

    def opt_scores(entries: np.ndarray) -> np.ndarray:
        raw = cost.bulk_optional_entry_delta(entries, to_local=False)
        shed = ctx.opt_freq_weight[entries]
        out = np.full(len(entries), np.inf)
        pos = shed > 0
        out[pos] = raw[pos] / shed[pos]
        _bump(counters, len(entries))
        return out

    ec = (alloc.comp_local & (ctx.comp_server == server_id)).nonzero()[0]
    vc = comp_scores(ec)
    eo = (alloc.opt_local & (ctx.opt_server == server_id)).nonzero()[0]
    vo = opt_scores(eo)
    f[ec] = vc
    f[NC + eo] = vo
    alive[ec] = True
    alive[NC + eo] = True
    heap.push_batch(np.concatenate((vc, vo)), np.concatenate((ec, NC + eo)))

    tol = max(_TOL, 1e-9 * max(capacity, html_load, 1.0))
    switches_since_resync = 0
    while True:
        if switches_since_resync >= 4096:
            load = float(local_processing_load(alloc)[server_id])
            switches_since_resync = 0
        if load <= capacity + tol:
            load = float(local_processing_load(alloc)[server_id])
            if load <= capacity + tol:
                break
        popped = heap.pop_round(f, alive, _TOL)
        if popped is None:
            load = float(local_processing_load(alloc)[server_id])
            if load <= capacity + tol:
                break
            raise InfeasibleError(
                f"server {server_id}: processing constraint unrestorable "
                f"(load {load:.2f} req/s > capacity {capacity:.2f} req/s "
                "with no local downloads left)"
            )
        amortised, key = popped
        if key < NC:
            e = key
            j = int(m.comp_pages[e])
            k = int(m.comp_objects[e])
            shed = float(ctx.comp_freq[e])
            size = float(m.sizes[k])
            alloc.set_comp_local(e, False)
            r = _best_stream(ctx.scalars, RBs, j, size)
            comp_stream[e] = r + 1
            LB[j] -= size
            RBs[r][j] += size
            alive[e] = False
            # every other local candidate of this page is now stale; the
            # scalar loop pushes each sibling with a fresh score (one
            # ``heap.push`` per sibling, ascending entry order) — one
            # batched push replicates scores and counter order exactly
            sl = m.comp_slice(j)
            sib = sl.start + alloc.comp_local[sl.start : sl.stop].nonzero()[0]
            if len(sib):
                vs = comp_scores(sib)
                f[sib] = vs
                heap.push_batch(vs, sib)
        else:
            e = key - NC
            k = int(m.opt_objects[e])
            shed = float(ctx.opt_freq_weight[e])
            alloc.set_opt_local(e, False)
            alive[key] = False
        stats.switches += 1
        stats.load_shed += shed
        stats.objective_delta += amortised * shed
        load -= shed
        switches_since_resync += 1
        if alloc.mark_count(server_id, k) == 0 and k in alloc.replicas[server_id]:
            alloc.replicas[server_id].discard(k)
            stats.deallocations += 1
    assert load <= capacity + tol, (
        f"server {server_id}: Eq. 8 violated on exit "
        f"({load:.6f} > {capacity:.6f} + tol)"
    )
    return stats
