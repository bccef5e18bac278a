"""Sharded process-parallel policy runs (``shards=N``).

``RepositoryReplicationPolicy(shards=N)`` — ``--shards N`` on the CLI,
``REPRO_SHARDS`` for the CLI and ``ExperimentConfig.from_env`` — is the
only sharding switch: without a count the pipeline runs in one process,
with one it runs here.

The paper's pipeline pins every page to exactly one server, which makes
the hot phases *per-server decomposable*:

* **PARTITION** (Section 4.2) is per page — a page's greedy depends only
  on its own server's link parameters and its own objects;
* **storage restoration** (Eq. 10) and **processing restoration**
  (Eq. 8) are per server — every candidate score, eviction,
  re-partition and switch reads and writes only the target server's
  pages, entries and replica set;
* even **OFF_LOADING**'s server-side *absorption* (the inner loop of
  Eq. 9's negotiation) only touches the absorbing server — only the
  repository-side round bookkeeping (``NewReq`` shares, ``L3``
  demotion, message counts) is order-sensitive.

A sharded run exploits all three:

1. it splits the servers into ``shards`` groups (deterministic balanced
   LPT over per-server entry counts, :func:`plan_shards`);
2. each worker process builds a **shard-local**
   :class:`~repro.core.context.EvalContext` via
   :meth:`~repro.core.context.EvalContext.for_servers` — columns, CSR
   groups and page streams for exactly its servers' pages, so worker
   setup is O(shard) instead of O(model) — and runs PARTITION + both
   restorations on the restricted model through the same
   :func:`~repro.core.restoration.run_local_allocation` the protocol
   nodes use (:func:`_run_shard`);
3. the parent reconciles: scatters the per-shard mark/replica frontiers
   (shipped as *global* entry indices) back into one global
   :class:`~repro.core.allocation.Allocation`, recomputes objectives
   and constraints over the merged state, and replays the
   OFF_LOADING rounds with the repository-side bookkeeping in-process
   while each round's per-server absorptions scatter to the pool
   (:class:`_ShardedScatter` → :func:`_absorb_shard_batch`).

OFF_LOADING rounds are **delta rounds** (DESIGN.md Appendix I): each
worker keeps its shard's ``Allocation`` + shard-local ``EvalContext``
*resident* between submissions, keyed by ``(session, shard)`` and
validated by an exact-match round epoch.  The fan-out seeds the
resident state for free (a shard's post-restoration allocation *is*
the merged allocation restricted to that shard), so in steady state a
round ships only the round's absorption requests down and the flipped
``(server, object)`` marks back — O(round delta), not O(model).  All
of a round's absorptions addressed to the same shard travel in **one
batched submission**, routed to a pinned worker process by
:class:`_AffinityPool.submit_to`.  An epoch mismatch (different pool,
evicted state, a forced ``resync_every``) degrades to a full resync:
the parent re-ships the shard's mark slices and replica sets as
arrays, and the round proceeds identically (bit-identity never depends
on the fast path being taken).

Bit-identity is the contract, not an aspiration: the merged allocation,
objective, stats and phase list equal the in-process pipeline's exactly
(property-tested in ``tests/properties/test_property_sharded_policy.py``
and pinned by the golden regressions).  Three details make that hold:

* objectives are evaluated in the **parent** over merged marks — a
  per-shard partial ``np.dot`` would change float summation order;
* restoration stats are merged in **global server order**, reproducing
  the reference loop's accumulation sequence;
* the restricted model preserves *order*: objects keep their global
  ids, pages/entries are renumbered by a strictly increasing map, so
  every score, float partial sum and index tie-break inside a shard
  matches the full-model run restricted to that shard (DESIGN.md
  Appendix H).

Transport: one wire format, pickle.  A run pickles its model once
into a blob keyed by the blob's SHA-256 digest; workers unpickle it
once and cache it by digest in a small LRU, so back-to-back runs over
an equal model pay materialisation once per worker.  Shard results
and delta-round payloads are plain pickled arrays.  The blob travels
with the fan-out and with resync submissions only; steady-state delta
rounds carry no model bytes.

Worker processes come from an *injected* pool: anything with a
``submit(fn, *args) -> future`` method (the layering lint enforces that
this module never imports ``repro.experiments`` — pass
``repro.experiments.executor.persistent_pool(n)`` in from above, or let
:func:`default_pool` build a private stdlib pool).
"""

from __future__ import annotations

import atexit
import hashlib
import itertools
import os
import pickle
import time
from collections import OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Protocol, Sequence

import numpy as np

from repro import obs
from repro.core.allocation import Allocation
from repro.core.constraints import evaluate_constraints
from repro.core.context import EvalContext
from repro.core.cost_model import CostModel
from repro.core.offload import (
    OffloadConfig,
    OffloadOutcome,
    absorb_extra_workload,
    offload_repository,
)
from repro.core.restoration import (
    ProcessingRestorationStats,
    StorageRestorationStats,
    run_local_allocation,
)
from repro.core.types import SystemModel, pack_replicas, unpack_replicas
from repro.obs.manifest import WORKER_ENV_VAR
from repro.obs.registry import MetricsRegistry, use_registry
from repro.util.validation import env_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.policy import PolicyResult

__all__ = [
    "ShardPool",
    "InlineShardPool",
    "default_pool",
    "shutdown_shard_pool",
    "resolve_shards",
    "plan_shards",
    "run_sharded_policy",
]


# ----------------------------------------------------------------------
# pool injection
# ----------------------------------------------------------------------
class ShardPool(Protocol):
    """What the sharded driver needs from a worker pool.

    :class:`concurrent.futures.ProcessPoolExecutor` satisfies it, as
    does the persistent pool in ``repro.experiments.executor`` — which
    must be *passed in* by an upper layer, never imported from here.
    """

    def submit(self, fn, /, *args, **kwargs) -> Any:  # pragma: no cover
        """Schedule ``fn(*args, **kwargs)``; return a future with ``result()``."""
        ...


class InlineShardPool:
    """Serial in-process pool: ``submit`` runs the task immediately.

    The deterministic no-subprocess harness for the differential tests
    (Hypothesis drives hundreds of examples; forking per example would
    dominate) and a zero-dependency fallback anywhere process pools are
    unavailable.  Because it runs in-process, the driver skips the
    pickle round-trip (``inline = True``).
    """

    inline = True

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # noqa: BLE001 - mirror executor semantics
            future.set_exception(exc)
        return future


_POOL: "_AffinityPool | None" = None
_POOL_SIZE = 0


def _shard_worker_init() -> None:
    """Tag the process as a worker so run manifests get per-worker paths."""
    os.environ[WORKER_ENV_VAR] = str(os.getpid())


class _AffinityPool:
    """``workers`` single-process executors with stable index routing.

    Worker-resident shard state (DESIGN.md Appendix I) only pays off if
    shard ``g``'s submissions keep landing on the same OS process — a
    shared :class:`~concurrent.futures.ProcessPoolExecutor` routes to
    whichever worker is free, which would turn every delta round into
    an epoch-mismatch resync.  This pool pins routing instead:
    :meth:`submit_to` sends a task to executor ``idx % workers``, so
    the sharded driver maps shard → worker one-to-one.  Plain
    :meth:`submit` (the :class:`ShardPool` protocol) round-robins.

    Pools without ``submit_to`` still work everywhere it is used — the
    driver falls back to ``submit`` and the epoch validation downgrades
    misrouted batches to resyncs (correct, just slower).
    """

    def __init__(self, workers: int):
        self._execs = tuple(
            ProcessPoolExecutor(max_workers=1, initializer=_shard_worker_init)
            for _ in range(workers)
        )
        self._rr = itertools.count()

    def __len__(self) -> int:
        return len(self._execs)

    def submit(self, fn, /, *args, **kwargs) -> Any:
        return self.submit_to(next(self._rr), fn, *args, **kwargs)

    def submit_to(self, idx: int, fn, /, *args, **kwargs) -> Any:
        """Schedule ``fn`` on the executor pinned to ``idx`` (mod size)."""
        return self._execs[idx % len(self._execs)].submit(fn, *args, **kwargs)

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        for ex in self._execs:
            ex.shutdown(wait=wait, cancel_futures=cancel_futures)


def default_pool(workers: int) -> _AffinityPool:
    """A persistent private pool of at least ``workers`` processes.

    Used when no pool is injected.  Persistent for the same reason the
    experiment executor's pool is: workers cache unpickled models by
    content digest, so back-to-back runs (benchmark repeats, golden
    tests) skip the per-run model transfer cost — and, since PR 9,
    worker-resident shard state survives across a run's off-loading
    rounds.  The pool is an :class:`_AffinityPool`, so shard → process
    routing is stable.
    """
    global _POOL, _POOL_SIZE
    if _POOL is None or _POOL_SIZE < workers:
        if _POOL is not None:
            _POOL.shutdown(wait=True, cancel_futures=True)
        _POOL = _AffinityPool(workers)
        _POOL_SIZE = workers
    return _POOL


def shutdown_shard_pool() -> None:
    """Tear down the private default pool."""
    global _POOL, _POOL_SIZE
    if _POOL is not None:
        _POOL.shutdown(wait=True, cancel_futures=True)
        _POOL = None
        _POOL_SIZE = 0


atexit.register(shutdown_shard_pool)


# ----------------------------------------------------------------------
# shard-count resolution and planning
# ----------------------------------------------------------------------
def resolve_shards(
    shards: int | None = None, n_servers: int | None = None
) -> int | None:
    """Resolve the shard count: explicit value, else ``REPRO_SHARDS``, else ``None``.

    The edge-side reader of the one sharding switch: the CLI and
    ``ExperimentConfig.from_env`` call it, the library takes the count
    it is given (``None`` = run in one process).  Mirrors
    ``repro.experiments.executor.resolve_jobs``: explicit non-positive /
    non-integer values and malformed environment values raise
    :class:`ValueError` naming the offending source.  With ``n_servers``
    known, a request exceeding the server count is rejected — a shard
    owns whole servers, so there is nothing for an extra shard to do.
    """
    if shards is None:
        shards = env_positive_int("REPRO_SHARDS", default=None)
        if shards is None:
            return None
    elif isinstance(shards, bool) or not isinstance(shards, int):
        raise ValueError(f"shards must be a positive integer, got {shards!r}")
    elif shards <= 0:
        raise ValueError(f"shards must be a positive integer, got {shards}")
    if n_servers is not None and shards > n_servers:
        raise ValueError(
            f"shards must not exceed the model's server count "
            f"({n_servers}), got {shards}"
        )
    return shards


def _server_weights(model: SystemModel) -> np.ndarray:
    """Per-server work proxy: compulsory + optional entry counts.

    The restoration loops' cost scales with the number of matrix entries
    a server owns, so balancing entry counts balances shard wall-clock.
    Computed from the flat model arrays — no context build needed.
    """
    comp_per_page = np.diff(model.comp_indptr)
    opt_per_page = np.diff(model.opt_indptr)
    return np.bincount(
        model.page_server,
        weights=(comp_per_page + opt_per_page).astype(float),
        minlength=model.n_servers,
    )


def plan_shards(model: SystemModel, shards: int) -> tuple[tuple[int, ...], ...]:
    """Deterministically split the servers into ``shards`` balanced groups.

    Longest-processing-time greedy over :func:`_server_weights`: servers
    in decreasing weight order (ties by ascending id) each go to the
    currently lightest group (load ties broken by fewest members, then
    lowest group index — so zero-weight servers spread out instead of
    piling into group 0).  With ``shards <= n_servers`` every group
    therefore receives at least one server; a group holding only
    zero-weight servers (servers with no pages) is a valid *empty
    shard* — its worker is a structured no-op.

    Returns the groups with each group's server ids ascending.  Group
    composition is a pure function of the model, so two runs over equal
    models shard identically.
    """
    n_servers = model.n_servers
    if isinstance(shards, bool) or not isinstance(shards, int):
        raise ValueError(f"shards must be a positive integer, got {shards!r}")
    if shards < 1 or shards > n_servers:
        raise ValueError(
            f"shards must be between 1 and the model's server count "
            f"({n_servers}), got {shards}"
        )
    weights = _server_weights(model)
    order = sorted(range(n_servers), key=lambda i: (-weights[i], i))
    loads = [0.0] * shards
    groups: list[list[int]] = [[] for _ in range(shards)]
    for i in order:
        g = min(range(shards), key=lambda s: (loads[s], len(groups[s]), s))
        groups[g].append(i)
        loads[g] += float(weights[i])
    return tuple(tuple(sorted(g)) for g in groups)


# ----------------------------------------------------------------------
# content-addressed model transport
# ----------------------------------------------------------------------
class _Lru:
    """Tiny ordered LRU: the worker-side model and resident-shard caches."""

    def __init__(self, cap: int):
        self._cap = cap
        self._data: OrderedDict[Any, Any] = OrderedDict()

    def get(self, key: Any) -> Any | None:
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def put(self, key: Any, value: Any) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self._cap:
            self._data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)


#: Worker-side cache of unpickled models, keyed by blob digest.
_WORKER_MODELS = _Lru(2)


def _model_from_payload(payload: tuple) -> SystemModel:
    """Materialise the run's model inside a worker (or inline).

    Two payload kinds: ``("model", m)`` passes the object through
    (inline pool — same process); ``("blob", digest, blob)`` unpickles
    a full model, cached by digest so repeated runs over an equal model
    pay the unpickle once per worker.
    """
    if payload[0] == "model":
        return payload[1]
    _, digest, blob = payload
    model = _WORKER_MODELS.get(digest)
    if model is None:
        model = pickle.loads(blob)
        _WORKER_MODELS.put(digest, model)
    return model


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _ShardOptions:
    """Per-run knobs shipped to every shard worker."""

    alpha1: float
    alpha2: float
    optional_policy: str
    record: bool
    session: str | None = None
    """Run-unique token keying worker-resident shard state.  ``None``
    disables residency seeding (the state is then built lazily by the
    first off-loading batch's resync)."""


@dataclass
class _ShardResult:
    """One shard's candidate frontier, shipped back for reconciliation.

    Marks travel as **global entry indices** (only the set positions)
    rather than full-length booleans: a shard can only set entries it
    owns, so the parent reconcile is a plain index assignment, and the
    payload shrinks from O(model) to O(shard frontier).  Replicas are a
    CSR pair (``replica_objects`` concatenated per server in
    ``server_ids`` order, ``replica_indptr`` bounds).
    """

    server_ids: tuple[int, ...]
    n_pages: int
    n_entries: int
    comp_partition_idx: np.ndarray
    opt_partition_idx: np.ndarray
    comp_final_idx: np.ndarray
    opt_final_idx: np.ndarray
    replica_objects: np.ndarray
    replica_indptr: np.ndarray
    storage_ran: bool
    processing_ran: bool
    storage_stats: list[tuple[int, StorageRestorationStats]]
    processing_stats: list[tuple[int, ProcessingRestorationStats]]
    phase_seconds: dict[str, float] = field(default_factory=dict)
    seconds: float = 0.0
    snapshot: dict | None = None


def _shard_pipeline(
    model: SystemModel, server_ids: Sequence[int], opts: _ShardOptions
) -> tuple[_ShardResult, EvalContext, CostModel, Allocation]:
    """PARTITION + per-server restorations for one group of servers.

    Runs on the **restricted model**: ``EvalContext.for_servers`` builds
    columns, streams and CSR groups for exactly this group's pages, so
    the worker never touches (or pays for) the other shards' entries.
    Identity with the full-model run holds because the restriction is
    order-preserving (module docstring); results are mapped back to
    global entry ids through the context's ``global_*`` index columns.

    Phase gating matches the reference pipeline exactly: the reference
    gates each restoration on the *global* constraint report, but both
    constraints are per-server decomposable and restoring a
    non-violating server is a no-op, so gating on the local report
    yields the same allocation — and the parent ORs the per-shard flags
    to reconstruct the global phase list.

    Returns the shippable :class:`_ShardResult` plus the live
    ``(ctx, cost, alloc)`` triple so :func:`_run_shard` can seed the
    worker-resident shard state: the final shard-restricted allocation
    *is* the parent's merged allocation restricted to this shard at
    off-loading start, so residency costs zero extra shipping.
    """
    t0 = time.perf_counter()
    ctx = EvalContext.for_servers(model, server_ids)
    sub = ctx.model
    cost = CostModel(sub, opts.alpha1, opts.alpha2)
    alloc = Allocation(sub)
    n_local = len(server_ids)
    local = run_local_allocation(
        alloc, cost, range(n_local), optional_policy=opts.optional_policy
    )
    # per-server records carry server ids — map back to global (object
    # ids are already global in the restricted model)
    storage_stats: list[tuple[int, StorageRestorationStats]] = []
    for li, stats in local.storage_stats:
        stats.evicted_objects = [
            (int(server_ids[i]), k) for i, k in stats.evicted_objects
        ]
        storage_stats.append((int(server_ids[li]), stats))
    processing_stats = [
        (int(server_ids[li]), stats) for li, stats in local.processing_stats
    ]

    replica_indptr = np.zeros(n_local + 1, dtype=np.int64)
    for li in range(n_local):
        replica_indptr[li + 1] = replica_indptr[li] + len(alloc.replicas[li])
    replica_objects = np.zeros(int(replica_indptr[-1]), dtype=np.int64)
    for li in range(n_local):
        replica_objects[replica_indptr[li] : replica_indptr[li + 1]] = sorted(
            alloc.replicas[li]
        )

    ge_c = ctx.global_comp_entries
    ge_o = ctx.global_opt_entries
    result = _ShardResult(
        server_ids=tuple(int(i) for i in server_ids),
        n_pages=int(sub.n_pages),
        n_entries=int(len(sub.comp_objects) + len(sub.opt_objects)),
        comp_partition_idx=ge_c[local.comp_partition],
        opt_partition_idx=ge_o[local.opt_partition],
        comp_final_idx=ge_c[alloc.comp_local],
        opt_final_idx=ge_o[alloc.opt_local],
        replica_objects=replica_objects,
        replica_indptr=replica_indptr,
        storage_ran=local.storage_ran,
        processing_ran=local.processing_ran,
        storage_stats=storage_stats,
        processing_stats=processing_stats,
        phase_seconds=local.phase_seconds,
        seconds=time.perf_counter() - t0,
    )
    return result, ctx, cost, alloc


def _run_shard(
    payload: tuple,
    server_ids: tuple[int, ...],
    opts: _ShardOptions,
    shard_id: int = -1,
) -> _ShardResult:
    """Worker entry point: resolve the model, record into a private
    registry when the parent is collecting, return the shard frontier.

    When the run carries a residency ``session`` (and a real
    ``shard_id``), the pipeline's final context/cost/allocation are
    parked in :data:`_RESIDENT_SHARDS` at epoch 0 so the off-loading
    scatter's delta rounds start hot."""
    model = _model_from_payload(payload)
    registry = MetricsRegistry() if opts.record else None
    with use_registry(registry):
        result, ctx, cost, alloc = _shard_pipeline(model, server_ids, opts)
    if registry is not None:
        result.snapshot = registry.snapshot()
    if opts.session is not None and shard_id >= 0:
        _RESIDENT_SHARDS.put(
            (opts.session, int(shard_id)),
            _ResidentShard(ctx=ctx, cost=cost, alloc=alloc, epoch=0),
        )
    return result


# ----------------------------------------------------------------------
# parallel off-loading scatter: worker-resident delta rounds
# ----------------------------------------------------------------------
@dataclass
class _ResidentShard:
    """One shard's live state parked in a worker between round batches.

    ``alloc`` mirrors the parent's merged allocation restricted to this
    shard — exactly current as long as every batch the parent sent for
    the shard was processed here, which the exact-match ``epoch``
    validates (per-server absorptions only touch the absorbing server,
    so nothing outside the shard can invalidate the mirror)."""

    ctx: EvalContext
    cost: CostModel
    alloc: Allocation
    epoch: int


#: Worker-side resident shard states, keyed by ``(session, shard id)``.
#: Bounded so abandoned sessions (benchmark repeats, failed runs) age
#: out; an evicted entry just means the next batch for that shard
#: resyncs.
_RESIDENT_SHARDS: _Lru = _Lru(16)

_SESSION_SEQ = itertools.count()


def _absorb_shard_batch(
    opts: _ShardOptions,
    session: str,
    shard_id: int,
    server_ids: tuple[int, ...],
    epoch: int,
    requests: list[tuple[int, float, bool]],
    allow_swap: bool,
    sync: tuple | None,
) -> dict:
    """Absorb one round's requests for one shard on its resident state.

    The delta-round worker half (DESIGN.md Appendix I).  ``requests``
    holds every ``(global_server_id, target, allow_new)`` of this
    round addressed to servers in ``server_ids``; all of them replay
    :func:`~repro.core.offload.absorb_extra_workload` on the shard's
    resident allocation in one submission — one pickle hop, one
    context lookup.  Per-server decomposability (the
    ``absorb_round_serial`` contract) makes any batch grouping
    bit-identical to the serial reference.

    Epoch protocol: the fast path (``sync is None``) requires the
    resident state to exist **and** match ``epoch`` exactly — anything
    else returns ``{"resync": True}`` and the parent resubmits with a
    ``sync`` payload ``(model_payload, comp_marks, opt_marks,
    replica_objects, replica_indptr)``: the run's model payload (see
    :func:`_model_from_payload`; a worker that already holds the model
    skips the unpickle), the shard's mark slices in ascending global
    entry order, and its replica CSR.  The rebuilt state is
    bit-identical to the lost mirror, so a resync changes transport
    cost only, never results.

    Returns per-request mark/replica deltas in global ids, concatenated
    in request order, plus the advanced epoch.
    """
    key = (session, int(shard_id))
    res: _ResidentShard | None = _RESIDENT_SHARDS.get(key)
    if sync is None:
        if res is None or res.epoch != int(epoch):
            return {"resync": True}
    else:
        payload, comp_state, opt_state, rep_objs, rep_indptr = sync
        ctx = EvalContext.for_servers(_model_from_payload(payload), server_ids)
        sub = ctx.model
        res = _ResidentShard(
            ctx=ctx,
            cost=CostModel(sub, opts.alpha1, opts.alpha2),
            alloc=Allocation(
                sub,
                np.array(comp_state, dtype=bool),
                np.array(opt_state, dtype=bool),
                replicas=unpack_replicas(rep_objs, rep_indptr),
            ),
            epoch=int(epoch),
        )
        _RESIDENT_SHARDS.put(key, res)

    ctx, cost, alloc = res.ctx, res.cost, res.alloc
    local_of = {int(g): li for li, g in enumerate(server_ids)}
    ge_c = ctx.global_comp_entries
    ge_o = ctx.global_opt_entries
    registry = MetricsRegistry() if opts.record else None
    out: list[dict] = []
    with use_registry(registry):
        for gi, target, allow_new in requests:
            li = local_of[int(gi)]
            comp_e = ctx.comp_entries_of(li)
            opt_e = ctx.opt_entries_of(li)
            comp_before = alloc.comp_local[comp_e]  # fancy-index copies
            opt_before = alloc.opt_local[opt_e]
            reps_before = set(alloc.replicas[li])
            achieved = absorb_extra_workload(
                alloc,
                cost,
                li,
                float(target),
                allow_new_replicas=bool(allow_new),
                allow_swap=bool(allow_swap),
            )
            comp_after = alloc.comp_local[comp_e]
            opt_after = alloc.opt_local[opt_e]
            added = sorted(alloc.replicas[li] - reps_before)
            removed = sorted(reps_before - alloc.replicas[li])
            out.append(
                {
                    "server": int(gi),
                    "achieved": float(achieved),
                    "comp_set": ge_c[comp_e[comp_after & ~comp_before]],
                    "comp_clear": ge_c[comp_e[comp_before & ~comp_after]],
                    "opt_set": ge_o[opt_e[opt_after & ~opt_before]],
                    "opt_clear": ge_o[opt_e[opt_before & ~opt_after]],
                    "replica_add": np.fromiter(
                        added, dtype=np.int64, count=len(added)
                    ),
                    "replica_remove": np.fromiter(
                        removed, dtype=np.int64, count=len(removed)
                    ),
                }
            )
    res.epoch = int(epoch) + 1
    return {
        "epoch": res.epoch,
        "results": out,
        "snapshot": registry.snapshot() if registry is not None else None,
    }


def _entries_by_group(
    entry_group: np.ndarray, n_groups: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stable ``(order, bounds)`` grouping entry ids by owning group.

    ``order[bounds[g]:bounds[g+1]]`` is group ``g``'s flat entry ids in
    ascending order — the same order ``restrict_to_servers`` selects
    them, which is what keeps a sync payload's mark slices aligned with
    the worker's shard-restricted context."""
    order = np.argsort(entry_group, kind="stable")
    bounds = np.searchsorted(entry_group[order], np.arange(n_groups + 1))
    return order, bounds


def _delta_nbytes(r: dict) -> float:
    """Actual array bytes one request's result delta ships upward."""
    return float(
        r["comp_set"].nbytes
        + r["comp_clear"].nbytes
        + r["opt_set"].nbytes
        + r["opt_clear"].nbytes
        + r["replica_add"].nbytes
        + r["replica_remove"].nbytes
    )


class _ShardedScatter:
    """Process-parallel absorption scatter for ``offload_repository``.

    Satisfies the :func:`~repro.core.offload.absorb_round_serial`
    contract while running each round as **delta rounds over
    worker-resident shard state**: requests group per shard into one
    :func:`_absorb_shard_batch` submission (routed to the shard's
    pinned worker via ``pool.submit_to`` when the pool has it), workers
    validate the round epoch and ship back only the flipped marks, and
    the parent applies the returned deltas in **plan order**, so the
    mutation sequence the order-sensitive gather observes matches the
    serial reference exactly.

    Parameters
    ----------
    groups:
        The shard plan (ascending server ids per group, together
        covering every server).  Defaults to one server per shard —
        the standalone configuration the property harness drives.
    resync_every:
        Force a full sync on every Nth batch per shard; exercises the
        epoch-mismatch recovery path deterministically.  ``1`` ships
        the full shard state with every batch — the full-state
        baseline the delta byte accounting is measured against.

    Transport accounting: :attr:`rounds_bytes` records, per round,
    the actual bytes shipped (``delta_bytes``) next to what the
    per-request full-state protocol would have shipped
    (``full_bytes``), and :meth:`publish_gauges` publishes the
    ``shard.N.delta_bytes`` / ``shard.N.resyncs`` /
    ``offload.batched_submissions`` gauges.
    """

    def __init__(
        self,
        pool: ShardPool,
        payload: tuple,
        model: SystemModel,
        opts: _ShardOptions,
        *,
        groups: tuple[tuple[int, ...], ...] | None = None,
        resync_every: int | None = None,
    ):
        self._pool = pool
        self._payload = payload
        self._opts = opts
        if groups is None:
            groups = tuple((i,) for i in range(model.n_servers))
        self._groups = tuple(tuple(int(i) for i in g) for g in groups)
        self._resync_every = resync_every
        #: session keying worker-resident state; when the driver seeded
        #: residency through the fan-out this matches ``opts.session``
        #: and shards start synced at epoch 0.
        self._session = (
            opts.session
            if opts.session is not None
            else f"scatter-{os.getpid()}-{next(_SESSION_SEQ)}"
        )
        self._ctx = EvalContext.for_model(model)
        shard_of = np.full(model.n_servers, -1, dtype=np.intp)
        for g, grp in enumerate(self._groups):
            shard_of[list(grp)] = g
        self._shard_of = shard_of
        self._comp_order, self._comp_bounds = _entries_by_group(
            shard_of[self._ctx.comp_server], len(self._groups)
        )
        self._opt_order, self._opt_bounds = _entries_by_group(
            shard_of[self._ctx.opt_server], len(self._groups)
        )
        n = len(self._groups)
        self._epochs = [0] * n
        self._synced = [opts.session is not None] * n
        self._batches = [0] * n
        self._delta_bytes = [0.0] * n
        self._resyncs = [0] * n
        self._submissions = 0
        self._total_delta = 0.0
        self._total_full = 0.0
        #: per-round ``{"delta_bytes", "full_bytes"}`` records (the
        #: end-to-end bench persists these into BENCH json).
        self.rounds_bytes: list[dict[str, float]] = []

    def publish_gauges(self) -> None:
        """Publish the transport gauges into the active registry."""
        reg = obs.get_registry()
        if not reg.enabled:
            return
        for g in range(len(self._groups)):
            reg.gauge(f"shard.{g}.delta_bytes", self._delta_bytes[g])
            reg.gauge(f"shard.{g}.resyncs", float(self._resyncs[g]))
        reg.gauge("offload.batched_submissions", float(self._submissions))
        reg.gauge("offload.delta_bytes", self._total_delta)
        reg.gauge("offload.full_bytes", self._total_full)

    # -- wire helpers ---------------------------------------------------
    def _needs_sync(self, g: int) -> bool:
        if not self._synced[g]:
            return True
        every = self._resync_every
        return every is not None and self._batches[g] % every == 0

    def _sync_payload(self, g: int, alloc: Allocation) -> tuple[tuple, float]:
        """The shard's full current state, plus its shipped byte count.

        The model payload rides along so a worker without the model can
        rebuild the shard context; it is not counted, since workers
        cache it by digest after the fan-out."""
        grp = self._groups[g]
        rep_objs, rep_indptr = pack_replicas([alloc.replicas[i] for i in grp])
        comp_state = alloc.comp_local[
            self._comp_order[self._comp_bounds[g] : self._comp_bounds[g + 1]]
        ]
        opt_state = alloc.opt_local[
            self._opt_order[self._opt_bounds[g] : self._opt_bounds[g + 1]]
        ]
        payload = (self._payload, comp_state, opt_state, rep_objs, rep_indptr)
        nbytes = float(
            comp_state.nbytes
            + opt_state.nbytes
            + rep_objs.nbytes
            + rep_indptr.nbytes
        )
        return payload, nbytes

    def _submit(
        self,
        g: int,
        reqs: list[tuple[int, float, bool]],
        allow_swap: bool,
        sync: tuple | None,
    ):
        self._submissions += 1
        args = (
            self._opts,
            self._session,
            int(g),
            self._groups[g],
            int(self._epochs[g]),
            reqs,
            bool(allow_swap),
            sync,
        )
        submit_to = getattr(self._pool, "submit_to", None)
        if submit_to is not None:
            return submit_to(g, _absorb_shard_batch, *args)
        return self._pool.submit(_absorb_shard_batch, *args)

    # -- the round ------------------------------------------------------
    def __call__(
        self,
        alloc: Allocation,
        cost: CostModel,
        requests: list[tuple[int, float, bool]],
        *,
        allow_swap: bool = True,
    ) -> dict[int, float]:
        by_shard: dict[int, list[tuple[int, float, bool]]] = {}
        for i, req, allow_new in requests:
            g = int(self._shard_of[i])
            by_shard.setdefault(g, []).append(
                (int(i), float(req), bool(allow_new))
            )
        round_delta = 0.0
        round_full = 0.0
        jobs = []
        for g, reqs in sorted(by_shard.items()):
            sync = None
            if self._needs_sync(g):
                sync, sent = self._sync_payload(g, alloc)
                self._resyncs[g] += 1
                self._delta_bytes[g] += sent
                round_delta += sent
            jobs.append((g, self._submit(g, reqs, allow_swap, sync)))

        reg = obs.get_registry()
        by_server: dict[int, dict] = {}
        for g, future in jobs:
            res = future.result()
            if res.get("resync"):
                # stale/missing resident state — re-ship the shard
                sync, sent = self._sync_payload(g, alloc)
                self._resyncs[g] += 1
                self._delta_bytes[g] += sent
                round_delta += sent
                res = self._submit(
                    g, by_shard[g], allow_swap, sync
                ).result()
                if res.get("resync"):  # pragma: no cover - protocol bug
                    raise RuntimeError(
                        f"shard {g} refused a sync payload (epoch "
                        f"{self._epochs[g]})"
                    )
            self._epochs[g] = int(res["epoch"])
            self._synced[g] = True
            self._batches[g] += 1
            for r in res["results"]:
                by_server[r["server"]] = r
                nb = _delta_nbytes(r)
                self._delta_bytes[g] += nb
                round_delta += nb
            if res["snapshot"] is not None and reg.enabled:
                reg.merge_snapshot(res["snapshot"])

        # Apply in plan order — the serial reference's mutation sequence.
        achieved: dict[int, float] = {}
        for i, req, allow_new in requests:
            r = by_server[i]
            reps_before = len(alloc.replicas[i])
            alloc.apply_server_delta(
                i,
                r["comp_set"],
                r["comp_clear"],
                r["opt_set"],
                r["opt_clear"],
                r["replica_add"],
                r["replica_remove"],
            )
            achieved[i] = r["achieved"]
            # What the pre-resident protocol would have shipped for this
            # request: full mark slices + replicas down, mark deltas +
            # full replicas back.
            mark_delta = (
                _delta_nbytes(r)
                - r["replica_add"].nbytes
                - r["replica_remove"].nbytes
            )
            round_full += float(
                len(self._ctx.comp_entries_of(i))
                + len(self._ctx.opt_entries_of(i))
                + 8 * reps_before
                + mark_delta
                + 8 * len(alloc.replicas[i])
            )
        self._total_delta += round_delta
        self._total_full += round_full
        self.rounds_bytes.append(
            {"delta_bytes": round_delta, "full_bytes": round_full}
        )
        return achieved


# ----------------------------------------------------------------------
# parent side: fan out, reconcile, replay the global phases
# ----------------------------------------------------------------------
def run_sharded_policy(
    model: SystemModel,
    alpha1: float = 2.0,
    alpha2: float = 1.0,
    optional_policy: str = "all",
    offload_config: OffloadConfig | None = None,
    *,
    shards: int,
    pool: ShardPool | None = None,
) -> "PolicyResult":
    """The full policy pipeline, sharded over a worker pool.

    Bit-identical to the in-process ``RepositoryReplicationPolicy()``
    on allocation, objectives, stats, constraint report and phase list
    — see the module docstring for why.

    Parameters
    ----------
    shards:
        Group count, between 1 and the model's server count.
    pool:
        Injected :class:`ShardPool`; defaults to this module's private
        persistent :func:`default_pool`.  Pass
        :class:`InlineShardPool` to run serially in-process.
    """
    from repro.core.policy import PolicyResult

    if getattr(model, "n_streams", 2) > 2:
        raise NotImplementedError(
            "sharded runs support the k=2 topology only; run "
            "k-stream replica meshes without shards "
            "(sharded k>2 is a planned follow-up)"
        )
    reg = obs.get_registry()
    cost = CostModel(model, alpha1, alpha2)
    groups = plan_shards(model, shards)
    if pool is None:
        pool = default_pool(len(groups))
    if getattr(pool, "inline", False):
        payload: tuple = ("model", model)
    else:
        blob = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
        payload = ("blob", hashlib.sha256(blob).hexdigest(), blob)
    opts = _ShardOptions(
        alpha1=alpha1,
        alpha2=alpha2,
        optional_policy=optional_policy,
        record=reg.enabled,
        session=f"run-{os.getpid()}-{next(_SESSION_SEQ)}",
    )

    submit_to = getattr(pool, "submit_to", None)
    spans: dict[str, obs.SpanRecord] = {}
    with reg.span("policy"):
        with reg.span("shard-fanout") as fan:
            spans["shard-fanout"] = fan
            # Pin shard g to worker g when the pool supports routing, so
            # the residency each fan-out task seeds is the same state
            # the off-loading delta rounds will find.
            if submit_to is not None:
                futures = [
                    submit_to(g, _run_shard, payload, group, opts, g)
                    for g, group in enumerate(groups)
                ]
            else:
                futures = [
                    pool.submit(_run_shard, payload, group, opts, g)
                    for g, group in enumerate(groups)
                ]
            results: list[_ShardResult] = [f.result() for f in futures]

        ne_c = len(model.comp_objects)
        ne_o = len(model.opt_objects)
        comp_part = np.zeros(ne_c, dtype=bool)
        opt_part = np.zeros(ne_o, dtype=bool)
        comp_fin = np.zeros(ne_c, dtype=bool)
        opt_fin = np.zeros(ne_o, dtype=bool)
        replicas: list[set[int] | None] = [None] * model.n_servers
        for r in results:
            comp_part[r.comp_partition_idx] = True
            opt_part[r.opt_partition_idx] = True
            comp_fin[r.comp_final_idx] = True
            opt_fin[r.opt_final_idx] = True
            indptr = r.replica_indptr
            objs = r.replica_objects
            for li, gi in enumerate(r.server_ids):
                replicas[gi] = set(
                    objs[int(indptr[li]) : int(indptr[li + 1])].tolist()
                )
        assert all(r is not None for r in replicas), "shard plan missed a server"

        unconstrained_d = cost.D(Allocation(model, comp_part, opt_part))
        phases: list[str] = ["partition"]

        # Stats merge in global server order — the reference loop's
        # accumulation sequence, so float partial sums match bitwise.
        storage_stats = StorageRestorationStats()
        if any(r.storage_ran for r in results):
            phases.append("storage-restoration")
            by_server = {i: s for r in results for i, s in r.storage_stats}
            for i in sorted(by_server):
                storage_stats.merge(by_server[i])

        processing_stats = ProcessingRestorationStats()
        if any(r.processing_ran for r in results):
            phases.append("processing-restoration")
            by_server = {i: s for r in results for i, s in r.processing_stats}
            for i in sorted(by_server):
                processing_stats.merge(by_server[i])

        alloc = Allocation(model, comp_fin, opt_fin, replicas=replicas)
        report = evaluate_constraints(alloc)

        # OFF_LOADING's repository-side bookkeeping (NewReq shares, L3
        # demotion, message counts) negotiates against the *global*
        # Eq. 9 frontier, so it replays in the parent — but each round's
        # per-server absorptions are independent, so they scatter back
        # to the pool.
        offload_outcome: OffloadOutcome | None = None
        if not report.repo_ok:
            scatter = _ShardedScatter(
                pool, payload, model, opts, groups=groups
            )
            with reg.span("off-loading") as sp:
                spans["off-loading"] = sp
                offload_outcome = offload_repository(
                    alloc,
                    cost,
                    offload_config or OffloadConfig(),
                    scatter=scatter,
                )
            scatter.publish_gauges()
            offload_outcome.round_bytes = list(scatter.rounds_bytes)
            phases.append("off-loading")
            report = evaluate_constraints(alloc)

        objective = cost.D(alloc)

    phase_seconds: dict[str, float] = {}
    if reg.enabled:
        for idx, r in enumerate(results):
            reg.gauge(f"shard.{idx}.servers", float(len(r.server_ids)))
            reg.gauge(f"shard.{idx}.pages", float(r.n_pages))
            reg.gauge(f"shard.{idx}.entries", float(r.n_entries))
            reg.gauge(f"shard.{idx}.context_entries", float(r.n_entries))
            reg.gauge(f"shard.{idx}.seconds", r.seconds)
            if r.snapshot is not None:
                reg.merge_snapshot(r.snapshot)
        reg.gauge("shard.count", float(len(groups)))
        reg.gauge("policy.context_entries_full", float(ne_c + ne_o))
        # Per-phase wall clock: the slowest shard bounds each fanned-out
        # phase; the reconcile-side phases time their own spans.
        for name in ("partition", "storage-restoration", "processing-restoration"):
            worst = max(
                (r.phase_seconds.get(name, 0.0) for r in results), default=0.0
            )
            if name in phases or name == "partition":
                phase_seconds[name] = worst
        phase_seconds["shard-fanout"] = spans["shard-fanout"].seconds
        if "off-loading" in spans:
            phase_seconds["off-loading"] = spans["off-loading"].seconds
        reg.count("policy.runs")
        reg.count("policy.sharded_runs")
        reg.gauge("policy.objective", objective)
        reg.gauge("policy.unconstrained_objective", unconstrained_d)
        reg.gauge("policy.feasible", float(report.ok))
        reg.gauge("policy.phases_run", float(len(phases)))

    return PolicyResult(
        allocation=alloc,
        objective=objective,
        constraints=report,
        storage_stats=storage_stats,
        processing_stats=processing_stats,
        offload_outcome=offload_outcome,
        unconstrained_objective=unconstrained_d,
        phases_run=phases,
        phase_seconds=phase_seconds,
    )
