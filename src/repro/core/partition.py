"""The PARTITION algorithm (Section 4.2).

For each page the compulsory MOs are sorted by **decreasing size** and
greedily assigned to whichever of the parallel streams — the local
server, the repository, or (in a ``k > 2`` replica mesh) another remote
site — ends up shortest after receiving the object.  With the paper's
two streams this is its pseudocode verbatim: both running totals are
tentatively incremented, then the loser is rolled back.

The local stream starts at ``Ovhd(S_i) + Size(H_j)/B(S_i)`` (the HTML
document must always come from the local server); remote stream ``r``
starts at its overhead ``Ovhd(r, S_i)`` (``Ovhd(R, S_i)`` for the
repository).

After partitioning, the paper stores every MO with at least one local
mark, and additionally *stores all optional objects* (downloading an
optional object locally is beneficial whenever ``B(R,S_i) < B(S_i)``).
:func:`partition_all` exposes that choice via ``optional_policy``:

* ``"all"`` (paper default) — mark every optional object local,
* ``"beneficial"`` — mark an optional object local only when its single
  download is faster locally (equivalent under the Table 1 workload,
  strictly better when some region's repository link beats its local
  link).

Re-partitioning during constraint restoration passes ``allowed`` — the
set of objects currently stored at the page's server — so the greedy can
only mark objects that will not grow the replica set.
"""

from __future__ import annotations

from typing import Collection, Literal

import numpy as np

from repro.core.allocation import Allocation
from repro.core.context import EvalContext
from repro.core.fast_partition import partition_all_batched
from repro.core.types import SystemModel
from repro.obs.registry import get_registry

__all__ = [
    "partition_page",
    "partition_all",
    "OptionalPolicy",
    "SortOrder",
]

OptionalPolicy = Literal["all", "beneficial", "none"]
SortOrder = Literal["decreasing", "increasing", "document"]

_BOOL = np.dtype(bool)
_INT8 = np.dtype(np.int8)


def partition_page(
    model: SystemModel,
    page_id: int,
    allowed: Collection[int] | None = None,
    order: SortOrder = "decreasing",
    ctx: EvalContext | None = None,
) -> tuple[np.ndarray, np.ndarray, float, list[float]]:
    """Run PARTITION for one page: greedy argmin over all k streams.

    Each object lands on whichever stream — local, or any of the k−1
    remote streams — would end up shortest after receiving it, ties
    broken by lowest stream index (local = 0 beats every remote, the
    repository beats the extra replica sites).  In the paper's
    two-stream model this is its pseudocode: tentatively add the object
    to both streams and keep it local unless the repository stream ends
    up *strictly* shorter.

    Parameters
    ----------
    model:
        The system universe.
    page_id:
        Page to partition.
    allowed:
        If given, only these object ids may be marked local; all others
        take the argmin over the remote streams only.  ``None`` means any
        object may be replicated.
    order:
        Iteration order over the page's compulsory objects.  The paper
        prescribes ``"decreasing"`` size (big objects placed while the
        streams are short, so the greedy can still balance around them);
        ``"increasing"`` and ``"document"`` (the page's embed order) are
        provided for the ablation bench.
    ctx:
        The model's :class:`EvalContext`, when the caller already holds
        it (restoration passes ``alloc.ctx``); ``None`` looks it up.

    Returns
    -------
    (marks, streams, local_time, stream_times):
        ``marks`` is a boolean array aligned with
        ``model.pages[page_id].compulsory`` (``True`` = download locally,
        i.e. ``X_jk = 1``); ``streams`` the per-entry owning remote
        stream (``int8``, 1-based, 1 where the mark is ``True``);
        ``local_time`` the Eq. 3 stream time and ``stream_times[r-1]``
        the Eq. 4 analog of remote stream ``r``.
    """
    s = (ctx or EvalContext.for_model(model)).scalars
    spb_local = s.spb_local[page_id]
    local_time = s.ovhd_local[page_id] + spb_local * s.html[page_id]
    stream_times = list(s.ovhd_remote[page_id])
    spb_remote = s.spb_remote[page_id]
    later_remotes = range(1, len(stream_times))

    # Pre-sorted by decreasing size (ties broken by entry position); see
    # SystemModel.comp_sorted.  Plain lists and bytearrays keep this hot
    # loop off NumPy scalar indexing.
    sorted_entries, comp_objects, entry_sizes, indptr = model.fast_comp
    start = indptr[page_id]
    stop = indptr[page_id + 1]
    if order == "decreasing":
        iteration = sorted_entries[start:stop]
    elif order == "increasing":
        iteration = sorted_entries[start:stop][::-1]
    elif order == "document":
        iteration = range(start, stop)
    else:
        raise ValueError(f"unknown sort order {order!r}")
    local = bytearray(stop - start)
    owner = bytearray(b"\x01") * (stop - start)
    if allowed is not None and not isinstance(allowed, (set, frozenset)):
        allowed = set(allowed)
    for e in iteration:
        size = entry_sizes[e]
        # the best remote stream: a later one must be STRICTLY shorter
        best = 0
        cand = stream_times[0] + spb_remote[0] * size
        for r in later_remotes:
            t = stream_times[r] + spb_remote[r] * size
            if t < cand:
                best = r
                cand = t
        # local (stream 0) takes the object unless that remote stream
        # ends up strictly shorter
        if allowed is None or comp_objects[e] in allowed:
            t = local_time + spb_local * size
            if t <= cand:
                local_time = t
                local[e - start] = 1
                continue
        stream_times[best] = cand
        if best:  # owner already holds stream 1
            owner[e - start] = best + 1
    return (
        np.frombuffer(local, _BOOL),
        np.frombuffer(owner, _INT8),
        local_time,
        stream_times,
    )


def _optional_marks(
    model: SystemModel,
    page_id: int,
    policy: OptionalPolicy,
    allowed: Collection[int] | None,
) -> np.ndarray:
    page = model.pages[page_id]
    n = len(page.optional)
    if n == 0 or policy == "none":
        return np.zeros(n, dtype=bool)
    s = EvalContext.for_model(model).scalars
    ovhd_local = s.ovhd_local[page_id]
    spb_local = s.spb_local[page_id]
    remote = list(zip(s.ovhd_remote[page_id], s.spb_remote[page_id]))
    allowed_set = None if allowed is None else set(allowed)
    marks = np.zeros(n, dtype=bool)
    for pos, k in enumerate(page.optional):
        if allowed_set is not None and k not in allowed_set:
            continue
        if policy == "all":
            marks[pos] = True
        else:  # "beneficial": against the cheapest remote stream
            size = model.sizes[k]
            t_local = ovhd_local + spb_local * size
            t_remote = min(o + spb * size for o, spb in remote)
            marks[pos] = t_local <= t_remote
    return marks


def partition_all(
    model: SystemModel,
    optional_policy: OptionalPolicy = "all",
    allowed_per_server: dict[int, Collection[int]] | None = None,
    order: SortOrder = "decreasing",
) -> Allocation:
    """Run PARTITION over every page and assemble an :class:`Allocation`.

    The resulting replica sets are exactly the marked objects: every MO
    with at least one ``X'_jk = 1`` on the server is stored (the paper's
    "Store the M_k's that have at least one non-zero entry in X matrix.
    Store all optional objects.").  The greedy runs on the vectorized
    pad-and-mask kernel of :mod:`repro.core.fast_partition`; its
    per-page scalar oracle is
    :func:`repro.core.reference.partition_all_reference`.

    Parameters
    ----------
    model:
        The system universe.
    optional_policy:
        How optional objects are marked (see module docstring).
    allowed_per_server:
        Optional per-server whitelists restricting which objects may be
        replicated (used by constrained re-partitioning).
    order:
        Greedy iteration order (see :func:`partition_page`).
    """
    reg = get_registry()
    with reg.span("partition-all"):
        alloc = partition_all_batched(
            model,
            optional_policy=optional_policy,
            allowed_per_server=allowed_per_server,
            order=order,
        )
    if reg.enabled:
        reg.count("partition.runs")
        reg.count("partition.pages", model.n_pages)
    return alloc
