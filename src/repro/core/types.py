"""Typed description of the paper's system universe (Section 2/3).

The universe consists of

* ``s`` local servers :math:`S_1 \\dots S_s` (:class:`ServerSpec`),
* one repository server ``R`` (:class:`RepositorySpec`),
* ``n`` web pages :math:`W_1 \\dots W_n` with their HTML documents
  :math:`H_1 \\dots H_n` (:class:`PageSpec`), and
* ``m`` multimedia objects :math:`M_1 \\dots M_m` (:class:`ObjectSpec`).

:class:`SystemModel` bundles them and pre-computes the flat NumPy views
(`sizes`, per-page compulsory/optional index ranges) every other module
vectorises over.

Units
-----
* sizes — bytes
* rates — bytes/second (``B`` of the paper is derived as 1/rate when
  computing times; see :mod:`repro.util.units`)
* overheads — seconds (``Ovhd`` of the paper)
* frequencies / processing capacities — HTTP requests per second
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.util.validation import check_nonnegative, check_positive, env_positive_int

__all__ = [
    "ObjectSpec",
    "PageSpec",
    "ServerSpec",
    "RepositorySpec",
    "StreamTopology",
    "SystemModel",
    "ColumnarModel",
    "MODEL_COLUMN_FIELDS",
    "restrict_to_servers",
    "resolve_streams",
]


@dataclass(frozen=True)
class ObjectSpec:
    """A multimedia object :math:`M_k` stored at the repository.

    Attributes
    ----------
    object_id:
        Dense index in ``[0, m)``; position in :attr:`SystemModel.objects`.
    size:
        ``Size(M_k)`` in bytes.
    """

    object_id: int
    size: int

    def __post_init__(self) -> None:
        if self.object_id < 0:
            raise ValueError(f"object_id must be >= 0, got {self.object_id}")
        if self.size <= 0:
            raise ValueError(f"object size must be positive, got {self.size}")


@dataclass(frozen=True)
class PageSpec:
    """A web page :math:`W_j` together with its HTML document :math:`H_j`.

    A page is hosted by exactly one local server (``A`` matrix, Section 3);
    replicated pages are modelled as distinct :class:`PageSpec` instances,
    exactly as the paper prescribes.

    Attributes
    ----------
    page_id:
        Dense index in ``[0, n)``.
    server:
        Index of the hosting local server (the ``i`` with ``A_ij = 1``).
    html_size:
        ``Size(H_j)`` in bytes (composite HTML treated as one document).
    frequency:
        ``f(W_j)`` — peak-hour access frequency in requests/second.
    compulsory:
        Object ids ``k`` with ``U_jk = 1``.
    optional:
        Object ids ``k`` with ``U'_jk > 0``; disjoint from ``compulsory``.
    optional_prob:
        The per-object request probability ``U'_jk`` shared by this page's
        optional objects (the Table 1 workload uses
        P(interested) x fraction-requested = 0.1 x 0.3 = 0.03).
    optional_rate_scale:
        The paper's ``f(W_j, M)`` expressed per page view: a multiplier on
        the expected optional download time of Eq. 6. Defaults to 1.
    """

    page_id: int
    server: int
    html_size: int
    frequency: float
    compulsory: tuple[int, ...] = ()
    optional: tuple[int, ...] = ()
    optional_prob: float = 0.0
    optional_rate_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.page_id < 0:
            raise ValueError(f"page_id must be >= 0, got {self.page_id}")
        if self.server < 0:
            raise ValueError(f"server index must be >= 0, got {self.server}")
        if self.html_size <= 0:
            raise ValueError(f"html_size must be positive, got {self.html_size}")
        check_nonnegative("frequency", self.frequency)
        if not 0.0 <= self.optional_prob <= 1.0:
            raise ValueError(
                f"optional_prob must be in [0, 1], got {self.optional_prob}"
            )
        check_nonnegative("optional_rate_scale", self.optional_rate_scale)
        if len(set(self.compulsory)) != len(self.compulsory):
            raise ValueError(f"page {self.page_id}: duplicate compulsory objects")
        if len(set(self.optional)) != len(self.optional):
            raise ValueError(f"page {self.page_id}: duplicate optional objects")
        overlap = set(self.compulsory) & set(self.optional)
        if overlap:
            raise ValueError(
                f"page {self.page_id}: objects {sorted(overlap)} are both "
                "compulsory and optional (the paper requires U'_jk = 0 when "
                "U_jk = 1)"
            )

    @property
    def n_compulsory(self) -> int:
        """Number of compulsory MOs embedded in the page."""
        return len(self.compulsory)

    @property
    def n_optional(self) -> int:
        """Number of optional MO links in the page."""
        return len(self.optional)


@dataclass(frozen=True)
class ServerSpec:
    """A local server :math:`S_i` plus its estimated network attributes.

    The rate/overhead fields are the *estimations used when deciding about
    replica creation* (Section 3); the simulation perturbs them per HTTP
    request (Section 5.1).

    Attributes
    ----------
    server_id:
        Dense index in ``[0, s)``.
    storage_capacity:
        ``Size(S_i)`` in bytes.
    processing_capacity:
        ``C(S_i)`` in HTTP requests/second (``math.inf`` = unconstrained).
    rate:
        Estimated ``B(S_i)`` in bytes/second — the local transfer rate
        clients in this region see.
    overhead:
        Estimated ``Ovhd(S_i)`` in seconds (TCP setup + request processing).
    repo_rate:
        Estimated ``B(R, S_i)`` in bytes/second — the rate at which this
        region's clients are served by the repository.
    repo_overhead:
        Estimated ``Ovhd(R, S_i)`` in seconds.
    name:
        Optional human-readable label used in reports.
    """

    server_id: int
    storage_capacity: float
    processing_capacity: float
    rate: float
    overhead: float
    repo_rate: float
    repo_overhead: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.server_id < 0:
            raise ValueError(f"server_id must be >= 0, got {self.server_id}")
        if not (self.storage_capacity >= 0):
            raise ValueError(
                f"storage_capacity must be >= 0 (math.inf allowed), got "
                f"{self.storage_capacity}"
            )
        if not (self.processing_capacity > 0):
            raise ValueError(
                f"processing_capacity must be > 0 (use math.inf for "
                f"unconstrained), got {self.processing_capacity}"
            )
        check_positive("rate", self.rate)
        check_nonnegative("overhead", self.overhead)
        check_positive("repo_rate", self.repo_rate)
        check_nonnegative("repo_overhead", self.repo_overhead)

    @property
    def spb(self) -> float:
        """Seconds per byte on the local connection (``B(S_i)`` of Eq. 3)."""
        return 1.0 / self.rate

    @property
    def repo_spb(self) -> float:
        """Seconds per byte on the repository connection (Eq. 4)."""
        return 1.0 / self.repo_rate


@dataclass(frozen=True)
class RepositorySpec:
    """The central multimedia repository ``R``.

    Attributes
    ----------
    processing_capacity:
        ``C(R)`` in HTTP requests/second. Table 1 sets this to infinity;
        Figure 3 constrains it.
    """

    processing_capacity: float = math.inf

    def __post_init__(self) -> None:
        if not (self.processing_capacity > 0):
            raise ValueError(
                f"repository processing_capacity must be > 0, got "
                f"{self.processing_capacity}"
            )


@dataclass(frozen=True)
class StreamTopology:
    """The remote half of a k-stream replica mesh (Eq. 3-5 generalised).

    A page hosted on server ``S_i`` downloads over ``k`` pipelined
    parallel streams: the local server (stream 0) plus ``k-1`` remote
    sources — the repository and, for ``k > 2``, additional replica
    sites.  This topology holds the per-server network estimates of the
    **remote** streams as ``(n_servers, k-1)`` arrays; stream index 0 of
    the remote axis (global stream 1) *is* the repository connection and
    must match every server's ``repo_rate`` / ``repo_overhead`` — the
    classic paper model is the degenerate single-column ``k = 2`` case.

    Attributes
    ----------
    rates:
        ``B(r, S_i)`` in bytes/second, shape ``(n_servers, k-1)``.
    overheads:
        ``Ovhd(r, S_i)`` in seconds, same shape.
    """

    rates: np.ndarray
    overheads: np.ndarray

    def __post_init__(self) -> None:
        rates = np.asarray(self.rates, dtype=np.float64)
        overheads = np.asarray(self.overheads, dtype=np.float64)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "overheads", overheads)
        if rates.ndim != 2 or overheads.shape != rates.shape:
            raise ValueError(
                "StreamTopology rates/overheads must be matching "
                f"(n_servers, k-1) matrices, got {rates.shape} and "
                f"{overheads.shape}"
            )
        if rates.shape[1] < 1:
            raise ValueError(
                "StreamTopology needs at least one remote stream (the "
                "repository connection)"
            )
        if not (np.isfinite(rates).all() and (rates > 0).all()):
            raise ValueError("StreamTopology rates must be finite and positive")
        if not (np.isfinite(overheads).all() and (overheads >= 0).all()):
            raise ValueError(
                "StreamTopology overheads must be finite and non-negative"
            )

    @property
    def n_streams(self) -> int:
        """Total stream count ``k`` (local + remote columns)."""
        return 1 + self.rates.shape[1]

    @classmethod
    def degenerate(cls, servers: Sequence[ServerSpec]) -> "StreamTopology":
        """The classic ``k = 2`` topology: repository connection only."""
        return cls(
            rates=np.array([[sv.repo_rate] for sv in servers]),
            overheads=np.array([[sv.repo_overhead] for sv in servers]),
        )


def resolve_streams(
    streams: int | None = None, n_repositories: int | None = None
) -> int:
    """Resolve the stream count ``k``: explicit value, else ``REPRO_STREAMS``.

    Mirrors ``repro.core.shard.resolve_shards``: explicit non-positive /
    non-integer values and malformed environment values raise
    :class:`ValueError` naming the offending source.  Unset values
    default to the paper's ``k = 2`` (local + repository).  With
    ``n_repositories`` known (the scenario's repository-grade remote
    sources), any request exceeding ``1 + n_repositories`` is rejected —
    every remote stream needs a source to serve it.
    """
    if streams is None:
        streams = env_positive_int("REPRO_STREAMS", default=None)
    elif isinstance(streams, bool) or not isinstance(streams, int):
        raise ValueError(f"streams must be a positive integer, got {streams!r}")
    elif streams <= 0:
        raise ValueError(f"streams must be a positive integer, got {streams}")
    if streams is None:
        streams = 2
    if streams < 2:
        raise ValueError(
            f"streams must be at least 2 (the local server plus the "
            f"repository), got {streams}"
        )
    if n_repositories is not None and streams > 1 + n_repositories:
        raise ValueError(
            f"streams must not exceed 1 + the scenario's repository count "
            f"({1 + n_repositories}), got {streams}"
        )
    return streams


class SystemModel:
    """The full ``(servers, repository, pages, objects)`` universe.

    Besides holding the specs, the model pre-computes the flat array views
    used by the vectorised cost model:

    * :attr:`sizes` — ``m``-vector of object sizes,
    * :attr:`comp_pages` / :attr:`comp_objects` — COO-style flattening of
      the compulsory matrix ``U`` (one entry per ``U_jk = 1``),
    * :attr:`comp_indptr` — CSR row pointers into the two arrays above,
    * :attr:`comp_entry_sizes` — per-compulsory-entry object sizes
      (``sizes[comp_objects]``, the batch kernel's gather source),
    * the analogous ``opt_*`` arrays for the optional matrix ``U'`` with
      :attr:`opt_probs` holding the per-entry probabilities.

    Parameters
    ----------
    servers:
        Local server specs, ordered by ``server_id`` (checked).
    repository:
        Repository spec.
    pages:
        Page specs, ordered by ``page_id`` (checked). Every referenced
        object id must exist and each ``server`` index must be valid.
    objects:
        Object specs, ordered by ``object_id`` (checked).
    topology:
        Optional :class:`StreamTopology` describing the remote streams of
        a ``k > 2`` replica mesh.  ``None`` (the default) is the paper's
        two-stream model; the repository columns are then synthesised
        from each server's ``repo_rate`` / ``repo_overhead``, so every
        existing call site sees a degenerate ``k = 2`` topology.
    """

    def __init__(
        self,
        servers: Sequence[ServerSpec],
        repository: RepositorySpec,
        pages: Sequence[PageSpec],
        objects: Sequence[ObjectSpec],
        topology: StreamTopology | None = None,
    ):
        self.servers: tuple[ServerSpec, ...] = tuple(servers)
        self.repository = repository
        self.pages: tuple[PageSpec, ...] = tuple(pages)
        self.objects: tuple[ObjectSpec, ...] = tuple(objects)
        self._validate_ids()
        self._validate_topology(topology)
        self._build_arrays(topology)

    def _validate_topology(self, topology: StreamTopology | None) -> None:
        if topology is None:
            return
        if topology.rates.shape[0] != len(self.servers):
            raise ValueError(
                f"topology covers {topology.rates.shape[0]} servers but the "
                f"model has {len(self.servers)}"
            )
        repo_rate = np.array([sv.repo_rate for sv in self.servers])
        repo_ovhd = np.array([sv.repo_overhead for sv in self.servers])
        if not (
            np.array_equal(topology.rates[:, 0], repo_rate)
            and np.array_equal(topology.overheads[:, 0], repo_ovhd)
        ):
            raise ValueError(
                "topology stream 1 must be the repository connection: its "
                "rates/overheads column 0 must equal every server's "
                "repo_rate/repo_overhead"
            )

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _validate_ids(self) -> None:
        for i, srv in enumerate(self.servers):
            if srv.server_id != i:
                raise ValueError(
                    f"servers must be ordered by server_id: position {i} "
                    f"holds server_id {srv.server_id}"
                )
        for j, page in enumerate(self.pages):
            if page.page_id != j:
                raise ValueError(
                    f"pages must be ordered by page_id: position {j} holds "
                    f"page_id {page.page_id}"
                )
            if page.server >= len(self.servers):
                raise ValueError(
                    f"page {j} references server {page.server} but only "
                    f"{len(self.servers)} servers exist"
                )
        for k, obj in enumerate(self.objects):
            if obj.object_id != k:
                raise ValueError(
                    f"objects must be ordered by object_id: position {k} "
                    f"holds object_id {obj.object_id}"
                )
        m = len(self.objects)
        for page in self.pages:
            for obj_id in page.compulsory + page.optional:
                if not 0 <= obj_id < m:
                    raise ValueError(
                        f"page {page.page_id} references object {obj_id} but "
                        f"only {m} objects exist"
                    )

    # ------------------------------------------------------------------
    # flat array views
    # ------------------------------------------------------------------
    def _build_arrays(self, topology: StreamTopology | None = None) -> None:
        n, m, s = len(self.pages), len(self.objects), len(self.servers)
        self.n_pages = n
        self.n_objects = m
        self.n_servers = s

        self.sizes = np.array([o.size for o in self.objects], dtype=np.float64)
        self.html_sizes = np.array([p.html_size for p in self.pages], dtype=np.float64)
        self.frequencies = np.array([p.frequency for p in self.pages], dtype=np.float64)
        self.page_server = np.array([p.server for p in self.pages], dtype=np.intp)
        self.optional_rate_scale = np.array(
            [p.optional_rate_scale for p in self.pages], dtype=np.float64
        )

        comp_indptr = np.zeros(n + 1, dtype=np.intp)
        opt_indptr = np.zeros(n + 1, dtype=np.intp)
        for j, p in enumerate(self.pages):
            comp_indptr[j + 1] = comp_indptr[j] + len(p.compulsory)
            opt_indptr[j + 1] = opt_indptr[j] + len(p.optional)
        self.comp_indptr = comp_indptr
        self.opt_indptr = opt_indptr

        self.comp_objects = np.fromiter(
            (k for p in self.pages for k in p.compulsory),
            dtype=np.intp,
            count=int(comp_indptr[-1]),
        )
        self.comp_pages = np.repeat(np.arange(n, dtype=np.intp), np.diff(comp_indptr))
        self.opt_objects = np.fromiter(
            (k for p in self.pages for k in p.optional),
            dtype=np.intp,
            count=int(opt_indptr[-1]),
        )
        self.opt_pages = np.repeat(np.arange(n, dtype=np.intp), np.diff(opt_indptr))
        self.opt_probs = np.fromiter(
            (p.optional_prob for p in self.pages for _ in p.optional),
            dtype=np.float64,
            count=int(opt_indptr[-1]),
        )

        # per-server estimated network attributes, index-aligned with pages
        self.server_rate = np.array([sv.rate for sv in self.servers])
        self.server_overhead = np.array([sv.overhead for sv in self.servers])
        self.server_repo_rate = np.array([sv.repo_rate for sv in self.servers])
        self.server_repo_overhead = np.array(
            [sv.repo_overhead for sv in self.servers]
        )
        self.server_storage = np.array(
            [sv.storage_capacity for sv in self.servers], dtype=np.float64
        )
        self.server_capacity = np.array(
            [sv.processing_capacity for sv in self.servers], dtype=np.float64
        )

        # Remote-stream columns, shape (n_servers, k-1): column 0 is the
        # repository connection (identical values to the server_repo_*
        # arrays), further columns are replica-mesh sites.  Always built
        # so every consumer — ColumnarModel, server-subset slicing —
        # handles k uniformly; the classic model is k = 2.
        if topology is None:
            self.stream_rates = self.server_repo_rate.reshape(s, 1).copy()
            self.stream_overheads = self.server_repo_overhead.reshape(s, 1).copy()
        else:
            self.stream_rates = topology.rates
            self.stream_overheads = topology.overheads
        self.n_streams = 1 + self.stream_rates.shape[1]

        pages_by_server: list[list[int]] = [[] for _ in range(s)]
        for j, p in enumerate(self.pages):
            pages_by_server[p.server].append(j)
        self.pages_by_server: tuple[tuple[int, ...], ...] = tuple(
            tuple(lst) for lst in pages_by_server
        )

        # Per-page compulsory entries pre-sorted by decreasing object size
        # (PARTITION's iteration order), as a global permutation: page j's
        # sorted entries are comp_sorted[comp_indptr[j]:comp_indptr[j+1]].
        ne = len(self.comp_objects)
        self.comp_entry_sizes = self.sizes[self.comp_objects]
        if ne:
            self.comp_sorted = np.lexsort(
                (np.arange(ne), -self.comp_entry_sizes, self.comp_pages)
            )
        else:
            self.comp_sorted = np.empty(0, dtype=np.intp)

    @property
    def fast_comp(self) -> tuple[list[int], list[int], list[float], list[int]]:
        """Plain-list views of the compulsory entry arrays for hot loops:
        ``(comp_sorted, comp_objects, entry_sizes, comp_indptr)`` — built
        lazily once.
        """
        cached = getattr(self, "_fast_comp_cache", None)
        if cached is None:
            cached = (
                self.comp_sorted.tolist(),
                self.comp_objects.tolist(),
                self.sizes[self.comp_objects].tolist(),
                self.comp_indptr.tolist(),
            )
            self._fast_comp_cache = cached
        return cached

    def replace(
        self,
        *,
        servers: Sequence[ServerSpec] | None = None,
        repository: RepositorySpec | None = None,
        pages: Sequence[PageSpec] | None = None,
    ) -> "SystemModel":
        """A new model with the given specs swapped in.

        Every field not named — objects, and the stream topology of a
        ``k > 2`` replica mesh — carries over, so a derived model keeps
        the parent's ``n_streams``, ``stream_rates`` and
        ``stream_overheads``.  Replacement servers must keep their
        repository connections (stream 1 of the topology).
        """
        return SystemModel(
            self.servers if servers is None else servers,
            self.repository if repository is None else repository,
            self.pages if pages is None else pages,
            self.objects,
            topology=StreamTopology(self.stream_rates, self.stream_overheads),
        )

    # ------------------------------------------------------------------
    # convenience accessors
    # ------------------------------------------------------------------
    def comp_slice(self, page_id: int) -> slice:
        """Slice into the flat compulsory arrays for ``page_id``."""
        return slice(int(self.comp_indptr[page_id]), int(self.comp_indptr[page_id + 1]))

    def opt_slice(self, page_id: int) -> slice:
        """Slice into the flat optional arrays for ``page_id``."""
        return slice(int(self.opt_indptr[page_id]), int(self.opt_indptr[page_id + 1]))

    def objects_referenced_by_server(self, server_id: int) -> set[int]:
        """All object ids referenced (compulsorily or optionally) by pages
        hosted on ``server_id``."""
        refs: set[int] = set()
        for j in self.pages_by_server[server_id]:
            p = self.pages[j]
            refs.update(p.compulsory)
            refs.update(p.optional)
        return refs

    def html_bytes_by_server(self) -> np.ndarray:
        """Per-server total HTML bytes (the fixed part of Eq. 10's LHS)."""
        out = np.zeros(self.n_servers)
        np.add.at(out, self.page_server, self.html_sizes)
        return out

    def total_object_bytes(self) -> float:
        """Sum of all MO sizes (useful for storage normalisation)."""
        return float(self.sizes.sum())

    def __getstate__(self) -> dict:
        """Pickle without the lazily-attached derived-state caches.

        Consumers attach caches under underscore-prefixed attributes
        (``_repro_eval_context_cache``, ``_repro_reverse_index_cache``,
        ``_fast_comp_cache``); shipping them to worker processes would
        triple the payload for state every worker rebuilds lazily anyway.
        Dropping them keeps the bytes a pure function of the model, so
        the shard executor's content-addressed worker cache gets hits
        across structurally identical clones.
        """
        return {
            k: v for k, v in self.__dict__.items() if not k.startswith("_")
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SystemModel(servers={self.n_servers}, pages={self.n_pages}, "
            f"objects={self.n_objects})"
        )


#: The flat array attributes that fully determine a model's vectorised
#: state (everything :meth:`SystemModel._build_arrays` derives from the
#: specs).  :class:`ColumnarModel` reconstructs a model from exactly
#: these plus the repository spec.
MODEL_COLUMN_FIELDS: tuple[str, ...] = (
    "sizes",
    "html_sizes",
    "frequencies",
    "page_server",
    "optional_rate_scale",
    "comp_indptr",
    "opt_indptr",
    "comp_objects",
    "comp_pages",
    "opt_objects",
    "opt_pages",
    "opt_probs",
    "server_rate",
    "server_overhead",
    "server_repo_rate",
    "server_repo_overhead",
    "server_storage",
    "server_capacity",
    "comp_entry_sizes",
    "comp_sorted",
    "stream_rates",
    "stream_overheads",
)


class ColumnarModel(SystemModel):
    """A :class:`SystemModel` built directly from its flat arrays.

    :func:`restrict_to_servers` needs a model *without* paying the
    spec-tuple path: the shard-local submodels of
    ``EvalContext.for_servers`` slice the parent's columns vectorised,
    and building ``PageSpec`` tuples for a million-page model just to
    re-flatten them would dominate the shard setup it exists to remove.

    The spec tuples (``pages``, ``servers``, ``objects``) and
    ``pages_by_server`` are materialised **lazily** from the arrays on
    first access — only the scalar greedy (the ``partition_page``
    fallback inside batched restoration) and the scalar oracles touch them,
    and then only for the few pages they re-partition.  The
    reconstructed specs are exact: every spec field round-trips through
    the arrays bit-identically, so scalar and batched consumers see the
    same universe (asserted in ``tests/core/test_context_subset.py``).
    """

    def __init__(self, *args, **kwargs):  # pragma: no cover - guard
        raise TypeError(
            "ColumnarModel is constructed via from_columns(), not __init__"
        )

    @classmethod
    def from_columns(
        cls, columns: dict, repository: RepositorySpec
    ) -> "ColumnarModel":
        """Wrap pre-built flat arrays (see :data:`MODEL_COLUMN_FIELDS`).

        The arrays are adopted by reference — callers hand over
        ownership (or immutable views).
        """
        self = cls.__new__(cls)
        self.repository = repository
        for name in MODEL_COLUMN_FIELDS:
            setattr(self, name, columns[name])
        self.n_pages = len(self.html_sizes)
        self.n_objects = len(self.sizes)
        self.n_servers = len(self.server_rate)
        self.n_streams = 1 + self.stream_rates.shape[1]
        return self

    # ------------------------------------------------------------------
    # lazy spec reconstruction
    # ------------------------------------------------------------------
    @property
    def pages(self) -> tuple[PageSpec, ...]:
        cached = getattr(self, "_lazy_pages", None)
        if cached is None:
            comp = self.comp_objects.tolist()
            opt = self.opt_objects.tolist()
            ci = self.comp_indptr.tolist()
            oi = self.opt_indptr.tolist()
            probs = self.opt_probs.tolist()
            cached = tuple(
                PageSpec(
                    page_id=j,
                    server=int(self.page_server[j]),
                    html_size=int(self.html_sizes[j]),
                    frequency=float(self.frequencies[j]),
                    compulsory=tuple(comp[ci[j] : ci[j + 1]]),
                    optional=tuple(opt[oi[j] : oi[j + 1]]),
                    optional_prob=(
                        float(probs[oi[j]]) if oi[j] < oi[j + 1] else 0.0
                    ),
                    optional_rate_scale=float(self.optional_rate_scale[j]),
                )
                for j in range(self.n_pages)
            )
            self._lazy_pages = cached
        return cached

    @property
    def servers(self) -> tuple[ServerSpec, ...]:
        cached = getattr(self, "_lazy_servers", None)
        if cached is None:
            cached = tuple(
                ServerSpec(
                    server_id=i,
                    storage_capacity=float(self.server_storage[i]),
                    processing_capacity=float(self.server_capacity[i]),
                    rate=float(self.server_rate[i]),
                    overhead=float(self.server_overhead[i]),
                    repo_rate=float(self.server_repo_rate[i]),
                    repo_overhead=float(self.server_repo_overhead[i]),
                )
                for i in range(self.n_servers)
            )
            self._lazy_servers = cached
        return cached

    @property
    def objects(self) -> tuple[ObjectSpec, ...]:
        cached = getattr(self, "_lazy_objects", None)
        if cached is None:
            cached = tuple(
                ObjectSpec(object_id=k, size=int(s))
                for k, s in enumerate(self.sizes.tolist())
            )
            self._lazy_objects = cached
        return cached

    @property
    def pages_by_server(self) -> tuple[tuple[int, ...], ...]:
        cached = getattr(self, "_lazy_pages_by_server", None)
        if cached is None:
            order = np.argsort(self.page_server, kind="stable")
            bounds = self.page_server[order].searchsorted(
                np.arange(self.n_servers + 1)
            )
            lst = order.tolist()
            cached = tuple(
                tuple(lst[bounds[i] : bounds[i + 1]])
                for i in range(self.n_servers)
            )
            self._lazy_pages_by_server = cached
        return cached


def restrict_to_servers(
    model: SystemModel, server_ids: Sequence[int]
) -> tuple[ColumnarModel, dict[str, np.ndarray]]:
    """The sub-universe hosted by ``server_ids``, with global↔local maps.

    Pages are pinned to exactly one server (matrix ``A``), so a server
    subset induces a clean sub-model: its servers (renumbered densely in
    the given order), their pages (global page order preserved), and
    those pages' compulsory/optional entries (global entry order
    preserved).  **Objects keep their global ids** — the object axis is
    shared with the repository, every entry may reference any object,
    and keeping ids global is what lets shard workers hand replica sets
    back to the parent without translation.

    Order preservation is what makes shard-local computation
    bit-identical to masked global computation (DESIGN.md Appendix H):
    ascending local ids enumerate the same pages/entries in the same
    relative order as ascending global ids, and ``comp_sorted`` is
    *filtered* from the parent's permutation rather than re-sorted, so
    PARTITION's per-page size-ties resolve identically.

    Parameters
    ----------
    server_ids:
        Strictly increasing global server ids (ascending order is
        required — it keeps local server enumeration order equal to
        global enumeration order restricted to the subset).

    Returns
    -------
    ``(submodel, maps)`` where ``maps`` holds the global ids of each
    local axis position: ``"servers"``, ``"pages"``,
    ``"comp_entries"``, ``"opt_entries"``.
    """
    srvs = np.asarray(server_ids, dtype=np.intp)
    if srvs.ndim != 1 or len(srvs) == 0:
        raise ValueError("server_ids must be a non-empty 1-D sequence")
    if len(srvs) > 1 and not (srvs[1:] > srvs[:-1]).all():
        raise ValueError("server_ids must be strictly increasing")
    if srvs[0] < 0 or srvs[-1] >= model.n_servers:
        raise ValueError(
            f"server_ids must lie in [0, {model.n_servers}), got "
            f"[{int(srvs[0])}, {int(srvs[-1])}]"
        )
    g2l_server = np.full(model.n_servers, -1, dtype=np.intp)
    g2l_server[srvs] = np.arange(len(srvs), dtype=np.intp)

    page_member = g2l_server[model.page_server] >= 0
    pages_sel = np.flatnonzero(page_member)
    n_pages = len(pages_sel)

    comp_sel = np.flatnonzero(page_member[model.comp_pages])
    opt_sel = np.flatnonzero(page_member[model.opt_pages])
    comp_counts = np.diff(model.comp_indptr)[pages_sel]
    opt_counts = np.diff(model.opt_indptr)[pages_sel]
    comp_indptr = np.zeros(n_pages + 1, dtype=np.intp)
    np.cumsum(comp_counts, out=comp_indptr[1:])
    opt_indptr = np.zeros(n_pages + 1, dtype=np.intp)
    np.cumsum(opt_counts, out=opt_indptr[1:])

    # PARTITION's per-page decreasing-size permutation: filter the
    # parent's (global) permutation down to the kept entries and remap —
    # order-preserving, so equal-size tie-breaks match the parent's.
    g2l_comp = np.full(len(model.comp_objects), -1, dtype=np.intp)
    g2l_comp[comp_sel] = np.arange(len(comp_sel), dtype=np.intp)
    kept = page_member[model.comp_pages[model.comp_sorted]]
    comp_sorted = g2l_comp[model.comp_sorted[kept]]

    columns = {
        "sizes": model.sizes,  # objects stay global — shared by reference
        "html_sizes": model.html_sizes[pages_sel],
        "frequencies": model.frequencies[pages_sel],
        "page_server": g2l_server[model.page_server[pages_sel]],
        "optional_rate_scale": model.optional_rate_scale[pages_sel],
        "comp_indptr": comp_indptr,
        "opt_indptr": opt_indptr,
        "comp_objects": model.comp_objects[comp_sel],
        "comp_pages": np.repeat(
            np.arange(n_pages, dtype=np.intp), comp_counts
        ),
        "opt_objects": model.opt_objects[opt_sel],
        "opt_pages": np.repeat(np.arange(n_pages, dtype=np.intp), opt_counts),
        "opt_probs": model.opt_probs[opt_sel],
        "server_rate": model.server_rate[srvs],
        "server_overhead": model.server_overhead[srvs],
        "server_repo_rate": model.server_repo_rate[srvs],
        "server_repo_overhead": model.server_repo_overhead[srvs],
        "server_storage": model.server_storage[srvs],
        "server_capacity": model.server_capacity[srvs],
        "comp_entry_sizes": model.comp_entry_sizes[comp_sel],
        "comp_sorted": comp_sorted,
        "stream_rates": model.stream_rates[srvs],
        "stream_overheads": model.stream_overheads[srvs],
    }
    sub = ColumnarModel.from_columns(columns, model.repository)
    maps = {
        "servers": srvs,
        "pages": pages_sel,
        "comp_entries": comp_sel,
        "opt_entries": opt_sel,
    }
    return sub, maps


def pack_replicas(
    replicas: Sequence[set[int]],
) -> tuple[np.ndarray, np.ndarray]:
    """Pack per-server replica sets into a CSR pair.

    Returns ``(objects, indptr)`` where ``objects`` concatenates each
    server's replica object ids in ascending order and ``indptr`` holds
    the per-server bounds (``len(replicas) + 1`` entries).  The sorted
    packing makes the encoding canonical: equal replica state always
    produces byte-equal arrays, which keeps delta/frontier payloads
    deterministic across processes.
    """
    indptr = np.zeros(len(replicas) + 1, dtype=np.int64)
    for li, objs in enumerate(replicas):
        indptr[li + 1] = indptr[li] + len(objs)
    objects = np.zeros(int(indptr[-1]), dtype=np.int64)
    for li, objs in enumerate(replicas):
        objects[indptr[li] : indptr[li + 1]] = sorted(objs)
    return objects, indptr


def unpack_replicas(
    objects: np.ndarray, indptr: np.ndarray
) -> list[set[int]]:
    """Invert :func:`pack_replicas` back into per-server sets."""
    return [
        set(int(o) for o in objects[indptr[li] : indptr[li + 1]])
        for li in range(len(indptr) - 1)
    ]
