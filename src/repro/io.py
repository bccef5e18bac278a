"""Persistence: save/load system models and request traces.

Models serialise to JSON (they are small: specs + reference lists);
traces serialise to ``.npz`` (they are large flat arrays).  Both formats
are versioned so files survive library evolution, and loading validates
through the normal constructors — a corrupted file fails loudly, not
with NaNs downstream.

Typical uses: pinning a generated workload for cross-machine
reproducibility, or handing a colleague the exact universe behind a
plot.
"""

from __future__ import annotations

import json
import math
import pathlib
from typing import Any

import numpy as np

from repro.core.types import (
    ObjectSpec,
    PageSpec,
    RepositorySpec,
    ServerSpec,
    StreamTopology,
    SystemModel,
)
from repro.workload.trace import RequestTrace

__all__ = ["save_model", "load_model", "save_trace", "load_trace"]

_MODEL_FORMAT = "repro-model-v2"
#: v1 documents predate the stream topology; they load as k = 2.
_MODEL_FORMAT_V1 = "repro-model-v1"
_TRACE_FORMAT = "repro-trace-v1"


def _enc_float(x: float) -> Any:
    """JSON has no Infinity; encode it portably."""
    if math.isinf(x):
        return "inf"
    return x


def _dec_float(x: Any) -> float:
    if x == "inf":
        return math.inf
    return float(x)


def _dec_topology(
    doc: dict, path: str | pathlib.Path, servers: list[ServerSpec]
) -> StreamTopology:
    """The v2 ``stream_rates``/``stream_overheads`` pair as a topology.

    Each field must be an ``(n_servers, k-1)`` matrix of numbers whose
    column 0 is the servers' repository connection (``repo_rate`` /
    ``repo_overhead``); a missing or malformed field raises
    :class:`ValueError` naming it.
    """
    n_servers = len(servers)
    mats = []
    for name, repo_attr in (
        ("stream_rates", "repo_rate"),
        ("stream_overheads", "repo_overhead"),
    ):
        if name not in doc:
            raise ValueError(f"{path}: model document lacks field {name!r}")
        try:
            mat = np.array(doc[name], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"{path}: field {name!r} must be a matrix of numbers ({exc})"
            ) from None
        if mat.ndim != 2 or mat.shape[0] != n_servers or mat.shape[1] < 1:
            raise ValueError(
                f"{path}: field {name!r} must be an (n_servers, k-1) matrix "
                f"with n_servers={n_servers} and k >= 2, got shape {mat.shape}"
            )
        repo_col = np.array([getattr(sv, repo_attr) for sv in servers])
        if not np.array_equal(mat[:, 0], repo_col):
            raise ValueError(
                f"{path}: field {name!r} column 0 must equal every "
                f"server's {repo_attr} (the repository connection)"
            )
        mats.append(mat)
    try:
        return StreamTopology(rates=mats[0], overheads=mats[1])
    except ValueError as exc:
        raise ValueError(
            f"{path}: fields 'stream_rates'/'stream_overheads': {exc}"
        ) from None


def save_model(model: SystemModel, path: str | pathlib.Path) -> None:
    """Write ``model`` to ``path`` as versioned JSON (stream topology
    included)."""
    doc = {
        "format": _MODEL_FORMAT,
        "repository": {
            "processing_capacity": _enc_float(
                model.repository.processing_capacity
            )
        },
        "servers": [
            {
                "server_id": s.server_id,
                "name": s.name,
                "storage_capacity": _enc_float(s.storage_capacity),
                "processing_capacity": _enc_float(s.processing_capacity),
                "rate": s.rate,
                "overhead": s.overhead,
                "repo_rate": s.repo_rate,
                "repo_overhead": s.repo_overhead,
            }
            for s in model.servers
        ],
        "objects": [o.size for o in model.objects],
        "pages": [
            {
                "server": p.server,
                "html_size": p.html_size,
                "frequency": p.frequency,
                "compulsory": list(p.compulsory),
                "optional": list(p.optional),
                "optional_prob": p.optional_prob,
                "optional_rate_scale": p.optional_rate_scale,
            }
            for p in model.pages
        ],
        "stream_rates": model.stream_rates.tolist(),
        "stream_overheads": model.stream_overheads.tolist(),
    }
    pathlib.Path(path).write_text(json.dumps(doc))


def load_model(path: str | pathlib.Path) -> SystemModel:
    """Read a model written by :func:`save_model`.

    A v2 document carries the stream topology; a v1 document (written
    before k-stream meshes) loads as the classic k = 2 model.

    Raises
    ------
    ValueError
        If the file is not a v1/v2 model document, a topology field is
        missing or malformed (the message names the field), or the
        model fails the :class:`SystemModel` constructors' validation.
    """
    doc = json.loads(pathlib.Path(path).read_text())
    fmt = doc.get("format")
    if fmt not in (_MODEL_FORMAT, _MODEL_FORMAT_V1):
        raise ValueError(
            f"{path} is not a {_MODEL_FORMAT} document "
            f"(found format={fmt!r})"
        )
    servers = [
        ServerSpec(
            server_id=s["server_id"],
            name=s.get("name", ""),
            storage_capacity=_dec_float(s["storage_capacity"]),
            processing_capacity=_dec_float(s["processing_capacity"]),
            rate=float(s["rate"]),
            overhead=float(s["overhead"]),
            repo_rate=float(s["repo_rate"]),
            repo_overhead=float(s["repo_overhead"]),
        )
        for s in doc["servers"]
    ]
    objects = [
        ObjectSpec(object_id=k, size=int(size))
        for k, size in enumerate(doc["objects"])
    ]
    pages = [
        PageSpec(
            page_id=j,
            server=int(p["server"]),
            html_size=int(p["html_size"]),
            frequency=float(p["frequency"]),
            compulsory=tuple(int(k) for k in p["compulsory"]),
            optional=tuple(int(k) for k in p["optional"]),
            optional_prob=float(p["optional_prob"]),
            optional_rate_scale=float(p.get("optional_rate_scale", 1.0)),
        )
        for j, p in enumerate(doc["pages"])
    ]
    repository = RepositorySpec(
        processing_capacity=_dec_float(doc["repository"]["processing_capacity"])
    )
    topology = (
        None if fmt == _MODEL_FORMAT_V1 else _dec_topology(doc, path, servers)
    )
    return SystemModel(servers, repository, pages, objects, topology=topology)


def save_trace(trace: RequestTrace, path: str | pathlib.Path) -> None:
    """Write a trace's arrays to ``path`` as compressed ``.npz``.

    The model itself is *not* embedded — pass it to :func:`load_trace`
    (traces are bound to a model instance; a content fingerprint guards
    against reattaching to the wrong universe).
    """
    np.savez_compressed(
        path,
        format=np.array(_TRACE_FORMAT),
        page_of_request=trace.page_of_request,
        opt_entries=trace.opt_entries,
        opt_owner=trace.opt_owner,
        model_fingerprint=np.array(_model_fingerprint(trace.model)),
    )


def _model_fingerprint(model: SystemModel) -> str:
    """Cheap structural fingerprint to pair traces with their model."""
    return (
        f"{model.n_servers}/{model.n_pages}/{model.n_objects}/"
        f"{int(model.sizes.sum())}/{int(model.comp_objects.sum())}"
    )


def load_trace(path: str | pathlib.Path, model: SystemModel) -> RequestTrace:
    """Read a trace written by :func:`save_trace` and bind it to ``model``.

    Raises
    ------
    ValueError
        On format mismatch or when ``model`` does not match the
        fingerprint recorded at save time.
    """
    with np.load(path, allow_pickle=False) as data:
        if str(data["format"]) != _TRACE_FORMAT:
            raise ValueError(
                f"{path} is not a {_TRACE_FORMAT} archive "
                f"(found {data['format']})"
            )
        fingerprint = str(data["model_fingerprint"])
        if fingerprint != _model_fingerprint(model):
            raise ValueError(
                "trace was recorded against a different model "
                f"(fingerprint {fingerprint}, model "
                f"{_model_fingerprint(model)})"
            )
        page_of_request = data["page_of_request"].astype(np.intp)
        trace = RequestTrace(
            model=model,
            page_of_request=page_of_request,
            server_of_request=model.page_server[page_of_request].astype(np.intp),
            opt_entries=data["opt_entries"].astype(np.intp),
            opt_owner=data["opt_owner"].astype(np.intp),
        )
    trace.validate()
    return trace
