"""Spans around the program's layer functions, installed from outside.

The traced run must measure the same program as the untraced one, so no
span lives inside ``src/``.  Instead :class:`Tracer` replaces each layer
function *at the call site the default program uses* (the name bound in
the caller's module, or the method on its class) with a wrapper that
opens a span, calls the original and turns the returned stats into work
counters.  :meth:`Tracer.restore` puts every original back.

A wrapper records only while a group is open (``tracer.group`` is not
``None``); calls made by the benchmark's own checks run untraced.  Each
group accumulates, per span name, the self time (the span minus the
part its traced children cover) and the total time, so the self times
of one group add up to its root span exactly and a parent's self time is
its unattributed residue.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict


def _storage_counts(stats, seconds, *args, **kwargs):
    return {
        "restore_storage.evictions": stats.evictions,
        "restore_storage.bytes_freed": stats.bytes_freed,
    }


def _processing_counts(stats, seconds, *args, **kwargs):
    return {"restore_processing.switches": stats.switches}


def _offload_counts(outcome, seconds, alloc, *args, **kwargs):
    capacity = alloc.model.repository.processing_capacity
    return {
        "offload.rounds": outcome.rounds,
        "offload.messages": outcome.messages,
        "offload.absorbed_req_s": outcome.total_absorbed,
        "offload.excess_on_entry_req_s": max(
            outcome.initial_repo_load - capacity, 0.0
        ),
    }


def _partition_all_counts(alloc, seconds, model, *args, **kwargs):
    return {"partition.pages": model.n_pages}


def _partition_pages_counts(out, seconds, model, page_ids=None, *args, **kwargs):
    return {"partition.pages": model.n_pages if page_ids is None else len(page_ids)}


def _generate_counts(model, seconds, *args, **kwargs):
    return {"workload.pages": model.n_pages}


def _trace_counts(trace, seconds, *args, **kwargs):
    return {"workload.requests": trace.n_requests}


def _replay_counts(sim, seconds, alloc, trace, *args, **kwargs):
    return {"replay.requests": trace.n_requests}


def _lru_counts(out, seconds, trace, *args, **kwargs):
    _, stats = out
    return {
        "lru.requests": trace.n_requests,
        "lru.hits": stats.hits,
        "lru.misses": stats.misses,
        "lru.evictions": stats.evictions,
    }


def _context_build_counts(out, seconds, *args, **kwargs):
    return {"context.builds": 1}


def _context_adopt_counts(out, seconds, *args, **kwargs):
    return {"context.adopted": 1}


def _replan_counts(stats, seconds, *args, **kwargs):
    audited = stats.audit_gap is not None or stats.mode == "full"
    return {
        "replan.audit_s" if audited else "replan.incremental_s": seconds,
        "replan.full_resolves": int(stats.mode == "full"),
        "replan.dirty_pages": stats.n_dirty,
        "replan.rebuilt_servers": len(stats.rebuilt_servers),
        "replan.churn_bytes": stats.churn_bytes_added + stats.churn_bytes_removed,
    }


#: (module, class or None, attribute, span name, counter) for every call
#: site of a layer function on the default program's paths: the policy
#: pipeline, the Figure 1 sweep (artifact cache, run context, sweep
#: point) and the incremental re-planner.
LAYER_SITES = [
    ("repro.experiments.cache", None, "generate_workload", "workload.generate", _generate_counts),
    ("repro.experiments.cache", None, "generate_trace", "workload.trace", _trace_counts),
    ("repro.experiments.runner", None, "generate_trace", "workload.trace", _trace_counts),
    ("repro.core.context", "EvalContext", "_build", "context.build", _context_build_counts),
    ("repro.core.context", "EvalContext", "_refresh_frequency_columns", "context.adopt", _context_adopt_counts),
    ("repro.core.policy", "RepositoryReplicationPolicy", "run", "policy", None),
    ("repro.core.policy", None, "partition_all", "partition", _partition_all_counts),
    ("repro.dynamic.incremental", None, "partition_pages_batched", "partition", _partition_pages_counts),
    ("repro.core.policy", None, "restore_storage_capacity", "restore_storage", _storage_counts),
    ("repro.dynamic.incremental", None, "restore_storage_capacity", "restore_storage", _storage_counts),
    ("repro.core.policy", None, "restore_processing_capacity", "restore_processing", _processing_counts),
    ("repro.dynamic.incremental", None, "restore_processing_capacity", "restore_processing", _processing_counts),
    ("repro.core.policy", None, "offload_repository", "offload", _offload_counts),
    ("repro.dynamic.incremental", None, "offload_repository", "offload", _offload_counts),
    ("repro.core.policy", None, "evaluate_constraints", "constraints", None),
    ("repro.dynamic.incremental", None, "evaluate_constraints", "constraints", None),
    ("repro.core.cost_model", "CostModel", "D", "objective", None),
    ("repro.experiments.runner", None, "simulate_allocation", "replay", _replay_counts),
    ("repro.experiments.cache", None, "simulate_allocation", "replay", _replay_counts),
    ("repro.experiments.fig1_storage", None, "simulate_lru", "lru", _lru_counts),
    ("repro.dynamic.incremental", "IncrementalReplanner", "replan", "replan", _replan_counts),
]


class Tracer:
    """Nested spans and counters, accumulated per group (see module doc)."""

    def __init__(self):
        self.group = None
        self.totals: dict = defaultdict(lambda: defaultdict(float))
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str):
        return _Span(self, name)

    def add(self, key: str, value: float) -> None:
        if self.group is not None:
            self.totals[self.group][key] += value

    def install(self, sites=LAYER_SITES) -> None:
        """Wrap every layer call site; a missing site is an error, so a
        moved call cannot silently read zero."""
        for module, cls, attr, name, count in sites:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            self._wrap(owner, attr, name, count)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, owner, attr: str, name: str, count) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if tracer.group is None:
                return original(*args, **kwargs)
            with tracer.span(name) as span:
                out = original(*args, **kwargs)
            if count is not None:
                for key, value in count(out, span.seconds, *args, **kwargs).items():
                    tracer.add(key, value)
            return out

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))


class _Span:
    __slots__ = ("tracer", "name", "start", "frame", "seconds")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        # frame = [covered-by-children seconds]
        self.frame = [0.0]
        self.tracer._stack.append(self.frame)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = seconds = time.perf_counter() - self.start
        tracer = self.tracer
        tracer._stack.pop()
        if tracer._stack:
            tracer._stack[-1][0] += seconds
        tracer.add(f"{self.name}.total_s", seconds)
        tracer.add(f"{self.name}.self_s", seconds - self.frame[0])
        tracer.add(f"{self.name}.calls", 1)
        return False
