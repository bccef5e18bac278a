"""The benchmark's workloads, driven through the program's public entry points.

Each workload builds its inputs from ``--seed`` alone (:meth:`setup`) and
then yields one :class:`Op` after another for a *pass* (:meth:`ops`).
The runner times ``Op.run`` and calls ``Op.check`` outside the timing;
a check returns the list of its failures.  Checks also fill
``self.answer`` — the pass's exact outputs — so the runner can require
every pass, traced or not, to reproduce the first one bit for bit.

Every workload runs the default program: one process, ``jobs=1``, the
default (batched) kernel and k=2 streams.  No kernel, stream or job
argument is passed anywhere, so the benchmark measures what a user runs
and keeps working when a kernel or knob is deleted.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.allocation import transplant_allocation
from repro.core.constraints import evaluate_constraints
from repro.core.partition import partition_all
from repro.core.policy import RepositoryReplicationPolicy
from repro.core.verify import verify_allocation
from repro.dynamic.drift import rotate_hot_set
from repro.dynamic.incremental import IncrementalReplanner
from repro.experiments.cache import clear_artifact_cache
from repro.experiments.fig1_storage import run_fig1
from repro.experiments.runner import ExperimentConfig, prepare_run
from repro.experiments.scaling import (
    clone_with_capacities,
    processing_capacities_for_fraction,
    repo_capacity_for_fraction,
    storage_capacities_for_fraction,
)
from repro.simulation.engine import simulate_allocation
from repro.workload.generator import generate_workload
from repro.workload.params import WorkloadParams
from repro.workload.trace import generate_trace


def table1() -> WorkloadParams:
    """Table 1 with the per-server page and object counts at the midpoints
    of their ranges.  Every seed then gives a model of the same size
    (6,000 pages) and varies only its content: with the full ranges the
    size alone moves a solve's time by 15% from seed to seed."""
    return WorkloadParams.paper().with_(
        pages_per_server=(600, 600), objects_per_server=(3000, 3000)
    )


def sub_seed(seed: int, *path: int) -> int:
    """A seed for one input of a run, derived from the run's ``--seed``."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


@dataclass
class Op:
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]


class Workload:
    name: str
    why: str

    def __init__(self, seed: int, smoke: bool = False, tracer=None):
        self.seed = seed
        self.smoke = smoke
        self.tracer = tracer
        self.pass_index = 0
        self.answer: dict = {}
        # input index -> simulated mean page time.  It depends only on
        # the (deterministic) allocation, so each is simulated once, in
        # the first pass that reaches it.
        self._page_times: dict[int, float] = {}

    # -- tracing helpers: the set-up group only feeds workload.* metrics
    def span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def count(self, key: str, value: float) -> None:
        if self.tracer is not None:
            self.tracer.add(key, value)

    def generate(self, params: WorkloadParams, seed: int):
        with self.span("workload.generate"):
            model = generate_workload(params, seed=seed)
        self.count("workload.pages", model.n_pages)
        return model

    def trace(self, model, params: WorkloadParams, seed: int):
        with self.span("workload.trace"):
            trace = generate_trace(model, params, seed=seed)
        self.count("workload.requests", trace.n_requests)
        return trace

    def verify(self, alloc, expect_feasible: bool) -> list[str]:
        if self.tracer is not None:
            self.tracer.group = ("verify", self.pass_index)
        try:
            with self.span("verify"):
                report = verify_allocation(alloc, expect_feasible=expect_feasible)
        finally:
            if self.tracer is not None:
                self.tracer.group = None
        return [f"verify_allocation: {f}" for f in report.failures]

    def begin_pass(self, index: int) -> None:
        self.pass_index = index
        self.answer = {"objective_D": 0.0, "eq9_excess_req_s": 0.0, "signature": []}

    def end_pass(self) -> dict:
        self.answer["mean_page_time_s"] = float(np.mean(list(self._page_times.values())))
        return self.answer

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self):
        raise NotImplementedError


@dataclass
class _PlanInput:
    model: Any
    """The generated model with relaxed capacities."""
    trace: Any
    capacities: dict


class _Plan(Workload):
    """A capacity-planning solve: ``RepositoryReplicationPolicy().run`` on a
    fresh capacity clone per op, so the EvalContext starts cold."""

    n_models: int
    expect_feasible: bool

    def params(self) -> WorkloadParams:
        raise NotImplementedError

    def capacities(self, model, reference) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        params = self.params()
        relaxed = params.with_(storage_capacity=np.inf, repository_capacity=np.inf)
        self.inputs = []
        for i in range(2 if self.smoke else self.n_models):
            model = self.generate(relaxed, sub_seed(self.seed, i))
            trace = self.trace(model, params, sub_seed(self.seed, i, 1))
            reference = partition_all(model)
            self.inputs.append(
                _PlanInput(model, trace, self.capacities(model, reference))
            )

    def ops(self):
        policy = RepositoryReplicationPolicy()
        for i, inp in enumerate(self.inputs):
            clone = clone_with_capacities(inp.model, **inp.capacities)
            yield Op(
                functools.partial(policy.run, clone),
                functools.partial(self.check, i),
            )

    def check(self, i: int, result) -> list[str]:
        failures = self.verify(result.allocation, self.expect_feasible)
        report = result.constraints
        if not self.expect_feasible and not (report.storage_ok and report.local_ok):
            failures.append(f"expected Eq. 9 to be the only violation: {report.summary()}")
        self.answer["objective_D"] += result.objective
        self.answer["eq9_excess_req_s"] += max(-report.repo_slack, 0.0)
        self.answer["signature"].append(result.objective)
        if i not in self._page_times:
            inp = self.inputs[i]
            alloc = transplant_allocation(result.allocation, inp.model)
            self._page_times[i] = simulate_allocation(alloc, inp.trace).mean_page_time
        return failures


class PlanPaper(_Plan):
    name = "plan-paper"
    why = (
        "Table 1 solve at 0.6/0.6/0.7 of the PARTITION footprint: storage and "
        "processing restoration do the work, Eq. 9 stays violated (BREAK)"
    )
    n_models = 2
    expect_feasible = False

    def params(self) -> WorkloadParams:
        return WorkloadParams.tiny() if self.smoke else table1()

    def capacities(self, model, reference) -> dict:
        return {
            "storage": storage_capacities_for_fraction(model, reference, 0.6),
            "processing": processing_capacities_for_fraction(model, 0.6, reference),
            "repo_capacity": repo_capacity_for_fraction(reference, 0.7),
        }


class PlanOffload(_Plan):
    name = "plan-offload"
    why = (
        "small() solves with spare CPU and C(R) at 0.9 of the post-restoration "
        "load: OFF_LOADING does most of the work and every solve ends feasible"
    )
    n_models = 12
    expect_feasible = True

    def params(self) -> WorkloadParams:
        # tiny() models often leave OFF_LOADING short of Eq. 9, so the
        # smoke scale keeps small() and cuts the model count instead.
        return WorkloadParams.small()

    def capacities(self, model, reference) -> dict:
        storage = storage_capacities_for_fraction(model, reference, 0.6)
        processing = processing_capacities_for_fraction(model, 1.0)
        # Pre-solve without an Eq. 9 limit: C(R) is a share of the load
        # the repository still carries after both restorations.
        restored = RepositoryReplicationPolicy().run(
            clone_with_capacities(model, storage=storage, processing=processing)
        )
        return {
            "storage": storage,
            "processing": processing,
            "repo_capacity": repo_capacity_for_fraction(restored.allocation, 0.9),
        }


@contextlib.contextmanager
def _capture_policy_results(results: list):
    """Collect every ``RepositoryReplicationPolicy.run`` result made inside
    the block (the sweep returns only its series)."""
    original = RepositoryReplicationPolicy.run

    def run(self, model):
        result = original(self, model)
        results.append(result)
        return result

    RepositoryReplicationPolicy.run = run
    try:
        yield
    finally:
        RepositoryReplicationPolicy.run = original


class SweepStorage(Workload):
    name = "sweep-storage"
    why = (
        "the Figure 1 path: run_fig1 at three storage ticks from a cleared "
        "artifact cache; storage restoration and ideal-LRU replay share the time"
    )
    fractions = (0.35, 0.65, 1.0)
    n_runs = 1

    def setup(self) -> None:
        params = WorkloadParams.tiny() if self.smoke else table1()
        self.config = ExperimentConfig(
            params=params, n_runs=self.n_runs, jobs=1, base_seed=self.seed
        )

    def ops(self):
        clear_artifact_cache()
        results: list = []
        with _capture_policy_results(results):
            yield Op(
                functools.partial(run_fig1, self.config, fractions=self.fractions),
                functools.partial(self.check, results),
            )

    def check(self, solves: list, result) -> list[str]:
        failures = []
        proposed = result.series["proposed"]
        if proposed[-1] != 0.0:
            failures.append(f"100% storage tick reads {proposed[-1]!r}, not exactly 0.0")
        values = [v for s in result.series.values() for v in s]
        values += list(result.scalars.values())
        if not np.all(np.isfinite(values)):
            failures.append(f"non-finite sweep value in {result.series} {result.scalars}")
        # Per run: the unconstrained reference solve, then one per tick.
        expected = self.n_runs * (1 + len(self.fractions))
        if len(solves) != expected:
            failures.append(f"expected {expected} solves, saw {len(solves)}")
        self.answer["objective_D"] += sum(s.objective for s in solves)
        self.answer["signature"] += [s.objective for s in solves]
        self.answer["signature"] += [result.series, result.scalars]
        for r, increases in enumerate(result.per_run["proposed"]):
            if r not in self._page_times:
                # Cache hit: the sweep just prepared this run's context.
                baseline = prepare_run(self.config, r).reference_mean
                self._page_times[r] = baseline * (1.0 + float(np.mean(increases)))
        return failures


class ReplanDrift(Workload):
    name = "replan-drift"
    why = (
        "IncrementalReplanner.replan on Table 1 data at 0.6 storage while one "
        "server's hot set rotates per epoch; every 4th replan is a full audit"
    )
    n_models = 2
    #: One audit period per model.
    epochs = 4

    def setup(self) -> None:
        self.params = WorkloadParams.small() if self.smoke else table1()
        self.policy = RepositoryReplicationPolicy()
        self.plans = []
        for i in range(self.n_models):
            model = self.generate(self.params, sub_seed(self.seed, i))
            storage = storage_capacities_for_fraction(model, partition_all(model), 0.6)
            base = clone_with_capacities(model, storage=storage)
            epoch0 = self.policy.run(base)
            if not epoch0.feasible:
                raise RuntimeError(
                    f"epoch-0 solve is infeasible: {epoch0.constraints.summary()}"
                )
            self.plans.append((base, epoch0.allocation))

    def ops(self):
        # Every pass replays the same epochs from the epoch-0 plans; the
        # two models drift servers 1-4 and 5-8.
        for i, (base, allocation) in enumerate(self.plans):
            replanner = IncrementalReplanner(
                self.policy, base, initial_allocation=allocation
            )
            model = base
            for epoch in range(1, self.epochs + 1):
                model = rotate_hot_set(
                    model,
                    fraction=0.5,
                    seed=sub_seed(self.seed, i, 1, epoch),
                    servers=[(i * self.epochs + epoch) % model.n_servers],
                )
                yield Op(
                    functools.partial(replanner.replan, model),
                    functools.partial(self.check, i, replanner, epoch),
                )

    def check(self, i: int, replanner, epoch: int, stats) -> list[str]:
        failures = self.verify(replanner.allocation, True)
        self.answer["signature"].append(stats.objective)
        if epoch == self.epochs:
            self.answer["objective_D"] += replanner.objective
            report = evaluate_constraints(replanner.allocation)
            self.answer["eq9_excess_req_s"] += max(-report.repo_slack, 0.0)
            if i not in self._page_times:
                trace = generate_trace(
                    replanner.model, self.params, seed=sub_seed(self.seed, i, 2)
                )
                sim = simulate_allocation(replanner.allocation, trace)
                self._page_times[i] = sim.mean_page_time
        return failures


WORKLOADS = {w.name: w for w in (PlanPaper, PlanOffload, SweepStorage, ReplanDrift)}
