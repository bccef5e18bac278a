"""Tests for the parallel experiment executor and the artifact cache.

The load-bearing guarantee: ``jobs`` is a *performance* knob, never a
*results* knob.  Parallel sweeps must be bit-identical to serial ones,
and merged run-manifest counters must not depend on the worker count.
"""

import numpy as np
import pytest

from repro.experiments.ablation_popularity import run_ablation_popularity
from repro.experiments.cache import (
    ArtifactCache,
    artifact_cache,
    clear_artifact_cache,
    params_digest,
)
from repro.experiments.executor import (
    map_run_points,
    map_runs,
    resolve_jobs,
    shutdown_pool,
)
from repro.core.shard import resolve_shards
from repro.experiments.fig2_processing import run_fig2
from repro.experiments.runner import ExperimentConfig, prepare_run
from repro.obs.registry import MetricsRegistry, use_registry
from repro.simulation.perturbation import PAPER_PERTURBATION
from repro.workload.params import WorkloadParams


@pytest.fixture(scope="module")
def tiny_cfg():
    return ExperimentConfig(
        params=WorkloadParams.tiny().with_(requests_per_server=100), n_runs=2
    )


def _mean_increase(ctx, point):
    """Module-level (picklable) point function used by the fan-out tests."""
    return ctx.relative_increase(ctx.reference_sim) + float(point)


def _trace_len(ctx):
    return ctx.trace.n_requests


class TestResolveJobs:
    def test_explicit_value_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs(None) == 4
        monkeypatch.delenv("REPRO_JOBS")
        assert resolve_jobs(None) == 1

    @pytest.mark.parametrize("value", ["0", "-3", "2.5", "abc"])
    def test_env_rejects_bad_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_JOBS", value)
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs(None)

    @pytest.mark.parametrize("value", [0, -1, 2.5, True, "2"])
    def test_explicit_rejects_bad_values(self, value):
        with pytest.raises(ValueError, match="jobs"):
            resolve_jobs(value)


class TestResolveShards:
    """``REPRO_SHARDS`` resolution mirrors ``REPRO_JOBS`` (same
    ``env_positive_int`` machinery); lives here so the two env knobs'
    contracts are pinned side by side."""

    def test_explicit_value_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "7")
        assert resolve_shards(3, n_servers=10) == 3

    def test_env_value_used_when_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "4")
        assert resolve_shards(None, n_servers=10) == 4

    def test_unset_means_in_process(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        assert resolve_shards(None, n_servers=10) is None

    @pytest.mark.parametrize("value", ["0", "-3", "2.5", "abc"])
    def test_env_rejects_bad_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SHARDS", value)
        with pytest.raises(ValueError, match="REPRO_SHARDS"):
            resolve_shards(None)

    @pytest.mark.parametrize("value", [0, -1, 2.5, True, "2"])
    def test_explicit_rejects_bad_values(self, value):
        with pytest.raises(ValueError, match="shards"):
            resolve_shards(value)

    def test_rejects_more_shards_than_servers(self):
        with pytest.raises(ValueError, match="server count"):
            resolve_shards(8, n_servers=4)


class TestArtifactCache:
    def test_hit_returns_same_bundle(self):
        cache = ArtifactCache(capacity=4)
        params = WorkloadParams.tiny().with_(requests_per_server=50)
        key = dict(
            params=params,
            perturbation=PAPER_PERTURBATION,
            model_seed=1,
            trace_seed=2,
            sim_seed=3,
        )
        first = cache.get(**key)
        second = cache.get(**key)
        assert second is first
        assert cache.stats() == (1, 1)

    def test_distinct_keys_miss(self):
        cache = ArtifactCache(capacity=4)
        params = WorkloadParams.tiny().with_(requests_per_server=50)
        common = dict(
            params=params,
            perturbation=PAPER_PERTURBATION,
            model_seed=1,
            trace_seed=2,
        )
        a = cache.get(sim_seed=3, **common)
        b = cache.get(sim_seed=4, **common)
        assert a is not b
        assert cache.stats() == (0, 2)

    def test_lru_eviction(self):
        cache = ArtifactCache(capacity=1)
        params = WorkloadParams.tiny().with_(requests_per_server=50)
        common = dict(
            params=params,
            perturbation=PAPER_PERTURBATION,
            model_seed=1,
            trace_seed=2,
        )
        cache.get(sim_seed=3, **common)
        cache.get(sim_seed=4, **common)
        assert len(cache) == 1
        cache.get(sim_seed=3, **common)  # evicted -> rebuilt
        assert cache.stats() == (0, 3)

    def test_params_digest_stable_and_sensitive(self):
        a = WorkloadParams.tiny()
        assert params_digest(a) == params_digest(WorkloadParams.tiny())
        b = a.with_(requests_per_server=a.requests_per_server + 1)
        assert params_digest(a) != params_digest(b)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            ArtifactCache(capacity=0)

    def test_prepare_run_hits_global_cache(self, tiny_cfg):
        clear_artifact_cache()
        hits0, misses0 = artifact_cache().stats()
        a = prepare_run(tiny_cfg, 0)
        b = prepare_run(tiny_cfg, 0)
        hits1, misses1 = artifact_cache().stats()
        assert (hits1 - hits0, misses1 - misses0) == (1, 1)
        assert a.model is b.model
        assert a.trace is b.trace

    def test_no_metrics_leak_from_generation(self, tiny_cfg):
        """Artifact generation must not touch the caller's registry
        beyond the experiment-prepare span (cache misses depend on
        process history, so leaked counters would make manifests
        execution-mode dependent)."""
        clear_artifact_cache()
        reg = MetricsRegistry()
        with use_registry(reg):
            prepare_run(tiny_cfg, 0)
        assert {r.path for r in reg.spans} == {"experiment-prepare"}
        assert reg.counters == {}


class TestMapRunPoints:
    def test_matrix_shape_and_values(self, tiny_cfg):
        matrix = map_run_points(tiny_cfg, _mean_increase, [10.0, 20.0])
        assert len(matrix) == tiny_cfg.n_runs
        assert [len(row) for row in matrix] == [2, 2]
        assert matrix[0][1] == pytest.approx(matrix[0][0] + 10.0)

    def test_empty_points(self, tiny_cfg):
        assert map_run_points(tiny_cfg, _mean_increase, []) == [[], []]

    def test_parallel_matches_serial(self, tiny_cfg):
        serial = map_run_points(tiny_cfg, _mean_increase, [1.0, 2.0, 3.0])
        parallel = map_run_points(
            tiny_cfg, _mean_increase, [1.0, 2.0, 3.0], jobs=2
        )
        assert parallel == serial

    def test_map_runs_parallel_matches_serial(self, tiny_cfg):
        serial = map_runs(tiny_cfg, _trace_len)
        parallel = map_runs(tiny_cfg, _trace_len, jobs=2)
        assert parallel == serial
        assert len(serial) == tiny_cfg.n_runs

    def test_chunksize_does_not_change_results(self, tiny_cfg):
        base = map_run_points(tiny_cfg, _mean_increase, [1.0, 2.0])
        odd = map_run_points(
            tiny_cfg, _mean_increase, [1.0, 2.0], jobs=2, chunksize=3
        )
        assert odd == base


class TestDeterminism:
    """Satellite: parallel and serial sweeps are bit-identical, and the
    merged manifests agree on every counter."""

    def _run_both(self, fn):
        clear_artifact_cache()
        shutdown_pool()
        serial_reg = MetricsRegistry()
        with use_registry(serial_reg):
            serial = fn(jobs=1)
        clear_artifact_cache()
        shutdown_pool()
        parallel_reg = MetricsRegistry()
        with use_registry(parallel_reg):
            parallel = fn(jobs=2)
        return serial, parallel, serial_reg, parallel_reg

    def test_fig2_bit_identical_and_counters_merge(self, tiny_cfg):
        from dataclasses import replace

        def run(jobs):
            return run_fig2(
                replace(tiny_cfg, jobs=jobs), fractions=(0.0, 0.5, 1.0)
            )

        serial, parallel, sreg, preg = self._run_both(run)
        assert parallel.series == serial.series
        assert parallel.per_run == serial.per_run
        assert parallel.scalars == serial.scalars
        # counters are mode-invariant: the merged worker counters sum to
        # exactly what the serial run recorded in-process
        assert preg.counters == sreg.counters
        assert preg.counters["executor.units"] == tiny_cfg.n_runs * 4
        # deterministic gauges agree too; executor.* gauges describe the
        # execution environment itself and legitimately differ
        s_gauges = {
            k: v for k, v in sreg.gauges.items()
            if not k.startswith("executor.")
        }
        p_gauges = {
            k: v for k, v in preg.gauges.items()
            if not k.startswith("executor.")
        }
        assert p_gauges == s_gauges
        assert sreg.gauges["executor.workers"] == 1
        assert preg.gauges["executor.workers"] == 2

    def test_ablation_bit_identical(self, tiny_cfg):
        from dataclasses import replace

        def run(jobs):
            return run_ablation_popularity(
                replace(tiny_cfg, jobs=jobs), (0.5, 1.0)
            )

        serial, parallel, _, _ = self._run_both(run)
        assert parallel.per_run == serial.per_run
        for frac in (0.5, 1.0):
            assert parallel.mean(frac, "proposed") == pytest.approx(
                serial.mean(frac, "proposed")
            )

    def test_repeated_serial_runs_identical(self, tiny_cfg):
        """The cache never changes results: a warm rerun is bit-identical."""
        clear_artifact_cache()
        cold = run_fig2(tiny_cfg, fractions=(0.5,))
        warm = run_fig2(tiny_cfg, fractions=(0.5,))
        assert warm == cold
        assert artifact_cache().hits > 0
