"""Tests for run manifests: schema, path resolution, CLI/env wiring."""

import json
import math
import os
import pathlib

import pytest

from repro import obs
from repro.obs.manifest import (
    ENV_VAR,
    SCHEMA,
    build_manifest,
    git_revision,
    policy_section,
    resolve_manifest_path,
    simulation_section,
    write_manifest,
)
from repro.obs.registry import MetricsRegistry


@pytest.fixture
def policy_result(tiny_model):
    """One constrained policy run (storage restoration triggers)."""
    from repro.core.partition import partition_all
    from repro.core.policy import RepositoryReplicationPolicy
    from repro.experiments.scaling import (
        clone_with_capacities,
        storage_capacities_for_fraction,
    )

    ref = partition_all(tiny_model)
    caps = storage_capacities_for_fraction(tiny_model, ref, 0.5)
    clone = clone_with_capacities(tiny_model, storage=caps)
    return RepositoryReplicationPolicy().run(clone)


class TestBuildManifest:
    def test_required_keys_and_schema(self):
        reg = MetricsRegistry()
        reg.count("c")
        reg.gauge("g", 2.0)
        with reg.span("s"):
            pass
        doc = build_manifest(reg, run={"seed": 7})
        assert doc["schema"] == SCHEMA
        assert doc["run"] == {"seed": 7}
        assert doc["counters"] == {"c": 1.0}
        assert doc["gauges"] == {"g": 2.0}
        assert doc["phases"][0]["path"] == "s"
        assert "s" in doc["phase_seconds"]
        # ISO-8601 UTC timestamp
        assert doc["created_at"].endswith("Z")
        assert "policy" not in doc and "simulation" not in doc

    def test_git_sha_matches_checkout(self):
        doc = build_manifest(MetricsRegistry())
        sha = git_revision(cwd=pathlib.Path(__file__).parent)
        assert doc["git_sha"] == sha
        if sha is not None:
            assert len(sha) == 40

    def test_json_serialisable(self, policy_result):
        reg = MetricsRegistry()
        doc = build_manifest(reg, policy=policy_result)
        json.dumps(doc)  # must not raise


class TestSections:
    def test_policy_section(self, policy_result):
        sec = policy_section(policy_result)
        assert sec["objective"] == policy_result.objective
        assert sec["feasible"] == policy_result.feasible
        assert sec["phases_run"] == list(policy_result.phases_run)
        assert set(sec["constraints"]) == {"storage_ok", "local_ok", "repo_ok"}
        assert (
            sec["storage_restoration"]["evictions"]
            == policy_result.storage_stats.evictions
        )
        assert (
            sec["processing_restoration"]["switches"]
            == policy_result.processing_stats.switches
        )
        assert sec["offload"] is None  # repository unconstrained

    def test_simulation_section(self, small_model, small_trace):
        from repro.core.partition import partition_all
        from repro.simulation.engine import simulate_allocation

        sim = simulate_allocation(partition_all(small_model), small_trace)
        sec = simulation_section(sim)
        assert sec["n_requests"] == sim.n_requests
        assert sec["mean_page_time"] == sim.mean_page_time
        assert set(sec["percentiles"]) == {"p50", "p90", "p95", "p99"}
        assert (
            sec["percentiles"]["p50"]
            <= sec["percentiles"]["p99"]
        )
        assert 0.0 <= sec["bottleneck_fraction_remote"] <= 1.0


class TestPathsAndWriting:
    def test_json_suffix_is_file(self, tmp_path):
        spec = tmp_path / "manifest.json"
        assert resolve_manifest_path(spec) == spec

    def test_directory_gets_stamped_name(self, tmp_path):
        path = resolve_manifest_path(tmp_path, name="policy")
        assert path.parent == tmp_path
        assert path.name.startswith("policy-")
        assert path.suffix == ".json"
        assert str(os.getpid()) in path.stem

    def test_write_creates_parents(self, tmp_path):
        target = tmp_path / "a" / "b" / "m.json"
        out = write_manifest(target, {"schema": SCHEMA})
        assert out == target
        assert json.loads(target.read_text())["schema"] == SCHEMA

    def test_worker_suffix_on_explicit_json(self, tmp_path, monkeypatch):
        """Inside an executor worker, explicit .json targets gain a
        -w<pid> suffix so concurrent workers never clobber each other."""
        from repro.obs.manifest import WORKER_ENV_VAR

        monkeypatch.setenv(WORKER_ENV_VAR, "4321")
        spec = tmp_path / "manifests" / "fig1.json"
        path = resolve_manifest_path(spec)
        assert path.parent == spec.parent
        assert path.name == "fig1-w4321.json"

    def test_worker_suffix_absent_outside_workers(self, tmp_path, monkeypatch):
        from repro.obs.manifest import WORKER_ENV_VAR

        monkeypatch.delenv(WORKER_ENV_VAR, raising=False)
        spec = tmp_path / "fig1.json"
        assert resolve_manifest_path(spec) == spec


class TestCollect:
    def test_collect_writes_manifest(self, tmp_path, tiny_model):
        from repro.core.policy import RepositoryReplicationPolicy

        target = tmp_path / "run.json"
        holder = {}
        with obs.collect(
            run={"entry": "test"}, out=target, policy=holder
        ) as reg:
            holder["result"] = RepositoryReplicationPolicy().run(tiny_model)
        doc = json.loads(target.read_text())
        assert doc["schema"] == SCHEMA
        assert doc["run"] == {"entry": "test"}
        assert doc["counters"]["policy.runs"] == 1.0
        assert doc["policy"]["feasible"] is True
        assert reg.counters["policy.runs"] == 1.0

    def test_collect_without_out_writes_nothing(self, tmp_path):
        with obs.collect() as reg:
            reg.count("c")
        assert list(tmp_path.iterdir()) == []

    def test_env_metrics_path(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert obs.env_metrics_path() is None
        monkeypatch.setenv(ENV_VAR, "  ")
        assert obs.env_metrics_path() is None
        monkeypatch.setenv(ENV_VAR, "out/")
        assert obs.env_metrics_path() == "out/"


class TestEndToEndWiring:
    def test_cli_metrics_out_flag(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "demo.json"
        rc = main(
            [
                "--scale",
                "tiny",
                "--requests",
                "100",
                "--runs",
                "1",
                "--metrics-out",
                str(target),
                "demo",
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out  # the table still prints
        doc = json.loads(target.read_text())
        assert doc["schema"] == SCHEMA
        assert doc["run"]["command"] == "demo"
        assert doc["run"]["shards"] is None
        assert doc["counters"]["policy.runs"] >= 1.0
        assert doc["counters"]["simulation.replays"] >= 1.0
        assert any(p["path"].startswith("policy") for p in doc["phases"])

    def test_env_var_drives_bare_policy_run(
        self, tmp_path, monkeypatch, tiny_model
    ):
        """REPRO_METRICS alone makes Policy.run emit its own manifest."""
        from repro.core.policy import RepositoryReplicationPolicy

        monkeypatch.setenv(ENV_VAR, str(tmp_path))
        result = RepositoryReplicationPolicy().run(tiny_model)
        assert result.feasible
        files = sorted(tmp_path.glob("policy-*.json"))
        assert len(files) == 1
        doc = json.loads(files[0].read_text())
        assert doc["run"]["entry"] == "RepositoryReplicationPolicy.run"
        assert doc["policy"]["objective"] == result.objective
        assert doc["counters"]["policy.runs"] == 1.0

    def test_env_var_ignored_when_registry_active(
        self, tmp_path, monkeypatch, tiny_model
    ):
        """An explicitly installed registry wins over the env var —
        no nested per-run manifests are written."""
        from repro.core.policy import RepositoryReplicationPolicy

        monkeypatch.setenv(ENV_VAR, str(tmp_path))
        with obs.use_registry(MetricsRegistry()) as reg:
            RepositoryReplicationPolicy().run(tiny_model)
        assert list(tmp_path.iterdir()) == []
        assert reg.counters["policy.runs"] == 1.0

    def test_metrics_do_not_change_constrained_results(self, tiny_model):
        """Same inputs, with and without metrics: identical allocations."""
        from repro.core.partition import partition_all
        from repro.core.policy import RepositoryReplicationPolicy
        from repro.experiments.scaling import (
            clone_with_capacities,
            storage_capacities_for_fraction,
            processing_capacities_for_fraction,
        )

        ref = partition_all(tiny_model)
        clone = clone_with_capacities(
            tiny_model,
            storage=storage_capacities_for_fraction(tiny_model, ref, 0.5),
            processing=processing_capacities_for_fraction(tiny_model, 0.7),
        )
        plain = RepositoryReplicationPolicy().run(clone)
        with obs.use_registry(MetricsRegistry()):
            observed = RepositoryReplicationPolicy().run(clone)
        assert observed.objective == plain.objective
        assert observed.allocation == plain.allocation
        assert (
            observed.storage_stats.evictions == plain.storage_stats.evictions
        )
        assert (
            observed.processing_stats.switches
            == plain.processing_stats.switches
        )
