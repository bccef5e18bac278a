#!/usr/bin/env python
"""Coverage gate: fail the build if line coverage drops below the floor.

Runs ``pytest --cov=repro --cov-fail-under=<floor>`` with the floor taken
from ``[tool.coverage.report] fail_under`` in ``pyproject.toml`` (the
seed's measured line-coverage floor — raise it when coverage legitimately
rises, never lower it to make a PR pass).

Usage:

    python scripts/coverage_gate.py            # full suite + coverage
    python scripts/coverage_gate.py --fast     # -m "not slow" split
    python scripts/coverage_gate.py --strict   # missing pytest-cov fails

``pytest-cov`` is an optional dev dependency (``pip install -e .[dev]``).
When it is absent — e.g. in the minimal runtime container — the gate
SKIPS with exit code 0 (or fails with exit code 3 under ``--strict``)
instead of crashing, so the functional suite can still run everywhere.

Under ``--fast`` the gate additionally runs a **parallel smoke job**: the
executor test file once more with ``REPRO_JOBS=2`` at tiny scale (and
``-p no:cacheprovider``, so two concurrent pytest processes can never
race on ``.pytest_cache``), proving the multi-process path works in the
gate environment and not just on developer machines — followed by a
**sharded smoke**: a tiny-scale CLI ``analyze`` run with
``REPRO_SHARDS=2`` (the one sharding switch), exercising the fork →
pickle → reconcile path end to end — a **delta-rounds smoke** plus a
**forced-resync smoke**: the off-loading scatter identity tests, then
the real-process identity test with a full resync forced on every
batch (``resync_every=1``), covering the worker-resident delta protocol
and its epoch-mismatch recovery path across a process boundary — and a
**mesh smoke**: one tiny-scale CLI ``analyze`` run with
``--streams 3``, exercising the k-stream argmin-over-k engine beyond
the degenerate k=2 topology — and a
**dynamic smoke**: one small-scale CLI ``dynamic`` run with the
``incremental`` strategy, exercising the incremental re-replication
engine (dirty-set detection, frequency-context adoption, localized
repair) end to end.
"""

from __future__ import annotations

import importlib.util
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    strict = "--strict" in argv
    fast = "--fast" in argv
    # Static layering lint first: an import-layer break fails the build
    # before any test runs (it is milliseconds, and a violation would
    # invalidate the coverage attribution below anyway).
    lint = [sys.executable, str(REPO_ROOT / "scripts" / "check_layering.py")]
    print("layering check:", " ".join(lint))
    code = subprocess.call(lint, cwd=REPO_ROOT)
    if code != 0:
        return code
    # Bench-record check next (also milliseconds): a stale or malformed
    # BENCH_trajectory.json fails the gate before the test run, so bench
    # refreshes can never be forgotten silently.
    bench_check = [
        sys.executable,
        str(REPO_ROOT / "scripts" / "collect_bench.py"),
        "--check",
    ]
    print("bench-record check:", " ".join(bench_check))
    code = subprocess.call(bench_check, cwd=REPO_ROOT)
    if code != 0:
        return code
    if importlib.util.find_spec("pytest_cov") is None:
        msg = (
            "coverage gate: pytest-cov is not installed "
            "(pip install -e .[dev]); "
        )
        if strict:
            print(msg + "failing (--strict).", file=sys.stderr)
            return 3
        print(msg + "skipping gate, running plain test suite instead.")
        cmd = [sys.executable, "-m", "pytest", "-q"]
    else:
        # --cov-fail-under is left to [tool.coverage.report] fail_under.
        # repro.obs, the experiment executor/cache modules, and the
        # batched engines are named explicitly so the observability,
        # parallelism, and performance layers stay in the measured set
        # even if the source tree is ever split.
        cmd = [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "--cov=repro",
            "--cov=repro.obs",
            "--cov=repro.experiments.executor",
            "--cov=repro.experiments.cache",
            "--cov=repro.core.fast_partition",
            "--cov=repro.core.fast_restoration",
            "--cov=repro.core.context",
            "--cov=repro.core.shard",
            "--cov=repro.dynamic.incremental",
            "--cov=repro.baselines.closest",
            "--cov=repro.experiments.extension_streams",
        ]
    if fast:
        cmd += ["-m", "not slow"]
    env_src = str(REPO_ROOT / "src")
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = env_src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    print("coverage gate:", " ".join(cmd))
    code = subprocess.call(cmd, cwd=REPO_ROOT, env=env)
    if code != 0 or not fast:
        return code

    # Parallel smoke: the executor determinism tests once more with the
    # multi-process path forced on via the environment.  No coverage
    # (subprocess coverage needs extra wiring) and no pytest cache, so
    # this job can never interfere with the main run's artifacts.
    smoke = [
        sys.executable,
        "-m",
        "pytest",
        "-q",
        "-p",
        "no:cacheprovider",
        "tests/experiments/test_executor.py",
    ]
    smoke_env = dict(env)
    smoke_env.update(
        REPRO_JOBS="2", REPRO_BENCH_SCALE="tiny", REPRO_BENCH_RUNS="2"
    )
    print("parallel smoke:", " ".join(smoke), "(REPRO_JOBS=2)")
    code = subprocess.call(smoke, cwd=REPO_ROOT, env=smoke_env)
    if code != 0:
        return code

    # Sharded smoke: one end-to-end CLI run with per-server shards on a
    # process pool forced on via the environment, proving the fork →
    # pickle → reconcile path works in the gate environment.
    shard_smoke = [
        sys.executable,
        "-m",
        "repro",
        "--scale",
        "tiny",
        "analyze",
    ]
    shard_env = dict(env)
    shard_env.update(REPRO_SHARDS="2")
    print("sharded smoke:", " ".join(shard_smoke), "(REPRO_SHARDS=2)")
    code = subprocess.call(shard_smoke, cwd=REPO_ROOT, env=shard_env)
    if code != 0:
        return code

    # Delta-rounds smoke: the off-loading scatter identity tests, driving
    # the worker-resident delta-round protocol (batched absorptions,
    # epoch bookkeeping) inline and through a real process pool.
    delta_smoke = [
        sys.executable,
        "-m",
        "pytest",
        "-q",
        "-p",
        "no:cacheprovider",
        "tests/core/test_shard_reconcile.py",
        "-k",
        "scatter or delta",
    ]
    print("delta-rounds smoke:", " ".join(delta_smoke))
    code = subprocess.call(delta_smoke, cwd=REPO_ROOT, env=env)
    if code != 0:
        return code

    # Forced-resync smoke: the real-process identity test with a full
    # epoch resync forced on every batch, proving the mismatch-recovery
    # path (full state re-ship) stays bit-identical across a process
    # boundary — not just the steady-state fast path.
    resync_smoke = [
        sys.executable,
        "-m",
        "pytest",
        "-q",
        "-p",
        "no:cacheprovider",
        "tests/core/test_shard_reconcile.py::TestRealProcessPool::"
        "test_subprocess_resync_every_batch_identity",
    ]
    print("forced-resync smoke:", " ".join(resync_smoke))
    code = subprocess.call(resync_smoke, cwd=REPO_ROOT, env=env)
    if code != 0:
        return code

    # Mesh smoke: one end-to-end CLI run over a 3-stream replica mesh,
    # proving the argmin-over-k engine (k-way PARTITION, stream-aware
    # restoration, Eq. 8-10 reporting) works in the gate environment
    # beyond the degenerate k=2 topology.
    mesh_smoke = [
        sys.executable,
        "-m",
        "repro",
        "--scale",
        "tiny",
        "--streams",
        "3",
        "analyze",
    ]
    print("mesh smoke:", " ".join(mesh_smoke), "(--streams 3)")
    code = subprocess.call(mesh_smoke, cwd=REPO_ROOT, env=env)
    if code != 0:
        return code

    # Dynamic smoke: the incremental re-replication strategy end to end
    # through the CLI (dirty-set detection, frequency-context adoption,
    # localized repair), at small scale with a short trace.
    dyn_smoke = [
        sys.executable,
        "-m",
        "repro",
        "--scale",
        "small",
        "--requests",
        "200",
        "dynamic",
        "--epochs",
        "3",
        "--strategies",
        "static,incremental",
    ]
    print("dynamic smoke:", " ".join(dyn_smoke))
    return subprocess.call(dyn_smoke, cwd=REPO_ROOT, env=env)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
