"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the experiment harnesses:

* ``table1`` — nominal-vs-realised workload parameters,
* ``fig1`` / ``fig2`` / ``fig3`` — regenerate the paper's figures,
* ``claims`` — the Section 5.2 scalar claims,
* ``ablation`` — ablation A5: replica selection vs stream balancing,
* ``dynamic`` — the extension E1 epoch experiment,
* ``demo`` — one quick end-to-end policy-vs-baselines comparison.

All commands print ASCII artifacts to stdout.  ``--scale`` and
``--runs`` control workload size and averaging (defaults match the
benchmark suite's quick settings; ``--scale paper`` is Table 1), and
``--jobs`` fans the sweep work units out over worker processes
(default: ``$REPRO_JOBS`` or serial), and ``--shards N`` splits every
policy solve into ``N`` per-server shards on a process pool (default:
``$REPRO_SHARDS`` or in one process); the results are bit-identical
either way.

``--metrics-out PATH`` (or the ``REPRO_METRICS`` environment variable)
enables the :mod:`repro.obs` observability layer for the command and
writes a JSON run manifest — per-phase wall-clock spans, restoration and
simulation counters, seed/scale/shards/git-SHA provenance — to ``PATH``
(a ``.json`` file, or a directory receiving a timestamped file).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro import obs
from repro.core.shard import resolve_shards
from repro.core.types import resolve_streams
from repro.experiments.executor import resolve_jobs
from repro.experiments.runner import ExperimentConfig
from repro.workload.params import WorkloadParams

__all__ = ["main", "build_parser"]

_SCALES = {
    "paper": WorkloadParams.paper,
    "small": WorkloadParams.small,
    "tiny": WorkloadParams.tiny,
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Replicating the Contents of a WWW "
            "Multimedia Repository to Minimize Download Time' "
            "(Loukopoulos & Ahmad, IPPS 2000)"
        ),
    )
    parser.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default="small",
        help="workload size (paper = Table 1 verbatim)",
    )
    parser.add_argument(
        "--runs", type=int, default=3, help="independent runs to average"
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=None,
        help="trace length per server (defaults to the scale's setting)",
    )
    parser.add_argument("--seed", type=int, default=2000, help="root seed")
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="run every policy solve on N per-server shards over worker "
        "processes (default: $REPRO_SHARDS if set, else in one process; "
        "results are bit-identical)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for sweep work units (default: $REPRO_JOBS "
        "if set, else 1 = serial; results are bit-identical)",
    )
    parser.add_argument(
        "--streams",
        type=int,
        default=None,
        metavar="K",
        help="download streams per page view (default: $REPRO_STREAMS if "
        "set, else 2 = the paper's local+repository model; K>2 adds "
        "replica-mesh sites as extra parallel sources)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="collect metrics and write a JSON run manifest to PATH "
        "(default: $REPRO_METRICS if set, else disabled)",
    )

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("table1", help="Table 1: nominal vs realised workload")
    sub.add_parser("fig1", help="Figure 1: response time vs storage")
    sub.add_parser("fig2", help="Figure 2: response time vs local capacity")
    sub.add_parser("fig3", help="Figure 3: constrained repository capacity")
    sub.add_parser("claims", help="Section 5.2 scalar claims")
    sub.add_parser(
        "ablation", help="ablation A5: replica selection vs stream balancing"
    )
    dyn = sub.add_parser("dynamic", help="extension E1: re-allocation cadence")
    dyn.add_argument("--epochs", type=int, default=6)
    dyn.add_argument("--drift-every", type=int, default=2)
    dyn.add_argument(
        "--strategies",
        default=None,
        metavar="LIST",
        help="comma-separated subset of static,periodic,incremental,oracle "
        "(default: all four; named RNG streams keep the rest paired)",
    )
    sub.add_parser("demo", help="one policy-vs-baselines comparison")
    sub.add_parser(
        "analyze", help="run the policy once and describe the allocation"
    )
    sub.add_parser(
        "linkspeed", help="extension E2: repository link-speed sensitivity"
    )
    ksw = sub.add_parser(
        "ksweep", help="extension E4: value of extra download streams"
    )
    ksw.add_argument(
        "--max-streams",
        type=int,
        default=5,
        metavar="K",
        help="sweep k = 2..K (default: 5)",
    )
    rep = sub.add_parser(
        "reproduce", help="every paper artifact in one combined report"
    )
    rep.add_argument(
        "--charts", action="store_true", help="append ASCII bar charts"
    )
    return parser


def _config(args: argparse.Namespace) -> ExperimentConfig:
    params = _SCALES[args.scale]()
    if args.requests:
        params = params.with_(requests_per_server=args.requests)
    params = _apply_streams(params, args)
    return ExperimentConfig(
        params=params,
        n_runs=args.runs,
        base_seed=args.seed,
        shards=args.shards,
        jobs=args.jobs,
    )


def _apply_streams(params, args: argparse.Namespace):
    """Apply a validated ``--streams``/``$REPRO_STREAMS`` request.

    ``k > 2`` provisions enough repository-grade sources for the mesh;
    the default ``k = 2`` leaves the scenario untouched.
    """
    k = getattr(args, "streams", None)
    if not k or k == params.n_streams:
        return params
    return params.with_(
        n_streams=k, n_repositories=max(params.n_repositories, k - 1)
    )


def _cmd_table1(args: argparse.Namespace) -> str:
    from repro.experiments.table1 import run_table1

    return run_table1(
        _apply_streams(_SCALES[args.scale](), args), seed=args.seed
    ).render()


def _cmd_fig1(args: argparse.Namespace) -> str:
    from repro.experiments.fig1_storage import run_fig1

    return run_fig1(_config(args)).render()


def _cmd_fig2(args: argparse.Namespace) -> str:
    from repro.experiments.fig2_processing import run_fig2

    return run_fig2(_config(args)).render()


def _cmd_fig3(args: argparse.Namespace) -> str:
    from repro.experiments.fig3_central import run_fig3

    return run_fig3(_config(args)).render()


def _cmd_claims(args: argparse.Namespace) -> str:
    from repro.experiments.claims import run_headline_claims

    return run_headline_claims(_config(args)).render()


def _cmd_ablation(args: argparse.Namespace) -> str:
    from repro.experiments.ablation_popularity import run_ablation_popularity

    return run_ablation_popularity(_config(args)).render()


def _cmd_dynamic(args: argparse.Namespace) -> str:
    from repro.dynamic import STRATEGIES, EpochConfig, run_dynamic_experiment

    params = _apply_streams(_SCALES[args.scale](), args)
    epoch_kwargs = {}
    if args.requests:
        epoch_kwargs["requests_per_server"] = args.requests
    cfg = EpochConfig(
        n_epochs=args.epochs, drift_every=args.drift_every, **epoch_kwargs
    )
    strategies = None
    if args.strategies:
        strategies = [
            s.strip() for s in args.strategies.split(",") if s.strip()
        ]
        bad = [s for s in strategies if s not in STRATEGIES]
        if bad:
            raise SystemExit(
                f"--strategies: unknown {bad}; valid: {','.join(STRATEGIES)}"
            )
    return run_dynamic_experiment(
        params, cfg, seed=args.seed, strategies=strategies
    ).render()


def _cmd_demo(args: argparse.Namespace) -> str:
    from repro.baselines import IdealLRUPolicy, LocalPolicy, RemotePolicy
    from repro.core.policy import RepositoryReplicationPolicy
    from repro.simulation.engine import simulate_allocation
    from repro.util.tables import format_table
    from repro.workload.generator import generate_workload
    from repro.workload.trace import generate_trace

    params = _SCALES[args.scale]()
    if args.requests:
        params = params.with_(requests_per_server=args.requests)
    params = _apply_streams(params, args)
    model = generate_workload(params, seed=args.seed)
    result = RepositoryReplicationPolicy(shards=args.shards).run(model)
    trace = generate_trace(model, params, seed=args.seed + 1)
    sims = {
        "proposed": simulate_allocation(result.allocation, trace, seed=2),
        "local": simulate_allocation(LocalPolicy().allocate(model), trace, seed=2),
        "remote": simulate_allocation(RemotePolicy().allocate(model), trace, seed=2),
    }
    lru, _ = IdealLRUPolicy(
        cache_bytes=result.allocation.stored_bytes_all()
    ).evaluate(trace, seed=2)
    sims["ideal-lru"] = lru
    base = sims["proposed"].mean_page_time
    rows = [
        (
            name,
            f"{sim.mean_page_time:.0f}s",
            f"{sim.mean_page_time / base - 1:+.1%}",
        )
        for name, sim in sims.items()
    ]
    return format_table(
        ["policy", "mean page time", "vs proposed"],
        rows,
        title=f"{model} / {trace.n_requests} requests",
    )


def _cmd_analyze(args: argparse.Namespace) -> str:
    from repro.analysis import describe_allocation
    from repro.core.policy import RepositoryReplicationPolicy
    from repro.workload.generator import generate_workload

    params = _apply_streams(_SCALES[args.scale](), args)
    model = generate_workload(params, seed=args.seed)
    result = RepositoryReplicationPolicy(shards=args.shards).run(model)
    cost = RepositoryReplicationPolicy().cost_model(model)
    report = describe_allocation(result.allocation, cost)
    return f"{result.summary()}\n\n{report.render()}"


def _cmd_linkspeed(args: argparse.Namespace) -> str:
    from repro.experiments.extension_link_speed import run_link_speed

    return run_link_speed(_config(args)).render()


def _cmd_ksweep(args: argparse.Namespace) -> str:
    from repro.experiments.extension_streams import run_streams

    if args.max_streams < 2:
        raise SystemExit("--max-streams must be at least 2")
    return run_streams(
        _config(args), streams=range(2, args.max_streams + 1)
    ).render()


def _cmd_reproduce(args: argparse.Namespace) -> str:
    from repro.experiments.report import reproduce_all

    return reproduce_all(_config(args)).render(charts=args.charts)


_COMMANDS = {
    "reproduce": _cmd_reproduce,
    "table1": _cmd_table1,
    "fig1": _cmd_fig1,
    "fig2": _cmd_fig2,
    "fig3": _cmd_fig3,
    "claims": _cmd_claims,
    "ablation": _cmd_ablation,
    "dynamic": _cmd_dynamic,
    "demo": _cmd_demo,
    "analyze": _cmd_analyze,
    "linkspeed": _cmd_linkspeed,
    "ksweep": _cmd_ksweep,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # explicit --jobs, else $REPRO_JOBS (validated), else 1 = serial
        args.jobs = resolve_jobs(args.jobs)
    except ValueError as exc:
        parser.error(f"--jobs/$REPRO_JOBS: {exc}")
    try:
        # explicit --shards, else $REPRO_SHARDS (validated), else None
        # = in one process
        args.shards = resolve_shards(args.shards)
    except ValueError as exc:
        parser.error(f"--shards/$REPRO_SHARDS: {exc}")
    try:
        # explicit --streams, else $REPRO_STREAMS (validated), else 2
        args.streams = resolve_streams(args.streams)
    except ValueError as exc:
        parser.error(f"--streams/$REPRO_STREAMS: {exc}")
    if args.streams > 2 and args.shards is not None:
        parser.error(
            "--shards: sharded runs support the k=2 topology only; run "
            "--streams > 2 without --shards"
        )
    metrics_out = args.metrics_out or obs.env_metrics_path()
    if metrics_out:
        run_info = {
            "entry": "cli",
            "command": args.command,
            "scale": args.scale,
            "seed": args.seed,
            "runs": args.runs,
            "jobs": args.jobs,
            "shards": args.shards,
        }
        with obs.collect(run=run_info, out=metrics_out, name=args.command):
            output = _COMMANDS[args.command](args)
    else:
        output = _COMMANDS[args.command](args)
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
