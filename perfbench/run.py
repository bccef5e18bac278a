"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload plan-paper --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see README.md).  The last line of standard output is the result
object; the line before it carries provenance, per-op timings and any
check failures.  The program is imported from ``src/`` of the checkout;
without it the benchmark exits with code 2 and prints no result.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# A fixed environment, set before NumPy loads its BLAS: no REPRO_* knob
# reaches the program, and BLAS/OpenMP pools are capped at the cores
# this process may use.  All load comes from this one process.
for _key in [k for k in os.environ if k.startswith("REPRO_")]:
    del os.environ[_key]
NPROC = len(os.sched_getaffinity(0))
for _key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_key] = str(NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Each set-up (a smoke-sized warm-up op, then the inputs from the seed)
#: is repeated this often and ``setup_s`` reports the median.
SETUP_REPEATS = 3

MIB = 2.0**20


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2000)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("bench", "smoke"),
        default="bench",
        help="smoke: tiny inputs, for the benchmark's own tests",
    )
    return parser.parse_args(argv)


def git_sha():
    """HEAD's commit from ``.git`` files, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    """SHA-256 over the program's sources: identifies the code measured
    even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _next_op(ops, tracer, index):
    """Advance the pass; input preparation between ops (clones, drifted
    models) is traced as its own group, outside the op."""
    if tracer is not None:
        tracer.group = ("prep", index)
    try:
        return next(ops, None)
    finally:
        if tracer is not None:
            tracer.group = None


def _time_op(op, tracer, index):
    """Run one op; returns (seconds, result, traceback or None)."""
    gc.collect()
    result = error = None
    if tracer is not None:
        tracer.group = ("pass", index)
    with tracer.span("op") if tracer is not None else contextlib.nullcontext():
        k0 = calibrate.in_kernel_s()
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception:
            error = traceback.format_exc()
        seconds = time.perf_counter() - t0 - (calibrate.in_kernel_s() - k0)
    if tracer is not None:
        tracer.group = None
    return seconds, result, error


def run_passes(workload, seconds, tracer):
    """Run passes until ``seconds`` are used; with a tracer, alternate
    untraced and traced passes, at least one of each."""
    passes = []
    attempted = failed = 0
    failures = []
    begin = time.perf_counter()
    while True:
        index = len(passes)
        pass_tracer = tracer if index % 2 == 1 else None
        workload.tracer = pass_tracer
        workload.begin_pass(index)
        op_seconds = []
        ops = workload.ops()
        while (op := _next_op(ops, pass_tracer, index)) is not None:
            dt, result, error = _time_op(op, pass_tracer, index)
            op_seconds.append(dt)
            attempted += 1
            if error is None:
                try:
                    problems = op.check(result)
                except Exception:
                    problems = [traceback.format_exc()]
            else:
                problems = [error]
            if problems:
                failed += 1
                failures += [f"pass {index} op {len(op_seconds)}: {p}" for p in problems]
        passes.append(
            {
                "traced": pass_tracer is not None,
                "seconds": sum(op_seconds),
                "op_seconds": op_seconds,
                "answer": workload.end_pass(),
            }
        )
        elapsed = time.perf_counter() - begin
        enough = tracer is None or len(passes) >= 2
        if enough and elapsed + elapsed / len(passes) > seconds:
            break
    workload.tracer = None
    return passes, attempted, failed, failures


def setup_workload(cls, seed, smoke, tracer):
    """Set up SETUP_REPEATS times (the last one traced); returns the last
    workload and the median set-up seconds."""
    times = []
    for rep in range(SETUP_REPEATS):
        gc.collect()
        k0 = calibrate.in_kernel_s()
        t0 = time.perf_counter()
        # Warm-up: the first op of a smoke-sized copy of the workload
        # finishes lazy imports and first-call costs before any timing.
        warm = cls(seed, smoke=True)
        warm.setup()
        warm.begin_pass(0)
        warm_ops = warm.ops()
        next(warm_ops).run()
        warm_ops.close()
        last = rep == SETUP_REPEATS - 1
        workload = cls(seed, smoke=smoke, tracer=tracer if last else None)
        if last and tracer is not None:
            tracer.group = "setup"
        try:
            workload.setup()
        finally:
            if tracer is not None:
                tracer.group = None
        times.append(time.perf_counter() - t0 - (calibrate.in_kernel_s() - k0))
    workload.tracer = None
    return workload, statistics.median(times)


def answers_match(passes):
    """Every pass reproduces the first one's outputs exactly."""
    first = passes[0]["answer"]
    return all(p["answer"] == first for p in passes[1:])


def end_to_end_metrics(passes, setup_s, speed):
    """The end-to-end metrics, times in reference seconds (``speed`` is
    reference seconds per measured second, see calibrate.py)."""
    ops = [s for p in passes for s in p["op_seconds"]]
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MIB
    return {
        "setup_s": (speed * setup_s, "s"),
        "op_s": (speed * statistics.median(ops), "s"),
        "pass_s": (speed * statistics.median(p["seconds"] for p in passes), "s"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    from layers import layer_shares, per_layer_metrics
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    import_s = time.perf_counter() - _T0

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    else:
        calibrate.start()
    try:
        workload, setup_s = setup_workload(
            WORKLOADS[args.workload], args.seed, args.scale == "smoke", tracer
        )
        passes, attempted, failed, failures = run_passes(
            workload, args.seconds, tracer
        )
    finally:
        if tracer is not None:
            tracer.restore()
        else:
            calibrate.stop()

    if not answers_match(passes):
        failures.append(
            "passes disagree: the outputs (objective_D, series) of some pass "
            "differ from the first pass's"
        )
    if tracer is None:
        metrics = end_to_end_metrics(passes, import_s + setup_s, calibrate.speed())
    else:
        metrics = per_layer_metrics(tracer.totals, passes)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "provenance": {
            "git_sha": git_sha(),
            "src_sha256": src_digest(),
            "nproc": NPROC,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
        },
        "import_s": import_s,
        "setup_s": setup_s,
        "speed": calibrate.speed() if tracer is None else None,
        "kernel_s": calibrate.SAMPLES,
        "passes": [{k: v for k, v in p.items() if k != "answer"} for p in passes],
        "answer": {
            k: v for k, v in passes[0]["answer"].items() if k != "signature"
        },
        "failures": failures,
    }
    if tracer is not None:
        details["shares"] = layer_shares(tracer.totals, passes)
    print(json.dumps({"details": details}))
    for line in failures:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
