#!/usr/bin/env python
"""Import-layering lint: keep the dependency DAG of ``src/repro`` acyclic.

The package is layered (ROADMAP/DESIGN): ``util`` and ``obs`` at the
bottom, ``core`` above them, and the orchestration layers
(``simulation``, ``baselines``, ``dynamic``, ``experiments``,
``analysis``) on top.  Two rules keep the shared-state work of the
EvalContext refactor honest:

* ``repro.core`` must never import the layers above it —
  ``experiments``, ``simulation``, ``baselines``, ``dynamic``,
  ``analysis`` — so the engines and the evaluation context stay usable
  from any orchestrator (and from the executor's worker processes)
  without dragging the experiment stack in;
* ``repro.obs`` imports nothing above ``util`` — observability must be
  embeddable everywhere, so it can depend on nothing that depends on it.

On top of the layer rules, ``MODULE_FORBIDDEN`` pins *module-specific*
contracts with their rationale: ``core/shard.py`` fans work out to
processes but must receive its pool **by injection** (the ``ShardPool``
protocol) — importing ``repro.experiments`` (e.g. the executor's
persistent pool) from there would invert the layering that lets the
sharded policy run inside executor workers in the first place.

The check is purely static (``ast`` parse, no imports executed), walks
every module including function-local imports, and prints each
violation as ``file:line: <importing layer> imports <forbidden>``.

One more rule keeps ``repro.core`` a single k-stream engine: no module
there may compare a stream count (``n_streams``, ``k`` or ``n_rem``)
with an integer literal — the paper's two-stream model is the general
path with one remote stream, not a second copy of it.  The only
exception is an ``if <...>.n_streams > 2:`` guard whose body raises
``NotImplementedError`` (the k=2-only OFF_LOADING negotiation and
sharded policy run).

The scalar oracles stay oracles: no module under ``src/repro`` other
than ``core/reference.py`` itself may import ``repro.core.reference``
— only tests and ``benchmarks/`` call it, so the program runs one
engine.

Usage::

    python scripts/check_layering.py        # exit 0 clean, 1 violations

Run alongside ``scripts/coverage_gate.py`` (the gate invokes this first;
a layering break fails the build before any test runs).
"""

from __future__ import annotations

import ast
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"

#: layer -> subpackages it must never import (directly or via
#: ``from repro.<x> import ...`` anywhere in the module, including
#: function bodies).
FORBIDDEN: dict[str, frozenset[str]] = {
    "core": frozenset(
        {"experiments", "simulation", "baselines", "dynamic", "analysis"}
    ),
    # obs may import only util below itself (and itself).
    "obs": frozenset(
        {
            "analysis",
            "baselines",
            "cli",
            "core",
            "dynamic",
            "experiments",
            "io",
            "network",
            "refdb",
            "simulation",
            "workload",
        }
    ),
}


#: module (path relative to src/repro) -> (forbidden subpackages, why).
#: These refine the layer rules with a per-file contract and a message
#: explaining the sanctioned alternative.
MODULE_FORBIDDEN: dict[str, tuple[frozenset[str], str]] = {
    "core/shard.py": (
        frozenset(
            {"experiments", "analysis", "cli", "network", "simulation"}
        ),
        "sharded runs must take their worker pool by injection "
        "(ShardPool protocol) — pass experiments.executor."
        "persistent_pool(n) in from above, never import it here — and "
        "its delta-round wire helpers (_absorb_shard_batch, "
        "_ShardedScatter, the resident-shard store) must stay below "
        "experiments/cli/network so pool workers import nothing above "
        "core when they unpickle a batch",
    ),
    "core/types.py": (
        frozenset(
            {
                "analysis",
                "baselines",
                "cli",
                "dynamic",
                "experiments",
                "network",
                "simulation",
                "workload",
            }
        ),
        "StreamTopology/resolve_streams are consumed by the workload "
        "generator, the CLI, and every layer above — the foundation "
        "module must stay import-free of them all (notably "
        "repro.workload, which the core-layer rule alone does not "
        "forbid), or replica-mesh scenario plumbing would cycle back "
        "into the type definitions it is built from",
    ),
    "core/context.py": (
        frozenset({"dynamic", "experiments"}),
        "the frequency-clone adoption hook (adopt_frequency_context) is "
        "called *from* repro.dynamic.drift — the dependency must point "
        "down only, or the incremental re-planner would drag the "
        "dynamic/experiment stack into every engine import",
    ),
}


#: names whose comparison with an integer literal forks the k-stream
#: engine (see the module docstring)
STREAM_COUNT_NAMES = frozenset({"n_streams", "k", "n_rem"})


def _stream_count_name(node: ast.AST) -> str | None:
    """``n_streams`` for ``n_streams``, ``x.n_streams`` and
    ``getattr(x, "n_streams", ...)``; ``None`` for anything else."""
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "getattr"
        and len(node.args) >= 2
        and isinstance(node.args[1], ast.Constant)
    ):
        name = node.args[1].value
    else:
        return None
    return name if name in STREAM_COUNT_NAMES else None


def _is_int_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def _is_k2_only_guard(node: ast.If) -> bool:
    """``if <...>.n_streams > 2:`` whose body raises NotImplementedError."""
    test = node.test
    if not (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.Gt)
        and _stream_count_name(test.left) == "n_streams"
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value == 2
    ):
        return False
    for stmt in node.body:
        if isinstance(stmt, ast.Raise) and stmt.exc is not None:
            exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
            if isinstance(exc, ast.Name) and exc.id == "NotImplementedError":
                return True
    return False


def stream_fork_lines(source: str, filename: str = "<source>") -> list[int]:
    """Line numbers comparing a stream count with an integer literal,
    outside the sanctioned k=2-only guards."""
    tree = ast.parse(source, filename=filename)
    guards = {
        id(node.test)
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and _is_k2_only_guard(node)
    }
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare) or id(node) in guards:
            continue
        operands = [node.left, *node.comparators]
        if any(_stream_count_name(o) for o in operands) and any(
            _is_int_literal(o) for o in operands
        ):
            lines.append(node.lineno)
    return sorted(lines)


#: the scalar-oracle module, importable only from outside ``src/repro``
ORACLE_MODULE = "repro.core.reference"
ORACLE_FILE = "core/reference.py"


def oracle_import_lines(
    source: str, package: str = "repro", filename: str = "<source>"
) -> list[int]:
    """Line numbers importing :data:`ORACLE_MODULE`, absolutely or
    relative to ``package`` (the importing module's package)."""
    tree = ast.parse(source, filename=filename)
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                parts = package.split(".")[: len(package.split(".")) - node.level + 1]
                module = ".".join(parts + ([module] if module else []))
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(
            n == ORACLE_MODULE or n.startswith(ORACLE_MODULE + ".") for n in names
        ):
            lines.append(node.lineno)
    return sorted(lines)


def _layer_of(path: pathlib.Path) -> str:
    """The top-level subpackage (or module stem) a file belongs to."""
    rel = path.relative_to(PACKAGE_ROOT)
    return rel.parts[0] if len(rel.parts) > 1 else rel.stem


def _imported_subpackages(tree: ast.AST):
    """Yield ``(lineno, subpackage)`` for every ``repro.*`` import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "repro" and len(parts) > 1:
                    yield node.lineno, parts[1]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            parts = (node.module or "").split(".")
            if parts[0] == "repro":
                if len(parts) > 1:
                    yield node.lineno, parts[1]
                else:
                    # ``from repro import X``: the imported names are
                    # the subpackages being depended on.
                    for alias in node.names:
                        yield node.lineno, alias.name


def check() -> list[str]:
    """All layering violations in the tree, as printable strings."""
    violations = []
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        layer = _layer_of(path)
        forbidden = FORBIDDEN.get(layer, frozenset())
        module_key = path.relative_to(PACKAGE_ROOT).as_posix()
        module_forbidden, module_why = MODULE_FORBIDDEN.get(
            module_key, (frozenset(), "")
        )
        if not forbidden and not module_forbidden:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, target in _imported_subpackages(tree):
            rel = path.relative_to(REPO_ROOT)
            if target in module_forbidden:
                violations.append(
                    f"{rel}:{lineno}: {module_key} imports repro.{target} "
                    f"({module_why})"
                )
            elif target in forbidden:
                violations.append(
                    f"{rel}:{lineno}: repro.{layer} imports repro.{target}"
                )
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        if path.relative_to(PACKAGE_ROOT).as_posix() == ORACLE_FILE:
            continue
        rel = path.relative_to(REPO_ROOT)
        package = ".".join(("repro",) + path.relative_to(PACKAGE_ROOT).parts[:-1])
        for lineno in oracle_import_lines(path.read_text(), package, str(path)):
            violations.append(
                f"{rel}:{lineno}: imports {ORACLE_MODULE} (the scalar "
                "oracles are for tests and benchmarks only)"
            )
    for path in sorted((PACKAGE_ROOT / "core").rglob("*.py")):
        rel = path.relative_to(REPO_ROOT)
        for lineno in stream_fork_lines(path.read_text(), str(path)):
            violations.append(
                f"{rel}:{lineno}: stream count compared with an integer "
                "literal (repro.core keeps one k-stream code path; only an "
                "`n_streams > 2` guard raising NotImplementedError may)"
            )
    return violations


def main() -> int:
    violations = check()
    if violations:
        print("layering violations:", file=sys.stderr)
        for v in violations:
            print(f"  {v}", file=sys.stderr)
        return 1
    n = len(FORBIDDEN)
    m = len(MODULE_FORBIDDEN)
    print(
        f"layering check: OK ({n} constrained layers, "
        f"{m} module rules, one k-stream path, oracles test-only, "
        "no violations)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
