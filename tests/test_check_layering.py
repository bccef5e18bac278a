"""The layering lint's k-stream rule: no stream-count forks in core."""

import importlib.util
import pathlib

import pytest

_SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "check_layering.py"
_spec = importlib.util.spec_from_file_location("check_layering", _SCRIPT)
check_layering = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_layering)


@pytest.mark.parametrize(
    "snippet",
    [
        "if ctx.n_streams == 2:\n    x = 1\n",
        "fast = self.n_rem == 1\n",
        "if k > 2:\n    pass\n",
        "y = 2 != model.n_streams\n",
        "if getattr(model, 'n_streams', 2) > 2:\n    x = 1\n",
    ],
)
def test_stream_count_fork_is_flagged(snippet):
    assert check_layering.stream_fork_lines(snippet) != []


def test_k2_only_guard_is_allowed():
    snippet = (
        "if alloc.ctx.n_streams > 2:\n"
        "    raise NotImplementedError('k=2 only')\n"
        "if getattr(model, 'n_streams', 2) > 2:\n"
        "    raise NotImplementedError\n"
    )
    assert check_layering.stream_fork_lines(snippet) == []


def test_other_comparisons_pass():
    snippet = (
        "for r in range(1, ctx.n_streams):\n"
        "    if r == best:\n"
        "        pass\n"
        "if len(pages) >= 8:\n"
        "    pass\n"
    )
    assert check_layering.stream_fork_lines(snippet) == []


def test_source_tree_is_clean():
    assert check_layering.check() == []


@pytest.mark.parametrize(
    "snippet, package",
    [
        ("from repro.core.reference import restore_storage_reference\n", "repro.core"),
        ("import repro.core.reference as ref\n", "repro.dynamic"),
        ("from repro.core import reference\n", "repro.experiments"),
        ("from .reference import partition_all_reference\n", "repro.core"),
        ("from ..core import reference\n", "repro.network"),
        ("def f():\n    from repro.core.reference import _LazyHeap\n", "repro.core"),
    ],
)
def test_oracle_import_is_flagged(snippet, package):
    assert check_layering.oracle_import_lines(snippet, package) != []


@pytest.mark.parametrize(
    "snippet, package",
    [
        ("from repro.core.restoration import restore_storage_capacity\n", "repro.core"),
        ("from repro.core import restoration\n", "repro.dynamic"),
        ("from .reference import x\n", "repro.network"),
    ],
)
def test_other_imports_pass_the_oracle_rule(snippet, package):
    assert check_layering.oracle_import_lines(snippet, package) == []
