"""Golden regression tests: seeded Table 1 results are pinned.

The snapshots in ``goldens.json`` record ``D``, ``D1``, ``D2`` and the
per-server replica-set sizes for the seeded workloads, computed once and
committed.  Every run recomputes them with the batched engine **and**
the scalar oracles of :mod:`repro.core.reference`: a future perf change
that alters any allocation — even one that leaves the balanced page max
intact — fails here instead of silently shifting the paper's figures.

To refresh after an *intentional* algorithmic change, see
``tests/regression/refresh_goldens.py``.
"""

import json

import pytest

from tests.regression.refresh_goldens import (
    GOLDEN_PATH,
    compute_small_constrained,
    compute_small_offload,
    compute_small_processing,
    compute_table1_unconstrained,
)

KERNELS = ("batched", "scalar")

#: Full-policy scenarios additionally run on per-server shards
#: (``repro.core.shard``): the reconciled output must be byte-identical
#: to the batched goldens, so no separate snapshots exist — a
#: divergence fails against the same numbers.
POLICY_KERNELS = ("batched", "scalar", "sharded")

#: Objective values are deterministic given the seed; the loose relative
#: tolerance only absorbs float-summation differences across NumPy
#: versions, not algorithmic drift.
REL = 1e-9


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def assert_matches_golden(observed: dict, golden: dict) -> None:
    for key, want in golden.items():
        got = observed[key]
        if isinstance(want, float):
            assert got == pytest.approx(want, rel=REL), key
        else:
            assert got == want, key


@pytest.mark.slow
@pytest.mark.parametrize("kernel", KERNELS)
def test_table1_unconstrained_golden(goldens, kernel):
    observed = compute_table1_unconstrained(kernel)
    assert_matches_golden(observed, goldens["table1_unconstrained"])


@pytest.mark.parametrize("kernel", KERNELS)
def test_small_constrained_golden(goldens, kernel):
    observed = compute_small_constrained(kernel)
    assert_matches_golden(observed, goldens["small_constrained_frac50"])


@pytest.mark.parametrize("kernel", POLICY_KERNELS)
def test_small_processing_golden(goldens, kernel):
    observed = compute_small_processing(kernel)
    assert_matches_golden(observed, goldens["small_processing_frac50"])


@pytest.mark.parametrize("kernel", POLICY_KERNELS)
def test_small_offload_golden(goldens, kernel):
    observed = compute_small_offload(kernel)
    assert_matches_golden(observed, goldens["small_offload_frac50"])
