"""Golden regression test for the incremental re-planner trajectory.

``goldens.json`` pins four epochs of the seeded dynamic scenario —
which pages went dirty, which servers were rebuilt, the exact objective
and the replica bytes moved — so a change to the dirty-set rule, the
per-server rebuild, or the churn accounting fails here instead of
silently shifting the extension's measurements.  The batched engine
and the scalar oracles (``tests.reference_arm``) are compared against
the *same* snapshot (the pipeline is engine-independent by contract).

To refresh after an *intentional* algorithmic change, see
``tests/regression/refresh_goldens.py``.
"""

import json

import pytest

from tests.regression.refresh_goldens import (
    GOLDEN_PATH,
    compute_dynamic_incremental,
)

KERNELS = ("batched", "scalar")

REL = 1e-9


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())["dynamic_incremental"]


@pytest.mark.slow
@pytest.mark.parametrize("kernel", KERNELS)
def test_dynamic_incremental_golden(golden, kernel):
    observed = compute_dynamic_incremental(kernel)
    assert observed["full_resolves"] == golden["full_resolves"]
    assert observed["incremental_replans"] == golden["incremental_replans"]
    assert len(observed["epochs"]) == len(golden["epochs"])
    for i, (got, want) in enumerate(zip(observed["epochs"], golden["epochs"])):
        assert got["mode"] == want["mode"], f"epoch {i}"
        assert got["n_dirty"] == want["n_dirty"], f"epoch {i}"
        assert got["rebuilt_servers"] == want["rebuilt_servers"], f"epoch {i}"
        assert got["objective"] == pytest.approx(
            want["objective"], rel=REL
        ), f"epoch {i}"
        assert got["churn_bytes_added"] == pytest.approx(
            want["churn_bytes_added"], rel=REL
        ), f"epoch {i}"
        assert got["churn_bytes_removed"] == pytest.approx(
            want["churn_bytes_removed"], rel=REL
        ), f"epoch {i}"
