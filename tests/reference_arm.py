"""The scalar-oracle arm of the golden and differential suites.

:func:`reference_pipeline` swaps the batched PARTITION and restoration
engines for the scalar oracles of :mod:`repro.core.reference` at the
call sites the policy pipeline and the incremental re-planner use, so a
whole ``RepositoryReplicationPolicy().run`` (or ``replan``) runs on the
oracles and can be compared with the default run field by field.  The
re-planner's page-subset PARTITION stays batched, as it always was.
"""

from __future__ import annotations

import contextlib
from typing import Iterator
from unittest import mock

from repro.core.reference import (
    partition_all_reference,
    restore_processing_reference,
    restore_storage_reference,
)


@contextlib.contextmanager
def reference_pipeline() -> Iterator[None]:
    """Run every policy solve and re-plan inside the block on the
    scalar oracles."""
    restorations = dict(
        restore_storage_capacity=restore_storage_reference,
        restore_processing_capacity=restore_processing_reference,
    )
    with mock.patch.multiple(
        "repro.core.policy", partition_all=partition_all_reference, **restorations
    ), mock.patch.multiple("repro.dynamic.incremental", **restorations):
        yield


def arm(kernel: str):
    """The context a golden arm (``"batched"``, ``"scalar"`` or
    ``"sharded"``) runs in: the oracles for ``"scalar"``."""
    return reference_pipeline() if kernel == "scalar" else contextlib.nullcontext()


def arm_shards(kernel: str) -> int | None:
    """The policy's ``shards`` for a golden arm (the golden models have
    more than two servers)."""
    return 2 if kernel == "sharded" else None
