"""Property: model transforms keep the stream topology bit for bit."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic.drift import replace_frequencies, rotate_hot_set
from repro.experiments.scaling import clone_with_capacities
from repro.io import load_model, save_model
from tests.properties.strategies import mesh_models


def _same_topology(a, b):
    assert b.n_streams == a.n_streams
    for name in ("stream_rates", "stream_overheads"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


@given(
    mesh_models(min_streams=2, max_streams=4),
    st.floats(0.0, 2.0),
    st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_transforms_keep_stream_topology(model, scale, seed):
    used = model.html_bytes_by_server() + scale * model.total_object_bytes()
    clone = clone_with_capacities(
        model, storage=used, processing=1.0 + scale, repo_capacity=1.0 + scale
    )
    _same_topology(model, clone)
    assert np.array_equal(clone.server_storage, used)

    freqs = model.frequencies * (1.0 + scale)
    drifted = replace_frequencies(model, freqs)
    _same_topology(model, drifted)
    assert np.array_equal(drifted.frequencies, freqs)

    _same_topology(model, rotate_hot_set(model, fraction=1.0, seed=seed))


@given(mesh_models(min_streams=2, max_streams=4))
@settings(max_examples=40, deadline=None)
def test_save_load_keeps_stream_topology(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(model, path)
        back = load_model(path)
    _same_topology(model, back)
    assert np.array_equal(back.sizes, model.sizes)
    assert np.array_equal(back.comp_objects, model.comp_objects)
