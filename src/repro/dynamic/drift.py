"""Access-pattern drift models.

Both drift operators return a *new* :class:`SystemModel` sharing the
immutable servers/objects and re-built pages with updated frequencies —
page structure (which MOs a page embeds) never changes, only who is
popular.  Per-server total request rates are preserved, so capacity
percentages keep their meaning across epochs.

Because every clone produced here is frequency-only by construction,
:func:`replace_frequencies` seeds the clone's derived-state caches from
the source model (:func:`repro.core.context.adopt_frequency_context`):
structural EvalContext columns — sizes, CSR groups, pair tables — carry
over by reference and only the frequency columns are recomputed, so
consecutive epoch models never rebuild structural state.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.context import adopt_frequency_context
from repro.core.types import PageSpec, SystemModel
from repro.util.rng import as_generator

__all__ = ["rotate_hot_set", "jitter_frequencies", "replace_frequencies"]


def replace_frequencies(model: SystemModel, frequencies: np.ndarray) -> SystemModel:
    """Rebuild ``model`` with the given per-page frequencies.

    The clone adopts ``model``'s cached derived state (context, reverse
    index, PARTITION views) with only frequency columns recomputed —
    see the module docstring.
    """
    frequencies = np.asarray(frequencies, dtype=float)
    if frequencies.shape != (model.n_pages,):
        raise ValueError(
            f"frequencies must have shape ({model.n_pages},), got "
            f"{frequencies.shape}"
        )
    if np.any(frequencies < 0):
        raise ValueError("frequencies must be non-negative")
    pages = [
        PageSpec(
            page_id=p.page_id,
            server=p.server,
            html_size=p.html_size,
            frequency=float(frequencies[j]),
            compulsory=p.compulsory,
            optional=p.optional,
            optional_prob=p.optional_prob,
            optional_rate_scale=p.optional_rate_scale,
        )
        for j, p in enumerate(model.pages)
    ]
    clone = model.replace(pages=pages)
    adopt_frequency_context(model, clone)
    return clone


def rotate_hot_set(
    model: SystemModel,
    fraction: float = 0.5,
    seed: int | np.random.Generator | None = 0,
    servers: Iterable[int] | None = None,
) -> SystemModel:
    """Breaking news: part of the hot set goes cold and vice versa.

    Per server, ``fraction`` of the hottest 10% of pages swap their
    frequencies with randomly chosen cold pages.  ``fraction=1`` replaces
    the entire hot set; ``0`` is the identity.

    Parameters
    ----------
    model:
        Universe to drift.
    fraction:
        Share of each server's hot set that rotates.
    seed:
        RNG selecting which pages swap.
    servers:
        Rotate only these servers' hot sets (default: all).  A news
        cycle rarely hits every site at once; localized drift is what
        the incremental re-planner exploits.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    rng = as_generator(seed)
    freqs = model.frequencies.copy()
    if servers is None:
        server_list = range(model.n_servers)
    else:
        server_list = sorted({int(i) for i in servers})
        for i in server_list:
            if not 0 <= i < model.n_servers:
                raise ValueError(
                    f"server index {i} out of range [0, {model.n_servers})"
                )
    for i in server_list:
        ids = np.asarray(model.pages_by_server[i], dtype=np.intp)
        if len(ids) < 2:
            continue
        f = freqs[ids]
        n_hot = max(1, int(np.ceil(0.10 * len(ids))))
        # Stable sort on the negated array: equal-frequency pages keep
        # ascending page-id order in the hot/cold split.  A plain
        # ``argsort(f)[::-1]`` reverses the (unstable) introsort's tie
        # order, making the split platform/numpy-version dependent.
        order = np.argsort(-f, kind="stable")
        hot = ids[order[:n_hot]]
        cold = ids[order[n_hot:]]
        n_swap = int(round(fraction * len(hot)))
        if n_swap == 0 or len(cold) == 0:
            continue
        swap_hot = rng.choice(hot, size=min(n_swap, len(hot)), replace=False)
        swap_cold = rng.choice(
            cold, size=len(swap_hot), replace=False
        )
        freqs[swap_hot], freqs[swap_cold] = (
            freqs[swap_cold].copy(),
            freqs[swap_hot].copy(),
        )
    return replace_frequencies(model, freqs)


def jitter_frequencies(
    model: SystemModel,
    sigma: float = 0.2,
    seed: int | np.random.Generator | None = 0,
) -> SystemModel:
    """Gradual drift: multiply each frequency by lognormal noise and
    renormalise per server (total request rate preserved)."""
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    rng = as_generator(seed)
    freqs = model.frequencies.copy()
    noisy = freqs * rng.lognormal(mean=0.0, sigma=sigma, size=len(freqs))
    for i in range(model.n_servers):
        ids = np.asarray(model.pages_by_server[i], dtype=np.intp)
        if not len(ids):
            continue
        total = freqs[ids].sum()
        got = noisy[ids].sum()
        if got > 0:
            noisy[ids] *= total / got
    return replace_frequencies(model, noisy)
