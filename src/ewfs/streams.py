"""Keyed random substreams for order-independent, reproducible trials.

Every source of randomness in a campaign is a named stream derived from
(master seed, label).  Trial ``i`` owns a fixed-width window of doubles
``[i * draws_per_trial, (i + 1) * draws_per_trial)`` inside its stream, so a
trial's randomness is a pure function of (seed, label, trial index) and is
identical however the trial range is split into blocks.

Only ``Generator.random`` may be used on these streams: the window offsets
rely on PCG64 consuming exactly one state step per double.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["stream_entropy", "substream", "uniform_block"]


def stream_entropy(seed: int, label: str) -> tuple[int, int]:
    """Collapse (seed, label) into 128 bits of SeedSequence entropy."""
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return (
        int.from_bytes(digest[:8], "little"),
        int.from_bytes(digest[8:16], "little"),
    )


def substream(seed: int, label: str, offset: int = 0) -> np.random.Generator:
    """Generator positioned ``offset`` doubles into the (seed, label) stream."""
    bg = np.random.PCG64(np.random.SeedSequence(entropy=stream_entropy(seed, label)))
    if offset:
        bg.advance(int(offset))  # numpy's advance rejects a numpy integer
    return np.random.Generator(bg)


def uniform_block(
    seed: int,
    label: str,
    n_trials: int,
    draws_per_trial: int,
    first_trial: int = 0,
) -> np.ndarray:
    """Uniform draws for ``n_trials`` consecutive trials, one row per trial.

    Row ``i`` equals the window of trial ``first_trial + i`` regardless of how
    the full trial range is split into blocks.
    """
    gen = substream(seed, label, offset=first_trial * draws_per_trial)
    return gen.random((n_trials, draws_per_trial))
