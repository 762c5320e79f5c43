"""Declarative experiment descriptions and setting choice sampling.

Two scenario kinds are supported:

* ``"bell"`` -- a standard Bell test: each party measures its particle
  directly, settings are spin angles in radians.
* ``"ewfs"`` -- the extended Wigner's-friend arrangement: a friend inside
  each lab measures along z first, then the superobserver measures the whole
  lab in the ``Z`` or ``X`` lab basis.  Setting 1 is always the ``Z``
  (same-basis-as-the-friend) measurement.

Settings are sampled from a dedicated random stream keyed
(seed, "settings", trial index), disjoint from every model stream, so the
choice of settings is independent of all hidden state by construction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .streams import uniform_block

STANDARD_BELL = "bell"
BRUKNER_EWFS = "ewfs"
SETTINGS_STREAM = "settings"

DEFAULT_EWFS_SETTINGS = ("Z", "X")
DEFAULT_BELL_ALICE = (0.0, math.pi / 2)
DEFAULT_BELL_BOB = (math.pi / 4, 3 * math.pi / 4)

__all__ = [
    "STANDARD_BELL",
    "BRUKNER_EWFS",
    "SETTINGS_STREAM",
    "ScenarioSpec",
    "default_scenario",
    "sample_settings_block",
]


def finite_real(value) -> bool:
    """A finite Python or numpy int or float, not a bool or a string."""
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


@dataclass(frozen=True)
class ScenarioSpec:
    """Which experiment to run and each party's two measurement settings."""

    kind: str
    alice_settings: tuple
    bob_settings: tuple
    trials: int

    def __post_init__(self):
        object.__setattr__(self, "alice_settings", tuple(self.alice_settings))
        object.__setattr__(self, "bob_settings", tuple(self.bob_settings))
        if self.kind not in (STANDARD_BELL, BRUKNER_EWFS):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        for name, settings in (("alice", self.alice_settings), ("bob", self.bob_settings)):
            if len(settings) != 2:
                raise ValueError(f"{name} needs exactly two settings")
            if self.kind == BRUKNER_EWFS:
                if any(s not in ("Z", "X") for s in settings):
                    raise ValueError("ewfs settings must be 'Z' or 'X'")
                if settings[0] != "Z":
                    raise ValueError("ewfs setting 1 must be the Z measurement")
            elif not all(map(finite_real, settings)):
                raise ValueError("bell settings must be finite angles in radians")


def default_scenario(kind: str, trials: int) -> ScenarioSpec:
    if kind == BRUKNER_EWFS:
        return ScenarioSpec(kind, DEFAULT_EWFS_SETTINGS, DEFAULT_EWFS_SETTINGS, trials)
    return ScenarioSpec(kind, DEFAULT_BELL_ALICE, DEFAULT_BELL_BOB, trials)


def sample_settings_block(
    spec: ScenarioSpec,
    seed: int,
    n_trials: int,
    first_trial: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform i.i.d. settings (x, y) for trials [first_trial, first_trial +
    n_trials): two int8 arrays with values in {1, 2}.  Each trial's pair
    2(x - 1) + (y - 1) is floor(4u) of its one settings-stream draw."""
    if first_trial < 0 or first_trial + n_trials > spec.trials:
        raise IndexError("trial range outside spec.trials")
    u = uniform_block(seed, SETTINGS_STREAM, n_trials, 1, first_trial)[:, 0]
    u *= 4
    pair = np.minimum(u.astype(np.int8), 3)
    return (pair >> 1) + 1, (pair & 1) + 1
