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
The stream ignores the scenario and the model, so campaigns at one seed
share one draw: ``sample_settings_block`` keeps the last block it drew,
read-only, and serves any trial range inside it, at that seed, as slices of
it.  A campaign draws its whole block once and each of its chunks is a
slice.
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
# The most trials a float64 settings draw of one double a trial can hold:
# numpy's largest array is np.intp's maximum in bytes.
MAX_TRIALS = np.iinfo(np.intp).max // 8

__all__ = [
    "STANDARD_BELL",
    "BRUKNER_EWFS",
    "SETTINGS_STREAM",
    "MAX_TRIALS",
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


def integer(value) -> bool:
    """A Python or numpy int, not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def require(ok: bool, key: str, what: str, value) -> None:
    """The one rule message of every config field: raise unless ``ok``."""
    if not ok:
        raise ValueError(f"{key} must be {what}; cannot convert {value!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    """Which experiment to run and each party's two measurement settings."""

    kind: str
    alice_settings: tuple
    bob_settings: tuple
    trials: int

    def __post_init__(self):
        if self.kind not in (STANDARD_BELL, BRUKNER_EWFS):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        require(integer(self.trials), "trials", "an integer", self.trials)
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.trials > MAX_TRIALS:
            raise ValueError(
                f"trials must be at most {MAX_TRIALS}, the largest float64 settings draw; "
                f"got {self.trials}"
            )
        for key in ("alice_settings", "bob_settings"):
            settings = getattr(self, key)
            ok = isinstance(settings, (list, tuple)) and len(settings) == 2
            require(ok, key, "a list or a tuple of two settings", settings)
            settings = tuple(settings)
            object.__setattr__(self, key, settings)
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
    n_trials): two read-only int8 arrays with values in {1, 2}.  Each
    trial's pair 2(x - 1) + (y - 1) is floor(4u) of its one settings-stream
    draw.  ValueError on a first_trial or n_trials that is not an integer;
    IndexError on a negative one, or an end past spec.trials."""
    require(integer(first_trial), "first_trial", "an integer", first_trial)
    require(integer(n_trials), "n_trials", "an integer", n_trials)
    if first_trial < 0 or n_trials < 0 or first_trial + n_trials > spec.trials:
        raise IndexError("trial range outside spec.trials")
    return _settings_block(seed, n_trials, first_trial)


class _LastBlock:
    """A one-entry memo of settings blocks.  The campaigns of a sweep or a
    comparison run one after another at one seed, and a campaign's chunks
    are sub-ranges of its whole block."""

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        """Forget the last block: the next call draws."""
        self.key, self.first, self.xs, self.ys = None, 0, None, None

    def __call__(self, seed: int, n_trials: int, first_trial: int):
        # The stream key is f"{seed}": seed 1 and np.int64(1) share a
        # stream, seed True does not.
        key = f"{seed}"
        lo = first_trial - self.first
        if key != self.key or lo < 0 or lo + n_trials > self.xs.size:
            self.clear()  # the old block goes before the new one is drawn
            u = uniform_block(seed, SETTINGS_STREAM, n_trials, 1, first_trial)[:, 0]
            u *= 4
            pair = np.minimum(u.astype(np.int8), 3)
            xs, ys = (pair >> 1) + 1, (pair & 1) + 1
            xs.setflags(write=False)
            ys.setflags(write=False)
            self.key, self.first, self.xs, self.ys = key, first_trial, xs, ys
            lo = 0
        return self.xs[lo:lo + n_trials], self.ys[lo:lo + n_trials]


_settings_block = _LastBlock()
