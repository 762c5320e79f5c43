"""Pluggable physical models producing one row of a run log per trial.

Four models realize the comparison matrix between frameworks:

* ``unitary-qm``   -- friend measurements are purely unitary; superobserver
  outcomes follow exact Born statistics of the 16-dim entangled lab pair.
  Friend outcomes are only defined on the branches actually opened
  (setting 1); no observer-independent value is assigned otherwise.
* ``collapse``     -- the first measurement objectively collapses the shared
  state.  In the EWFS the friends' z measurements collapse the singlet, and
  the superobservers read the friend's record (setting 1) or see a fair coin
  (setting 2).  In a standard Bell test the collapse happens at the
  superobservers' own spin measurements, reproducing singlet statistics.
* ``toy-theta``    -- hidden-angle model: friend outcomes follow
  P(C=+1)=cos^2(theta), independently per wing, while superobserver outcomes
  in the EWFS mimic a collapse model's quantum correlations.  Direct spin
  measurements (standard Bell) are governed by the angles alone.
* ``lhv``          -- local hidden variables: a deterministic strategy table
  (A1, A2, B1, B2) drawn per trial from a configurable distribution.

Every trial's randomness comes from a fixed window of the keyed stream
(seed, "model:<name>", trial), so each row is a pure function of
(seed, trial index) however the trial range is split into blocks.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .scenario import (
    BRUKNER_EWFS,
    STANDARD_BELL,
    ScenarioSpec,
    finite_real,
    sample_settings_block,
)
from .streams import uniform_block

MODEL_UNITARY_QM = "unitary-qm"
MODEL_COLLAPSE = "collapse"
MODEL_TOY = "toy-theta"
MODEL_LHV = "lhv"

UNDEFINED = 0  # sentinel for C/D in array form

__all__ = [
    "MODELS",
    "MODEL_NAMES",
    "Model",
    "MODEL_UNITARY_QM",
    "MODEL_COLLAPSE",
    "MODEL_TOY",
    "MODEL_LHV",
    "UNDEFINED",
    "UnsupportedScenario",
    "RunLog",
    "ToyOptions",
    "TOY_OPTIMAL_CHSH",
    "LhvOptions",
    "lhv_strategies",
    "lhv_exact_expectations",
    "model_entry",
    "run_trials",
    "singlet_joint_probs",
    "ewfs_outcome_tables",
    "LAMBDA_BINS",
    "toy_theta_bins",
    "lhv_strategy_bins",
]


class UnsupportedScenario(ValueError):
    """The model cannot run under the requested scenario kind."""


@dataclass
class RunLog:
    """Per-trial arrays of one (scenario, model) campaign block.

    Row i is trial ``first_trial + i``.  ``c``/``d`` use 0 for undefined;
    ``lam`` holds model-specific payload columns (hidden angles, strategy
    ids) aligned with trials.
    """

    kind: str
    model: str
    x: np.ndarray
    y: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    lam: dict[str, np.ndarray] = field(default_factory=dict)
    first_trial: int = 0

    def __len__(self) -> int:
        return self.x.size


# ---------------------------------------------------------------------------
# model options


@dataclass(frozen=True)
class ToyOptions:
    """Knobs of the hidden-angle model.

    ``*_angles`` map superobserver setting index -> effective spin angle used
    for the EWFS quantum-correlation sampling (setting 1 is the friend's z
    direction, angle 0, by default).  ``theta_after_plus``/``theta_after_minus``
    are the post-measurement angle updates.
    """

    alice_angles: tuple[float, ...] = (0.0, math.pi / 2)
    bob_angles: tuple[float, ...] = (0.0, math.pi / 2)
    theta_after_plus: float = 0.0
    theta_after_minus: float = math.pi / 2

    def __post_init__(self):
        object.__setattr__(self, "alice_angles", tuple(self.alice_angles))
        object.__setattr__(self, "bob_angles", tuple(self.bob_angles))
        if len(self.alice_angles) != 2 or len(self.bob_angles) != 2:
            raise ValueError("toy-theta needs exactly two angles per party")
        angles = self.alice_angles + self.bob_angles
        angles += (self.theta_after_plus, self.theta_after_minus)
        if not all(map(finite_real, angles)):
            raise ValueError("toy-theta angles must be finite numbers")


# Angle assignment under which the toy model's EWFS correlations reach the
# maximal quantum CHSH value 2*sqrt(2).
TOY_OPTIMAL_CHSH = ToyOptions(bob_angles=(math.pi / 4, 3 * math.pi / 4))


@dataclass(frozen=True)
class LhvOptions:
    """Distribution over the 16 deterministic strategy tables."""

    weights: tuple[float, ...] = (1.0 / 16,) * 16

    def __post_init__(self):
        w = tuple(self.weights)
        if not all(map(finite_real, w)):
            raise ValueError("strategy weights must be finite numbers")
        w = tuple(map(float, w))
        object.__setattr__(self, "weights", w)
        if len(w) != 16:
            raise ValueError("need exactly 16 strategy weights")
        if min(w) < 0:
            raise ValueError("strategy weights must be nonnegative")
        if abs(sum(w) - 1.0) > 1e-9:
            raise ValueError("strategy weights must sum to 1 within 1e-9")


def lhv_strategies() -> np.ndarray:
    """All 16 deterministic strategies as rows (A1, A2, B1, B2) of +/-1."""
    bits = ((np.arange(16)[:, None] >> np.arange(3, -1, -1)) & 1)
    return (1 - 2 * bits).astype(np.int8)


def lhv_exact_expectations(weights) -> np.ndarray:
    """Exact correlators E(x, y) of a strategy mixture, by enumeration."""
    w = np.asarray(weights, dtype=float)
    strat = lhv_strategies().astype(float)
    return np.einsum("s,sx,sy->xy", w, strat[:, :2], strat[:, 2:])


# ---------------------------------------------------------------------------
# fixed Born tables


def singlet_joint_probs(angle_a: float, angle_b: float) -> np.ndarray:
    """2x2 Born table over (A, B) outcomes of joint spin measurements on the
    singlet at the given angles, P(a, b) = (1 - ab cos(angle_a - angle_b)) / 4;
    index 0 -> +1, 1 -> -1."""
    c = math.cos(angle_a - angle_b)
    return np.array([[1 - c, 1 + c], [1 + c, 1 - c]]) / 4


# Born tables P(A, B) of the lab pair on Brukner's state, indexed (Alice's lab basis,
# Bob's, A, B) with Z, X -> 0, 1 and +1, -1 -> 0, 1: the bits that
# qcore.lab_joint_probabilities derives, which tests/test_models.py checks.
_LAB_PAIR_TABLES = np.array([float.fromhex(h) for h in """
    0x1.2bec333018867p-4 0x1.b504f333f9de7p-2 0x1.b504f333f9de7p-2 0x1.2bec333018867p-4
    0x1.b504f333f9de6p-2 0x1.2bec333018866p-4 0x1.2bec333018866p-4 0x1.b504f333f9de6p-2
    0x1.2bec333018866p-4 0x1.b504f333f9de6p-2 0x1.b504f333f9de6p-2 0x1.2bec333018866p-4
    0x1.2bec333018866p-4 0x1.b504f333f9de6p-2 0x1.b504f333f9de6p-2 0x1.2bec333018868p-4
""".split()]).reshape(2, 2, 2, 2)
_LAB_PAIR_TABLES.setflags(write=False)


def ewfs_outcome_tables(spec: ScenarioSpec) -> dict:
    """Joint (A, B) distribution per setting pair for purely unitary friend
    measurements on Brukner's state: read-only views of the lab-pair tables."""
    return {
        (x, y): _LAB_PAIR_TABLES["ZX".index(kind_a), "ZX".index(kind_b)]
        for x, kind_a in enumerate(spec.alice_settings, start=1)
        for y, kind_b in enumerate(spec.bob_settings, start=1)
    }


def _sample_discrete(weights, u: np.ndarray) -> np.ndarray:
    """Index of the weight whose cumulative interval holds each u, as int8,
    over 16 weights; a u past the float total (which can fall short of 1)
    goes to the last nonzero weight, not to a zero-weight tail.

    The index is searchsorted(cum, u, "right"), the count of cum entries
    <= u, found by a branch-free binary search: cum never decreases, so a
    step adds ``step`` exactly when cum[idx + step - 1] <= u.  The four
    steps stop at 15, which the clip to the last nonzero weight covers."""
    cum = np.cumsum(weights)
    idx = np.zeros(u.size, dtype=np.int8)
    for step in (8, 4, 2, 1):
        idx += step * (cum[idx + (step - 1)] <= u).view(np.int8)
    return np.minimum(idx, np.flatnonzero(weights)[-1], out=idx)


def _signs(plus: np.ndarray) -> np.ndarray:
    """+1 where ``plus`` holds, else -1, as int8."""
    return 2 * plus.view(np.int8) - 1


def _bit_signs(value: np.ndarray, bit) -> np.ndarray:
    """+1 where the given bit of the int8 ``value`` is 0, else -1, as int8."""
    return 1 - 2 * ((value >> bit) & 1)


def _joint_outcomes(tables: dict, xs, ys, u) -> tuple[np.ndarray, np.ndarray]:
    """Sample (A, B) in {+1,-1} per trial from the 2x2 probability table of
    its setting pair p = 2(x - 1) + (y - 1).  The outcome index
    2[A=-1] + [B=-1] is sum_j [cum_j <= u] over the first three entries of
    the table's cumsum: searchsorted(cum, u, "right") clipped to 3, because
    a cumsum of nonnegative entries never decreases."""
    cum = np.empty((4, 4))
    for (x, y), table in tables.items():
        cum[2 * (x - 1) + (y - 1)] = np.cumsum(table.reshape(-1))
    p = 2 * xs + ys - 3
    idx = (cum[p, 0] <= u).view(np.int8)
    idx += cum[p, 1] <= u
    idx += cum[p, 2] <= u
    return _bit_signs(idx, 1), _bit_signs(idx, 0)


# ---------------------------------------------------------------------------
# batch samplers: (spec, xs, ys, u, options) -> (a, b, c, d, lam), where trial
# i is a pure function of row u[i] and c/d are None when the model assigns
# no friend outcome


def _sample_unitary_qm(spec, xs, ys, u, options):
    a, b = _joint_outcomes(ewfs_outcome_tables(spec), xs, ys, u[:, 0])
    # 2 - x is 1 on the opened branch (setting 1), else 0 = UNDEFINED
    return a, b, (2 - xs) * a, (2 - ys) * b, {}


def _sample_collapse(spec, xs, ys, u, options):
    if spec.kind == BRUKNER_EWFS:
        # Friends' z measurements collapse the singlet: C is a Born coin,
        # D is fixed by the perfect anticorrelation of the collapsed state.
        c = _signs(u[:, 0] < 0.5)
        d = -c
        a = np.where(xs == 1, c, _signs(u[:, 1] < 0.5))
        b = np.where(ys == 1, d, _signs(u[:, 2] < 0.5))
        return a, b, c, d, {}
    # Standard Bell: Alice's spin measurement collapses nonlocally, Bob
    # measures the collapsed branch: P(A=+) = 1/2 and
    # P(B=+ | A=+/-) = (1 -/+ cos(angle_a - angle_b)) / 2, looked up at
    # 2p + [A=+] for setting pair p.
    cos = np.array([math.cos(a - b) for a in spec.alice_settings for b in spec.bob_settings])
    p_b_plus = np.stack([(1 + cos) / 2, (1 - cos) / 2], axis=1).ravel()
    a_plus = u[:, 0] < 0.5
    b = _signs(u[:, 1] < p_b_plus[2 * (2 * xs + ys - 3) + a_plus])
    return _signs(a_plus), b, None, None, {}


def _sample_toy(spec, xs, ys, u, opts):
    theta1 = u[:, 0] * math.pi
    theta2 = u[:, 1] * math.pi
    plus1 = u[:, 2] < np.cos(theta1) ** 2
    plus2 = u[:, 3] < np.cos(theta2) ** 2
    post = np.array([opts.theta_after_minus, opts.theta_after_plus])
    lam = {
        "theta1": theta1,
        "theta2": theta2,
        "theta1_post": post[plus1.view(np.int8)],
        "theta2_post": post[plus2.view(np.int8)],
    }
    out1, out2 = _signs(plus1), _signs(plus2)
    if spec.kind == BRUKNER_EWFS:
        # Friends draw C, D from the hidden angles (uncorrelated wings);
        # superobserver outcomes mimic collapse-model quantum correlations
        # at the configured angles, independently of C and D.
        tables = {
            (x, y): singlet_joint_probs(opts.alice_angles[x - 1], opts.bob_angles[y - 1])
            for x in (1, 2)
            for y in (1, 2)
        }
        a, b = _joint_outcomes(tables, xs, ys, u[:, 4])
        return a, b, out1, out2, lam
    # Standard Bell: the parties measure the particles directly, so outcomes
    # are governed by the hidden angles alone, ignoring measurement angles.
    return out1, out2, None, None, lam


def _sample_lhv(spec, xs, ys, u, opts):
    # Strategy s holds (A1, A2, B1, B2) in bits 3, 2, 1, 0, as in lhv_strategies.
    s = _sample_discrete(opts.weights, u[:, 0])
    a = _bit_signs(s, 4 - xs)
    b = _bit_signs(s, 2 - ys)
    lam = {"strategy": s.astype(np.int16)}
    if spec.kind == BRUKNER_EWFS:
        # Friends report the setting-1 values of the strategy table, so
        # superobserver/friend consistency holds by construction.
        return a, b, _bit_signs(s, 3), _bit_signs(s, 1), lam
    return a, b, None, None, lam


# ---------------------------------------------------------------------------
# hidden-state binning: the lambda axis of inequality.tabulate's count table

# Every binner maps the lambda payload into 0 .. LAMBDA_BINS - 1.
LAMBDA_BINS = 16


def toy_theta_bins(log: RunLog) -> np.ndarray:
    """Quarter-interval bins of the prepared hidden angles, 16 joint bins."""
    q1 = np.minimum((log.lam["theta1"] / (math.pi / 4)).astype(np.int64), 3)
    q2 = np.minimum((log.lam["theta2"] / (math.pi / 4)).astype(np.int64), 3)
    return 4 * q1 + q2


def lhv_strategy_bins(log: RunLog) -> np.ndarray:
    return log.lam["strategy"].astype(np.int64)


# ---------------------------------------------------------------------------
# the model table and campaign execution


@dataclass(frozen=True)
class Model:
    """Everything that tells one model apart from the others."""

    draws: int  # doubles per trial, fixed so trial windows never shift
    sample: Callable  # the batch sampler
    options: type | None = None  # the options class it takes, if any
    binner: Callable[[RunLog], np.ndarray] | None = None  # its lambda bins
    kinds: tuple[str, ...] = (STANDARD_BELL, BRUKNER_EWFS)  # scenarios it runs


MODELS = {
    MODEL_UNITARY_QM: Model(1, _sample_unitary_qm, kinds=(BRUKNER_EWFS,)),
    MODEL_COLLAPSE: Model(3, _sample_collapse),
    MODEL_TOY: Model(5, _sample_toy, ToyOptions, toy_theta_bins),
    MODEL_LHV: Model(1, _sample_lhv, LhvOptions, lhv_strategy_bins),
}

MODEL_NAMES = tuple(MODELS)


def model_entry(kind: str, model: str, options=None) -> tuple[Model, object]:
    """``MODELS[model]`` and its options, the defaults for None.  Checks, in
    order: the model is known, it runs ``kind``, the options class fits."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    entry = MODELS[model]
    if kind not in entry.kinds:
        kinds = " and ".join(name.upper() for name in entry.kinds)
        raise UnsupportedScenario(f"{model} only models the {kinds} arrangement")
    expected = entry.options
    if options is not None and not (expected and isinstance(options, expected)):
        takes = f"{expected.__name__} or None" if expected else "no options"
        raise ValueError(f"model {model!r} takes {takes}")
    return entry, expected() if options is None and expected else options


def run_trials(
    spec: ScenarioSpec,
    model: str,
    seed: int,
    options=None,
    first_trial: int = 0,
    n_trials: int | None = None,
) -> RunLog:
    """Run a contiguous block of trials; row i depends only on (seed, i)."""
    entry, options = model_entry(spec.kind, model, options)
    n_trials = spec.trials - first_trial if n_trials is None else n_trials
    xs, ys = sample_settings_block(spec, seed, n_trials, first_trial)
    u = uniform_block(seed, f"model:{model}", n_trials, entry.draws, first_trial)
    a, b, c, d, lam = entry.sample(spec, xs, ys, u, options)
    if c is None:  # the model assigns no friend outcomes
        c, d = (np.full(n_trials, UNDEFINED, dtype=np.int8) for _ in "cd")
    return RunLog(spec.kind, model, xs, ys, a, b, c, d, lam, first_trial)
