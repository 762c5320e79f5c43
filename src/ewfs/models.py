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

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .scenario import (
    BRUKNER_EWFS,
    STANDARD_BELL,
    ScenarioSpec,
    finite_real,
    require,
    sample_settings_block,
)
from .streams import uniform_block

MODEL_UNITARY_QM = "unitary-qm"
MODEL_COLLAPSE = "collapse"
MODEL_TOY = "toy-theta"
MODEL_LHV = "lhv"

UNDEFINED = 0  # sentinel for C/D in array form

__all__ = [
    "CHUNK",
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
    "cell",
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


def cell(p, a, b, c=UNDEFINED, d=UNDEFINED):
    """Index 0..143 of the (x, y, a, b, c, d) cell of setting pair
    p = 2(x - 1) + (y - 1), in the row-major order of the first six
    ``inequality.CountTable`` axes: +1, -1, UNDEFINED -> axis index 0, 1, 2.
    Python ints and integer arrays alike."""
    index = lambda v: (1 - v) // 2 + 2 * (v == UNDEFINED)
    return (((p * 2 + index(a)) * 2 + index(b)) * 3 + index(c)) * 3 + index(d)


# _OUTCOMES[:, key]: the (a, b, c, d) of each cell key, int8
_OUTCOMES = np.zeros((4, 144), np.int8)
for _cell in itertools.product(range(4), (1, -1), (1, -1), (1, -1, 0), (1, -1, 0)):
    _OUTCOMES[:, cell(*_cell)] = _cell[1:]
_OUTCOMES.setflags(write=False)


def _decoded(row: int) -> property:
    """_OUTCOMES[row] per trial: a new read-only int8 array, gathered with no intp key copy."""
    def column(log: RunLog) -> np.ndarray:
        values = _OUTCOMES[row][log.key]
        values.flags.writeable = False
        return values
    return property(column)


@dataclass
class RunLog:
    """Per-trial arrays of one (scenario, model) campaign block.

    Row i is trial ``first_trial + i``.  ``key`` is its ``cell`` index,
    uint8, from which ``a`` .. ``d`` (0 for an undefined C/D) are decoded
    on each access; ``lam`` holds model-specific payload columns (hidden
    angles, strategy ids) aligned with trials.
    """

    model: str
    x: np.ndarray
    y: np.ndarray
    key: np.ndarray
    lam: dict[str, np.ndarray]
    first_trial: int = 0

    a, b, c, d = map(_decoded, range(4))

    def __len__(self) -> int:
        return self.x.size

    @classmethod
    def from_columns(cls, model, x, y, a, b, c, d, lam, first_trial=0) -> RunLog:
        """A log of per-trial outcome columns, keyed by ``cell``: ValueError
        on a setting outside {1, 2}, an A or B outside +-1, or a C or D
        outside +-1 and UNDEFINED."""
        x, y, a, b, c, d = map(np.asarray, (x, y, a, b, c, d))
        if not (np.isin(x, (1, 2)).all() and np.isin(y, (1, 2)).all()):
            raise ValueError("setting indices outside the two-setting scenario")
        allowed = [(a, (1, -1)), (b, (1, -1)), (c, (1, -1, 0)), (d, (1, -1, 0))]
        if not all(np.isin(column, values).all() for column, values in allowed):
            raise ValueError("outcomes outside +-1 (A, B) or +-1, 0 (C, D)")
        x, y = x.astype(np.int8), y.astype(np.int8)
        key = np.asarray(cell(2 * x + y - 3, a, b, c, d), np.uint8)
        return cls(model, x, y, key, lam, first_trial)


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


def ewfs_outcome_tables(spec: ScenarioSpec) -> np.ndarray:
    """Joint (A, B) distribution of each setting pair p = 2(x - 1) + (y - 1)
    for purely unitary friend measurements on Brukner's state: a read-only
    (4, 2, 2) array of the lab-pair tables."""
    tables = np.array([
        _LAB_PAIR_TABLES["ZX".index(kind_a), "ZX".index(kind_b)]
        for kind_a in spec.alice_settings
        for kind_b in spec.bob_settings
    ])
    tables.setflags(write=False)
    return tables


def _sample_discrete(weights, u: np.ndarray) -> np.ndarray:
    """Index of the weight whose cumulative interval holds each u, as int8,
    over 16 weights; a u past the float total (which can fall short of 1)
    goes to the last nonzero weight, not to a zero-weight tail.

    The index is searchsorted(cum, u, "right"), the count of cum entries
    <= u, clipped to the index L of the last nonzero weight: cum never
    decreases, so that is the count among the first L entries, one
    comparison pass each."""
    idx = np.zeros(u.size, dtype=np.int8)
    for edge in np.cumsum(weights)[:np.flatnonzero(weights)[-1]].tolist():
        idx += u >= edge
    return idx


def _joint_index(tables: np.ndarray, p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Sample (A, B) per trial from the 2x2 probability table ``tables[p]``
    of its setting pair p, as 4p + j, int8, with outcome index
    j = 2[A=-1] + [B=-1].  j is sum_k [cum_k <= u] over the first three
    entries of the table's cumsum: searchsorted(cum, u, "right") clipped to
    3, because a cumsum of nonnegative entries never decreases.  Row k of
    ``cum`` holds entry k of every pair's cumsum, so each threshold is one
    1-D gather."""
    cum = np.cumsum(tables.reshape(4, 4), axis=1).T
    pair = p.astype(np.intp)
    j = (cum[0].take(pair) <= u).view(np.int8)
    j += cum[1].take(pair) <= u
    j += cum[2].take(pair) <= u
    j += 4 * p
    return j


def _bit(j: int, k: int) -> int:
    """-1 where bit k of j is set, else +1."""
    return 1 - 2 * (j >> k & 1)


def _key_table(n: int, outcomes: Callable) -> np.ndarray:
    """A sampler's read-only uint8 table of cell keys: entry n p + j is
    ``cell(p, *outcomes(x, y, j))`` for setting pair p = 2(x - 1) + (y - 1)
    and the sampler's outcome bits j < n."""
    table = np.array([
        cell(2 * x + y - 3, *outcomes(x, y, j)) for x in (1, 2) for y in (1, 2) for j in range(n)
    ], np.uint8)
    table.setflags(write=False)
    return table


# The samplers' key tables.  The bits of a joint outcome index and of an lhv
# strategy are set for -1, a coin's for +1.
# unitary-qm: friend outcomes only on the opened branch, where 2 - x is 1
# (setting 1), else 0 = UNDEFINED.
_UNITARY_KEYS = _key_table(
    4, lambda x, y, j: (_bit(j, 1), _bit(j, 0), (2 - x) * _bit(j, 1), (2 - y) * _bit(j, 0))
)
# collapse, EWFS: coins C (bit 2), A (bit 1), B (bit 0); D = -C, and a
# superobserver reads the friend's record at setting 1.
_COLLAPSE_KEYS = _key_table(
    8, lambda x, y, j: (-_bit(j, 2 if x == 1 else 1), _bit(j, 2) if y == 1 else -_bit(j, 0),
                        -_bit(j, 2), _bit(j, 2))
)
# Bell collapse and toy-theta: coins A (bit 1) and B (bit 0)
_BELL_KEYS = _key_table(4, lambda x, y, j: (-_bit(j, 1), -_bit(j, 0)))
# toy-theta, EWFS: the joint index in bits 3-2, friend coins C, D in bits 1-0
_TOY_KEYS = _key_table(16, lambda x, y, j: (_bit(j, 3), _bit(j, 2), -_bit(j, 1), -_bit(j, 0)))
# lhv: (A1, A2, B1, B2) in bits 3, 2, 1, 0, as in lhv_strategies; EWFS
# friends report the setting-1 values, so A = C at x = 1 by construction.
_LHV_BELL_KEYS = _key_table(16, lambda x, y, s: (_bit(s, 4 - x), _bit(s, 2 - y)))
_LHV_KEYS = _key_table(16, lambda x, y, s: (_bit(s, 4 - x), _bit(s, 2 - y), _bit(s, 3), _bit(s, 1)))


# ---------------------------------------------------------------------------
# batch samplers: (spec, p, u, options) -> (key, lam) for int8 setting pairs
# p, where trial i is a pure function of row u[i]; its key is one gather


def _sample_unitary_qm(spec, p, u, options):
    return _UNITARY_KEYS.take(_joint_index(ewfs_outcome_tables(spec), p, u[:, 0])), {}


def _sample_collapse(spec, p, u, options):
    if spec.kind == BRUKNER_EWFS:
        # Friends' z measurements collapse the singlet: C is a Born coin,
        # D is fixed by the perfect anticorrelation of the collapsed state.
        coins = (u < 0.5).view(np.int8)
        return _COLLAPSE_KEYS.take(8 * p + 4 * coins[:, 0] + 2 * coins[:, 1] + coins[:, 2]), {}
    # Standard Bell: Alice's spin measurement collapses nonlocally, Bob
    # measures the collapsed branch: P(A=+) = 1/2 and
    # P(B=+ | A=+/-) = (1 -/+ cos(angle_a - angle_b)) / 2, looked up at
    # 2p + [A=+] for setting pair p.
    cos = np.array([math.cos(a - b) for a in spec.alice_settings for b in spec.bob_settings])
    p_b_plus = np.stack([(1 + cos) / 2, (1 - cos) / 2], axis=1).ravel()
    j = 2 * p + (u[:, 0] < 0.5)
    return _BELL_KEYS.take(2 * j + (u[:, 1] < p_b_plus[j])), {}


# float32 np.cos screens the friend coins: |float32 cos^2 - float64 cos^2|
# <= 2.2e-7 over [0, pi] on numpy 2.4.6's X86_V4, X86_V3 and baseline paths.
_COS2_MARGIN = 2.0 ** -16


def _below_cos2(u: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """``u < np.cos(theta) ** 2`` bit for bit: float32 cos^2, exact in float64,
    decides trials farther than the margin from the tie, float64 np.cos the rest."""
    gap = np.square(np.cos(theta, dtype=np.float32), dtype=np.float64)
    gap -= u
    plus = gap > 0
    near = np.flatnonzero(np.abs(gap, out=gap) <= _COS2_MARGIN)
    plus[near] = u[near] < np.cos(theta[near]) ** 2
    return plus


def _sample_toy(spec, p, u, opts):
    theta1 = u[:, 0] * math.pi
    theta2 = u[:, 1] * math.pi
    plus1 = _below_cos2(u[:, 2], theta1)  # float64 np.cos's coins, screened in float32
    plus2 = _below_cos2(u[:, 3], theta2)
    post = np.array([opts.theta_after_minus, opts.theta_after_plus])
    lam = {
        "theta1": theta1,
        "theta2": theta2,
        "theta1_post": post[plus1.view(np.int8)],
        "theta2_post": post[plus2.view(np.int8)],
    }
    coins = 2 * plus1.view(np.int8) + plus2
    if spec.kind == BRUKNER_EWFS:
        # Friends draw C, D from the hidden angles (uncorrelated wings);
        # superobserver outcomes mimic collapse-model quantum correlations
        # at the configured angles, independently of C and D.
        tables = np.array([
            singlet_joint_probs(a, b) for a in opts.alice_angles for b in opts.bob_angles
        ])
        return _TOY_KEYS.take(4 * _joint_index(tables, p, u[:, 4]) + coins), lam
    # Standard Bell: the parties measure the particles directly, so outcomes
    # are governed by the hidden angles alone, ignoring measurement angles.
    return _BELL_KEYS.take(4 * p + coins), lam


def _sample_lhv(spec, p, u, opts):
    s = _sample_discrete(opts.weights, u[:, 0])
    keys = _LHV_KEYS if spec.kind == BRUKNER_EWFS else _LHV_BELL_KEYS
    return keys.take(16 * p + s), {"strategy": s.astype(np.int16)}


# ---------------------------------------------------------------------------
# hidden-state binning: the lambda axis of inequality.tabulate's count table

# Every binner maps the lambda payload into 0 .. LAMBDA_BINS - 1.
LAMBDA_BINS = 16


def toy_theta_bins(log: RunLog) -> np.ndarray:
    """Quarter-interval bins of the prepared hidden angles, 16 joint bins, as int8."""
    q1 = np.minimum((log.lam["theta1"] / (math.pi / 4)).astype(np.int8), 3)
    q2 = np.minimum((log.lam["theta2"] / (math.pi / 4)).astype(np.int8), 3)
    q1 *= 4
    return np.add(q1, q2, out=q1)


def lhv_strategy_bins(log: RunLog) -> np.ndarray:
    return log.lam["strategy"]


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
    # a missing model (None) is an unknown one
    require(isinstance(model, (str, type(None))), "model", "a string", model)
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


# Trials sampled in one pass, by run_trials and by each step of a
# campaign.  A chunk's float64 column is 512 KB and toy-theta's draw block
# 2.6 MB, so they are still in cache when they are counted and written; at
# 10^6 trials a column is 8 MB and the draw block 40 MB.
CHUNK = 1 << 16


def run_trials(
    spec: ScenarioSpec,
    model: str,
    seed: int,
    options=None,
    first_trial: int = 0,
    n_trials: int | None = None,
) -> RunLog:
    """Run a contiguous block of trials; row i depends only on (seed, i).

    One loop samples the block in pieces of at most ``CHUNK`` trials and
    frees each piece's draw block before the next is drawn.  A block of one
    piece, an empty one too, is returned as sampled; the pieces of a longer
    block are copied into columns allocated from the first one."""
    entry, options = model_entry(spec.kind, model, options)
    n_trials = spec.trials - first_trial if n_trials is None else n_trials
    xs, ys = sample_settings_block(spec, seed, n_trials, first_trial)
    for lo in range(0, max(n_trials, 1), CHUNK):  # an empty block is one empty piece
        hi = min(lo + CHUNK, n_trials)
        u = uniform_block(seed, f"model:{model}", hi - lo, entry.draws, first_trial + lo)
        key, lam = entry.sample(spec, 2 * xs[lo:hi] + ys[lo:hi] - 3, u, options)
        del u
        if n_trials <= CHUNK:
            return RunLog(model, xs, ys, key, lam, first_trial)
        pieces = [key, *lam.values()]  # lam has the same keys in every piece
        if lo == 0:
            columns = [np.empty(n_trials, piece.dtype) for piece in pieces]
        for column, piece in zip(columns, pieces):
            column[lo:hi] = piece
    return RunLog(model, xs, ys, columns[0], dict(zip(lam, columns[1:])), first_trial)
