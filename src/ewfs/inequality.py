"""Correlation statistics, CHSH evaluation and local-polytope membership.

For the two-setting, binary-outcome scenario the set of correlations
compatible with the friendliness assumptions coincides with the Bell-local
set, so membership questions reduce to the 2x2x2 local polytope: the convex
hull of the 16 deterministic strategy tables.  A behavior lies inside it iff
a joint distribution over all four setting-outcomes exists, iff every one of
the 8 CHSH sign variants stays at or below 2.  Both routes are implemented
(LP feasibility and direct facet evaluation) and cross-checked in tests.
The LP is one HiGHS model and one HiGHS solver, built on the first solve
through scipy's HiGHS bindings; each solve passes the model with its new
right-hand side, the behavior, and starts from no basis.

Every statistic here, and every assumption check, reads one ``CountTable``:
the counts N(x, y, a, b, c, d, lambda-bin) that ``tabulate`` builds from a
run log in a single pass over each trial's ``cell_key``.  Its setting-pair
totals come from ``CountTable.n``, which raises ``EmptyCell`` on an empty
pair through ``pair_totals``.  ``evaluate`` computes the (2, 2) correlator
and SE arrays and the 8 facet values once each, and its ``InequalityReport``
carries them.  Every verdict, here and in ``assumptions``, is ``decide``:
fail iff a conclusive statistic exceeds its threshold.

Sign conventions: outcomes are +/-1, setting indices are 1-based, and the
canonical CHSH combination is S = E11 + E12 + E21 - E22 <= 2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .models import LAMBDA_BINS, MODELS, RunLog, lhv_strategies

CHSH_BOUND = 2.0
LP_TOL = 1e-7

__all__ = [
    "CHSH_BOUND",
    "EmptyCell",
    "decide",
    "CountTable",
    "pair_totals",
    "PolytopeVerdict",
    "IdentityCheck",
    "DerivationChainReport",
    "InequalityReport",
    "cell_key",
    "tabulate",
    "expectations",
    "chsh_values",
    "chsh_max_variant",
    "deterministic_strategy_tables",
    "local_polytope_feasible",
    "verify_derivation_chain",
    "evaluate",
]


class EmptyCell(ValueError):
    """A required setting-pair cell holds no trials."""


def pair_totals(n: np.ndarray) -> np.ndarray:
    """The (2, 2) trial totals ``n`` per setting pair, checked: the one place
    that raises ``EmptyCell``, naming every empty pair."""
    if not n.all():
        empty = [(x + 1, y + 1) for x in range(2) for y in range(2) if n[x, y] == 0]
        raise EmptyCell(f"no trials for setting pairs {empty}")
    return n


def decide(stat, threshold, conclusive=True) -> bool | None:
    """The one verdict rule: False iff a conclusive entry of ``stat`` exceeds
    its ``threshold``, None when no entry is conclusive, True otherwise.  A
    tie passes; a NaN in a conclusive entry raises ValueError.  Scalars
    compare in Python; arrays of cells broadcast."""
    exceeds, nan = stat > threshold, (stat != stat) | (threshold != threshold)
    if isinstance(exceeds, np.ndarray) or isinstance(conclusive, np.ndarray):
        conclusive = np.asarray(conclusive)
        exceeds, nan = (exceeds & conclusive).any(), (nan & conclusive).any()
        conclusive = conclusive.any()
    if nan and conclusive:
        raise ValueError("NaN statistic or threshold in a conclusive verdict")
    return not exceeds if conclusive else None


_AB_SIGN = np.array([[1.0, -1.0], [-1.0, 1.0]])  # a * b per outcome cell


@dataclass
class CountTable:
    """Counts N(x, y, a, b, c, d, lambda-bin) of a run log.

    Axes: x, y are setting index - 1; a, b are 0 <-> +1, 1 <-> -1; c, d
    add 2 <-> undefined; the lambda axis holds the model's binning of its
    hidden-state payload (``binned``), or a single bin when it declares none.
    """

    counts: np.ndarray  # int64, shape (2, 2, 2, 2, 3, 3, n_bins)
    binned: bool

    def __post_init__(self):
        # N(x, y, a, b, c, d), shape (2, 2, 2, 2, 3, 3): the lambda marginal
        # that every reader but the settings-independence check starts from,
        # summed once.  Integer sums, so no reader's result depends on it.
        self.cells = self.counts.sum(axis=6)
        self.cells.setflags(write=False)

    def behavior(self) -> np.ndarray:
        """N(a, b | x, y), shape (2, 2, 2, 2)."""
        return self.cells.sum(axis=(4, 5))

    def n(self) -> np.ndarray:
        """Trial totals per setting pair, shape (2, 2), through
        ``pair_totals``."""
        return pair_totals(self.cells.sum(axis=(2, 3, 4, 5)))

    def total(self) -> int:
        return int(self.cells.sum())

    def probs(self) -> np.ndarray:
        """P(a, b | x, y), shape (2, 2, 2, 2)."""
        return self.behavior() / self.n()[:, :, None, None]

    def friends_defined(self) -> bool:
        """No trial leaves C or D undefined."""
        return int(self.cells[:, :, :, :, :2, :2].sum()) == self.total()


def cell_key(log: RunLog) -> np.ndarray:
    """Index 0..143 of each trial's (x, y, a, b, c, d) cell, int16, in the
    row-major order of the first six ``CountTable`` axes.  An outcome's
    axis index is [v < 0] + 2 [v = 0]: +1 -> 0, -1 -> 1, UNDEFINED -> 2."""
    for setting in (log.x, log.y):
        if setting.size and (setting.min() < 1 or setting.max() > 2):
            raise ValueError("setting indices outside the two-setting scenario")
    for column, defined in ((log.a, True), (log.b, True), (log.c, False), (log.d, False)):
        if column.size and (
            column.min() < -1 or column.max() > 1 or (defined and not column.all())
        ):
            raise ValueError("outcomes outside +-1 (A, B) or +-1, 0 (C, D)")
    key = log.x.astype(np.int16)
    key *= 2
    key += log.y - 3
    for column in (log.a, log.b):
        key *= 2
        key += column < 0
    for column in (log.c, log.d):
        key *= 3
        key += column < 0
        key += (column == 0).view(np.int8) << 1
    return key


def tabulate(log: RunLog) -> CountTable:
    """Count a run log into N(x, y, a, b, c, d, lambda-bin) with one
    ``np.bincount`` over ``cell_key`` refined by the lambda bin."""
    key = cell_key(log)
    binner = MODELS[log.model].binner if log.model in MODELS else None
    n_bins = 1
    if binner is not None and len(log):
        bins = binner(log)
        if bins.min() < 0 or bins.max() >= LAMBDA_BINS:
            raise ValueError(f"lambda bins outside 0..{LAMBDA_BINS - 1}")
        n_bins = int(bins.max()) + 1
        key *= n_bins
        key += bins
    counts = np.bincount(key, minlength=144 * n_bins)
    return CountTable(counts.reshape(2, 2, 2, 2, 3, 3, n_bins), binner is not None)


def expectations(table: CountTable) -> tuple[np.ndarray, np.ndarray]:
    """Correlators E(x, y) and their standard errors, two (2, 2) arrays."""
    n = table.n()
    e = np.einsum("xyab,ab->xy", table.behavior(), _AB_SIGN) / n
    # SE of the mean of +/-1 products
    return e, np.sqrt(np.clip(1.0 - e**2, 0.0, None) / n)


# The 8 CHSH facets as sign patterns over E(x, y): facet v has its minus sign
# at flat position v % 4 and is negated for v >= 4, so facet 3 is the
# canonical S = E11 + E12 + E21 - E22.
_FACETS = np.concatenate([1.0 - 2.0 * np.eye(4), 2.0 * np.eye(4) - 1.0]).reshape(8, 2, 2)
_FACETS.setflags(write=False)


def chsh_values(e: np.ndarray) -> np.ndarray:
    """Values of the 8 CHSH facets of the (2, 2) correlators ``e``; the
    local bound is 2 for all of them."""
    return (_FACETS * e).sum(axis=(1, 2))


def chsh_max_variant(facets: np.ndarray) -> tuple[float, int]:
    """Maximum over the 8 facet values.  A later facet wins only by more
    than 1e-15, so near-ties go to the earliest facet."""
    best, best_id = -math.inf, 0
    for variant, value in enumerate(facets.tolist()):
        if value > best + 1e-15:
            best, best_id = value, variant
    return best, best_id


def deterministic_strategy_tables() -> np.ndarray:
    """Behaviors of the 16 deterministic strategies, shape (16, 2, 2, 2, 2)."""
    idx = (1 - lhv_strategies()) // 2  # axis index of A1, A2, B1, B2
    s, x, y = np.ix_(range(16), range(2), range(2))
    tables = np.zeros((16, 2, 2, 2, 2))
    tables[s, x, y, idx[s, x], idx[s, 2 + y]] = 1.0
    return tables


def signaling_measure(probs: np.ndarray) -> float:
    """Largest marginal shift of one wing under the other wing's setting."""
    p_a = probs.sum(axis=3)  # P(a | x, y)
    p_b = probs.sum(axis=2)  # P(b | x, y)
    alice = np.abs(p_a[:, 0, :] - p_a[:, 1, :]).max()
    bob = np.abs(p_b[0, :, :] - p_b[1, :, :]).max()
    return float(max(alice, bob))


@dataclass
class PolytopeVerdict:
    """LP membership verdict with the mixing weights as certificate."""

    member: bool
    weights: np.ndarray | None
    residual: float
    tolerance: float
    cause: str | None = None

    def to_dict(self) -> dict:
        return {
            "member": bool(self.member),
            "weights": None if self.weights is None else [float(w) for w in self.weights],
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "cause": self.cause,
        }


# The LP over 16 strategy weights w and a slack t: min t subject to
# |V w - p| <= t elementwise, w >= 0, sum w = 1, where V stacks the 16
# vertex behaviors.  Rows 0..31 are V w - t <= p and -V w - t <= -p; row 32
# is sum w = 1.  Only the upper bounds of rows 0..31 change between calls.
_VERTICES = deterministic_strategy_tables().reshape(16, -1).T  # (16 cells, 16)
_LP_COST = np.eye(17)[16]
_LP_A_UB = np.block([[_VERTICES, -np.ones((16, 1))], [-_VERTICES, -np.ones((16, 1))]])
_LP_A_EQ = np.append(np.ones(16), 0.0)[None]
for _array in (_VERTICES, _LP_COST, _LP_A_UB, _LP_A_EQ):
    _array.setflags(write=False)
# scipy.optimize.linprog's check of a HiGHS optimum: sqrt(tol) * 10 at tol 1e-9
_LP_CHECK_TOL = math.sqrt(1e-9) * 10


@functools.cache
def _highs_model():
    """The HiGHS bindings, the LP as a ``HighsLp`` and a HiGHS solver that
    holds the ``HighsOptions`` ``scipy.optimize.linprog`` passes for
    ``method="highs"``.  Built on the first solve: importing scipy.optimize
    takes longer than importing the rest of the package."""
    from scipy.optimize._highspy import _core as highs

    a = np.vstack([_LP_A_UB, _LP_A_EQ])
    cols, rows = np.nonzero(a.T)  # the nonzeros in column-major order
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = a.shape[1]
    lp.num_row_ = lp.a_matrix_.num_row_ = a.shape[0]
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = np.searchsorted(cols, np.arange(a.shape[1] + 1))
    lp.a_matrix_.index_ = rows
    lp.a_matrix_.value_ = a[rows, cols]
    lp.col_cost_ = _LP_COST
    lp.col_lower_ = np.zeros(a.shape[1])
    lp.col_upper_ = np.full(a.shape[1], highs.kHighsInf)
    lp.row_lower_ = np.append(np.full(len(_LP_A_UB), -highs.kHighsInf), 1.0)
    options = highs.HighsOptions()
    options.presolve = "on"
    options.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = options.output_flag = False
    options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    solver = highs._Highs()
    if solver.passOptions(options) == highs.HighsStatus.kError:
        raise RuntimeError("HiGHS rejected the linprog options")
    return highs, lp, solver


def linprog(p: np.ndarray) -> np.ndarray | None:
    """Solve the LP for the flat, finite behavior ``p`` (16 cells): the
    prebuilt model with row upper bounds [p, -p, 1].  ``passModel`` clears
    the shared solver's basis and solution, so no earlier solve steers this
    one.  Returns (w, t), or None unless HiGHS reports an optimum that passes
    scipy.optimize.linprog's check: no NaN, w, t >= -tol, inequality slack
    >= -tol, |sum w - 1| <= tol.  The shared model and solver change per
    call, so one thread at a time may solve."""
    if not np.isfinite(p).all():
        raise ValueError("behavior holds NaN or infinity")
    highs, lp, solver = _highs_model()
    rhs = np.concatenate([p, -p, [1.0]])
    lp.row_upper_ = rhs
    statuses = (solver.passModel(lp), solver.run())
    if (
        highs.HighsStatus.kError in statuses
        or solver.getModelStatus() != highs.HighsModelStatus.kOptimal
    ):
        return None
    solution = solver.getSolution()
    x = np.array(solution.col_value)
    slack = rhs - solution.row_value
    feasible = (
        not math.isnan(solver.getInfo().objective_function_value)
        and (x >= -_LP_CHECK_TOL).all()
        and (slack[:-1] >= -_LP_CHECK_TOL).all()
        and abs(slack[-1]) <= _LP_CHECK_TOL
    )
    return x if feasible else None


def local_polytope_feasible(probs: np.ndarray, tol: float = LP_TOL) -> PolytopeVerdict:
    """Can a probability mixture of the 16 deterministic strategies reproduce
    P(a, b | x, y), shape (2, 2, 2, 2), within ``tol``?  Feasibility
    certifies the existence of a joint distribution over (A1, A2, B1, B2)
    with the observed marginals.  A table that signals by more than ``tol``
    is rejected before the LP.
    """
    if not np.isfinite(probs).all():
        raise ValueError("behavior holds NaN or infinity")
    if not decide(signaling_measure(probs), tol):
        return PolytopeVerdict(False, None, np.inf, tol, cause="signaling")
    x = linprog(probs.reshape(-1))
    if x is None:
        return PolytopeVerdict(False, None, np.inf, tol, cause="lp-failure")
    residual = float(x[16])
    member = decide(residual, tol)
    return PolytopeVerdict(
        member,
        x[:16] if member else None,
        residual,
        tol,
        cause=None if member else "chsh",
    )


# ---------------------------------------------------------------------------
# derivation-chain audit


@dataclass
class IdentityCheck:
    label: str
    lhs: float
    rhs: float
    se: float
    k: float

    @property
    def delta(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def holds(self) -> bool:
        return decide(self.delta, self.k * self.se + 1e-12)


@dataclass
class DerivationChainReport:
    identities: list[IdentityCheck]

    @property
    def all_hold(self) -> bool:
        return all(i.holds for i in self.identities)

    def to_dict(self) -> dict:
        return {
            "all_hold": self.all_hold,
            "identities": [
                {
                    "label": i.label,
                    "lhs": i.lhs,
                    "rhs": i.rhs,
                    "delta": i.delta,
                    "se": i.se,
                    "holds": i.holds,
                }
                for i in self.identities
            ],
        }


def verify_derivation_chain(log: RunLog, k: float = 3.0) -> DerivationChainReport:
    """Audit the expectation-value identification chain that turns the
    four-observer inequality into the superobserver CHSH inequality.

    Checks, within k standard errors each:
      <CD|22> = <CD|11> = <AB|11>   (setting independence of friends, then
                                     friend/superobserver substitution)
      <CB|22> = <CB|12> = <AB|12>
      <AD|22> = <AD|21> = <AB|21>

    Each correlator of +/-1 products has mean m over n trials and standard
    error sqrt(var / n) with var = n / (n - 1) * (1 - m^2).
    """
    table = tabulate(log)
    table.n()  # raises EmptyCell on an empty setting pair
    if not table.friends_defined():
        raise ValueError("derivation chain needs defined friend outcomes everywhere")
    # N(x, y, a, b, c, d) over defined friend outcomes
    counts = table.cells[:, :, :, :, :2, :2]

    def corr(pair: str, xv: int, yv: int) -> tuple[float, float]:
        i, j = ("ABCD".index(side) for side in pair)
        cell = counts[xv - 1, yv - 1].sum(axis=tuple({0, 1, 2, 3} - {i, j}))
        n = int(cell.sum())
        mean = (2 * int(np.trace(cell)) - n) / n
        se = math.sqrt(n / (n - 1) * (1.0 - mean * mean) / n) if n > 1 else 0.0
        return mean, se

    chain = [
        ("nsd:CD22=CD11", ("CD", 2, 2), ("CD", 1, 1)),
        ("aoe:CD11=AB11", ("CD", 1, 1), ("AB", 1, 1)),
        ("lnsd:CB22=CB12", ("CB", 2, 2), ("CB", 1, 2)),
        ("aoe:CB12=AB12", ("CB", 1, 2), ("AB", 1, 2)),
        ("lnsd:AD22=AD21", ("AD", 2, 2), ("AD", 2, 1)),
        ("aoe:AD21=AB21", ("AD", 2, 1), ("AB", 2, 1)),
    ]
    identities = []
    for label, lhs_spec, rhs_spec in chain:
        (lhs, se_l), (rhs, se_r) = corr(*lhs_spec), corr(*rhs_spec)
        identities.append(IdentityCheck(label, lhs, rhs, math.sqrt(se_l**2 + se_r**2), k))
    return DerivationChainReport(identities)


# ---------------------------------------------------------------------------
# one-stop empirical report


@dataclass
class InequalityReport:
    s: float
    se: float
    s_max: float
    s_max_variant: int
    s_max_se: float
    bound: float
    k: float
    violated: bool
    polytope: PolytopeVerdict
    # what the statistics above were computed from, each (2, 2)
    correlators: np.ndarray  # E(x, y)
    errors: np.ndarray  # SE of E(x, y)
    n: np.ndarray  # trials per setting pair

    def to_dict(self) -> dict:
        return {
            "S": self.s,
            "SE": self.se,
            "S_max": self.s_max,
            "S_max_variant": self.s_max_variant,
            "S_max_SE": self.s_max_se,
            "bound": self.bound,
            "k": self.k,
            "violated": bool(self.violated),
            "certificate": self.polytope.to_dict(),
        }


def evaluate(table: CountTable, k: float = 3.0) -> InequalityReport:
    """CHSH statistics plus polytope membership of a count table.

    The membership tolerance widens with the sampling noise of the table
    (k binomial standard errors on the least-populated cell) so finite logs
    of local models are not flagged infeasible by fluctuation alone.
    """
    n = table.n()
    e, errors = expectations(table)
    facets = chsh_values(e)
    s_max, variant = chsh_max_variant(facets)
    s = float(facets[3])
    se = float(np.sqrt(np.sum(errors**2)))
    violated = not decide(s_max, CHSH_BOUND + k * se)
    stat_tol = LP_TOL + k * 0.5 / math.sqrt(int(n.min()))
    polytope = local_polytope_feasible(table.probs(), tol=stat_tol)
    return InequalityReport(
        s, se, s_max, variant, se, CHSH_BOUND, k, violated, polytope, e, errors, n
    )
