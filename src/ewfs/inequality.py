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
run log in a single pass over the cell key (``models.cell``) that its
sampler gave each trial.  Its setting-pair totals come from
``CountTable.n``, which raises ``EmptyCell`` on an empty pair through
``pair_totals``.  ``evaluate`` computes the (2, 2) correlator
and SE arrays and the 8 facet values once each, and its ``InequalityReport``
carries them.  Every verdict, here and in ``assumptions``, is ``decide``:
fail iff a conclusive statistic exceeds its threshold.  Each test of
whether a distribution depends on a setting (signaling here; NSD, locality
and settings independence in ``assumptions``) is one ``g_test``: a G-test
of ``homogeneity`` per stratum, at a familywise level that k sets.

Sign conventions: outcomes are +/-1, setting indices are 1-based, and the
canonical CHSH combination is S = E11 + E12 + E21 - E22 <= 2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .models import LAMBDA_BINS, MODELS, RunLog, lhv_strategies

CHSH_BOUND = 2.0
LP_TOL = 1e-7
MIN_CELL = 100  # trials a group of a G-test, or an AOE cell, needs to count

__all__ = [
    "CHSH_BOUND",
    "MIN_CELL",
    "EmptyCell",
    "decide",
    "homogeneity",
    "AssumptionCheck",
    "g_test",
    "check_signaling",
    "CountTable",
    "pair_totals",
    "PolytopeVerdict",
    "IdentityCheck",
    "DerivationChainReport",
    "InequalityReport",
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
    """The one verdict rule: False iff a conclusive ``stat`` exceeds its
    ``threshold``, None when it is not conclusive, True otherwise.  A tie
    passes; a NaN in a conclusive verdict raises ValueError."""
    if not conclusive:
        return None
    if stat != stat or threshold != threshold:
        raise ValueError("NaN statistic or threshold in a conclusive verdict")
    return not stat > threshold


def _chi2_log_sf(g: float, df: int) -> float:
    """ln P(chi^2_df > g), g > 0, integer df >= 1, in closed form with h = g/2:
    e^-h sum_{j < df/2} h^j / j! (df even), or erfc(sqrt h) + e^-h sum_{1 <=
    j <= (df-1)/2} h^(j-1/2) / Gamma(j+1/2) (df odd), summed from the terms'
    logs so that a tail below the smallest float keeps its digits."""
    h, odd = g / 2, df % 2
    if df == 1 and h < 676:  # erfc(sqrt h), while it is a normal float
        return math.log(math.erfc(math.sqrt(h)))
    logs = [(j - odd / 2) * math.log(h) - math.lgamma(j - odd / 2 + 1) - h
            for j in range(odd, (df + 1) // 2)]
    if odd:  # ln erfc(sqrt h), by its asymptotic series once erfc is subnormal
        z = math.sqrt(h)
        logs.append(math.log(math.erfc(z)) if h < 676 else -h - math.log(
            z * math.sqrt(math.pi) / (1 - 1 / (2 * h) + 3 / (4 * h * h))))
    top = max(logs)
    return min(top + math.log(math.fsum(math.exp(v - top) for v in logs)), 0.0)


def homogeneity(counts) -> tuple[list[float], list[int], list[float]]:
    """G-test of homogeneity of each stratum's (group, outcome) count table,
    ``counts`` an array shaped (stratum, group, outcome) or one nested list
    per stratum: G = 2 sum O ln(O / E), E = row x column total / N, and
    df = (r - 1)(c - 1) over the r rows and c columns with a nonzero total.
    Returns G, df and -log10 P(chi^2_df > G), one per stratum.  G is the
    correctly rounded sum of its terms: the order of the groups or the
    outcomes, or empty ones, cannot change it."""
    g, df, log_p = [], [], []
    for table in counts.tolist() if isinstance(counts, np.ndarray) else counts:
        rows, cols = [sum(row) for row in table], [sum(col) for col in zip(*table)]
        n = sum(rows)
        g.append(max(2 * math.fsum([o * math.log(o * n / (r * c)) for row, r in zip(table, rows)
                                    for o, c in zip(row, cols) if o]), 0.0))
        df.append(max(len(rows) - rows.count(0) - 1, 0) * max(len(cols) - cols.count(0) - 1, 0))
        log_p.append(0.0 - _chi2_log_sf(g[-1], df[-1]) / math.log(10) if g[-1] and df[-1] else 0.0)
    return g, df, log_p


@dataclass
class AssumptionCheck:
    """One assumption verdict, None when inconclusive or not applicable.  A
    ``g_test``'s statistic is -log10 p of its deciding stratum, whose G and
    df it holds; an AOE check's is an agreement frequency."""

    statistic: float | None
    threshold: float | None
    passed: bool | None
    detail: str = ""
    cell_sizes: dict[str, int] = field(default_factory=dict)
    g: float | None = None
    df: int | None = None

    def to_dict(self) -> dict:
        return dict(vars(self))


def g_test(counts: np.ndarray, k: float, detail: str, cell_sizes: dict) -> AssumptionCheck:
    """Is the outcome distribution of each stratum of ``counts``, shape
    (stratum, group, outcome), the same in every group?  Groups under
    ``MIN_CELL`` trials are dropped; a stratum with two left is conclusive.
    ``decide`` fails the check iff the smallest p-value, as -log10 p, is
    below Sidak's per-test level 1 - (1 - alpha)^(1/m) over the m conclusive
    strata, alpha = erfc(k / sqrt 2), the two-sided normal tail beyond k."""
    tables = [[row for row in table if sum(row) >= MIN_CELL] for table in counts.tolist()]
    tables = [table for table in tables if len(table) >= 2]
    if not tables:
        return AssumptionCheck(None, None, None, detail, cell_sizes)
    g, df, log_p = homogeneity(tables)
    level = -math.expm1(math.log1p(-math.erfc(k / math.sqrt(2.0))) / len(tables))
    statistic, threshold = max(log_p), -math.log10(level)
    worst = log_p.index(statistic)
    return AssumptionCheck(statistic, threshold, decide(statistic, threshold), detail,
                           cell_sizes, g[worst], df[worst])


_AB_SIGN = np.array([[1.0, -1.0], [-1.0, 1.0]])  # a * b per outcome cell


@dataclass
class CountTable:
    """Counts N(x, y, a, b, c, d, lambda-bin) of a run log.

    Axes: x, y are setting index - 1; a, b are 0 <-> +1, 1 <-> -1; c, d
    add 2 <-> undefined; the lambda axis holds the model's binning of its
    hidden-state payload in ``LAMBDA_BINS`` bins, or a single bin when it
    declares none.  The shape depends only on the model, so tables of any
    two blocks of one campaign add as they are.
    """

    counts: np.ndarray  # int64, shape (2, 2, 2, 2, 3, 3, LAMBDA_BINS or 1)

    @property
    def binned(self) -> bool:
        """The model declares a hidden-state binning."""
        return self.counts.shape[-1] > 1

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


def tabulate(log: RunLog) -> CountTable:
    """Count a run log into N(x, y, a, b, c, d, lambda-bin) with one
    ``np.bincount`` over its cell keys refined by the lambda bin, after the
    one check of a log: ValueError on a key or a bin outside its values."""
    key = log.key
    if key.size and (key.min() < 0 or key.max() >= 144):
        raise ValueError("cell keys outside 0..143")
    binner = MODELS[log.model].binner if log.model in MODELS else None
    n_bins = 1 if binner is None else LAMBDA_BINS
    if binner is not None:
        bins = binner(log)
        if key.size and (bins.min() < 0 or bins.max() >= LAMBDA_BINS):
            raise ValueError(f"lambda bins outside 0..{LAMBDA_BINS - 1}")
        key = key.astype(np.int16) * n_bins + bins
    counts = np.bincount(key, minlength=144 * n_bins)
    return CountTable(counts.reshape(2, 2, 2, 2, 3, 3, n_bins))


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


def check_signaling(table: CountTable, k: float = 3.0) -> AssumptionCheck:
    """No-signaling as four G-tests: P(a | x, y) across y per x, P(b | x, y) across x per y."""
    behavior = table.behavior()  # (x, y, a, b)
    strata = np.concatenate([behavior.sum(axis=3), behavior.sum(axis=2).transpose(1, 0, 2)])
    return g_test(strata, k, "G-test of P(a | x,y) across y and of P(b | x,y) across x", {})


@dataclass
class PolytopeVerdict:
    """LP membership verdict with the mixing weights as certificate."""

    member: bool
    weights: list[float] | None
    residual: float | None  # None when the LP did not run or failed
    tolerance: float
    cause: str | None = None

    def to_dict(self) -> dict:
        return dict(vars(self))


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


def local_polytope_feasible(probs: np.ndarray, tol: float = LP_TOL,
                            signals: bool = False) -> PolytopeVerdict:
    """Can a probability mixture of the 16 deterministic strategies reproduce
    P(a, b | x, y), shape (2, 2, 2, 2), within ``tol``?  Feasibility
    certifies the existence of a joint distribution over (A1, A2, B1, B2)
    with the observed marginals.  A table that ``signals`` (it failed
    ``check_signaling``) is rejected before the LP.
    """
    if not np.isfinite(probs).all():
        raise ValueError("behavior holds NaN or infinity")
    tol = float(tol)
    if signals:
        return PolytopeVerdict(False, None, None, tol, cause="signaling")
    x = linprog(probs.reshape(-1))
    if x is None:
        return PolytopeVerdict(False, None, None, tol, cause="lp-failure")
    residual = float(x[16])
    if decide(residual, tol):
        return PolytopeVerdict(True, x[:16].tolist(), residual, tol)
    return PolytopeVerdict(False, None, residual, tol, cause="chsh")


# ---------------------------------------------------------------------------
# derivation-chain audit


@dataclass
class IdentityCheck:
    label: str
    lhs: float
    rhs: float
    delta: float
    se: float
    holds: bool


@dataclass
class DerivationChainReport:
    identities: list[IdentityCheck]

    @property
    def all_hold(self) -> bool:
        return all(i.holds for i in self.identities)

    def to_dict(self) -> dict:
        return {
            "all_hold": self.all_hold,
            "identities": [dict(vars(i)) for i in self.identities],
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
        delta, se = abs(lhs - rhs), math.sqrt(se_l**2 + se_r**2)
        holds = decide(delta, k * se + 1e-12)
        identities.append(IdentityCheck(label, lhs, rhs, delta, se, holds))
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
    violated: bool
    signaling: AssumptionCheck  # the test that decides whether the LP runs
    polytope: PolytopeVerdict
    # what the statistics above were computed from, each (2, 2)
    correlators: np.ndarray  # E(x, y)
    errors: np.ndarray  # SE of E(x, y)
    n: np.ndarray  # trials per setting pair

    def to_dict(self) -> dict:
        """The CHSH section of report.json; ``s_max_se`` is ``se``."""
        columns = (array.ravel().tolist() for array in (self.correlators, self.errors, self.n))
        cells = zip(("x1y1", "x1y2", "x2y1", "x2y2"), *columns)
        expect = {key: {"E": e, "SE": se, "n": n} for key, e, se, n in cells}
        return {
            "expectations": expect,
            "S": self.s,
            "SE": self.se,
            "S_max": self.s_max,
            "S_max_variant": self.s_max_variant,
            "bound": self.bound,
            "violated": bool(self.violated),
            "signaling": self.signaling.to_dict(),
            "certificate": self.polytope.to_dict(),
        }


def evaluate(table: CountTable, k: float = 3.0) -> InequalityReport:
    """CHSH statistics plus polytope membership of a count table.

    The membership tolerance widens with the sampling noise of the table
    (k binomial standard errors on the least-populated cell) so finite logs
    of local models are not flagged infeasible by fluctuation alone.  The LP
    runs unless ``check_signaling`` fails at the same k.
    """
    n = table.n()
    e, errors = expectations(table)
    facets = chsh_values(e)
    s_max, variant = chsh_max_variant(facets)
    s = float(facets[3])
    se = float(np.sqrt(np.sum(errors**2)))
    violated = not decide(s_max, CHSH_BOUND + k * se)
    stat_tol = LP_TOL + k * 0.5 / math.sqrt(int(n.min()))
    signaling = check_signaling(table, k)
    polytope = local_polytope_feasible(table.probs(), stat_tol, signaling.passed is False)
    return InequalityReport(
        s, se, s_max, variant, se, CHSH_BOUND, violated, signaling, polytope, e, errors, n
    )
