"""Correlation statistics, CHSH evaluation and local-polytope membership.

For the two-setting, binary-outcome scenario the set of correlations
compatible with the friendliness assumptions coincides with the Bell-local
set, so membership questions reduce to the 2x2x2 local polytope: the convex
hull of the 16 deterministic strategy tables.  A behavior lies inside it iff
a joint distribution over all four setting-outcomes exists, iff every one of
the 8 CHSH sign variants stays at or below 2.  Both routes are implemented
(LP feasibility and direct facet evaluation) and cross-checked in tests.

Every statistic here, and every assumption check, reads one ``CountTable``:
the counts N(x, y, a, b, c, d, lambda-bin) that ``tabulate`` builds from a
run log in a single pass over each trial's ``cell_key``.

Sign conventions: outcomes are +/-1, setting indices are 1-based, and the
canonical CHSH combination is S = E11 + E12 + E21 - E22 <= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import LAMBDA_BINS, MODELS, RunLog, lhv_strategies

CHSH_BOUND = 2.0
LP_TOL = 1e-7

__all__ = [
    "CHSH_BOUND",
    "EmptyCell",
    "CountTable",
    "ExpectationMatrix",
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

    def behavior(self) -> np.ndarray:
        """N(a, b | x, y), shape (2, 2, 2, 2)."""
        return self.counts.sum(axis=(4, 5, 6))

    def n(self) -> np.ndarray:
        """Trial totals per setting pair, shape (2, 2)."""
        return self.counts.sum(axis=(2, 3, 4, 5, 6))

    def total(self) -> int:
        return int(self.counts.sum())

    def probs(self) -> np.ndarray:
        n = self.n()[:, :, None, None]
        with np.errstate(invalid="ignore", divide="ignore"):
            p = np.where(n > 0, self.behavior() / np.maximum(n, 1), np.nan)
        return p

    def empty_pairs(self) -> list[tuple[int, int]]:
        n = self.n()
        return [(x + 1, y + 1) for x in range(2) for y in range(2) if n[x, y] == 0]

    def friends_defined(self) -> bool:
        """No trial leaves C or D undefined."""
        return int(self.counts[:, :, :, :, :2, :2].sum()) == self.total()


@dataclass
class ExpectationMatrix:
    """Correlators E(x, y) with standard errors and per-cell trial counts."""

    values: np.ndarray  # (2, 2)
    errors: np.ndarray  # (2, 2)
    n: np.ndarray  # (2, 2) ints


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


def expectations(table: CountTable) -> ExpectationMatrix:
    n = table.n()
    with np.errstate(invalid="ignore", divide="ignore"):
        e = np.einsum("xyab,ab->xy", table.behavior(), _AB_SIGN) / np.maximum(n, 1)
        e = np.where(n > 0, e, np.nan)
        # SE of the mean of +/-1 products
        se = np.sqrt(np.clip(1.0 - e**2, 0.0, None) / np.maximum(n, 1))
    se = np.where(n > 0, se, np.nan)
    return ExpectationMatrix(e, se, n.astype(np.int64))


# The 8 CHSH facets as sign patterns over E(x, y): facet v has its minus sign
# at flat position v % 4 and is negated for v >= 4, so facet 3 is the
# canonical S = E11 + E12 + E21 - E22.
_FACETS = np.concatenate([1.0 - 2.0 * np.eye(4), 2.0 * np.eye(4) - 1.0]).reshape(8, 2, 2)
_FACETS.setflags(write=False)


def chsh_values(e: ExpectationMatrix) -> np.ndarray:
    """Values of the 8 CHSH facets; the local bound is 2 for all of them."""
    if (e.n == 0).any():
        empty = [(x + 1, y + 1) for x in range(2) for y in range(2) if e.n[x, y] == 0]
        raise EmptyCell(f"no trials for setting pairs {empty}")
    return (_FACETS * e.values).sum(axis=(1, 2))


def chsh_max_variant(e: ExpectationMatrix) -> tuple[float, int]:
    """Maximum over the 8 facets.  A later facet wins only by more than
    1e-15, so near-ties go to the earliest facet."""
    best, best_id = -math.inf, 0
    for variant, value in enumerate(chsh_values(e).tolist()):
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


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call: importing
    scipy.optimize takes longer than importing the rest of the package."""
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


def local_polytope_feasible(
    table: CountTable | np.ndarray, tol: float = LP_TOL
) -> PolytopeVerdict:
    """Can a probability mixture of the 16 deterministic strategies reproduce
    P(a, b | x, y) within ``tol``?  Feasibility certifies the existence of a
    joint distribution over (A1, A2, B1, B2) with the observed marginals.
    A table that signals by more than ``tol`` is rejected before the LP.

    Solves min t  s.t.  |V w - p| <= t elementwise, w >= 0, sum w = 1,
    where V stacks the 16 vertex behaviors.
    """
    probs = table.probs() if isinstance(table, CountTable) else np.asarray(table)
    if np.isnan(probs).any():
        raise EmptyCell("behavior table has empty setting-pair cells")
    if signaling_measure(probs) > tol:
        return PolytopeVerdict(False, None, np.inf, tol, cause="signaling")
    vertices = deterministic_strategy_tables().reshape(16, -1).T  # (16 cells, 16)
    p = probs.reshape(-1)
    n_cells = p.size
    # variables: 16 weights + slack t
    c = np.zeros(17)
    c[16] = 1.0
    a_ub = np.block(
        [[vertices, -np.ones((n_cells, 1))], [-vertices, -np.ones((n_cells, 1))]]
    )
    b_ub = np.concatenate([p, -p])
    a_eq = np.zeros((1, 17))
    a_eq[0, :16] = 1.0
    res = linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
        bounds=[(0, None)] * 16 + [(0, None)], method="highs",
    )
    if not res.success:
        return PolytopeVerdict(False, None, np.inf, tol, cause="lp-failure")
    residual = float(res.x[16])
    member = residual <= tol
    return PolytopeVerdict(
        member,
        res.x[:16] if member else None,
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
        return self.delta <= self.k * self.se + 1e-12


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
    empty = table.empty_pairs()
    if empty:
        raise EmptyCell(f"missing setting coverage: {empty}")
    if not table.friends_defined():
        raise ValueError("derivation chain needs defined friend outcomes everywhere")
    # N(x, y, a, b, c, d) over defined friend outcomes
    counts = table.counts.sum(axis=6)[:, :, :, :, :2, :2]

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
    e = expectations(table)
    s_max, variant = chsh_max_variant(e)
    s = float(chsh_values(e)[3])
    se = float(np.sqrt(np.sum(e.errors**2)))
    violated = s_max > CHSH_BOUND + k * se
    stat_tol = LP_TOL + k * 0.5 / math.sqrt(int(e.n.min()))  # every cell is full
    polytope = local_polytope_feasible(table, tol=stat_tol)
    return InequalityReport(s, se, s_max, variant, se, CHSH_BOUND, k, violated, polytope)
