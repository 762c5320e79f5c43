"""Empirical verdicts on the formalized assumptions behind the inequalities.

Checks run over array-backed run logs:

* AOE   -- absoluteness of observed events: (i) every trial carries defined
  friend outcomes, (ii) A = C whenever X = 1, (iii) B = D whenever Y = 1.
  (ii)/(iii) demand exact agreement; every implemented model that satisfies
  them does so deterministically.
* NSD   -- no-superdeterminism: the friend-outcome distribution P(C, D) is
  independent of the later setting choices.
* L     -- locality / parameter independence: a wing's outcome distribution,
  conditioned on both friend outcomes and its own setting, ignores the
  distant setting.
* settings independence -- the hidden-state distribution (model-declared
  binning of the lambda payload) is independent of the settings.

Distribution comparisons use total-variation distance with a threshold of
k binomial standard errors; conditioning cells under ``min_cell`` trials are
flagged inconclusive rather than pass/fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .models import MODEL_LHV, MODEL_TOY, RunLog, UNDEFINED

MIN_CELL = 100

__all__ = [
    "MIN_CELL",
    "AssumptionCheck",
    "AssumptionReport",
    "check_aoe",
    "check_nsd",
    "check_locality",
    "check_settings_independence",
    "check_all",
    "toy_theta_bins",
    "lhv_strategy_bins",
    "LAMBDA_BINNERS",
]


@dataclass
class AssumptionCheck:
    """One assumption verdict.  ``passed`` is None when inconclusive or not
    applicable; ``statistic`` is an agreement frequency or a max TV distance,
    always in [0, 1] when defined."""

    name: str
    statistic: float | None
    threshold: float | None
    passed: bool | None
    detail: str = ""
    cell_sizes: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "threshold": self.threshold,
            "passed": self.passed,
            "detail": self.detail,
            "cell_sizes": self.cell_sizes,
        }


@dataclass
class AssumptionReport:
    checks: dict[str, AssumptionCheck]

    def passed(self, name: str) -> bool | None:
        return self.checks[name].passed

    def all_passed(self, names=None) -> bool:
        names = names or list(self.checks)
        return all(self.checks[n].passed is True for n in names)

    def to_dict(self) -> dict:
        return {name: check.to_dict() for name, check in self.checks.items()}


def _tv(p: np.ndarray, q: np.ndarray) -> float:
    return float(0.5 * np.abs(p - q).sum())


def _familywise_k(k: float, comparisons: int) -> float:
    """Per-cell z threshold keeping the familywise false-alarm rate of a
    max-over-cells statistic at the single-cell k-sigma level."""
    if comparisons <= 1:
        return k
    alpha = math.erfc(k / math.sqrt(2.0))  # two-sided tail beyond k sigma
    per_cell = 1.0 - (1.0 - alpha) ** (1.0 / comparisons)
    return -NormalDist().inv_cdf(per_cell / 2.0)


def _friends_defined(log: RunLog) -> bool:
    return bool((log.c != UNDEFINED).all() and (log.d != UNDEFINED).all())


def check_aoe(log: RunLog, min_cell: int = MIN_CELL) -> dict[str, AssumptionCheck]:
    """AOE items i-iii.  Agreement for ii/iii must be exact (frequency 1 with
    zero counterexamples) on the conditioned records."""
    checks = {}
    defined = (log.c != UNDEFINED) & (log.d != UNDEFINED)
    frac = float(defined.mean()) if len(log) else 0.0
    checks["aoe_i"] = AssumptionCheck(
        "aoe_i",
        statistic=frac,
        threshold=1.0,
        passed=bool(defined.all()) if len(log) else None,
        detail="fraction of trials with both friend outcomes defined",
    )
    for name, setting, super_out, friend_out in (
        ("aoe_ii", log.x, log.a, log.c),
        ("aoe_iii", log.y, log.b, log.d),
    ):
        mask = (setting == 1) & (friend_out != UNDEFINED)
        n = int(mask.sum())
        if n == 0:
            checks[name] = AssumptionCheck(
                name, None, 1.0, None, detail="no conditioned records",
            )
            continue
        freq = float((super_out[mask] == friend_out[mask]).mean())
        checks[name] = AssumptionCheck(
            name,
            statistic=freq,
            threshold=1.0,
            passed=(freq == 1.0) if n >= min_cell else None,
            detail="agreement frequency between superobserver and friend",
            cell_sizes={"conditioned": n},
        )
    return checks


def _tv_by_settings(
    values: np.ndarray,
    n_outcomes: int,
    x: np.ndarray,
    y: np.ndarray,
    k: float,
    min_cell: int,
    name: str,
    detail: str,
) -> AssumptionCheck:
    """Max TV distance between per-(x, y) and pooled outcome distributions."""
    pooled = np.bincount(values, minlength=n_outcomes) / values.size
    worst_tv, ok, any_conclusive = 0.0, True, False
    cell_sizes = {}
    for xv in np.unique(x):
        for yv in np.unique(y):
            mask = (x == xv) & (y == yv)
            n = int(mask.sum())
            cell_sizes[f"x{xv}y{yv}"] = n
            if n < min_cell:
                continue
            any_conclusive = True
            local = np.bincount(values[mask], minlength=n_outcomes) / n
            tv = _tv(local, pooled)
            worst_tv = max(worst_tv, tv)
            threshold = k * 0.5 * float(
                np.sqrt(pooled * (1 - pooled) / n).sum()
            )
            if tv > threshold:
                ok = False
    return AssumptionCheck(
        name,
        statistic=worst_tv if any_conclusive else None,
        threshold=None,
        passed=ok if any_conclusive else None,
        detail=detail,
        cell_sizes=cell_sizes,
    )


def check_nsd(log: RunLog, k: float = 3.0, min_cell: int = MIN_CELL) -> AssumptionCheck:
    """P(C, D | X, Y) = P(C, D): friend outcomes ignore the setting choices."""
    if not _friends_defined(log):
        return AssumptionCheck(
            "nsd", None, None, None,
            detail="friend outcomes undefined on some trials; inconclusive",
        )
    cd = (2 * (log.c == -1) + (log.d == -1)).astype(np.int64)
    return _tv_by_settings(
        cd, 4, log.x, log.y, k, min_cell, "nsd",
        "max TV distance of P(C,D | x,y) from pooled P(C,D)",
    )


def check_locality(
    log: RunLog, k: float = 3.0, min_cell: int = MIN_CELL
) -> AssumptionCheck:
    """Parameter independence: P(A | C, D, X) ignores Y, and symmetrically."""
    if not _friends_defined(log):
        return AssumptionCheck(
            "locality", None, None, None,
            detail="friend outcomes undefined on some trials; inconclusive",
        )
    cells = []
    cell_sizes = {}
    wings = (
        ("A", log.a, log.x, log.y),
        ("B", log.b, log.y, log.x),
    )
    for wing, outcome, own, distant in wings:
        for cv in (1, -1):
            for dv in (1, -1):
                for sv in (1, 2):
                    base = (log.c == cv) & (log.d == dv) & (own == sv)
                    m1 = base & (distant == 1)
                    m2 = base & (distant == 2)
                    n1, n2 = int(m1.sum()), int(m2.sum())
                    cell_sizes[f"{wing}:c{cv}d{dv}s{sv}"] = n1 + n2
                    if min(n1, n2) >= min_cell:
                        cells.append((outcome, m1, m2, n1, n2))
    k_cell = _familywise_k(k, len(cells))
    worst_tv, ok, any_conclusive = 0.0, True, bool(cells)
    for outcome, m1, m2, n1, n2 in cells:
        p1 = float((outcome[m1] == 1).mean())
        p2 = float((outcome[m2] == 1).mean())
        tv = abs(p1 - p2)
        pooled = ((outcome[m1] == 1).sum() + (outcome[m2] == 1).sum()) / (n1 + n2)
        threshold = k_cell * math.sqrt(
            max(pooled * (1 - pooled), 1e-12) * (1 / n1 + 1 / n2)
        )
        worst_tv = max(worst_tv, tv)
        if tv > threshold:
            ok = False
    return AssumptionCheck(
        "locality",
        statistic=worst_tv if any_conclusive else None,
        threshold=None,
        passed=ok if any_conclusive else None,
        detail="max TV shift of a wing's outcome under the distant setting",
        cell_sizes=cell_sizes,
    )


def toy_theta_bins(log: RunLog) -> np.ndarray:
    """Quarter-interval bins of the prepared hidden angles, 16 joint bins."""
    q1 = np.minimum((log.lam["theta1"] / (math.pi / 4)).astype(np.int64), 3)
    q2 = np.minimum((log.lam["theta2"] / (math.pi / 4)).astype(np.int64), 3)
    return 4 * q1 + q2


def lhv_strategy_bins(log: RunLog) -> np.ndarray:
    return log.lam["strategy"].astype(np.int64)


LAMBDA_BINNERS = {
    MODEL_TOY: toy_theta_bins,
    MODEL_LHV: lhv_strategy_bins,
}


def check_settings_independence(
    log: RunLog,
    k: float = 3.0,
    min_cell: int = MIN_CELL,
) -> AssumptionCheck:
    """rho(lambda | X, Y) = rho(lambda) over the model-declared binning."""
    binner = LAMBDA_BINNERS.get(log.model)
    if binner is None:
        return AssumptionCheck(
            "settings_independence", None, None, None,
            detail="model declares no hidden-state payload; not applicable",
        )
    bins = np.asarray(binner(log))
    return _tv_by_settings(
        bins, int(bins.max()) + 1 if bins.size else 1,
        log.x, log.y, k, min_cell, "settings_independence",
        "max TV distance of binned hidden state per (x,y) from pooled",
    )


def check_all(
    log: RunLog, k: float = 3.0, min_cell: int = MIN_CELL
) -> AssumptionReport:
    checks = dict(check_aoe(log, min_cell))
    checks["nsd"] = check_nsd(log, k, min_cell)
    checks["locality"] = check_locality(log, k, min_cell)
    checks["settings_independence"] = check_settings_independence(
        log, k, min_cell
    )
    return AssumptionReport(checks)
