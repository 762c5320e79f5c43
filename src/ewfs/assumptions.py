"""Empirical verdicts on the formalized assumptions behind the inequalities.

Every check reads the count table N(x, y, a, b, c, d, lambda-bin) that
``inequality.tabulate`` builds once per campaign:

* AOE   -- absoluteness of observed events: (i) every trial carries defined
  friend outcomes, (ii) A = C whenever X = 1, (iii) B = D whenever Y = 1.
  (ii)/(iii) demand exact agreement; every implemented model that satisfies
  them does so deterministically.
* NSD   -- no-superdeterminism: the friend-outcome distribution P(C, D) is
  independent of the later setting choices.
* L     -- locality / parameter independence: a wing's outcome distribution,
  conditioned on both friend outcomes and its own setting, ignores the
  distant setting.
* settings independence -- the hidden-state distribution (the lambda bins
  of the model's binner in ``models.MODELS``) is independent of the settings.

Distribution comparisons use total-variation distance with a threshold of
k binomial standard errors; conditioning cells under ``min_cell`` trials are
flagged inconclusive rather than pass/fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .inequality import CountTable

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
    # 1 - (1 - alpha)^(1/comparisons), without rounding a tiny alpha to 0
    per_cell = -math.expm1(math.log1p(-alpha) / comparisons)
    return -NormalDist().inv_cdf(per_cell / 2.0)


def _require_min_cell(min_cell: int) -> None:
    # An empty conditioning cell must never count as conclusive.
    if not min_cell >= 1:
        raise ValueError(f"min_cell must be at least 1, got {min_cell!r}")


def check_aoe(table: CountTable, min_cell: int = MIN_CELL) -> dict[str, AssumptionCheck]:
    """AOE items i-iii.  Agreement for ii/iii must be exact (frequency 1 with
    zero counterexamples) on the conditioned records."""
    _require_min_cell(min_cell)
    checks = {}
    total = table.total()
    counts = table.counts.sum(axis=6)  # (x, y, a, b, c, d)
    defined = int(counts[:, :, :, :, :2, :2].sum())
    checks["aoe_i"] = AssumptionCheck(
        "aoe_i",
        statistic=defined / total if total else 0.0,
        threshold=1.0,
        passed=defined == total if total else None,
        detail="fraction of trials with both friend outcomes defined",
    )
    # (superobserver, defined friend) outcome counts at the Z setting
    for name, pairs in (
        ("aoe_ii", counts[0].sum(axis=(0, 2, 4))[:, :2]),  # (a, c) at x = 1
        ("aoe_iii", counts[:, 0].sum(axis=(0, 1, 3))[:, :2]),  # (b, d) at y = 1
    ):
        n = int(pairs.sum())
        if n == 0:
            checks[name] = AssumptionCheck(
                name, None, 1.0, None, detail="no conditioned records",
            )
            continue
        freq = int(np.trace(pairs)) / n
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
    cells: np.ndarray, k: float, min_cell: int, name: str, detail: str
) -> AssumptionCheck:
    """Max TV distance between per-(x, y) and pooled outcome distributions,
    from outcome counts per setting pair, shape (2, 2, n_outcomes)."""
    n_xy = cells.sum(axis=2)
    pooled = cells.sum(axis=(0, 1)) / max(int(n_xy.sum()), 1)
    worst_tv, ok, any_conclusive = 0.0, True, False
    cell_sizes = {}
    for xi in np.flatnonzero(n_xy.sum(axis=1)):
        for yi in np.flatnonzero(n_xy.sum(axis=0)):
            n = int(n_xy[xi, yi])
            cell_sizes[f"x{xi + 1}y{yi + 1}"] = n
            if n < min_cell:
                continue
            any_conclusive = True
            tv = _tv(cells[xi, yi] / n, pooled)
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


def _friends_undefined(name: str) -> AssumptionCheck:
    return AssumptionCheck(
        name, None, None, None,
        detail="friend outcomes undefined on some trials; inconclusive",
    )


def check_nsd(
    table: CountTable, k: float = 3.0, min_cell: int = MIN_CELL
) -> AssumptionCheck:
    """P(C, D | X, Y) = P(C, D): friend outcomes ignore the setting choices."""
    _require_min_cell(min_cell)
    if not table.friends_defined():
        return _friends_undefined("nsd")
    # outcome 2 * c + d per (x, y)
    cd = table.counts.sum(axis=(2, 3, 6))[:, :, :2, :2].reshape(2, 2, 4)
    return _tv_by_settings(
        cd, k, min_cell, "nsd",
        "max TV distance of P(C,D | x,y) from pooled P(C,D)",
    )


def check_locality(
    table: CountTable, k: float = 3.0, min_cell: int = MIN_CELL
) -> AssumptionCheck:
    """Parameter independence: P(A | C, D, X) ignores Y, and symmetrically."""
    _require_min_cell(min_cell)
    if not table.friends_defined():
        return _friends_undefined("locality")
    counts = table.counts.sum(axis=6)[:, :, :, :, :2, :2]  # (x, y, a, b, c, d)
    wings = (  # (own setting, distant setting, outcome, c, d)
        ("A", counts.sum(axis=3)),
        ("B", counts.sum(axis=2).transpose(1, 0, 2, 3, 4)),
    )
    cells = []
    cell_sizes = {}
    for wing, wing_counts in wings:
        for ci, cv in enumerate((1, -1)):
            for di, dv in enumerate((1, -1)):
                for sv in (1, 2):
                    by_distant = wing_counts[sv - 1, :, :, ci, di]
                    n1, n2 = (int(n) for n in by_distant.sum(axis=1))
                    cell_sizes[f"{wing}:c{cv}d{dv}s{sv}"] = n1 + n2
                    if min(n1, n2) >= min_cell:
                        plus1, plus2 = (int(n) for n in by_distant[:, 0])
                        cells.append((plus1, plus2, n1, n2))
    k_cell = _familywise_k(k, len(cells))
    worst_tv, ok, any_conclusive = 0.0, True, bool(cells)
    for plus1, plus2, n1, n2 in cells:
        tv = abs(plus1 / n1 - plus2 / n2)
        pooled = (plus1 + plus2) / (n1 + n2)
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


def check_settings_independence(
    table: CountTable, k: float = 3.0, min_cell: int = MIN_CELL
) -> AssumptionCheck:
    """rho(lambda | X, Y) = rho(lambda) over the model-declared binning."""
    _require_min_cell(min_cell)
    if not table.binned:
        return AssumptionCheck(
            "settings_independence", None, None, None,
            detail="model declares no hidden-state payload; not applicable",
        )
    return _tv_by_settings(
        table.counts.sum(axis=(2, 3, 4, 5)), k, min_cell, "settings_independence",
        "max TV distance of binned hidden state per (x,y) from pooled",
    )


def check_all(
    table: CountTable, k: float = 3.0, min_cell: int = MIN_CELL
) -> AssumptionReport:
    checks = dict(check_aoe(table, min_cell))
    checks["nsd"] = check_nsd(table, k, min_cell)
    checks["locality"] = check_locality(table, k, min_cell)
    checks["settings_independence"] = check_settings_independence(
        table, k, min_cell
    )
    return AssumptionReport(checks)
