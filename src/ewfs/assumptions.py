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
k binomial standard errors; conditioning cells under ``MIN_CELL`` trials are
flagged inconclusive rather than pass/fail.  Every verdict is
``inequality.decide``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .inequality import CountTable, decide

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

    statistic: float | None
    threshold: float | None
    passed: bool | None
    detail: str = ""
    cell_sizes: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class AssumptionReport:
    checks: dict[str, AssumptionCheck]

    def passed(self, name: str) -> bool | None:
        return self.checks[name].passed

    def to_dict(self) -> dict:
        return {name: check.to_dict() for name, check in self.checks.items()}


def _tv(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Total-variation distance between distributions along the last axis."""
    return 0.5 * np.abs(p - q).sum(axis=-1)


def _familywise_k(k: float, comparisons: int) -> float:
    """Per-cell z threshold keeping the familywise false-alarm rate of a
    max-over-cells statistic at the single-cell k-sigma level."""
    if comparisons <= 1:
        return k
    alpha = math.erfc(k / math.sqrt(2.0))  # two-sided tail beyond k sigma
    # 1 - (1 - alpha)^(1/comparisons), without rounding a tiny alpha to 0
    per_cell = -math.expm1(math.log1p(-alpha) / comparisons)
    return -NormalDist().inv_cdf(per_cell / 2.0)


def _inconclusive(detail: str, threshold: float | None = None) -> AssumptionCheck:
    return AssumptionCheck(None, threshold, None, detail)


def check_aoe(table: CountTable) -> dict[str, AssumptionCheck]:
    """AOE items i-iii.  Agreement for ii/iii must be exact (frequency 1 with
    zero counterexamples) on the conditioned records."""
    total = table.total()
    counts = table.cells  # (x, y, a, b, c, d)
    defined = int(counts[:, :, :, :, :2, :2].sum())
    checks = {"aoe_i": AssumptionCheck(
        statistic=defined / total if total else 0.0,
        threshold=1.0,
        passed=decide(total - defined, 0, total > 0),
        detail="fraction of trials with both friend outcomes defined",
    )}
    # (superobserver, defined friend) outcome counts at the Z setting
    for name, pairs in (
        ("aoe_ii", counts[0].sum(axis=(0, 2, 4))[:, :2]),  # (a, c) at x = 1
        ("aoe_iii", counts[:, 0].sum(axis=(0, 1, 3))[:, :2]),  # (b, d) at y = 1
    ):
        n = int(pairs.sum())
        if n == 0:
            checks[name] = _inconclusive("no conditioned records", 1.0)
            continue
        agree = int(np.trace(pairs))
        checks[name] = AssumptionCheck(
            statistic=agree / n,
            threshold=1.0,
            passed=decide(n - agree, 0, n >= MIN_CELL),
            detail="agreement frequency between superobserver and friend",
            cell_sizes={"conditioned": n},
        )
    return checks


def _verdict(
    stat: np.ndarray, threshold: np.ndarray, conclusive: np.ndarray,
    detail: str, cell_sizes: dict[str, int],
) -> AssumptionCheck:
    """A per-cell check through ``decide``; its statistic is the max of
    ``stat`` over the conclusive cells."""
    passed = decide(stat, threshold, conclusive)
    statistic = None if passed is None else float(stat[conclusive].max())
    return AssumptionCheck(statistic, None, passed, detail, cell_sizes)


def _tv_by_settings(cells: np.ndarray, k: float, detail: str) -> AssumptionCheck:
    """Max TV distance between per-(x, y) and pooled outcome distributions,
    from outcome counts per setting pair, shape (2, 2, n_outcomes)."""
    n_xy = cells.sum(axis=2)
    pooled = cells.sum(axis=(0, 1)) / max(int(n_xy.sum()), 1)
    n = np.maximum(n_xy, 1)[:, :, None]  # sub-MIN_CELL cells are masked below
    tv = _tv(cells / n, pooled)
    threshold = k * 0.5 * np.sqrt(pooled * (1 - pooled) / n).sum(axis=2)
    # cell sizes over the rows and the columns that hold trials
    rows, cols = np.flatnonzero(n_xy.sum(axis=1)), np.flatnonzero(n_xy.sum(axis=0))
    cell_sizes = {f"x{x + 1}y{y + 1}": int(n_xy[x, y]) for x in rows for y in cols}
    return _verdict(tv, threshold, n_xy >= MIN_CELL, detail, cell_sizes)


_FRIENDS_UNDEFINED = "friend outcomes undefined on some trials; inconclusive"


def check_nsd(table: CountTable, k: float = 3.0) -> AssumptionCheck:
    """P(C, D | X, Y) = P(C, D): friend outcomes ignore the setting choices."""
    if not table.friends_defined():
        return _inconclusive(_FRIENDS_UNDEFINED)
    # outcome 2 * c + d per (x, y)
    cd = table.cells.sum(axis=(2, 3))[:, :, :2, :2].reshape(2, 2, 4)
    return _tv_by_settings(
        cd, k, "max TV distance of P(C,D | x,y) from pooled P(C,D)",
    )


_WING_CELLS = [  # locality's cells, (wing, c, d, own setting) row-major
    f"{w}:c{c}d{d}s{s}" for w in "AB" for c in (1, -1) for d in (1, -1) for s in (1, 2)
]


def check_locality(table: CountTable, k: float = 3.0) -> AssumptionCheck:
    """Parameter independence: P(A | C, D, X) ignores Y, and symmetrically."""
    if not table.friends_defined():
        return _inconclusive(_FRIENDS_UNDEFINED)
    counts = table.cells[:, :, :, :, :2, :2]  # (x, y, a, b, c, d)
    # (distant setting, wing, c, d, own setting, outcome): the cells of
    # _WING_CELLS, each split by the distant setting
    wings = np.stack([
        counts.sum(axis=3).transpose(1, 3, 4, 0, 2),  # A: own x, distant y
        counts.sum(axis=2).transpose(0, 3, 4, 1, 2),  # B: own y, distant x
    ], axis=1)
    n1, n2 = wings.sum(axis=5)
    plus1, plus2 = wings[..., 0]
    cell_sizes = dict(zip(_WING_CELLS, (n1 + n2).ravel().tolist()))
    conclusive = np.minimum(n1, n2) >= MIN_CELL
    k_cell = _familywise_k(k, int(conclusive.sum()))
    n1, n2 = np.maximum(n1, 1), np.maximum(n2, 1)  # sub-MIN_CELL cells are masked
    tv = np.abs(plus1 / n1 - plus2 / n2)
    pooled = (plus1 + plus2) / (n1 + n2)
    threshold = k_cell * np.sqrt(
        np.maximum(pooled * (1 - pooled), 1e-12) * (1 / n1 + 1 / n2)
    )
    return _verdict(
        tv, threshold, conclusive,
        "max TV shift of a wing's outcome under the distant setting", cell_sizes,
    )


def check_settings_independence(table: CountTable, k: float = 3.0) -> AssumptionCheck:
    """rho(lambda | X, Y) = rho(lambda) over the model-declared binning."""
    if not table.binned:
        return _inconclusive("model declares no hidden-state payload; not applicable")
    lam = table.counts.sum(axis=(2, 3, 4, 5))  # (x, y, lambda-bin)
    # Cut after the last bin that holds a trial: the TV and threshold sums
    # run over this axis, and trailing zero bins can change a float sum's
    # rounding, so the verdict would depend on how many bins are empty.
    used = np.flatnonzero(lam.sum(axis=(0, 1)))
    return _tv_by_settings(
        lam[..., :used[-1] + 1 if used.size else 1], k,
        "max TV distance of binned hidden state per (x,y) from pooled",
    )


def check_all(table: CountTable, k: float = 3.0) -> AssumptionReport:
    return AssumptionReport({
        **check_aoe(table),
        "nsd": check_nsd(table, k),
        "locality": check_locality(table, k),
        "settings_independence": check_settings_independence(table, k),
    })
