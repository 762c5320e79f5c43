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

NSD, L and settings independence each ask whether a distribution depends
on a setting: each is one ``inequality.g_test``, G-tests of homogeneity at
the familywise level erfc(k / sqrt 2) under uniform i.i.d. settings, which
drops groups under ``inequality.MIN_CELL`` trials.  Every verdict is
``inequality.decide``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import inequality
from .inequality import AssumptionCheck, CountTable, decide, g_test

__all__ = [
    "AssumptionCheck",
    "AssumptionReport",
    "check_aoe",
    "check_nsd",
    "check_locality",
    "check_settings_independence",
    "check_all",
]


@dataclass
class AssumptionReport:
    checks: dict[str, AssumptionCheck]

    def passed(self, name: str) -> bool | None:
        return self.checks[name].passed

    def to_dict(self) -> dict:
        return {name: check.to_dict() for name, check in self.checks.items()}


def check_aoe(table: CountTable) -> dict[str, AssumptionCheck]:
    """AOE items i-iii.  Agreement for ii/iii must be exact (frequency 1 with
    zero counterexamples) on the conditioned records."""
    total = table.total()
    counts = table.cells  # (x, y, a, b, c, d)
    defined = int(counts[:, :, :, :, :2, :2].sum())
    checks = {"aoe_i": AssumptionCheck(
        defined / total if total else 0.0, 1.0, decide(total - defined, 0, total > 0),
        "fraction of trials with both friend outcomes defined",
    )}
    # (superobserver, defined friend) outcome counts at the Z setting
    for name, pairs in (
        ("aoe_ii", counts[0].sum(axis=(0, 2, 4))[:, :2]),  # (a, c) at x = 1
        ("aoe_iii", counts[:, 0].sum(axis=(0, 1, 3))[:, :2]),  # (b, d) at y = 1
    ):
        n, agree = int(pairs.sum()), int(np.trace(pairs))
        if n == 0:
            checks[name] = AssumptionCheck(None, 1.0, None, "no conditioned records")
            continue
        checks[name] = AssumptionCheck(
            agree / n, 1.0, decide(n - agree, 0, n >= inequality.MIN_CELL),
            "agreement frequency between superobserver and friend", {"conditioned": n},
        )
    return checks


def _inconclusive(detail: str) -> AssumptionCheck:
    return AssumptionCheck(None, None, None, detail)


_FRIENDS_UNDEFINED = "friend outcomes undefined on some trials; inconclusive"


def check_nsd(table: CountTable, k: float = 3.0) -> AssumptionCheck:
    """P(C, D | X, Y) = P(C, D): friend outcomes ignore the setting choices.
    Its groups are the setting pairs, whose sizes are the report's
    ``expectations``."""
    if not table.friends_defined():
        return _inconclusive(_FRIENDS_UNDEFINED)
    cd = table.cells.sum(axis=(2, 3))[:, :, :2, :2]  # (x, y, c, d)
    return g_test(cd.reshape(1, 4, 4), k, "G-test of P(C,D | x,y) across the setting pairs", {})


_WING_CELLS = [  # locality's strata, (wing, c, d, own setting) row-major
    f"{w}:c{c}d{d}s{s}" for w in "AB" for c in (1, -1) for d in (1, -1) for s in (1, 2)
]


def check_locality(table: CountTable, k: float = 3.0) -> AssumptionCheck:
    """Parameter independence: P(A | C, D, X) ignores Y, and symmetrically."""
    if not table.friends_defined():
        return _inconclusive(_FRIENDS_UNDEFINED)
    counts = table.cells[:, :, :, :, :2, :2]  # (x, y, a, b, c, d)
    # the strata of _WING_CELLS, each a (distant setting, outcome) table
    strata = np.stack([
        counts.sum(axis=3).transpose(3, 4, 0, 1, 2),  # A: (c, d, x, y, a)
        counts.sum(axis=2).transpose(3, 4, 1, 0, 2),  # B: (c, d, y, x, b)
    ]).reshape(16, 2, 2)
    cell_sizes = dict(zip(_WING_CELLS, strata.sum(axis=(1, 2)).tolist()))
    detail = "G-test of P(A | c,d,x) across y and of P(B | c,d,y) across x"
    return g_test(strata, k, detail, cell_sizes)


def check_settings_independence(table: CountTable, k: float = 3.0) -> AssumptionCheck:
    """rho(lambda | X, Y) = rho(lambda) over the model-declared binning, with
    the setting pairs as groups."""
    if not table.binned:
        return _inconclusive("model declares no hidden-state payload; not applicable")
    lam = table.counts.sum(axis=(2, 3, 4, 5)).reshape(1, 4, -1)  # (x, y) groups, lambda-bin
    return g_test(lam, k, "G-test of the binned hidden state across the setting pairs", {})


def check_all(table: CountTable, k: float = 3.0) -> AssumptionReport:
    return AssumptionReport({
        **check_aoe(table),
        "nsd": check_nsd(table, k),
        "locality": check_locality(table, k),
        "settings_independence": check_settings_independence(table, k),
    })
