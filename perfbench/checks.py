"""Output checks and the ground-truth verdict table of the benchmark.

The analytic correlators are computed here from each campaign's inputs,
independently of the ewfs code paths that produce the sampled ones (the lhv
mixture uses ``lhv_exact_expectations``, which enumerates strategies
directly).
"""

from __future__ import annotations

import math

import numpy as np

from ewfs.models import LhvOptions, lhv_exact_expectations

# |S - S_analytic| <= SE_MULTIPLE * SE + ABS_TOL for the canonical S and for
# S_max.  A two-sided Gaussian tail at 5 sigma is 5.7e-7, and S_max is a max
# over 8 sign variants, so an honest campaign fails under 1e-5 of the time:
# far below once per 1e3 checks, and well below one expected false failure
# over every campaign a set of benchmark runs makes.
SE_MULTIPLE = 5.0
ABS_TOL = 1e-9

OPTIMAL_ALICE = (0.0, math.pi / 2)
OPTIMAL_BOB = (math.pi / 4, 3 * math.pi / 4)

NOT_VIOLATED_MEMBER = (False, True)
VIOLATED_NOT_MEMBER = (True, False)


def singlet_correlators(alice, bob) -> np.ndarray:
    """E(x, y) = -cos(alpha_x - beta_y) of spin measurements on the singlet."""
    return np.array([[-math.cos(a - b) for b in bob] for a in alice])


def lab_pair_correlators() -> np.ndarray:
    """Superobserver Z/X correlators of the entangled lab pair.

    A faithful friend copies the particle's z value into the memory, so the
    lab measurements Z and X act as sigma_z and sigma_x on the particle pair
    (sin pi/8, cos pi/8, -cos pi/8, sin pi/8) / sqrt(2).
    """
    s, c = math.sin(math.pi / 8), math.cos(math.pi / 8)
    psi = np.array([s, c, -c, s]) / math.sqrt(2)
    paulis = (np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
    return np.array(
        [[psi @ np.kron(pa, pb) @ psi for pb in paulis] for pa in paulis]
    )


def collapse_ewfs_correlators() -> np.ndarray:
    """Friends' z records on the collapsed singlet are anticorrelated; the
    X lab measurement sees an independent fair coin."""
    return np.array([[-1.0, 0.0], [0.0, 0.0]])


def canonical_s(e: np.ndarray) -> float:
    return float(e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1])


def max_variant_s(e: np.ndarray) -> float:
    """Max over the 8 CHSH facets: one minus sign anywhere, either overall sign."""
    total = e.sum()
    return float(max(abs(total - 2 * v) for v in e.reshape(-1)))


def analytic_correlators(case) -> np.ndarray:
    if case.model == "unitary-qm":
        return lab_pair_correlators()
    if case.model == "lhv":
        return lhv_exact_expectations((case.options or LhvOptions()).weights)
    if case.model == "collapse" and case.kind == "ewfs":
        return collapse_ewfs_correlators()
    if case.model == "collapse":
        return singlet_correlators(case.alice, case.bob)
    if case.model == "toy-theta" and case.kind == "ewfs":
        return singlet_correlators(case.options.alice_angles, case.options.bob_angles)
    raise ValueError(f"no analytic correlators for {case.model}/{case.kind}")


def ground_truth(case) -> tuple[bool, bool] | None:
    """(violated, member) that an honest campaign must report, or None."""
    if case.model == "lhv" or (case.model, case.kind) == ("collapse", "ewfs"):
        return NOT_VIOLATED_MEMBER
    if (case.model, case.kind) == ("unitary-qm", "ewfs"):
        return VIOLATED_NOT_MEMBER
    if (case.model, case.kind) == ("toy-theta", "ewfs") and (
        np.allclose(case.options.alice_angles, OPTIMAL_ALICE)
        and np.allclose(case.options.bob_angles, OPTIMAL_BOB)
    ):
        return VIOLATED_NOT_MEMBER
    return None


def check_campaign(case, result, out_dir=None) -> list[str]:
    """Problems found in one campaign's outputs; empty when all hold."""
    problems = []
    e = analytic_correlators(case)
    ineq = result.inequality
    for label, observed, expected, se in (
        ("S", ineq.s, canonical_s(e), ineq.se),
        ("S_max", ineq.s_max, max_variant_s(e), ineq.s_max_se),
    ):
        if not abs(observed - expected) <= SE_MULTIPLE * se + ABS_TOL:
            problems.append(
                f"{label}={observed:.6f} vs analytic {expected:.6f} "
                f"beyond {SE_MULTIPLE} SE ({se:.6f})"
            )
    if out_dir is not None:
        with open(out_dir / "runs.csv", "rb") as handle:
            rows = sum(block.count(b"\n") for block in iter(lambda: handle.read(1 << 20), b""))
        if rows != case.trials + 1:
            problems.append(f"runs.csv has {rows} rows, expected {case.trials + 1}")
        if not (out_dir / "report.json").is_file():
            problems.append("report.json missing")
    return problems
