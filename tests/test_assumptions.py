import math

import numpy as np
import pytest

from conftest import synthetic_log
from ewfs.assumptions import (
    MIN_CELL,
    _familywise_k,
    check_all,
    check_aoe,
    check_locality,
    check_nsd,
    check_settings_independence,
)
from ewfs.harness import CampaignConfig, run_campaign
from ewfs.inequality import tabulate
from ewfs.models import (
    MODEL_COLLAPSE,
    MODEL_LHV,
    MODEL_TOY,
    MODEL_UNITARY_QM,
    MODELS,
    TOY_OPTIMAL_CHSH,
    lhv_strategy_bins,
    run_trials,
    toy_theta_bins,
)
from ewfs.scenario import BRUKNER_EWFS, STANDARD_BELL, default_scenario


def _uniform_settings(rng, n):
    return rng.integers(1, 3, size=n), rng.integers(1, 3, size=n)


# --- honest models pass ----------------------------------------------------


def test_collapse_model_passes_every_check():
    spec = default_scenario(BRUKNER_EWFS, 100_000)
    report = check_all(tabulate(run_trials(spec, MODEL_COLLAPSE, seed=0)))
    five = ("aoe_i", "aoe_ii", "aoe_iii", "nsd", "locality")
    assert all(report.passed(n) is True for n in five)
    # no hidden-state payload declared
    assert report.passed("settings_independence") is None


def test_lhv_model_passes_every_check():
    spec = default_scenario(BRUKNER_EWFS, 100_000)
    report = check_all(tabulate(run_trials(spec, MODEL_LHV, seed=0)))
    six = ("aoe_i", "aoe_ii", "aoe_iii", "nsd", "locality", "settings_independence")
    assert all(report.passed(n) is True for n in six)


def test_toy_model_breaks_exactly_the_aoe_substitution():
    spec = default_scenario(BRUKNER_EWFS, 100_000)
    report = check_all(
        tabulate(run_trials(spec, MODEL_TOY, seed=0, options=TOY_OPTIMAL_CHSH))
    )
    assert report.passed("aoe_i") is True
    assert report.passed("aoe_ii") is False
    assert report.passed("aoe_iii") is False
    assert report.checks["aoe_ii"].statistic < 0.95
    rest = ("nsd", "locality", "settings_independence")
    assert all(report.passed(n) is True for n in rest)


def test_unitary_model_leaves_friend_checks_inconclusive():
    spec = default_scenario(BRUKNER_EWFS, 20_000)
    report = check_all(tabulate(run_trials(spec, MODEL_UNITARY_QM, seed=0)))
    assert report.passed("aoe_i") is False  # no outcome on unopened branches
    assert report.passed("nsd") is None
    assert report.passed("locality") is None


# --- targeted synthetic failures -------------------------------------------


def test_aoe_fails_on_a_single_disagreement():
    n = 1_000
    rng = np.random.default_rng(0)
    x, y = _uniform_settings(rng, n)
    c = np.where(rng.random(n) < 0.5, 1, -1)
    a = np.where(x == 1, c, 1)
    a[np.flatnonzero(x == 1)[0]] *= -1  # one broken record
    log = synthetic_log(x, y, a, np.ones(n), c, np.ones(n))
    checks = check_aoe(tabulate(log))
    assert checks["aoe_ii"].passed is False
    assert checks["aoe_ii"].statistic < 1.0
    assert checks["aoe_iii"].passed is True


def test_nsd_fails_when_friend_reads_the_setting():
    n = 20_000
    rng = np.random.default_rng(1)
    x, y = _uniform_settings(rng, n)
    c = np.where(x == 1, 1, -1)  # superdeterministic friend
    d = np.where(rng.random(n) < 0.5, 1, -1)
    log = synthetic_log(x, y, c, d, c, d)
    check = check_nsd(tabulate(log))
    assert check.passed is False
    assert check.statistic > 0.4


def test_locality_fails_when_wing_reads_distant_setting():
    n = 20_000
    rng = np.random.default_rng(2)
    x, y = _uniform_settings(rng, n)
    c = np.where(rng.random(n) < 0.5, 1, -1)
    d = np.where(rng.random(n) < 0.5, 1, -1)
    a = np.where(y == 1, 1, -1)  # Alice's outcome is the distant setting
    log = synthetic_log(x, y, a, d, c, d)
    check = check_locality(tabulate(log))
    assert check.passed is False
    assert check.statistic == pytest.approx(1.0)


def test_settings_independence_fails_for_correlated_hidden_state():
    n = 20_000
    rng = np.random.default_rng(3)
    x, y = _uniform_settings(rng, n)
    theta1 = np.where(x == 1, 0.1, 2.5)  # hidden angle leaks the setting
    theta2 = rng.random(n) * math.pi
    log = synthetic_log(
        x, y, np.ones(n), np.ones(n), np.ones(n), np.ones(n),
        model=MODEL_TOY,
        lam={"theta1": theta1, "theta2": theta2},
    )
    check = check_settings_independence(tabulate(log))
    assert check.passed is False
    assert check.statistic > 0.4


# --- inconclusive handling and helpers -------------------------------------


def test_small_cells_are_inconclusive():
    n = 40  # below MIN_CELL in every conditioning cell
    rng = np.random.default_rng(4)
    x, y = _uniform_settings(rng, n)
    c = np.where(rng.random(n) < 0.5, 1, -1)
    log = synthetic_log(x, y, c, c, c, c)
    assert check_nsd(tabulate(log)).passed is None
    assert check_locality(tabulate(log)).passed is None


def test_nsd_inconclusive_without_friend_outcomes():
    spec = default_scenario(STANDARD_BELL, 5_000)
    log = run_trials(spec, MODEL_COLLAPSE, seed=0)
    assert check_nsd(tabulate(log)).passed is None
    assert check_locality(tabulate(log)).passed is None


def test_familywise_threshold_grows_with_comparisons():
    assert _familywise_k(3.0, 1) == 3.0
    k16 = _familywise_k(3.0, 16)
    assert k16 > 3.0
    assert _familywise_k(3.0, 64) > k16
    # still a sane z value
    assert k16 < 5.0


@pytest.mark.parametrize("comparisons", [2, 16, 64])
def test_familywise_threshold_is_finite_and_increasing_in_k(comparisons):
    # 1 - erfc(k / sqrt 2) rounds to 1 from k ~ 8.3 on; the per-cell level
    # must stay positive there.
    thresholds = [_familywise_k(float(k), comparisons) for k in range(3, 13)]
    assert all(map(math.isfinite, thresholds))
    assert all(t > k for t, k in zip(thresholds, range(3, 13)))
    assert all(lo < hi for lo, hi in zip(thresholds, thresholds[1:]))


def test_locality_passes_for_honest_toy_model_across_seeds():
    spec = default_scenario(BRUKNER_EWFS, 50_000)
    for seed in range(4):
        log = run_trials(spec, MODEL_TOY, seed=seed, options=TOY_OPTIMAL_CHSH)
        assert check_locality(tabulate(log)).passed is True


def test_lambda_binners():
    spec = default_scenario(BRUKNER_EWFS, 1_000)
    toy = run_trials(spec, MODEL_TOY, seed=0)
    bins = toy_theta_bins(toy)
    assert bins.min() >= 0 and bins.max() <= 15
    lhv = run_trials(spec, MODEL_LHV, seed=0)
    np.testing.assert_array_equal(lhv_strategy_bins(lhv), lhv.lam["strategy"])


def test_report_serialization():
    spec = default_scenario(BRUKNER_EWFS, 2_000)
    report = check_all(tabulate(run_trials(spec, MODEL_LHV, seed=0)))
    d = report.to_dict()
    assert set(d) == {
        "aoe_i", "aoe_ii", "aoe_iii", "nsd", "locality", "settings_independence"
    }
    for entry in d.values():
        assert {"statistic", "threshold", "passed", "detail", "cell_sizes"} <= set(entry)


@pytest.mark.parametrize("kind,model", [
    (kind, model)
    for model, entry in MODELS.items() for kind in entry.kinds
])
def test_verdicts_are_python_native_types(kind, model):
    # Dict equality and json.dump(default=np.generic.item) both let a numpy
    # scalar through, so check the types themselves.
    result = run_campaign(CampaignConfig(default_scenario(kind, 3_000), model))
    for check in result.assumptions.checks.values():
        assert type(check.statistic) in (float, type(None))
        assert type(check.passed) in (bool, type(None))
        assert all(type(n) is int for n in check.cell_sizes.values())
    assert type(result.inequality.polytope.member) is bool
