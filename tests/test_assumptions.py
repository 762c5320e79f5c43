import hashlib
import math

import numpy as np
import pytest

from conftest import synthetic_log
from ewfs.assumptions import (
    check_all,
    check_aoe,
    check_locality,
    check_nsd,
    check_settings_independence,
)
from ewfs.harness import CampaignConfig, run_campaign
from ewfs.inequality import CountTable, check_signaling, g_test, tabulate, verify_derivation_chain
from ewfs.models import (
    MODEL_COLLAPSE,
    MODEL_LHV,
    MODEL_TOY,
    MODEL_UNITARY_QM,
    MODELS,
    TOY_OPTIMAL_CHSH,
    LhvOptions,
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
    assert check.df == 9 and check.statistic > 100  # p below 1e-100


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
    # the deciding stratum, one of A's eight of about 2,500 trials, splits
    # its outcome by y without error: G is twice its trials times the
    # entropy of its y split, about ln 2 nats
    assert check.df == 1 and check.statistic > 100
    assert 2 * math.log(2) * 2_000 < check.g < 2 * math.log(2) * 3_000


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
    assert check.df > 0 and check.statistic > 100


# lhv with unequal weights on strategies 0..5 and none on the other ten, so
# lambda bins 6..15 hold no trial.  A float sum over those empty bins can
# round differently, which would change this report's sha256; the G-test
# sums its terms exactly rounded.  A deliberate change to the digest is
# listed in CHANGES.md.
SIX_STRATEGIES = LhvOptions((
    0.051924335292003035, 0.2766340512668952, 0.2335090537445271,
    0.16723225207809017, 0.20370702821251593, 0.06699327940596875,
) + (0.0,) * 10)
SIX_STRATEGIES_REPORT = "cba7f73b02ae3ccc56fc8ee17b41d4f507e2abc4f524c399ac51eba241b31bf2"


def test_settings_independence_sums_only_up_to_the_last_used_lambda_bin(tmp_path):
    run_campaign(CampaignConfig(
        default_scenario(BRUKNER_EWFS, 3_000), MODEL_LHV, seed=0,
        model_options=SIX_STRATEGIES, out_dir=tmp_path, formats=("json",),
    ))
    report = (tmp_path / "report.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == SIX_STRATEGIES_REPORT


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


def _threshold(k, comparisons):
    """-log10 of the per-test level of a G-test check over ``comparisons``
    conclusive strata of 100 trials per group."""
    counts = np.full((comparisons, 2, 2), 50)
    return g_test(counts, k, "", {}).threshold


def test_familywise_threshold_grows_with_comparisons():
    alpha = math.erfc(3.0 / math.sqrt(2.0))  # the two-sided 3-sigma tail
    assert _threshold(3.0, 1) == -math.log10(alpha)
    t16 = _threshold(3.0, 16)
    assert t16 > _threshold(3.0, 1)
    assert _threshold(3.0, 64) > t16
    # Sidak's level: 16 tests at 1 - (1 - alpha)^(1/16) each hold alpha
    assert 1 - (1 - 10**-t16) ** 16 == pytest.approx(alpha, rel=1e-12)


@pytest.mark.parametrize("comparisons", [2, 16, 64])
def test_familywise_threshold_is_finite_and_increasing_in_k(comparisons):
    # 1 - erfc(k / sqrt 2) rounds to 1 from k ~ 8.3 on, and erfc(k / sqrt 2)
    # to 0 from k ~ 38.4; the per-test level must stay positive up to 38.
    ks = [*range(3, 13), 38]
    thresholds = [_threshold(float(k), comparisons) for k in ks]
    assert all(map(math.isfinite, thresholds))
    assert all(t > -math.log10(math.erfc(k / math.sqrt(2))) for t, k in zip(thresholds, ks))
    assert all(lo < hi for lo, hi in zip(thresholds, thresholds[1:]))


def test_groups_under_one_hundred_trials_are_dropped():
    # MIN_CELL is 100: a G-test group of 99 trials is dropped, one of 100
    # counts, whatever the outcomes in it
    for size, conclusive in ((99, False), (100, True)):
        counts = np.zeros((2, 2, 2, 2, 3, 3, 1), dtype=np.int64)
        counts[0, :, 0, 0, 0, 0] = size  # per x = 1, A = +1 on both y
        counts[1, :, 1, 1, 1, 1] = size  # per x = 2, A = -1 on both y
        table = CountTable(counts)
        for check in (check_signaling, check_nsd, check_locality):
            assert (check(table).passed is not None) == conclusive, (size, check)


def test_locality_passes_for_honest_toy_model_across_seeds():
    spec = default_scenario(BRUKNER_EWFS, 50_000)
    for seed in range(4):
        log = run_trials(spec, MODEL_TOY, seed=seed, options=TOY_OPTIMAL_CHSH)
        assert check_locality(tabulate(log)).passed is True


def test_lambda_binners():
    spec = default_scenario(BRUKNER_EWFS, 1_000)
    toy = run_trials(spec, MODEL_TOY, seed=0)
    # every pair of angles exactly at and one ulp below each k pi/4
    edges = np.array([k * math.pi / 4 for k in range(5)])
    edges = np.concatenate([edges, np.nextafter(edges[1:], 0)])
    theta1 = np.concatenate([toy.lam["theta1"], np.repeat(edges, edges.size)])
    theta2 = np.concatenate([toy.lam["theta2"], np.tile(edges, edges.size)])
    ones = np.ones(theta1.size)
    log = synthetic_log(ones, ones, ones, ones, lam={"theta1": theta1, "theta2": theta2})
    bins = toy_theta_bins(log)
    assert bins.dtype == np.int8
    q1, q2 = (np.minimum((t / (math.pi / 4)).astype(np.int64), 3) for t in (theta1, theta2))
    np.testing.assert_array_equal(bins, 4 * q1 + q2)
    assert bins.min() >= 0 and bins.max() <= 15
    lhv = run_trials(spec, MODEL_LHV, seed=0)
    assert lhv_strategy_bins(lhv) is lhv.lam["strategy"]
    assert lhv.lam["strategy"].dtype == np.int16


def test_report_serialization():
    spec = default_scenario(BRUKNER_EWFS, 2_000)
    report = check_all(tabulate(run_trials(spec, MODEL_LHV, seed=0)))
    d = report.to_dict()
    assert set(d) == {
        "aoe_i", "aoe_ii", "aoe_iii", "nsd", "locality", "settings_independence"
    }
    for entry in d.values():
        assert set(entry) == {"statistic", "threshold", "passed", "detail", "cell_sizes", "g", "df"}
        # a conclusive G-test states its G, df, -log10 p and -log10 level
        if entry["passed"] is not None and entry["g"] is not None:
            assert None not in (entry["statistic"], entry["threshold"], entry["df"])


@pytest.mark.parametrize("kind,model", [
    (kind, model)
    for model, entry in MODELS.items() for kind in entry.kinds
])
def test_verdicts_are_python_native_types(kind, model):
    # Dict equality and json.dump(default=np.generic.item) both let a numpy
    # scalar through, so check the types themselves.  Each record's to_dict
    # copies its fields as they are, so the records are built native.
    result = run_campaign(CampaignConfig(default_scenario(kind, 3_000), model))
    for check in [*result.assumptions.checks.values(), result.inequality.signaling]:
        for value in (check.statistic, check.threshold, check.g):
            assert type(value) in (float, type(None))
        assert type(check.df) in (int, type(None))
        assert type(check.passed) in (bool, type(None))
        assert all(type(n) is int for n in check.cell_sizes.values())
    assert type(result.inequality.polytope.member) is bool
    trees = [result.report]
    if tabulate(result.log).friends_defined():
        trees.append(verify_derivation_chain(result.log).to_dict())
    for tree in trees:
        for path, leaf in _leaves(tree):
            assert type(leaf) in (type(None), bool, int, float, str), (path, type(leaf))


def _leaves(tree, path=()):
    """(path, value) of every leaf under JSON dicts and lists."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from _leaves(value, (*path, key))
    elif isinstance(tree, list):
        for i, value in enumerate(tree):
            yield from _leaves(value, (*path, i))
    else:
        yield path, tree
