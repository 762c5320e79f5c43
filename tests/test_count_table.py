"""The count table against per-trial reference code.

The ``_ref_*`` functions below scan the per-trial arrays of a run log with
boolean masks, as the assumption checks and the derivation chain did before
they read ``tabulate``'s count table.  The AOE checks must give the same
``to_dict()`` exactly.  The G-test checks build their contingency tables
from the masks, and G and p come from ``scipy.stats``: each verdict, df
and cell size must be the same, and the statistic, threshold and G agree to
1e-9 relative.  The chain, whose standard errors now come from counts, must
agree to 1e-12 relative.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import synthetic_log
from scipy.stats import chi2, chi2_contingency

from ewfs import inequality
from ewfs.assumptions import (
    AssumptionCheck,
    check_aoe,
    check_locality,
    check_nsd,
    check_settings_independence,
)
from ewfs.inequality import MIN_CELL, CountTable, EmptyCell, tabulate, verify_derivation_chain
from ewfs.models import (
    MODEL_COLLAPSE,
    MODEL_LHV,
    MODEL_NAMES,
    MODEL_TOY,
    MODELS,
    LAMBDA_BINS,
    UNDEFINED,
    UnsupportedScenario,
    run_trials,
)
from ewfs.scenario import BRUKNER_EWFS, STANDARD_BELL, default_scenario

PAIRS = [
    (kind, model)
    for kind in (BRUKNER_EWFS, STANDARD_BELL)
    for model in MODEL_NAMES
    if (kind, model) != (STANDARD_BELL, "unitary-qm")
]


# --- per-trial reference ---------------------------------------------------


def _ref_friends_defined(log):
    return bool((log.c != UNDEFINED).all() and (log.d != UNDEFINED).all())


def _ref_aoe(log, min_cell=MIN_CELL):
    checks = {}
    defined = (log.c != UNDEFINED) & (log.d != UNDEFINED)
    frac = float(defined.mean()) if len(log) else 0.0
    checks["aoe_i"] = AssumptionCheck(
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
                None, 1.0, None, detail="no conditioned records",
            )
            continue
        freq = float((super_out[mask] == friend_out[mask]).mean())
        checks[name] = AssumptionCheck(
            statistic=freq,
            threshold=1.0,
            passed=(freq == 1.0) if n >= min_cell else None,
            detail="agreement frequency between superobserver and friend",
            cell_sizes={"conditioned": n},
        )
    return checks


def _ref_g_test(tables, k, min_cell, detail, cell_sizes):
    """The G-test check of the contingency tables ``tables``, one (group,
    outcome) count array per stratum, with G and p from scipy."""
    neg_log_p, stats = [], []
    for table in tables:
        table = table[table.sum(axis=1) >= min_cell]
        if len(table) < 2:
            continue
        table = table[:, table.sum(axis=0) > 0]
        if table.shape[1] < 2:  # one outcome: no dof, and scipy's G is 0
            stats.append((0.0, 0))
            neg_log_p.append(0.0)
            continue
        g, _, dof, _ = chi2_contingency(table, correction=False, lambda_="log-likelihood")
        stats.append((float(g), int(dof)))
        neg_log_p.append(-float(chi2.logsf(g, dof)) / math.log(10))
    if not stats:
        return AssumptionCheck(None, None, None, detail, cell_sizes)
    worst = int(np.argmax(neg_log_p))
    level = 1 - (1 - math.erfc(k / math.sqrt(2))) ** (1 / len(stats))
    threshold = -math.log10(level)
    return AssumptionCheck(
        neg_log_p[worst], threshold, neg_log_p[worst] <= threshold, detail, cell_sizes,
        *stats[worst],
    )


def _masked_counts(outcome, n_outcomes, groups):
    """Outcome counts per group mask, shape (groups, n_outcomes)."""
    return np.array([np.bincount(outcome[mask], minlength=n_outcomes) for mask in groups])


def _setting_pairs(log):
    return [(log.x == xv) & (log.y == yv) for xv in (1, 2) for yv in (1, 2)]


def _ref_nsd(log, k=3.0, min_cell=MIN_CELL):
    if not _ref_friends_defined(log):
        return AssumptionCheck(
            None, None, None,
            detail="friend outcomes undefined on some trials; inconclusive",
        )
    cd = (2 * (log.c == -1) + (log.d == -1)).astype(np.int64)
    return _ref_g_test(
        [_masked_counts(cd, 4, _setting_pairs(log))], k, min_cell,
        "G-test of P(C,D | x,y) across the setting pairs", {},
    )


def _ref_locality(log, k=3.0, min_cell=MIN_CELL):
    if not _ref_friends_defined(log):
        return AssumptionCheck(
            None, None, None,
            detail="friend outcomes undefined on some trials; inconclusive",
        )
    tables, cell_sizes = [], {}
    for wing, outcome, own, distant in (
        ("A", log.a, log.x, log.y),
        ("B", log.b, log.y, log.x),
    ):
        for cv in (1, -1):
            for dv in (1, -1):
                for sv in (1, 2):
                    base = (log.c == cv) & (log.d == dv) & (own == sv)
                    groups = [base & (distant == 1), base & (distant == 2)]
                    cell_sizes[f"{wing}:c{cv}d{dv}s{sv}"] = int(base.sum())
                    tables.append(_masked_counts((outcome == -1).astype(np.int64), 2, groups))
    return _ref_g_test(
        tables, k, min_cell,
        "G-test of P(A | c,d,x) across y and of P(B | c,d,y) across x", cell_sizes,
    )


def _ref_settings_independence(log, k=3.0, min_cell=MIN_CELL):
    binner = MODELS[log.model].binner if log.model in MODELS else None
    if binner is None:
        return AssumptionCheck(
            None, None, None,
            detail="model declares no hidden-state payload; not applicable",
        )
    bins = np.asarray(binner(log), dtype=np.int64)
    return _ref_g_test(
        [_masked_counts(bins, LAMBDA_BINS, _setting_pairs(log))], k, min_cell,
        "G-test of the binned hidden state across the setting pairs", {},
    )


def _ref_chain_values(log):
    """(lhs, rhs, se) per identity, correlator SEs from std(ddof=1)."""
    sides = {"A": log.a, "B": log.b, "C": log.c, "D": log.d}

    def corr(pair, xv, yv):
        mask = (log.x == xv) & (log.y == yv)
        prod = (sides[pair[0]][mask] * sides[pair[1]][mask]).astype(float)
        n = prod.size
        se = float(prod.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        return float(prod.mean()), se

    chain = [
        (("CD", 2, 2), ("CD", 1, 1)),
        (("CD", 1, 1), ("AB", 1, 1)),
        (("CB", 2, 2), ("CB", 1, 2)),
        (("CB", 1, 2), ("AB", 1, 2)),
        (("AD", 2, 2), ("AD", 2, 1)),
        (("AD", 2, 1), ("AB", 2, 1)),
    ]
    values = []
    for lhs_spec, rhs_spec in chain:
        lhs, se_l = corr(*lhs_spec)
        rhs, se_r = corr(*rhs_spec)
        values.append((lhs, rhs, math.sqrt(se_l**2 + se_r**2)))
    return values


# --- comparisons -----------------------------------------------------------


def _assert_checks_match(log, min_cell=MIN_CELL):
    """The table-based checks, run with ``inequality.MIN_CELL`` patched to
    ``min_cell``, against the references at that cell size."""
    table = tabulate(log)
    with mock.patch.object(inequality, "MIN_CELL", min_cell):
        got = {name: c.to_dict() for name, c in check_aoe(table).items()}
        got_cells = [
            check(table, 3.0).to_dict()
            for check in (check_nsd, check_locality, check_settings_independence)
        ]
    assert got == {name: c.to_dict() for name, c in _ref_aoe(log, min_cell).items()}
    for check, ref in zip(got_cells, (_ref_nsd, _ref_locality, _ref_settings_independence)):
        expected = ref(log, 3.0, min_cell).to_dict()
        floats = ("statistic", "threshold", "g")
        assert {key: check[key] for key in check if key not in floats} == {
            key: expected[key] for key in expected if key not in floats
        }
        for key in floats:
            if expected[key] is None:
                assert check[key] is None, key
            else:
                assert math.isclose(check[key], expected[key], rel_tol=1e-9, abs_tol=1e-12), key


@pytest.mark.parametrize("kind,model", PAIRS)
@pytest.mark.parametrize("seed,trials", [(0, 3_000), (5, 3_000), (2, 60_000)])
def test_checks_match_per_trial_reference(kind, model, seed, trials):
    log = run_trials(default_scenario(kind, trials), model, seed=seed)
    _assert_checks_match(log)


def test_unsupported_pair_is_the_only_gap():
    with pytest.raises(UnsupportedScenario):
        run_trials(default_scenario(STANDARD_BELL, 10), "unitary-qm", seed=0)


def _boundary_log(model=MODEL_LHV, extra=0):
    """Friends copy a fair coin; each (c, d, x, y) cell holds about MIN_CELL
    trials, so conditioning cells sit on both sides of the boundary."""
    rng = np.random.default_rng(11)
    n = 16 * MIN_CELL + extra
    x, y = rng.integers(1, 3, n), rng.integers(1, 3, n)
    c = np.where(rng.random(n) < 0.5, 1, -1)
    d = np.where(rng.random(n) < 0.5, 1, -1)
    lam = {"strategy": rng.integers(0, 16, n).astype(np.int16)}
    if model == MODEL_TOY:
        lam = {"theta1": rng.random(n) * math.pi, "theta2": rng.random(n) * math.pi}
    return synthetic_log(x, y, c, d, c, d, model=model, lam=lam)


@pytest.mark.parametrize("model", [MODEL_LHV, MODEL_TOY, "synthetic"])
@pytest.mark.parametrize("extra", [0, 37])
def test_checks_match_at_the_min_cell_boundary(model, extra):
    log = _boundary_log(model, extra)
    table = tabulate(log)
    # every conditioning-cell size: N(x, y, c, d), N(x, y) and the AOE cells
    sizes = set(table.counts.sum(axis=(2, 3, 6)).ravel().tolist())
    sizes |= set(table.n().ravel().tolist())
    sizes |= {c.cell_sizes["conditioned"] for c in list(check_aoe(table).values())[1:]}
    for min_cell in sorted(sizes - {0}):  # MIN_CELL 0 would make empty cells conclusive
        _assert_checks_match(log, min_cell)
        _assert_checks_match(log, min_cell + 1)


@pytest.mark.parametrize("absent", ["x2", "y1", "both"])
def test_checks_match_with_a_setting_value_absent(absent):
    log = _boundary_log(MODEL_LHV)
    keep = {
        "x2": log.x == 1,
        "y1": log.y == 2,
        "both": (log.x == 1) & (log.y == 2),
    }[absent]
    cut = synthetic_log(
        log.x[keep], log.y[keep], log.a[keep], log.b[keep], log.c[keep], log.d[keep],
        model=MODEL_LHV, lam={"strategy": log.lam["strategy"][keep]},
    )
    for min_cell in (1, MIN_CELL):
        _assert_checks_match(cut, min_cell)


def test_checks_match_with_undefined_friends_and_empty_logs():
    log = _boundary_log(MODEL_COLLAPSE)
    c = log.c.copy()
    c[::7] = UNDEFINED
    _assert_checks_match(synthetic_log(log.x, log.y, log.a, log.b, c, log.d, MODEL_COLLAPSE))
    with np.errstate(invalid="ignore"):  # the reference divides by zero trials
        _assert_checks_match(synthetic_log(x=[], y=[], a=[], b=[]))


@pytest.mark.parametrize("model", [MODEL_LHV, MODEL_COLLAPSE, MODEL_TOY])
@pytest.mark.parametrize("seed,trials", [(12, 50_000), (3, 2_000)])
def test_chain_matches_per_trial_reference(model, seed, trials):
    log = run_trials(default_scenario(BRUKNER_EWFS, trials), model, seed=seed)
    report = verify_derivation_chain(log)
    for identity, (lhs, rhs, se) in zip(report.identities, _ref_chain_values(log)):
        assert identity.lhs == lhs and identity.rhs == rhs
        assert math.isclose(identity.se, se, rel_tol=1e-12)


def test_chain_on_constant_products_has_zero_error():
    ones = [1, 1]
    log = synthetic_log(
        x=[1, 1, 2, 2] * 2, y=[1, 2, 1, 2] * 2, a=ones * 4, b=ones * 4,
        c=ones * 4, d=ones * 4,
    )
    report = verify_derivation_chain(log)
    assert all(i.se == 0.0 and i.lhs == i.rhs == 1.0 for i in report.identities)
    with pytest.raises(EmptyCell):
        verify_derivation_chain(synthetic_log(x=[1], y=[1], a=[1], b=[1], c=[1], d=[1]))


@pytest.mark.parametrize("kind,model", PAIRS)
def test_table_of_a_log_is_the_sum_of_its_block_tables(kind, model):
    spec = default_scenario(kind, 7_000)
    whole = tabulate(run_trials(spec, model, seed=4))
    blocks = [
        tabulate(run_trials(spec, model, seed=4, first_trial=lo, n_trials=n))
        for lo, n in ((0, 1_700), (1_700, 3), (1_703, 5_297))
    ]
    assert all(b.counts.shape == whole.counts.shape for b in blocks)
    np.testing.assert_array_equal(sum(b.counts for b in blocks), whole.counts)


def test_table_axes_and_lambda_bins():
    log = synthetic_log(
        x=[1, 2, 2], y=[2, 1, 2], a=[1, -1, -1], b=[-1, 1, -1], c=[0, 1, -1],
        d=[1, 0, -1], model=MODEL_LHV,
        lam={"strategy": np.array([3, 0, 3], dtype=np.int16)},
    )
    table = tabulate(log)
    assert table.binned and table.counts.shape == (2, 2, 2, 2, 3, 3, LAMBDA_BINS)
    assert table.counts[0, 1, 0, 1, 2, 0, 3] == 1
    assert table.counts[1, 0, 1, 0, 0, 2, 0] == 1
    assert table.counts[1, 1, 1, 1, 1, 1, 3] == 1
    assert table.total() == 3 and not table.friends_defined()
    unbinned = tabulate(synthetic_log(x=[1], y=[1], a=[1], b=[1]))
    assert not unbinned.binned and unbinned.counts.shape[-1] == 1
    # the width depends on the model only, never on the trials counted
    spec = default_scenario(BRUKNER_EWFS, 3)
    for model in MODEL_NAMES:
        width = LAMBDA_BINS if MODELS[model].binner else 1
        for n in (0, 3):
            counted = tabulate(run_trials(spec, model, seed=1, n_trials=n))
            assert counted.counts.shape[-1] == width and counted.binned == (width > 1)
    bad = synthetic_log(
        x=[1], y=[1], a=[1], b=[1], model=MODEL_LHV,
        lam={"strategy": np.array([16], dtype=np.int16)},
    )
    with pytest.raises(ValueError, match="lambda bins"):
        tabulate(bad)


@given(
    n_bins=st.integers(1, LAMBDA_BINS),
    seed=st.integers(0, 2**32 - 1),
    friends_defined=st.booleans(),
)
def test_cached_cells_equal_direct_sums(n_bins, seed, friends_defined):
    # Every reader takes the (x, y, a, b, c, d) marginal that the table sums
    # once; each must read what summing the counts directly gives.
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 2**40, size=(2, 2, 2, 2, 3, 3, n_bins))
    counts[rng.random((2, 2)) < 0.2] = 0  # some empty setting pairs
    counts[rng.random(counts.shape) < rng.random()] = 0
    if friends_defined:
        counts[:, :, :, :, 2] = counts[:, :, :, :, :, 2] = 0
    original = counts.copy()
    table = CountTable(counts)
    assert table.binned == (n_bins > 1)
    np.testing.assert_array_equal(table.cells, counts.sum(axis=6))
    assert not table.cells.flags.writeable
    np.testing.assert_array_equal(table.behavior(), counts.sum(axis=(4, 5, 6)))
    pairs = counts.sum(axis=(2, 3, 4, 5, 6))
    if pairs.all():
        np.testing.assert_array_equal(table.n(), pairs)
    else:
        with pytest.raises(EmptyCell):
            table.n()
    assert table.total() == int(counts.sum())
    defined = int(counts[:, :, :, :, :2, :2].sum()) == int(counts.sum())
    assert table.friends_defined() == defined
    assert defined or not friends_defined
    np.testing.assert_array_equal(counts, original)


@given(last=st.integers(1, LAMBDA_BINS - 2), seed=st.integers(0, 2**32 - 1))
def test_settings_independence_ignores_empty_top_lambda_bins(last, seed):
    # A model's table always has LAMBDA_BINS bins; a campaign that leaves
    # the top ones empty (lhv on fewer strategies) must get the verdict of
    # the table that ends at its last used bin, float for float: zero bins
    # in a float sum can change its rounding.
    rng = np.random.default_rng(seed)
    used = rng.integers(0, 1_000, size=(2, 2, 2, 2, 3, 3, last + 1))
    used[..., last] += 1  # bin `last` holds trials
    counts = np.zeros((2, 2, 2, 2, 3, 3, LAMBDA_BINS), dtype=np.int64)
    counts[..., :last + 1] = used
    padded = check_settings_independence(CountTable(counts)).to_dict()
    cut = check_settings_independence(CountTable(used)).to_dict()
    assert padded["statistic"] is not None
    assert padded == cut
