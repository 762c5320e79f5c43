import csv
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import analytic_expectations, singlet, spin_projectors
from ewfs import inequality, models, qcore
from ewfs.harness import CampaignConfig, run_campaign
from ewfs.models import (
    MODEL_COLLAPSE,
    MODEL_LHV,
    MODEL_NAMES,
    MODEL_TOY,
    MODEL_UNITARY_QM,
    MODELS,
    TOY_OPTIMAL_CHSH,
    LhvOptions,
    RunLog,
    ToyOptions,
    UNDEFINED,
    UnsupportedScenario,
    _LAB_PAIR_TABLES,
    _sample_lhv,
    ewfs_outcome_tables,
    lhv_exact_expectations,
    lhv_strategies,
    run_trials,
    singlet_joint_probs,
)
from ewfs.scenario import BRUKNER_EWFS, STANDARD_BELL, ScenarioSpec, default_scenario
from ewfs.streams import uniform_block

NON_FINITE = (math.nan, math.inf, -math.inf)

angles = st.floats(-math.pi, math.pi, allow_nan=False)


# --- strategy tables -------------------------------------------------------


def test_strategies_enumerate_all_sign_patterns():
    strat = lhv_strategies()
    assert strat.shape == (16, 4)
    assert set(np.unique(strat)) == {-1, 1}
    assert len({tuple(row) for row in strat}) == 16


def test_uniform_mixture_has_zero_correlators():
    np.testing.assert_allclose(
        lhv_exact_expectations((1 / 16,) * 16), np.zeros((2, 2)), atol=1e-15
    )


def test_point_mass_reproduces_its_strategy():
    strat = lhv_strategies()
    weights = np.zeros(16)
    weights[5] = 1.0
    e = lhv_exact_expectations(weights)
    a1, a2, b1, b2 = strat[5]
    np.testing.assert_allclose(
        e, [[a1 * b1, a1 * b2], [a2 * b1, a2 * b2]], atol=1e-15
    )


def test_lhv_options_validation():
    with pytest.raises(ValueError):
        LhvOptions(weights=(0.5, 0.5))
    with pytest.raises(ValueError):
        LhvOptions(weights=(-0.1,) + (1.1 / 15,) * 15)
    bad = [1.0 / 16] * 16
    bad[0] += 1e-3
    with pytest.raises(ValueError):
        LhvOptions(weights=tuple(bad))


@pytest.mark.parametrize("bad", NON_FINITE)
def test_lhv_weights_must_be_finite(bad):
    with pytest.raises(ValueError):
        LhvOptions(weights=(bad,) * 16)
    with pytest.raises(ValueError):
        LhvOptions(weights=(bad,) + (1.0 / 15,) * 15)


@pytest.mark.parametrize(
    "weights",
    [
        (True,) + (False,) * 15,
        (np.True_,) + (0.0,) * 15,
        ("0.0625",) * 16,
        "1" + "0" * 15,  # would run as 16 one-digit weights
    ],
)
def test_lhv_weights_must_be_numbers(weights):
    # each of these sums to 1 once converted, so it used to run
    with pytest.raises(ValueError, match="finite numbers"):
        LhvOptions(weights=weights)


def test_lhv_weights_take_numpy_numbers():
    assert LhvOptions(weights=np.full(16, 1 / 16)).weights == (1 / 16,) * 16
    assert LhvOptions(weights=np.eye(16, dtype=np.int64)[3]).weights[3] == 1.0


@pytest.mark.parametrize("bad", NON_FINITE + (True, False, "0.5", None))
def test_toy_angles_must_be_finite(bad):
    for kwargs in (
        {"alice_angles": (0.0, bad)},
        {"bob_angles": (bad, 1.0)},
        {"theta_after_plus": bad},
        {"theta_after_minus": bad},
    ):
        with pytest.raises(ValueError):
            ToyOptions(**kwargs)


def test_toy_takes_two_angles_per_party():
    with pytest.raises(ValueError):
        ToyOptions(alice_angles=(0.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        ToyOptions(bob_angles=(0.0,))


# --- probability tables ----------------------------------------------------


def _qcore_singlet(angle_a, angle_b) -> np.ndarray:
    """The singlet (A, B) table through qcore projectors: the reference for
    the closed form."""
    pa, pb = spin_projectors(angle_a), spin_projectors(angle_b)
    joint = [qcore.Projector(np.kron(p.matrix, q.matrix)) for p in pa for q in pb]
    return qcore.born_probabilities(singlet(), joint).reshape(2, 2)


def _qcore_collapse(angle_a, angle_b) -> tuple[float, float, float]:
    """P(A=+), P(B=+ | A=+) and P(B=+ | A=-) of the collapse model's Bell
    test, by projecting the singlet onto Alice's branches through qcore."""
    psi, eye = singlet(), np.eye(2)
    proj_a = [qcore.Projector(np.kron(p.matrix, eye)) for p in spin_projectors(angle_a)]
    proj_b = [qcore.Projector(np.kron(eye, p.matrix)) for p in spin_projectors(angle_b)]
    collapsed = [p.matrix @ psi.amplitudes for p in proj_a]
    branches = [qcore.StateVector(v / np.linalg.norm(v), psi.dims) for v in collapsed]
    p_a_plus = qcore.born_probabilities(psi, proj_a)[0]
    return (p_a_plus, *(qcore.born_probabilities(br, proj_b)[0] for br in branches))


@given(a=angles, b=angles)
def test_singlet_table_closed_form(a, b):
    assert np.abs(singlet_joint_probs(a, b) - _qcore_singlet(a, b)).max() <= 1e-15


def test_closed_forms_match_qcore_on_an_angle_grid():
    grid = np.linspace(-2 * math.pi, 2 * math.pi, 33)
    for a in grid:
        for b in grid:
            assert np.abs(singlet_joint_probs(a, b) - _qcore_singlet(a, b)).max() <= 1e-15
            cos = math.cos(a - b)  # the collapse model's Bell-test probabilities
            closed = (0.5, (1 - cos) / 2, (1 + cos) / 2)
            assert np.abs(np.subtract(closed, _qcore_collapse(a, b))).max() <= 1e-15


@pytest.mark.parametrize(
    "alice,bob",
    [((0.0, math.pi / 2), (math.pi / 4, 3 * math.pi / 4)), ((-2.5, 0.3), (-math.pi, 1.7))],
)
def test_collapse_bell_rows_follow_the_qcore_tables(alice, bob):
    spec = ScenarioSpec(STANDARD_BELL, alice, bob, 20_000)
    log = run_trials(spec, MODEL_COLLAPSE, seed=3)
    u = uniform_block(3, "model:collapse", 20_000, MODELS[MODEL_COLLAPSE].draws)
    probs = np.array([[_qcore_collapse(a, b) for b in bob] for a in alice])
    p_a_plus, p_up, p_dn = probs[log.x - 1, log.y - 1].T
    a_plus = u[:, 0] < p_a_plus
    np.testing.assert_array_equal(log.a, np.where(a_plus, 1, -1))
    np.testing.assert_array_equal(log.b, np.where(u[:, 1] < np.where(a_plus, p_up, p_dn), 1, -1))


def test_ewfs_tables_are_distributions():
    from ewfs.qcore import brukner_state

    spec = default_scenario(BRUKNER_EWFS, 10)
    tables = ewfs_outcome_tables(spec)
    exact = analytic_expectations(brukner_state(), spec)
    assert set(tables) == {(1, 1), (1, 2), (2, 1), (2, 2)}
    for (x, y), table in tables.items():
        assert table.shape == (2, 2)
        assert table.min() >= 0
        assert abs(table.sum() - 1.0) < 1e-12
        correlator = table[0, 0] - table[0, 1] - table[1, 0] + table[1, 1]
        assert abs(correlator - exact[x - 1, y - 1]) <= 1e-15


def test_lab_pair_tables_are_pinned_bitwise():
    # qcore is the reference derivation of the constants unitary-qm samples;
    # the golden digests no longer see it, so a change to either fails here.
    lab_state = qcore.lab_pair_state(qcore.brukner_state())
    for i, kind_a in enumerate("ZX"):
        for j, kind_b in enumerate("ZX"):
            derived = qcore.lab_joint_probabilities(lab_state, kind_a, kind_b)
            pinned = _LAB_PAIR_TABLES[i, j]
            assert [p.hex() for p in derived.ravel().tolist()] == [
                p.hex() for p in pinned.ravel().tolist()
            ], (kind_a, kind_b)


def test_lab_joint_probabilities_rejects_weight_outside_pointer_subspace():
    amps = np.zeros(16)
    amps[0] = math.sqrt(1 - 1e-6)  # both labs at |Z+>
    amps[4] = 1e-3  # lab 1 at |+z, m->, which no friend measurement produces
    leaky = qcore.StateVector(amps, (2, 2, 2, 2))
    for kind_a in ("Z", "X"):
        for kind_b in ("Z", "X"):
            with pytest.raises(qcore.ContractViolation, match="pointer subspace"):
                qcore.lab_joint_probabilities(leaky, kind_a, kind_b)


def test_ewfs_tables_are_read_only():
    for table in ewfs_outcome_tables(default_scenario(BRUKNER_EWFS, 10)).values():
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.5


# --- block invariance -----------------------------------------------------


def _columns(log):
    """Every per-trial column of a log: x..d, then the lambda payload."""
    return [getattr(log, n) for n in "xyabcd"] + [log.lam[k] for k in sorted(log.lam)]


@pytest.mark.parametrize("model", MODEL_NAMES)
@pytest.mark.parametrize("kind", (STANDARD_BELL, BRUKNER_EWFS))
def test_single_trial_reproduces_batch_records(model, kind):
    """A one-trial block at offset i equals row i of the full log."""
    if model == MODEL_UNITARY_QM and kind == STANDARD_BELL:
        pytest.skip("unsupported combination")
    spec = default_scenario(kind, 40)
    log = run_trials(spec, model, seed=8)
    for i in (0, 1, 17, 39):
        one = run_trials(spec, model, seed=8, first_trial=i, n_trials=1)
        assert one.first_trial == i and len(one) == 1
        assert sorted(one.lam) == sorted(log.lam)
        for single, full in zip(_columns(one), _columns(log)):
            np.testing.assert_array_equal(single, full[i : i + 1])


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_parallel_equals_sequential(model):
    """Independent 1,700-trial blocks, as a parallel runner would compute
    them, equal one sequential block."""
    spec = default_scenario(BRUKNER_EWFS, 10_000)
    whole = run_trials(spec, model, seed=1)
    blocks = [
        run_trials(spec, model, seed=1, first_trial=lo, n_trials=min(1_700, 10_000 - lo))
        for lo in range(0, 10_000, 1_700)
    ]
    for column, parts in zip(_columns(whole), zip(*map(_columns, blocks))):
        np.testing.assert_array_equal(column, np.concatenate(parts))


# --- reference samplers ----------------------------------------------------
# The masked, one-pass-per-setting-pair samplers that the pair-indexed ones
# replaced, kept as the bitwise reference: same draws, same comparisons.


def _ref_settings(spec, seed, n, first):
    u = uniform_block(seed, "settings", n, 1, first)[:, 0]
    pair = np.minimum((u * 4).astype(np.int64), 3)
    return (pair // 2 + 1).astype(np.int8), (pair % 2 + 1).astype(np.int8)


def _ref_discrete(cum, u):
    return np.minimum(np.searchsorted(cum, u, side="right"), cum.size - 1)


def _ref_joint_outcomes(tables, xs, ys, u):
    a = np.empty(xs.size, dtype=np.int8)
    b = np.empty(xs.size, dtype=np.int8)
    for (x, y), table in tables.items():
        mask = (xs == x) & (ys == y)
        idx = _ref_discrete(np.cumsum(table.reshape(-1)), u[mask])
        a[mask] = np.where(idx // 2 == 0, 1, -1)
        b[mask] = np.where(idx % 2 == 0, 1, -1)
    return a, b


def _ref_unitary_qm(spec, xs, ys, u, options):
    a, b = _ref_joint_outcomes(ewfs_outcome_tables(spec), xs, ys, u[:, 0])
    c = np.where(xs == 1, a, UNDEFINED).astype(np.int8)
    d = np.where(ys == 1, b, UNDEFINED).astype(np.int8)
    return a, b, c, d, {}


def _ref_collapse(spec, xs, ys, u, options):
    if spec.kind == BRUKNER_EWFS:
        c = np.where(u[:, 0] < 0.5, 1, -1).astype(np.int8)
        d = (-c).astype(np.int8)
        coin_a = np.where(u[:, 1] < 0.5, 1, -1).astype(np.int8)
        coin_b = np.where(u[:, 2] < 0.5, 1, -1).astype(np.int8)
        a = np.where(xs == 1, c, coin_a).astype(np.int8)
        b = np.where(ys == 1, d, coin_b).astype(np.int8)
        return a, b, c, d, {}
    a = np.empty(xs.size, dtype=np.int8)
    b = np.empty(xs.size, dtype=np.int8)
    for x, angle_a in enumerate(spec.alice_settings, start=1):
        for y, angle_b in enumerate(spec.bob_settings, start=1):
            mask = (xs == x) & (ys == y)
            cos = math.cos(angle_a - angle_b)
            a_plus = u[mask, 0] < 0.5
            p_b_plus = np.where(a_plus, (1 - cos) / 2, (1 + cos) / 2)
            a[mask] = np.where(a_plus, 1, -1)
            b[mask] = np.where(u[mask, 1] < p_b_plus, 1, -1)
    return a, b, None, None, {}


def _ref_toy(spec, xs, ys, u, opts):
    theta1 = u[:, 0] * math.pi
    theta2 = u[:, 1] * math.pi
    out1 = np.where(u[:, 2] < np.cos(theta1) ** 2, 1, -1).astype(np.int8)
    out2 = np.where(u[:, 3] < np.cos(theta2) ** 2, 1, -1).astype(np.int8)
    post1 = np.where(out1 == 1, opts.theta_after_plus, opts.theta_after_minus)
    post2 = np.where(out2 == 1, opts.theta_after_plus, opts.theta_after_minus)
    lam = {"theta1": theta1, "theta2": theta2, "theta1_post": post1, "theta2_post": post2}
    if spec.kind == BRUKNER_EWFS:
        tables = {
            (x, y): singlet_joint_probs(opts.alice_angles[x - 1], opts.bob_angles[y - 1])
            for x in (1, 2)
            for y in (1, 2)
        }
        a, b = _ref_joint_outcomes(tables, xs, ys, u[:, 4])
        return a, b, out1, out2, lam
    return out1, out2, None, None, lam


def _ref_lhv(spec, xs, ys, u, opts):
    strat = lhv_strategies()
    idx = _ref_discrete(np.cumsum(np.asarray(opts.weights)), u[:, 0])
    a = strat[idx, xs - 1]
    b = strat[idx, 2 + (ys - 1)]
    lam = {"strategy": idx.astype(np.int16)}
    if spec.kind == BRUKNER_EWFS:
        return a, b, strat[idx, 0], strat[idx, 2], lam
    return a, b, None, None, lam


_REFERENCE = {
    MODEL_UNITARY_QM: _ref_unitary_qm,
    MODEL_COLLAPSE: _ref_collapse,
    MODEL_TOY: _ref_toy,
    MODEL_LHV: _ref_lhv,
}


def _reference_log(spec, model, seed, options, first, n):
    xs, ys = _ref_settings(spec, seed, n, first)
    u = uniform_block(seed, f"model:{model}", n, MODELS[model].draws, first)
    if options is None and MODELS[model].options is not None:
        options = MODELS[model].options()
    a, b, c, d, lam = _REFERENCE[model](spec, xs, ys, u, options)
    if c is None:
        c, d = (np.full(n, UNDEFINED, dtype=np.int8) for _ in "cd")
    return RunLog(spec.kind, model, xs, ys, a, b, c, d, lam, first)


def _bell(phi, trials):
    return ScenarioSpec(STANDARD_BELL, (0.0, math.pi / 2), (phi, phi + math.pi / 2), trials)


_REF_TRIALS = 200_000
_REF_CASES = [
    (default_scenario(BRUKNER_EWFS, _REF_TRIALS), MODEL_UNITARY_QM, None),
    (default_scenario(BRUKNER_EWFS, _REF_TRIALS), MODEL_COLLAPSE, None),
    *((_bell(phi, _REF_TRIALS), MODEL_COLLAPSE, None) for phi in (0.0, 1.0, -2.5)),
    *(
        (default_scenario(kind, _REF_TRIALS), model, options)
        for kind in (STANDARD_BELL, BRUKNER_EWFS)
        for model, options in [
            (MODEL_TOY, None),
            (MODEL_TOY, TOY_OPTIMAL_CHSH),
            (MODEL_TOY, ToyOptions((-0.3, 2.0), (-1.0, -2.5), -0.0, -1.2)),
            (MODEL_LHV, None),
            (MODEL_LHV, LhvOptions(tuple((i + 1) / 136 for i in range(16)))),
            (MODEL_LHV, LhvOptions((0.3,) + (0.0,) * 14 + (0.7,))),
        ]
    ),
]


@pytest.mark.parametrize("first_trial", (0, 7_777))
@pytest.mark.parametrize(
    "spec,model,options",
    _REF_CASES,
    ids=[f"{spec.kind}-{model}-{i}" for i, (spec, model, _) in enumerate(_REF_CASES)],
)
def test_samplers_match_the_masked_reference_bitwise(spec, model, options, first_trial):
    n = spec.trials - first_trial
    got = run_trials(spec, model, seed=21, options=options, first_trial=first_trial)
    want = _reference_log(spec, model, 21, options, first_trial, n)
    assert sorted(got.lam) == sorted(want.lam)
    for name, g, w in zip("xyabcd" + "".join(sorted(got.lam)), _columns(got), _columns(want)):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name


@pytest.mark.parametrize("model", MODEL_NAMES)
@pytest.mark.parametrize("kind", (STANDARD_BELL, BRUKNER_EWFS))
def test_run_trials_column_dtypes(model, kind):
    if kind not in MODELS[model].kinds:
        pytest.skip("unsupported combination")
    log = run_trials(default_scenario(kind, 50), model, seed=0)
    assert [getattr(log, name).dtype for name in "xyabcd"] == [np.int8] * 6
    want = {MODEL_TOY: np.float64, MODEL_LHV: np.int16}.get(model)
    assert {key: col.dtype for key, col in log.lam.items()} == {
        key: want for key in log.lam
    }
    assert len(log.lam) == {MODEL_TOY: 4, MODEL_LHV: 1}.get(model, 0)


def test_lhv_never_draws_a_zero_weight_strategy():
    """The cumsum of ten weights 0.1 ends at 1 - 2**-53; a u at or past that
    total goes to the last nonzero weight, not to a trailing zero weight."""
    weights = (0.1,) * 10 + (0.0,) * 6
    total = float(np.cumsum(weights)[-1])
    assert total == 1 - 2**-53
    u = np.array([0.0, 0.95, np.nextafter(total, 0), total])
    spec = default_scenario(BRUKNER_EWFS, u.size)
    xs = ys = np.ones(u.size, dtype=np.int8)
    *_, lam = _sample_lhv(spec, xs, ys, u[:, None], LhvOptions(weights))
    np.testing.assert_array_equal(lam["strategy"], [0, 9, 9, 9])


@pytest.mark.parametrize(
    "weights",
    [
        (1.0 / 16,) * 16,
        tuple((i + 1) / 136 for i in range(16)),
        (0.1,) * 10 + (0.0,) * 6,
        (0.5,) + (0.0,) * 14 + (0.5,),
    ],
    ids=["uniform", "skewed", "zero-tail", "two-point"],
)
def test_strategy_search_matches_searchsorted_bitwise(weights):
    """The gather search against searchsorted(side="right") and the
    last-nonzero clip, with u on, just below and just above every cumsum
    value, at 0 and at the largest u below 1."""
    cum = np.cumsum(weights)
    edges = np.concatenate(
        [cum, np.nextafter(cum, 0.0), np.nextafter(cum, 2.0), [0.0, 1 - 2**-53]]
    )
    u = np.concatenate([edges[edges < 1], np.random.default_rng(4).random(10_000)])
    want = np.minimum(np.searchsorted(cum, u, side="right"), np.flatnonzero(weights)[-1])
    got = models._sample_discrete(weights, u)
    assert got.dtype == np.int8
    np.testing.assert_array_equal(got, want)


def test_unsupported_combinations_raise():
    with pytest.raises(UnsupportedScenario):
        run_trials(default_scenario(STANDARD_BELL, 10), MODEL_UNITARY_QM, seed=0)
    with pytest.raises(ValueError):
        run_trials(default_scenario(STANDARD_BELL, 10), "nonsense", seed=0)


def test_the_model_table_declares_scenarios_and_default_options():
    assert MODEL_NAMES == tuple(MODELS)
    assert MODELS[MODEL_UNITARY_QM].kinds == (BRUKNER_EWFS,)
    with pytest.raises(UnsupportedScenario, match="^unitary-qm only models the EWFS arrangement$"):
        run_trials(default_scenario(STANDARD_BELL, 10), MODEL_UNITARY_QM, seed=0)
    spec = default_scenario(BRUKNER_EWFS, 300)
    for model in (MODEL_TOY, MODEL_LHV):
        default = run_trials(spec, model, seed=2)
        explicit = run_trials(spec, model, seed=2, options=MODELS[model].options())
        for got, want in zip(_columns(default), _columns(explicit)):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize(
    "model,options",
    [
        (MODEL_LHV, ToyOptions()),
        (MODEL_TOY, LhvOptions()),
        (MODEL_COLLAPSE, object()),
        (MODEL_COLLAPSE, LhvOptions()),
        (MODEL_UNITARY_QM, ToyOptions()),
    ],
)
def test_options_must_match_the_model(model, options):
    spec = default_scenario(BRUKNER_EWFS, 10)
    with pytest.raises(ValueError, match="takes"):
        run_trials(spec, model, seed=0, options=options)
    run_trials(spec, model, seed=0, options=None)


def test_matching_options_are_accepted():
    spec = default_scenario(BRUKNER_EWFS, 10)
    run_trials(spec, MODEL_TOY, seed=0, options=TOY_OPTIMAL_CHSH)
    run_trials(spec, MODEL_LHV, seed=0, options=LhvOptions())


# --- model physics ---------------------------------------------------------


def test_collapse_friends_are_perfectly_anticorrelated():
    spec = default_scenario(BRUKNER_EWFS, 20_000)
    log = run_trials(spec, MODEL_COLLAPSE, seed=2)
    np.testing.assert_array_equal(log.d, -log.c)
    np.testing.assert_array_equal(log.a[log.x == 1], log.c[log.x == 1])
    np.testing.assert_array_equal(log.b[log.y == 1], log.d[log.y == 1])


def test_collapse_bell_matches_singlet_correlators():
    spec = default_scenario(STANDARD_BELL, 100_000)
    log = run_trials(spec, MODEL_COLLAPSE, seed=4)
    for x, a_angle in enumerate(spec.alice_settings, start=1):
        for y, b_angle in enumerate(spec.bob_settings, start=1):
            mask = (log.x == x) & (log.y == y)
            e = float((log.a[mask] * log.b[mask]).mean())
            n = int(mask.sum())
            assert abs(e - (-math.cos(a_angle - b_angle))) < 4 / math.sqrt(n)
    assert (log.c == UNDEFINED).all() and (log.d == UNDEFINED).all()


def test_unitary_model_matches_exact_born_tables():
    from ewfs import inequality
    from ewfs.qcore import brukner_state

    spec = default_scenario(BRUKNER_EWFS, 200_000)
    log = run_trials(spec, MODEL_UNITARY_QM, seed=6)
    e, se = inequality.expectations(inequality.tabulate(log))
    exact = analytic_expectations(brukner_state(), spec)
    assert np.all(np.abs(e - exact) < 4 * se)
    # friend outcomes only defined on the opened branches
    assert (log.c[log.x == 2] == UNDEFINED).all()
    np.testing.assert_array_equal(log.c[log.x == 1], log.a[log.x == 1])


def test_toy_hidden_angles_and_updates():
    spec = default_scenario(BRUKNER_EWFS, 50_000)
    log = run_trials(spec, MODEL_TOY, seed=9)
    theta1 = log.lam["theta1"]
    assert theta1.min() >= 0 and theta1.max() < math.pi
    assert set(np.unique(log.lam["theta1_post"])) <= {0.0, math.pi / 2}
    np.testing.assert_array_equal(
        log.lam["theta1_post"], np.where(log.c == 1, 0.0, math.pi / 2)
    )
    # P(C=+1 | theta) = cos^2 theta; averaged over the uniform prior that's 1/2
    assert abs(float((log.c == 1).mean()) - 0.5) < 0.01
    # and the conditional probability holds within angle bins
    low = theta1 < math.pi / 6
    p_low = float((log.c[low] == 1).mean())
    # E[cos^2 theta | theta < pi/6] = (6/pi) * (pi/12 + sin(pi/3)/4)
    expected = (6 / math.pi) * (math.pi / 12 + math.sin(math.pi / 3) / 4)
    assert abs(p_low - expected) < 0.02


def test_toy_bell_outcomes_ignore_settings():
    spec = default_scenario(STANDARD_BELL, 100_000)
    log = run_trials(spec, MODEL_TOY, seed=7)
    for x in (1, 2):
        for y in (1, 2):
            mask = (log.x == x) & (log.y == y)
            e = float((log.a[mask] * log.b[mask]).mean())
            assert abs(e) < 4 / math.sqrt(mask.sum())


def test_toy_ewfs_superobservers_mimic_quantum_correlations():
    spec = default_scenario(BRUKNER_EWFS, 100_000)
    log = run_trials(spec, MODEL_TOY, seed=5, options=TOY_OPTIMAL_CHSH)
    opts = TOY_OPTIMAL_CHSH
    for x in (1, 2):
        for y in (1, 2):
            mask = (log.x == x) & (log.y == y)
            e = float((log.a[mask] * log.b[mask]).mean())
            expected = -math.cos(opts.alice_angles[x - 1] - opts.bob_angles[y - 1])
            assert abs(e - expected) < 4 / math.sqrt(mask.sum())


def test_lhv_friends_match_setting_one_strategy_values():
    spec = default_scenario(BRUKNER_EWFS, 5_000)
    log = run_trials(spec, MODEL_LHV, seed=3)
    strat = lhv_strategies()
    idx = log.lam["strategy"]
    np.testing.assert_array_equal(log.c, strat[idx, 0])
    np.testing.assert_array_equal(log.d, strat[idx, 2])
    np.testing.assert_array_equal(log.a, strat[idx, log.x - 1])
    np.testing.assert_array_equal(log.b, strat[idx, 2 + log.y - 1])


# --- log plumbing ----------------------------------------------------------


def test_record_maps_undefined_to_none():
    """C is undefined exactly when X=2 and D exactly when Y=2; a block that
    starts at trial 50 keeps the trial numbering of the whole run."""
    spec = default_scenario(BRUKNER_EWFS, 200)
    log = run_trials(spec, MODEL_UNITARY_QM, seed=0)
    tail = run_trials(spec, MODEL_UNITARY_QM, seed=0, first_trial=50)
    assert log.first_trial == 0 and tail.first_trial == 50
    assert len(tail) == 150
    np.testing.assert_array_equal(log.c == UNDEFINED, log.x == 2)
    np.testing.assert_array_equal(log.d == UNDEFINED, log.y == 2)
    assert set(np.unique(log.c[log.x == 1])) <= {-1, 1}
    assert set(np.unique(log.d[log.y == 1])) <= {-1, 1}
    np.testing.assert_array_equal(tail.c, log.c[50:])
    np.testing.assert_array_equal(tail.d, log.d[50:])


def test_lambda_tag_is_sorted_and_parseable(tmp_path):
    spec = default_scenario(BRUKNER_EWFS, 200)
    result = run_campaign(
        CampaignConfig(spec, MODEL_TOY, seed=1, out_dir=tmp_path, formats=("csv",))
    )
    log = result.log
    with (tmp_path / "runs.csv").open() as handle:
        rows = list(csv.reader(handle))[1:]
    for i, row in enumerate(rows):
        pairs = [part.split("=") for part in row[7].split(";")]
        assert [key for key, _ in pairs] == sorted(log.lam)
        for key, text in pairs:
            assert float(text) == float(log.lam[key][i])  # %.17g round-trips
