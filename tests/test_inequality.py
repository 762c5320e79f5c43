import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import analytic_expectations, analytic_quantum_S, singlet, synthetic_log
from ewfs import inequality
from ewfs.inequality import (
    CHSH_BOUND,
    EmptyCell,
    ExpectationMatrix,
    chsh_max_variant,
    chsh_values,
    deterministic_strategy_tables,
    evaluate,
    expectations,
    local_polytope_feasible,
    signaling_measure,
    tabulate,
    verify_derivation_chain,
)
from ewfs.models import (
    MODEL_COLLAPSE,
    MODEL_LHV,
    MODEL_UNITARY_QM,
    LhvOptions,
    lhv_exact_expectations,
    run_trials,
)
from ewfs.qcore import brukner_state
from ewfs.scenario import BRUKNER_EWFS, STANDARD_BELL, default_scenario

weight_vectors = st.lists(
    st.floats(0.0, 1.0, allow_nan=False), min_size=16, max_size=16
).filter(lambda w: sum(w) > 1e-6)


def _normalized(w):
    w = np.asarray(w, dtype=float)
    return w / w.sum()


def _exact_table(weights) -> np.ndarray:
    vertices = deterministic_strategy_tables()
    return np.tensordot(np.asarray(weights), vertices, axes=(0, 0))


def _pr_box(e_signs) -> np.ndarray:
    """Extremal no-signaling box with correlators E(x, y) = e_signs[x, y]."""
    probs = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            for ia, alpha in enumerate((1, -1)):
                for ib, beta in enumerate((1, -1)):
                    if alpha * beta == e_signs[x][y]:
                        probs[x, y, ia, ib] = 0.5
    return probs


def _table_s_max(probs) -> float:
    sign = np.array([[1.0, -1.0], [-1.0, 1.0]])
    e = np.einsum("xyab,ab->xy", probs, sign)
    em = ExpectationMatrix(e, np.zeros((2, 2)), np.full((2, 2), 10))
    return chsh_max_variant(em)[0]


# --- tabulation ------------------------------------------------------------


def test_tabulate_counts_exactly():
    log = synthetic_log(
        x=[1, 1, 2, 2, 1], y=[1, 2, 1, 2, 1],
        a=[1, -1, 1, -1, 1], b=[-1, -1, 1, 1, -1],
    )
    table = tabulate(log)
    assert table.total() == 5
    assert table.behavior()[0, 0, 0, 1] == 2  # (x=1,y=1,a=+1,b=-1) twice
    assert table.behavior()[1, 1, 1, 0] == 1
    assert table.empty_pairs() == []


def test_tabulate_empty_log():
    empty = tabulate(synthetic_log(x=[], y=[], a=[], b=[]))
    assert empty.total() == 0
    assert len(empty.empty_pairs()) == 4


def test_tabulate_rejects_settings_outside_two_setting_scenario():
    with pytest.raises(ValueError):
        tabulate(synthetic_log(x=[1, 3], y=[1, 2], a=[1, 1], b=[1, 1]))


@pytest.mark.parametrize(
    "outcomes",
    [
        {"a": [0], "b": [7], "c": [5], "d": [-3]},
        {"a": [0], "b": [1]},
        {"a": [1], "b": [-2]},
        {"a": [1], "b": [1], "c": [2]},
        {"a": [1], "b": [1], "d": [-3]},
    ],
)
def test_tabulate_rejects_outcomes_outside_their_values(outcomes):
    # A, B are +-1; C, D are +-1 or 0 (UNDEFINED).  These logs used to be
    # counted into cells of other values with no error.
    with pytest.raises(ValueError, match="outcomes outside"):
        tabulate(synthetic_log(x=[1], y=[1], **outcomes))


def test_expectations_match_direct_average():
    spec = default_scenario(BRUKNER_EWFS, 2_000)
    log = run_trials(spec, MODEL_COLLAPSE, seed=1)
    e = expectations(tabulate(log))
    for x in (1, 2):
        for y in (1, 2):
            mask = (log.x == x) & (log.y == y)
            direct = float((log.a[mask] * log.b[mask]).astype(float).mean())
            assert abs(e.values[x - 1, y - 1] - direct) < 1e-12
            n = int(mask.sum())
            assert abs(
                e.errors[x - 1, y - 1] - math.sqrt((1 - direct**2) / n)
            ) < 1e-12


def test_empty_cells_give_nan_and_chsh_raises():
    log = synthetic_log(x=[1, 1], y=[1, 2], a=[1, 1], b=[1, -1])
    e = expectations(tabulate(log))
    assert np.isnan(e.values[1, 0]) and np.isnan(e.values[1, 1])
    with pytest.raises(EmptyCell):
        chsh_values(e)


# --- CHSH facets -----------------------------------------------------------


def test_canonical_is_variant_three():
    values = np.array([[0.3, -0.2], [0.7, 0.1]])
    e = ExpectationMatrix(values, np.zeros((2, 2)), np.full((2, 2), 100))
    assert chsh_values(e)[3] == pytest.approx(0.3 - 0.2 + 0.7 - 0.1)


def test_variants_cover_sign_flips():
    values = np.array([[0.5, 0.4], [-0.3, 0.9]])
    e = ExpectationMatrix(values, np.zeros((2, 2)), np.full((2, 2), 100))
    facets = chsh_values(e)
    seen = {round(float(v), 12) for v in facets}
    assert len(seen) == 8
    s_max, variant = chsh_max_variant(e)
    assert s_max == max(seen)
    assert 0 <= variant < 8
    # global-flip pairing
    for v in range(4):
        assert facets[v] == pytest.approx(-facets[v + 4])


def _reference_facets(values) -> list[float]:
    """The per-variant loop the facet tensor replaced: variant v puts its
    minus sign at flat position v % 4 and is negated for v >= 4."""
    facets = []
    for variant in range(8):
        signs = np.ones(4)
        signs[variant % 4] = -1.0
        if variant >= 4:
            signs = -signs
        facets.append(float(np.sum(signs.reshape(2, 2) * values)))
    return facets


def _reference_max_variant(values) -> tuple[float, int]:
    best, best_id = -np.inf, 0
    for variant, value in enumerate(_reference_facets(values)):
        if value > best + 1e-15:
            best, best_id = value, variant
    return float(best), best_id


def _facet_test_matrices():
    rng = np.random.default_rng(7)
    yield from rng.uniform(-1.0, 1.0, (2_000, 2, 2))
    # correlators of finite logs: ratios of small integers
    yield from rng.integers(-40, 41, (2_000, 2, 2)) / rng.integers(1, 41, (2_000, 1, 1))
    # exact ties: repeated entries make several facets equal
    levels = np.array([-1.0, -0.5, 0.0, 0.5, 1.0, 1 / 3, -1 / 3, 0.1])
    ties = rng.choice(levels, (2_000, 2, 2))
    yield from ties
    yield from (np.zeros((2, 2)), np.full((2, 2), 0.5), np.full((2, 2), -1.0))
    # near ties: one entry moved by at most 2e-15
    nudges = rng.choice([-2e-15, -1e-15, -5e-16, 5e-16, 1e-15, 2e-15], 2_000)
    ties[np.arange(2_000), rng.integers(0, 2, 2_000), rng.integers(0, 2, 2_000)] += nudges
    yield from ties


def test_facet_tensor_matches_the_per_variant_loop_bitwise():
    n = np.full((2, 2), 10)
    for values in _facet_test_matrices():
        e = ExpectationMatrix(values, np.zeros((2, 2)), n)
        facets = chsh_values(e)
        expected = np.array(_reference_facets(values))
        assert facets.tobytes() == expected.tobytes(), values
        s_max, variant = chsh_max_variant(e)
        ref_max, ref_variant = _reference_max_variant(values)
        assert variant == ref_variant
        assert np.float64(s_max).tobytes() == np.float64(ref_max).tobytes()
        # the canonical S as the old code summed it, left to right
        canonical = values[0, 0] + values[0, 1] + values[1, 0] - values[1, 1]
        assert facets[3].tobytes() == canonical.tobytes()


@given(weights=weight_vectors)
def test_strategy_mixtures_never_violate_chsh(weights):
    w = _normalized(weights)
    e = ExpectationMatrix(
        lhv_exact_expectations(w), np.zeros((2, 2)), np.full((2, 2), 10)
    )
    s_max, _ = chsh_max_variant(e)
    assert s_max <= CHSH_BOUND + 1e-9


# --- polytope membership ---------------------------------------------------


def test_vertices_are_members_with_tiny_residual():
    vertices = deterministic_strategy_tables()
    for i in (0, 7, 15):
        verdict = local_polytope_feasible(vertices[i])
        assert verdict.member
        assert verdict.residual < 1e-9
        assert verdict.weights is not None
        assert abs(sum(verdict.weights) - 1.0) < 1e-6


@given(weights=weight_vectors)
def test_mixtures_are_members(weights):
    w = _normalized(weights)
    verdict = local_polytope_feasible(_exact_table(w))
    assert verdict.member
    assert verdict.cause is None


def test_pr_box_is_rejected_via_chsh():
    probs = _pr_box([[1, 1], [1, -1]])
    assert _table_s_max(probs) == pytest.approx(4.0)
    assert signaling_measure(probs) < 1e-12
    verdict = local_polytope_feasible(probs)
    assert not verdict.member
    assert verdict.cause == "chsh"
    assert verdict.weights is None


def test_signaling_table_is_rejected_early():
    probs = np.full((2, 2, 2, 2), 0.25)
    probs[0, 0] = [[0.5, 0.0], [0.25, 0.25]]  # Alice marginal depends on y
    assert signaling_measure(probs) > 0.1
    verdict = local_polytope_feasible(probs)
    assert not verdict.member
    assert verdict.cause == "signaling"


def test_membership_matches_facets_on_random_no_signaling_boxes():
    rng = np.random.default_rng(2024)
    local = deterministic_strategy_tables()
    boxes = [
        _pr_box(np.where(signs, 1, -1))
        for signs in
        (np.array([[1, 1], [1, 0]]), np.array([[1, 1], [0, 1]]),
         np.array([[1, 0], [1, 1]]), np.array([[0, 1], [1, 1]]),
         np.array([[0, 0], [0, 1]]), np.array([[0, 0], [1, 0]]),
         np.array([[0, 1], [0, 0]]), np.array([[1, 0], [0, 0]]))
    ]
    vertices = np.concatenate([local, np.stack(boxes)])
    for _ in range(100):
        w = rng.dirichlet(np.full(24, rng.choice([0.05, 0.3, 1.0])))
        probs = np.tensordot(w, vertices, axes=(0, 0))
        verdict = local_polytope_feasible(probs, tol=1e-7)
        facet_member = _table_s_max(probs) <= CHSH_BOUND + 1e-7
        assert verdict.member == facet_member


# --- analytic quantum predictions ------------------------------------------


def test_quantum_predictions_reach_tsirelson():
    spec = default_scenario(BRUKNER_EWFS, 10)
    assert analytic_quantum_S(brukner_state(), spec) == pytest.approx(
        2 * math.sqrt(2), abs=1e-9
    )
    bell = default_scenario(STANDARD_BELL, 10)
    assert analytic_quantum_S(singlet(), bell) == pytest.approx(
        2 * math.sqrt(2), abs=1e-9
    )
    with pytest.raises(ValueError):
        analytic_quantum_S(singlet(), bell, variant="median")


def test_analytic_expectation_values():
    spec = default_scenario(BRUKNER_EWFS, 10)
    e = analytic_expectations(brukner_state(), spec)
    r = 1 / math.sqrt(2)
    np.testing.assert_allclose(e, [[-r, r], [-r, -r]], atol=1e-12)


# --- derivation chain ------------------------------------------------------


def test_chain_holds_for_local_models():
    spec = default_scenario(BRUKNER_EWFS, 50_000)
    for model in (MODEL_LHV, MODEL_COLLAPSE):
        report = verify_derivation_chain(run_trials(spec, model, seed=12))
        assert report.all_hold, report.to_dict()


def test_chain_requires_coverage_and_friend_outcomes():
    ones = [1] * 500
    partial = synthetic_log(x=ones, y=ones, a=ones, b=ones, c=ones, d=ones)
    with pytest.raises(EmptyCell, match=r"\(1, 2\), \(2, 1\), \(2, 2\)"):
        verify_derivation_chain(partial)
    bell = run_trials(default_scenario(STANDARD_BELL, 500), MODEL_COLLAPSE, seed=0)
    with pytest.raises(ValueError):
        verify_derivation_chain(bell)


def test_chain_gap_lookup():
    spec = default_scenario(BRUKNER_EWFS, 5_000)
    report = verify_derivation_chain(run_trials(spec, MODEL_LHV, seed=2))
    deltas = {i.label: i.delta for i in report.identities}
    assert len(deltas) == len(report.identities)
    assert deltas["aoe:CD11=AB11"] >= 0.0
    assert "nonexistent" not in deltas


# --- end-to-end evaluation -------------------------------------------------


def test_evaluate_flags_quantum_violation():
    spec = default_scenario(BRUKNER_EWFS, 100_000)
    report = evaluate(tabulate(run_trials(spec, MODEL_UNITARY_QM, seed=0)))
    assert report.violated
    assert report.s_max > 2.7
    assert not report.polytope.member
    d = report.to_dict()
    assert d["violated"] and d["S_max"] == report.s_max
    assert d["certificate"]["member"] is False


def test_evaluate_accepts_local_model():
    spec = default_scenario(BRUKNER_EWFS, 100_000)
    report = evaluate(tabulate(run_trials(spec, MODEL_LHV, seed=0)))
    assert not report.violated
    assert report.s_max <= 2.0 + 3 * report.s_max_se
    assert report.polytope.member
