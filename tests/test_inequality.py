import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.stats import chi2, chi2_contingency

from conftest import analytic_expectations, analytic_quantum_S, singlet, synthetic_log
from ewfs import assumptions, inequality
from ewfs.inequality import (
    CHSH_BOUND,
    LP_TOL,
    MIN_CELL,
    CountTable,
    EmptyCell,
    PolytopeVerdict,
    check_signaling,
    chsh_max_variant,
    chsh_values,
    decide,
    deterministic_strategy_tables,
    evaluate,
    expectations,
    homogeneity,
    local_polytope_feasible,
    tabulate,
    verify_derivation_chain,
)
from ewfs.models import (
    MODEL_COLLAPSE,
    MODEL_LHV,
    MODEL_TOY,
    MODEL_UNITARY_QM,
    MODEL_NAMES,
    TOY_OPTIMAL_CHSH,
    LhvOptions,
    RunLog,
    ToyOptions,
    lhv_exact_expectations,
    run_trials,
)
from ewfs.qcore import brukner_state
from ewfs.scenario import BRUKNER_EWFS, STANDARD_BELL, ScenarioSpec, default_scenario

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
    return chsh_max_variant(chsh_values(e))[0]


# --- the verdict rule ------------------------------------------------------


def _decide_loop(stat, threshold, conclusive):
    """``decide`` written out case by case."""
    if not conclusive:
        return None
    if math.isnan(stat) or math.isnan(threshold):
        raise ValueError("NaN in a conclusive verdict")
    return bool(stat <= threshold)


def _outcome(rule, inputs):
    """What ``rule(*inputs)`` returns, or ValueError if it raises one."""
    try:
        return rule(*inputs)
    except ValueError:
        return ValueError


_verdict_floats = st.floats(-4.0, 4.0, allow_nan=False) | st.sampled_from(
    [0.0, 1.0, math.nan, math.inf, -math.inf]
)


@st.composite
def _verdict_inputs(draw):
    """(stat, threshold, conclusive), each a Python or a numpy scalar; small
    integers make ties common."""

    def one(elements, dtype):
        value = draw(elements)
        return dtype(value) if draw(st.booleans()) else value

    numbers = st.integers(-2, 2) | st.integers(-2, 2).map(float) | _verdict_floats
    return one(numbers, np.float64), one(numbers, np.float64), one(st.booleans(), np.bool_)


@given(inputs=_verdict_inputs())
def test_decide_matches_the_cell_loop(inputs):
    got = _outcome(decide, inputs)
    assert got == _outcome(_decide_loop, inputs)
    # report.json needs Python types, from Python and numpy scalars alike
    assert got is ValueError or type(got) in (bool, type(None))


@given(threshold=st.floats(-1e300, 1e300, allow_nan=False))
def test_decide_passes_a_tie_and_fails_the_next_float(threshold):
    above = math.nextafter(threshold, math.inf)
    for number in (float, np.float64):
        assert decide(number(threshold), number(threshold)) is True
        assert decide(number(above), number(threshold)) is False
        assert decide(number(above), number(threshold), False) is None


@given(inputs=_verdict_inputs())
def test_decide_without_a_conclusive_entry_is_none(inputs):
    stat, threshold, _ = inputs
    assert decide(stat, threshold, False) is None
    assert decide(stat, threshold, np.False_) is None


def test_a_nan_k_or_tol_raises_wherever_a_conclusive_verdict_reads_it():
    spec = default_scenario(BRUKNER_EWFS, 2_000)
    per_cell = (
        assumptions.check_nsd,
        assumptions.check_locality,
        assumptions.check_settings_independence,
    )
    # toy-theta defines both friends' outcomes and bins its hidden angles,
    # so every verdict below is conclusive
    log = run_trials(spec, MODEL_TOY, 0)
    table = tabulate(log)
    verdicts = [
        lambda: evaluate(table, k=math.nan),
        lambda: verify_derivation_chain(log, k=math.nan).all_hold,
        lambda: local_polytope_feasible(table.probs(), tol=math.nan),
        lambda: assumptions.check_all(table, k=math.nan),
        *(functools.partial(check, table, k=math.nan) for check in per_cell),
    ]
    for verdict in verdicts:
        with pytest.raises(ValueError, match="NaN"):
            verdict()
    # unitary-qm leaves friend outcomes undefined off the opened branch and
    # has no hidden-state payload: the per-cell checks read no k
    table = tabulate(run_trials(spec, MODEL_UNITARY_QM, 0))
    assert [check(table, k=math.nan).passed for check in per_cell] == [None] * 3


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
    assert table.n().tolist() == [[2, 1], [1, 1]]


def test_tabulate_empty_log():
    empty = tabulate(synthetic_log(x=[], y=[], a=[], b=[]))
    assert empty.total() == 0
    with pytest.raises(EmptyCell, match=r"\[\(1, 1\), \(1, 2\), \(2, 1\), \(2, 2\)\]"):
        empty.n()


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
    # counted into cells of other values with no error; now no log holds
    # them, because RunLog.from_columns refuses to key them.
    with pytest.raises(ValueError, match="outcomes outside"):
        tabulate(synthetic_log(x=[1], y=[1], **outcomes))


@pytest.mark.parametrize("key", [[0, 144], [255], [-1]])
def test_tabulate_rejects_keys_outside_the_cells(key):
    # a hand-built log, which no sampler or from_columns would give
    settings = np.ones(len(key), dtype=np.int8)
    with pytest.raises(ValueError, match=r"^cell keys outside 0\.\.143$"):
        tabulate(RunLog("synthetic", settings, settings, np.array(key), {}))


@pytest.mark.parametrize("bins", [[0, 16], [-1]])
def test_tabulate_rejects_lambda_bins_outside_their_range(bins):
    settings = np.ones(len(bins), dtype=np.int8)
    key = np.zeros(len(bins), dtype=np.uint8)
    log = RunLog(MODEL_LHV, settings, settings, key, {"strategy": np.array(bins, np.int16)})
    with pytest.raises(ValueError, match=r"^lambda bins outside 0\.\.15$"):
        tabulate(log)


def test_expectations_match_direct_average():
    spec = default_scenario(BRUKNER_EWFS, 2_000)
    log = run_trials(spec, MODEL_COLLAPSE, seed=1)
    e, se = expectations(tabulate(log))
    for x in (1, 2):
        for y in (1, 2):
            mask = (log.x == x) & (log.y == y)
            direct = float((log.a[mask] * log.b[mask]).astype(float).mean())
            assert abs(e[x - 1, y - 1] - direct) < 1e-12
            n = int(mask.sum())
            assert abs(se[x - 1, y - 1] - math.sqrt((1 - direct**2) / n)) < 1e-12


def test_empty_cells_raise_in_every_reader():
    # One rule for an empty setting pair: every reader that divides by the
    # pair totals raises EmptyCell with the same message, never a NaN.
    ones = [1, 1]
    log = synthetic_log(x=[1, 1], y=[1, 2], a=ones, b=[1, -1], c=ones, d=ones)
    table = tabulate(log)
    readers = [
        lambda: expectations(table),
        table.probs,
        lambda: evaluate(table),
        lambda: verify_derivation_chain(log),
    ]
    messages = set()
    for reader in readers:
        with pytest.raises(EmptyCell) as exc:
            reader()
        messages.add(str(exc.value))
    assert messages == {"no trials for setting pairs [(2, 1), (2, 2)]"}


_NON_FINITE_CALLS = [
    f"{call}(np.full({shape}, {value}))"
    for call, shape in (("local_polytope_feasible", "(2, 2, 2, 2)"), ("linprog", "16"))
    for value in ("np.nan", "np.inf", "-np.inf")
] + [  # one infinite cell among finite ones
    "p = np.full((2, 2, 2, 2), 0.25); p[0, 0, 0, 0] = np.inf; local_polytope_feasible(p)",
]


def test_lp_rejects_nan_behavior_arrays():
    probs = np.full((2, 2, 2, 2), 0.25)
    probs[1, 1] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        local_polytope_feasible(probs)
    # HiGHS given a non-finite bound can kill the interpreter, so the calls
    # run in a child, in order, each printed before it runs: a child that
    # dies names its call last
    src = str(Path(inequality.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import numpy as np\nfrom ewfs.inequality import linprog, local_polytope_feasible\n"
    for call in _NON_FINITE_CALLS:
        code += (
            f"print({call!r}, flush=True)\n"
            f"try:\n    {call}\nexcept ValueError as exc:\n    print(exc, flush=True)\n"
            "else:\n    print('no ValueError', flush=True)\n"
        )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    lines = done.stdout.splitlines()
    calls = lines[0::2]
    assert done.returncode == 0, (calls[-1:], done.returncode, done.stderr)
    assert calls == _NON_FINITE_CALLS
    for call, message in zip(calls, lines[1::2], strict=True):
        assert message == "behavior holds NaN or infinity", call


# --- CHSH facets -----------------------------------------------------------


def test_canonical_is_variant_three():
    values = np.array([[0.3, -0.2], [0.7, 0.1]])
    assert chsh_values(values)[3] == pytest.approx(0.3 - 0.2 + 0.7 - 0.1)


def test_variants_cover_sign_flips():
    values = np.array([[0.5, 0.4], [-0.3, 0.9]])
    facets = chsh_values(values)
    seen = {round(float(v), 12) for v in facets}
    assert len(seen) == 8
    s_max, variant = chsh_max_variant(facets)
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
    for values in _facet_test_matrices():
        facets = chsh_values(values)
        expected = np.array(_reference_facets(values))
        assert facets.tobytes() == expected.tobytes(), values
        s_max, variant = chsh_max_variant(facets)
        ref_max, ref_variant = _reference_max_variant(values)
        assert variant == ref_variant
        assert np.float64(s_max).tobytes() == np.float64(ref_max).tobytes()
        # the canonical S as the old code summed it, left to right
        canonical = values[0, 0] + values[0, 1] + values[1, 0] - values[1, 1]
        assert facets[3].tobytes() == canonical.tobytes()


@given(weights=weight_vectors)
def test_strategy_mixtures_never_violate_chsh(weights):
    w = _normalized(weights)
    s_max, _ = chsh_max_variant(chsh_values(lhv_exact_expectations(w)))
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


def _table_of(probs, n):
    """A count table of n trials per setting pair whose behavior is ``probs``
    (multiples of 1/n), friend outcomes undefined."""
    counts = np.zeros((2, 2, 2, 2, 3, 3, 1), dtype=np.int64)
    counts[:, :, :, :, 2, 2, 0] = np.rint(probs * n)
    return CountTable(counts)


def test_pr_box_is_rejected_via_chsh():
    probs = _pr_box([[1, 1], [1, -1]])
    assert _table_s_max(probs) == pytest.approx(4.0)
    signaling = check_signaling(_table_of(probs, 1_000))
    assert signaling.passed is True and signaling.g == 0.0  # the same marginals
    verdict = local_polytope_feasible(probs)
    assert not verdict.member
    assert verdict.cause == "chsh"
    assert verdict.weights is None


def test_signaling_table_is_rejected_early():
    probs = np.full((2, 2, 2, 2), 0.25)
    probs[0, 0] = [[0.5, 0.0], [0.25, 0.25]]  # Alice marginal depends on y
    report = evaluate(_table_of(probs, 1_000))
    assert report.signaling.passed is False and report.signaling.df == 1
    for verdict in (report.polytope, local_polytope_feasible(probs, signals=True)):
        assert not verdict.member
        assert verdict.cause == "signaling"
        assert verdict.residual is None  # the LP did not run
    # without the test's verdict the LP decides, and the table is no member
    assert local_polytope_feasible(probs).cause == "chsh"


def _reference_g(table):
    """(G, df, -log10 p, p) of one (group, outcome) table through scipy, with
    its empty rows and columns dropped; (0, 0, 0, 1) with one of either left."""
    table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
    if min(table.shape) < 2:
        return 0.0, 0, 0.0, 1.0
    g, p, dof, _ = chi2_contingency(table, correction=False, lambda_="log-likelihood")
    return g, dof, -chi2.logsf(g, dof) / math.log(10), p


@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 17)),
    scale=st.sampled_from([3, 30, 3_000, 10**6]),
)
def test_homogeneity_matches_scipy_chi2_contingency(seed, shape, scale):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, scale, size=shape)
    counts[rng.random(shape) < rng.random()] = 0  # empty cells, rows and columns
    if rng.random() < 0.3:  # an outcome that depends on the group
        counts[:, 0, 0] += scale * 10
    g, df, log_p = homogeneity(counts)
    assert len(g) == len(df) == len(log_p) == shape[0]
    assert homogeneity(counts.tolist()) == (g, df, log_p)  # nested lists, the same
    for stratum, got in zip(counts, zip(g, df, log_p)):
        want = _reference_g(stratum)
        assert got[1] == want[1]
        assert math.isclose(got[0], want[0], rel_tol=1e-9, abs_tol=1e-9)
        if math.isinf(want[2]):  # scipy's log tail underflows from G ~ 1,400
            assert 300 < got[2] < math.inf
        else:
            assert math.isclose(got[2], want[2], rel_tol=1e-9, abs_tol=1e-12)
        if want[3] > 1e-300:  # p itself, while it is a normal float
            assert math.isclose(10 ** -got[2], want[3], rel_tol=1e-9)
    # G is an exactly rounded sum: reordering groups and outcomes, and empty
    # ones, change no bit
    perm = counts[:, rng.permutation(shape[1])][:, :, rng.permutation(shape[2])]
    padded = np.concatenate([perm, np.zeros((shape[0], 2, shape[2]), int)], axis=1)
    padded = np.concatenate([padded, np.zeros((shape[0], shape[1] + 2, 3), int)], axis=2)
    assert homogeneity(perm) == homogeneity(padded) == (g, df, log_p)


def test_homogeneity_p_value_stays_finite_far_below_the_smallest_float():
    # 1.2 10^6 trials, each group with an outcome of its own: p ~ 10^-300,000,
    # far below what a float holds, and -log10 p is still -log10 of the chi^2
    # tail, at an odd and an even df
    for groups in (2, 3, 4):
        counts = np.diag(np.full(groups, 1_200_000 // groups))[None]
        g, df, log_p = homogeneity(counts)
        assert g[0] == pytest.approx(2 * 1_200_000 * math.log(groups))
        assert df[0] == (groups - 1) ** 2
        # the tail's leading term: e^-h h^(df/2 - 1) / Gamma(df/2), h = G/2
        h = g[0] / 2
        lead = -h + (df[0] / 2 - 1) * math.log(h) - math.lgamma(df[0] / 2)
        assert log_p[0] == pytest.approx(-lead / math.log(10), rel=1e-9)


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


def _reference_lp(p):
    """The local-polytope LP through the public scipy.optimize.linprog."""
    from scipy.optimize import linprog

    return linprog(
        inequality._LP_COST, A_ub=inequality._LP_A_UB, b_ub=np.concatenate([p, -p]),
        A_eq=inequality._LP_A_EQ, b_eq=[1.0], bounds=(0, None), method="highs",
    )


@functools.cache
def _lp_behaviors() -> list[np.ndarray]:
    """Vertices, Dirichlet mixtures, PR-box and Tsirelson mixtures, and the
    count tables of a 16-angle bell/collapse and ewfs/toy-theta scan."""
    rng = np.random.default_rng(15)
    vertices = deterministic_strategy_tables()
    behaviors = list(vertices)
    behaviors += [np.tensordot(rng.dirichlet(np.full(16, 0.3)), vertices, axes=(0, 0))
                  for _ in range(40)]
    # P(a, b | x, y) = (1 + ab E(x, y)) / 4 at the Tsirelson correlators
    e = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    tsirelson = (1 + e[:, :, None, None] * np.array([[1.0, -1.0], [-1.0, 1.0]])) / 4
    for v in np.linspace(0.0, 1.0, 11):
        local = np.tensordot(rng.dirichlet(np.ones(16)), vertices, axes=(0, 0))
        behaviors += [v * box + (1 - v) * local for box in (_pr_box([[1, 1], [1, -1]]), tsirelson)]
    for phi in [i * math.pi / 16 for i in range(16)]:
        bell = ScenarioSpec(STANDARD_BELL, (0.0, math.pi / 2), (phi, phi + math.pi / 2), 2000)
        toy = ToyOptions(alice_angles=(0.0, math.pi / 2), bob_angles=(phi, phi + math.pi / 2))
        for log in (
            run_trials(bell, MODEL_COLLAPSE, seed=15),
            run_trials(default_scenario(BRUKNER_EWFS, 2000), MODEL_TOY, seed=15, options=toy),
        ):
            behaviors.append(tabulate(log).probs())
    return behaviors


def test_direct_lp_matches_scipy_linprog_bitwise():
    # inequality.linprog solves the prebuilt HiGHS model through scipy's
    # private bindings; scipy.optimize.linprog on the same LP is the
    # reference, to the last bit of x and the success flag.  The behaviors
    # run forward and then reversed: the one shared HiGHS solver must carry
    # nothing from one solve into the next.
    behaviors = [probs.reshape(-1) for probs in _lp_behaviors()]
    references = [_reference_lp(p) for p in behaviors]
    residuals = []
    for order in (range(len(behaviors)), range(len(behaviors) - 1, -1, -1)):
        for i in order:
            x, reference = inequality.linprog(behaviors[i]), references[i]
            assert (x is not None) == reference.success
            # every one of these LPs is solvable, so both return an x
            assert reference.success and x.tobytes() == reference.x.tobytes()
            residuals.append(x[16])
    # members and chsh non-members alike
    assert min(residuals) < 1e-9 and max(residuals) > 0.1


def test_a_failed_solve_leaves_the_next_one_unchanged():
    # Bounds of 1e300 are finite but beyond HiGHS's infinity: the LP is
    # infeasible, and the shared solver then solves the next LP as new.
    for probs in _lp_behaviors()[::9]:
        assert inequality.linprog(np.full(16, 1e300)) is None
        p = probs.reshape(-1)
        assert inequality.linprog(p).tobytes() == _reference_lp(p).x.tobytes()


def test_lp_failure_is_reported_as_a_non_member(monkeypatch):
    monkeypatch.setattr(inequality, "linprog", lambda p: None)
    verdict = local_polytope_feasible(deterministic_strategy_tables()[0], tol=1e-3)
    # no LP residual, so report.json writes null, not the non-JSON Infinity
    assert verdict == PolytopeVerdict(False, None, None, 1e-3, "lp-failure")


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


# every supported (scenario, model) pair, and toy-theta at its optimal angles
_VERDICT_CASES = [
    (kind, model, None)
    for kind in (BRUKNER_EWFS, STANDARD_BELL)
    for model in MODEL_NAMES
    if (kind, model) != (STANDARD_BELL, MODEL_UNITARY_QM)
] + [(BRUKNER_EWFS, MODEL_TOY, TOY_OPTIMAL_CHSH)]


@pytest.mark.parametrize("kind,model,options", _VERDICT_CASES)
@pytest.mark.parametrize("trials", [2_000, 20_000])
def test_inequality_verdicts_match_their_written_out_rules(kind, model, options, trials):
    k = 3.0
    for seed in range(4):
        log = run_trials(default_scenario(kind, trials), model, seed=seed, options=options)
        table = tabulate(log)
        report = evaluate(table, k)
        assert report.violated == (report.s_max > 2 + k * report.s_max_se)
        cert = report.polytope
        tol = LP_TOL + k * 0.5 / math.sqrt(int(table.n().min()))
        assert cert.tolerance == tol
        # four G-tests, P(a | x, y) across y and P(b | x, y) across x, at
        # Sidak's level over the conclusive ones
        behavior = table.behavior()
        strata = [*behavior.sum(axis=3), *behavior.sum(axis=2).transpose(1, 0, 2)]
        tests = [_reference_g(s) for s in strata if (s.sum(axis=1) >= MIN_CELL).all()]
        level = 1 - (1 - math.erfc(k / math.sqrt(2))) ** (1 / len(tests))
        signaling = max(t[2] for t in tests) > -math.log10(level)
        assert report.signaling.passed is (not signaling)
        assert (cert.cause == "signaling") == signaling
        if not signaling:
            assert cert.member == (cert.residual <= tol)
        if table.friends_defined():
            for identity in verify_derivation_chain(log, k).identities:
                rule = abs(identity.lhs - identity.rhs) <= k * identity.se + 1e-12
                assert identity.holds == rule, identity.label


def test_evaluate_accepts_local_model():
    spec = default_scenario(BRUKNER_EWFS, 100_000)
    report = evaluate(tabulate(run_trials(spec, MODEL_LHV, seed=0)))
    assert not report.violated
    assert report.s_max <= 2.0 + 3 * report.s_max_se
    assert report.polytope.member
