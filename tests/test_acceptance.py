"""Acceptance gate: one test (and one printed pass/fail line) per criterion."""

import contextlib
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import analytic_quantum_S, synthetic_log
from ewfs import inequality
from ewfs.assumptions import check_all
from ewfs.harness import CampaignConfig, run_campaign
from ewfs.inequality import (
    CHSH_BOUND,
    chsh_max_variant,
    evaluate,
    local_polytope_feasible,
    tabulate,
    verify_derivation_chain,
)
from ewfs.models import (
    MODEL_COLLAPSE,
    MODEL_LHV,
    MODEL_TOY,
    MODEL_UNITARY_QM,
    TOY_OPTIMAL_CHSH,
    LhvOptions,
    lhv_exact_expectations,
    run_trials,
    singlet_joint_probs,
)
from ewfs.qcore import brukner_state
from ewfs.scenario import BRUKNER_EWFS, STANDARD_BELL, default_scenario
from test_inequality import (
    ExpectationMatrix,
    _pr_box,
    _table_s_max,
    deterministic_strategy_tables,
)

TSIRELSON = 2 * math.sqrt(2)


@contextlib.contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {title}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {title}")


def _exact_s_max(weights) -> float:
    e = ExpectationMatrix(
        lhv_exact_expectations(weights), np.zeros((2, 2)), np.full((2, 2), 10)
    )
    return chsh_max_variant(e)[0]


def _sampled_quantum_wings(rng, x, y, alice_angles, bob_angles):
    """Draw (A, B) per trial from the singlet joint table of the trial's
    settings; returns arrays of +/-1."""
    n = x.size
    a = np.empty(n, dtype=np.int8)
    b = np.empty(n, dtype=np.int8)
    u = rng.random(n)
    for xv in (1, 2):
        for yv in (1, 2):
            mask = (x == xv) & (y == yv)
            table = singlet_joint_probs(alice_angles[xv - 1], bob_angles[yv - 1])
            idx = np.searchsorted(np.cumsum(table.reshape(-1)), u[mask], side="right")
            idx = np.minimum(idx, 3)
            a[mask] = np.where(idx // 2 == 0, 1, -1)
            b[mask] = np.where(idx % 2 == 0, 1, -1)
    return a, b


OPT_A = (0.0, math.pi / 2)
OPT_B = (math.pi / 4, 3 * math.pi / 4)


def test_criterion_1_quantum_violation():
    with criterion(1, "analytic CHSH reaches 2*sqrt(2); Monte Carlo agrees"):
        spec = default_scenario(BRUKNER_EWFS, 1_000_000)
        exact = analytic_quantum_S(brukner_state(), spec)
        assert abs(exact - TSIRELSON) < 1e-9
        report = evaluate(
            tabulate(run_trials(spec, MODEL_UNITARY_QM, seed=100)),
        )
        assert report.violated
        assert abs(report.s_max - TSIRELSON) <= 3 * report.s_max_se


def test_criterion_2_model_separation_matrix():
    with criterion(2, "toy/collapse models separate Bell and EWFS verdicts"):
        n = 1_000_000
        toy_bell = evaluate(
            tabulate(run_trials(default_scenario(STANDARD_BELL, n), MODEL_TOY, seed=101)),
        )
        assert abs(toy_bell.s) < 0.01
        assert toy_bell.s_max <= CHSH_BOUND
        assert not toy_bell.violated

        toy_ewfs = evaluate(
            tabulate(run_trials(
                default_scenario(BRUKNER_EWFS, n), MODEL_TOY, seed=102,
                options=TOY_OPTIMAL_CHSH,
            )),
        )
        assert toy_ewfs.s_max >= 2.7
        assert toy_ewfs.violated

        collapse_bell = evaluate(
            tabulate(
                run_trials(default_scenario(STANDARD_BELL, n), MODEL_COLLAPSE, seed=103)
            ),
        )
        assert collapse_bell.s_max >= 2.7
        assert collapse_bell.violated

        collapse_ewfs = evaluate(
            tabulate(
                run_trials(default_scenario(BRUKNER_EWFS, n), MODEL_COLLAPSE, seed=104)
            ),
        )
        assert collapse_ewfs.s_max <= CHSH_BOUND + 3 * collapse_ewfs.s_max_se
        assert not collapse_ewfs.violated


def test_criterion_3_forward_direction():
    with criterion(3, "assumption-respecting models obey the bound; violators fail a check"):
        rng = np.random.default_rng(2025)
        spec = default_scenario(BRUKNER_EWFS, 100_000)
        five = ["aoe_i", "aoe_ii", "aoe_iii", "nsd", "locality"]
        for draw in range(20):
            weights = tuple(rng.dirichlet(np.full(16, 0.7)))
            assert _exact_s_max(weights) <= CHSH_BOUND + 1e-12
            if draw < 3:  # simulated spot checks at full trial count
                table = tabulate(run_trials(
                    spec, MODEL_LHV, seed=200 + draw,
                    options=LhvOptions(weights=weights),
                ))
                report = check_all(table)
                assert all(report.passed(n) is True for n in five), report.to_dict()
                assert not evaluate(table).violated

        # synthetic logs that do violate the bound each break an assumption
        n = 100_000
        x = rng.integers(1, 3, size=n)
        y = rng.integers(1, 3, size=n)

        # (a) friends copy quantum superobserver outcomes -> NSD fails
        a, b = _sampled_quantum_wings(rng, x, y, OPT_A, OPT_B)
        table_a = tabulate(synthetic_log(x, y, a, b, a, b, model="synthetic"))
        assert evaluate(table_a).s_max > CHSH_BOUND + 3 * evaluate(table_a).s_max_se
        rep_a = check_all(table_a)
        assert rep_a.passed("nsd") is False
        aoe = ("aoe_i", "aoe_ii", "aoe_iii")
        assert all(rep_a.passed(n) is True for n in aoe + ("locality",))

        # (b) quantum wings with independent coin friends -> AOE ii fails
        c = np.where(rng.random(n) < 0.5, 1, -1).astype(np.int8)
        d = np.where(rng.random(n) < 0.5, 1, -1).astype(np.int8)
        table_b = tabulate(synthetic_log(x, y, a, b, c, d, model="synthetic"))
        assert evaluate(table_b).violated
        rep_b = check_all(table_b)
        assert rep_b.passed("aoe_ii") is False

        # (c) signalling wing: A flips with the distant setting -> L fails
        c2 = np.where(rng.random(n) < 0.5, 1, -1).astype(np.int8)
        a2 = np.where((x == 2) & (y == 2), -c2, c2)
        table_c = tabulate(synthetic_log(x, y, a2, c2, c2, c2, model="synthetic"))
        rep_c = check_all(table_c)
        assert evaluate(table_c).s_max > 3.9
        assert rep_c.passed("locality") is False
        assert all(rep_c.passed(n) is True for n in aoe + ("nsd",))

        for table in (table_a, table_b, table_c):
            rep = check_all(table)
            assert not all(rep.passed(n) is True for n in five)


def test_criterion_4_fine_equivalence():
    with criterion(4, "polytope membership matches the eight CHSH facets"):
        rng = np.random.default_rng(4096)
        local = deterministic_strategy_tables()
        sign_masks = []
        for bits in range(16):
            signs = np.array(
                [[1, -1][bits >> s & 1] for s in range(4)]
            ).reshape(2, 2)
            if signs.prod() == -1:  # odd minus count -> extremal box
                sign_masks.append(signs)
        boxes = np.stack([_pr_box(signs) for signs in sign_masks])
        vertices = np.concatenate([local, boxes])
        disagreements = 0
        for i in range(1000):
            alpha = (0.05, 0.2, 1.0)[i % 3]
            w = rng.dirichlet(np.full(24, alpha))
            probs = np.tensordot(w, vertices, axes=(0, 0))
            lp_member = local_polytope_feasible(probs, tol=1e-7).member
            facet_member = _table_s_max(probs) <= CHSH_BOUND + 1e-7
            disagreements += lp_member != facet_member
        assert disagreements == 0


def test_criterion_5_derivation_chain_audit():
    with criterion(5, "identification chain holds locally and breaks for the toy model"):
        spec = default_scenario(BRUKNER_EWFS, 100_000)
        for model, seed in ((MODEL_LHV, 300), (MODEL_COLLAPSE, 301)):
            report = verify_derivation_chain(run_trials(spec, model, seed=seed))
            assert report.all_hold, report.to_dict()
        toy = verify_derivation_chain(run_trials(spec, MODEL_TOY, seed=302))
        deltas = {i.label: i.delta for i in toy.identities}
        assert deltas["aoe:CD11=AB11"] >= 0.9
        assert not toy.all_hold


def test_criterion_6_aoe_consistency():
    with criterion(6, "friend/superobserver agreement: exact for local models, broken for toy"):
        spec = default_scenario(BRUKNER_EWFS, 250_000)
        for model, seed in ((MODEL_COLLAPSE, 400), (MODEL_LHV, 401)):
            report = check_all(tabulate(run_trials(spec, model, seed=seed)))
            for name in ("aoe_ii", "aoe_iii"):
                check = report.checks[name]
                assert check.cell_sizes["conditioned"] >= 100_000
                assert check.statistic == 1.0
                assert check.passed is True
        toy = check_all(tabulate(run_trials(spec, MODEL_TOY, seed=402)))
        assert toy.checks["aoe_ii"].statistic < 0.95
        assert toy.checks["aoe_iii"].statistic < 0.95


def test_criterion_7_reproducibility(tmp_path):
    with criterion(7, "byte-identical outputs across reruns and trial-block splits"):
        config = CampaignConfig(
            scenario=default_scenario(BRUKNER_EWFS, 20_000),
            model=MODEL_TOY,
            seed=7,
            model_options=TOY_OPTIMAL_CHSH,
        )

        def campaign(out: Path):
            config.out_dir = out
            run_campaign(config)
            return (out / "runs.csv").read_bytes(), (out / "report.json").read_bytes()

        csv_1, json_1 = campaign(tmp_path / "run1")
        csv_2, json_2 = campaign(tmp_path / "run2")
        assert csv_1 == csv_2
        assert json_1 == json_2
        assert len(csv_1) > 0 and len(json_1) > 0

        spec, n = config.scenario, config.scenario.trials
        args = (spec, config.model, config.seed)
        whole = run_trials(*args, options=config.model_options)
        blocks = [
            run_trials(*args, options=config.model_options,
                       first_trial=lo, n_trials=min(3_000, n - lo))
            for lo in range(0, n, 3_000)
        ]
        for name in ("x", "y", "a", "b", "c", "d"):
            joined = np.concatenate([getattr(b, name) for b in blocks])
            np.testing.assert_array_equal(joined, getattr(whole, name))
        assert sorted(whole.lam) == sorted(blocks[0].lam)
        for key in whole.lam:
            joined = np.concatenate([b.lam[key] for b in blocks])
            np.testing.assert_array_equal(joined, whole.lam[key])
