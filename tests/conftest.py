import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from ewfs import qcore
from ewfs.inequality import _AB_SIGN, chsh_max_variant, chsh_values
from ewfs.models import (
    LAMBDA_BINS,
    MODEL_COLLAPSE,
    MODEL_LHV,
    MODEL_TOY,
    MODEL_UNITARY_QM,
    LhvOptions,
    RunLog,
    ToyOptions,
    lhv_strategies,
)
from ewfs.scenario import BRUKNER_EWFS, STANDARD_BELL, ScenarioSpec, default_scenario

# Tier-1 draws the same examples on every run, so its result is a function
# of the tree.  The "fuzz" profile draws fresh ones with a larger budget:
# `pytest --hypothesis-profile fuzz --hypothesis-seed <seed>`.
settings.register_profile(
    "ci", deadline=None, suppress_health_check=[HealthCheck.too_slow], derandomize=True
)
settings.register_profile(
    "fuzz", deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=1_000,
    print_blob=True,
)
settings.load_profile("ci")


def pytest_addoption(parser):
    parser.addoption(
        "--sweep-tables", type=int, default=2_000,
        help="multinomial tables per case in the calibration sweeps",
    )


@pytest.fixture
def sweep_tables(request) -> int:
    return request.config.getoption("--sweep-tables")


def synthetic_log(x, y, a, b, c=None, d=None, model="synthetic", lam=None):
    """Hand-built log for targeted statistics tests, through
    ``RunLog.from_columns``.  The default model name declares no lambda
    binning, so no payload is needed."""
    undefined = np.zeros(len(x), dtype=np.int8)
    c, d = (undefined if v is None else v for v in (c, d))
    return RunLog.from_columns(model, x, y, a, b, c, d, lam or {})


def singlet() -> qcore.StateVector:
    """(|+z,-z> - |-z,+z>) / sqrt(2): the reference state of the Bell tests."""
    amps = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2)
    return qcore.StateVector(amps, (2, 2))


def spin_projectors(angle: float) -> list[qcore.Projector]:
    """Rank-1 projectors for a spin measurement along ``angle`` in the x-z
    plane; eigenstates cos(a/2)|+z> +/- sin(a/2)|-z> (up to orthogonality)."""
    plus = np.array([math.cos(angle / 2), math.sin(angle / 2)], dtype=complex)
    minus = np.array([-math.sin(angle / 2), math.cos(angle / 2)], dtype=complex)
    return [qcore.Projector(np.outer(v, v.conj())) for v in (plus, minus)]


def analytic_expectations(state: qcore.StateVector, spec: ScenarioSpec) -> np.ndarray:
    """Exact correlators E(x, y) of ``state`` from qcore Born probabilities,
    no sampling: the reference for the models' fixed tables."""
    e = np.empty((2, 2))
    lab_state = qcore.lab_pair_state(state) if spec.kind == BRUKNER_EWFS else None
    for x, setting_a in enumerate(spec.alice_settings):
        for y, setting_b in enumerate(spec.bob_settings):
            if lab_state is not None:
                probs = qcore.lab_joint_probabilities(lab_state, setting_a, setting_b)
            else:
                pa, pb = spin_projectors(setting_a), spin_projectors(setting_b)
                joint = [qcore.Projector(np.kron(p.matrix, q.matrix)) for p in pa for q in pb]
                probs = qcore.born_probabilities(state, joint).reshape(2, 2)
            e[x, y] = float(np.sum(_AB_SIGN * probs))
    return e


def analytic_quantum_S(
    state: qcore.StateVector, spec: ScenarioSpec, variant: str = "max"
) -> float:
    """Exact CHSH value of quantum predictions for the given scenario.

    ``variant="canonical"`` evaluates E11 + E12 + E21 - E22 as written;
    ``variant="max"`` maximizes over all 8 facet sign placements, which is
    the relevant quantity for polytope membership.
    """
    facets = chsh_values(analytic_expectations(state, spec))
    if variant == "canonical":
        return float(facets[3])
    if variant == "max":
        return chsh_max_variant(facets)[0]
    raise ValueError(f"unknown variant {variant!r}")


# --- exact laws ------------------------------------------------------------
# Each law is built from the model's physics over the count table's cells
# (x, y, a, b, c, d, lambda-bin), with uniform settings.

_BLANK = 2  # the C/D index of an undefined friend outcome


def _index(value):
    """A +/-1 outcome's axis index: +1 -> 0, -1 -> 1."""
    return (1 - value) // 2


def _lhv_law(kind, weights):
    """w_s/4 on the one cell strategy s fixes at (x, y), in lambda bin s; the
    friends report the setting-1 values in the EWFS."""
    law = np.zeros((2, 2, 2, 2, 3, 3, LAMBDA_BINS))
    for s, (a1, a2, b1, b2) in enumerate(lhv_strategies().tolist()):
        c, d = (_index(a1), _index(b1)) if kind == BRUKNER_EWFS else (_BLANK, _BLANK)
        for (x, a), (y, b) in itertools.product(enumerate((a1, a2)), enumerate((b1, b2))):
            law[x, y, _index(a), _index(b), c, d, s] += weights[s] / 4
    return law


def _collapse_law(spec):
    """EWFS: C a fair coin, D = -C, A = C at x = 1 and B = D at y = 1, fair
    coins otherwise.  Bell: the singlet, (1 - ab cos(alpha - beta)) / 4."""
    law = np.zeros((2, 2, 2, 2, 3, 3, 1))
    for x, y, a, b in itertools.product((0, 1), repeat=4):
        if spec.kind == BRUKNER_EWFS:
            for c in (0, 1):
                p_a = (a == c) if x == 0 else 0.5
                p_b = (b == 1 - c) if y == 0 else 0.5
                law[x, y, a, b, c, 1 - c, 0] = p_a * p_b / 8
        else:
            cos = math.cos(spec.alice_settings[x] - spec.bob_settings[y])
            law[x, y, a, b, _BLANK, _BLANK, 0] = (1 - (1 - 2 * a) * (1 - 2 * b) * cos) / 16
    return law


def _unitary_qm_law(spec):
    """(A, B) from the Born table of the lab pair on Brukner's state in the
    lab bases of (x, y); C = A at x = 1 and D = B at y = 1, blank otherwise."""
    lab_state = qcore.lab_pair_state(qcore.brukner_state())
    law = np.zeros((2, 2, 2, 2, 3, 3, 1))
    for (x, kind_a), (y, kind_b) in itertools.product(
        enumerate(spec.alice_settings), enumerate(spec.bob_settings)
    ):
        born = qcore.lab_joint_probabilities(lab_state, kind_a, kind_b)
        for a, b in itertools.product((0, 1), repeat=2):
            c, d = a if x == 0 else _BLANK, b if y == 0 else _BLANK
            law[x, y, a, b, c, d, 0] = born[a, b] / 4
    return law


def _toy_law(kind, options):
    """Hidden angles uniform on [0, pi), binned 4 q1 + q2 by quarter; an
    angle's outcome is +1 with the mean of cos^2 over its quarter,
    1/2 + (sin 2 theta_hi - sin 2 theta_lo) / pi.  Bell: A and B are the
    angle outcomes, C and D blank.  EWFS: C and D are, and (A, B) follows
    the singlet at the configured angles, (1 - ab cos(alpha - beta)) / 4."""
    # sin 2 theta at the quarter edges theta = q pi / 4, q = 0..4
    p_plus = 0.5 + np.diff(np.sin(np.arange(5) * math.pi / 2)) / math.pi
    p_angle = np.stack([p_plus, 1 - p_plus], axis=1)  # P(outcome | quarter)
    # P(o1, o2, bin 4 q1 + q2) of the two angle outcomes and their bins
    angles = np.einsum("ik,jl->klij", p_angle, p_angle).reshape(2, 2, LAMBDA_BINS) / 16
    law = np.zeros((2, 2, 2, 2, 3, 3, LAMBDA_BINS))
    if kind == STANDARD_BELL:
        law[:, :, :, :, _BLANK, _BLANK] = angles / 4
        return law
    for x, y, a, b in itertools.product((0, 1), repeat=4):
        cos = math.cos(options.alice_angles[x] - options.bob_angles[y])
        law[x, y, a, b, :2, :2] = angles * (1 - (1 - 2 * a) * (1 - 2 * b) * cos) / 16
    return law


def exact_law(kind: str, model: str, options=None) -> np.ndarray:
    """P(x, y, a, b, c, d, lambda-bin) of ``model`` in the default ``kind``
    scenario under uniform settings, with ``options`` or the model's default
    ones: the count table's shape, with its structural zeros exact."""
    if model == MODEL_LHV:
        return _lhv_law(kind, (options or LhvOptions()).weights)
    if model == MODEL_TOY:
        return _toy_law(kind, options or ToyOptions())
    laws = {MODEL_COLLAPSE: _collapse_law, MODEL_UNITARY_QM: _unitary_qm_law}
    return laws[model](default_scenario(kind, 1))


def sample_tables(law: np.ndarray, n: int, size: int, rng) -> np.ndarray:
    """``size`` multinomial count tables of ``n`` trials from ``law``, shape
    (size, *law.shape): what ``inequality.tabulate`` counts of ``size``
    independent n-trial campaigns, drawn without sampling a trial."""
    return rng.multinomial(n, law.ravel(), size=size).reshape(size, *law.shape)
