import math

import numpy as np
from hypothesis import HealthCheck, settings

from ewfs import qcore
from ewfs.inequality import _AB_SIGN, ExpectationMatrix, chsh_max_variant, chsh_values
from ewfs.models import RunLog
from ewfs.scenario import BRUKNER_EWFS, ScenarioSpec

settings.register_profile(
    "ci", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("ci")


def synthetic_log(x, y, a, b, c=None, d=None, kind="ewfs", model="synthetic", lam=None):
    """Hand-built array log for targeted statistics tests.  The default
    model name declares no lambda binning, so no payload is needed."""
    n = len(x)
    as_i8 = lambda v: np.asarray(v, dtype=np.int8)
    zeros = np.zeros(n, dtype=np.int8)
    return RunLog(
        kind,
        model,
        as_i8(x),
        as_i8(y),
        as_i8(a),
        as_i8(b),
        zeros if c is None else as_i8(c),
        zeros.copy() if d is None else as_i8(d),
        lam or {},
    )


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
    values = analytic_expectations(state, spec)
    n = np.full((2, 2), 10, dtype=np.int64)
    e = ExpectationMatrix(values, np.zeros((2, 2)), n)
    if variant == "canonical":
        return float(chsh_values(e)[3])
    if variant == "max":
        return chsh_max_variant(e)[0]
    raise ValueError(f"unknown variant {variant!r}")
