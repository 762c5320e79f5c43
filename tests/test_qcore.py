import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import singlet, spin_projectors
from ewfs import qcore
from ewfs.qcore import (
    ContractViolation,
    Projector,
    StateVector,
    Unitary,
    born_probabilities,
    brukner_state,
    friend_unitary,
    lab_joint_probabilities,
    lab_measurement_basis,
    lab_pair_state,
)

angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)


# --- state construction ----------------------------------------------------


def test_public_api_is_the_lab_pair_derivation():
    assert set(qcore.__all__) == {
        "ContractViolation", "StateVector", "Projector", "Unitary", "brukner_state",
        "born_probabilities", "lab_measurement_basis", "friend_unitary",
        "lab_pair_state", "lab_joint_probabilities",
    }


def test_state_vector_rejects_dim_mismatch():
    with pytest.raises(ContractViolation):
        StateVector(np.ones(3), (2, 2))


def test_entangled_state_amplitudes():
    psi = brukner_state()
    s, c = math.sin(math.pi / 8), math.cos(math.pi / 8)
    expected = np.array([s, c, -c, s]) / math.sqrt(2)
    np.testing.assert_allclose(psi.amplitudes, expected, atol=1e-15)
    assert abs(psi.norm() - 1.0) < 1e-12
    # the |+z,-z> component
    assert abs(psi.amplitudes[1].real - math.cos(math.pi / 8) / math.sqrt(2)) < 1e-12


def test_singlet_is_antisymmetric_and_normalized():
    psi = singlet()
    assert abs(psi.norm() - 1.0) < 1e-12
    swapped = psi.amplitudes.reshape(2, 2).T.reshape(-1)
    np.testing.assert_allclose(swapped, -psi.amplitudes, atol=1e-15)


# --- operator validation ---------------------------------------------------


def test_projector_rejects_non_hermitian():
    with pytest.raises(ContractViolation):
        Projector(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_projector_rejects_non_idempotent():
    with pytest.raises(ContractViolation):
        Projector(0.5 * np.eye(2) + 0.1 * np.array([[0, 1], [1, 0]]))


def test_unitary_rejects_non_unitary():
    with pytest.raises(ContractViolation):
        Unitary(np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_born_requires_complete_projector_set():
    p_plus = spin_projectors(0.0)[0]
    with pytest.raises(ContractViolation):
        born_probabilities(StateVector(np.array([1.0, 0.0]), (2,)), [p_plus])


# --- Born rule and collapse ------------------------------------------------


@given(angle=angles)
def test_spin_projectors_complete_and_orthogonal(angle):
    plus, minus = spin_projectors(angle)
    np.testing.assert_allclose(plus.matrix + minus.matrix, np.eye(2), atol=1e-12)
    assert np.abs(plus.matrix @ minus.matrix).max() < 1e-12


@given(a=angles, b=angles)
def test_singlet_correlator_is_minus_cosine(a, b):
    # independent oracle: E(a, b) = -cos(a - b) on the singlet
    pa, pb = spin_projectors(a), spin_projectors(b)
    joint = [Projector(np.kron(p.matrix, q.matrix)) for p in pa for q in pb]
    probs = born_probabilities(singlet(), joint).reshape(2, 2)
    e = probs[0, 0] - probs[0, 1] - probs[1, 0] + probs[1, 1]
    assert abs(e - (-math.cos(a - b))) < 1e-9


def test_born_probabilities_sum_to_one():
    probs = born_probabilities(brukner_state(), _pair(0.7))
    assert abs(probs.sum() - 1.0) < 1e-12


def _pair(angle):
    pa = spin_projectors(angle)
    pb = spin_projectors(angle + 1.0)
    return [Projector(np.kron(p.matrix, q.matrix)) for p in pa for q in pb]


# --- friend measurement ---------------------------------------------------


def test_friend_unitary_copies_z_value_to_memory():
    u, basis = friend_unitary().matrix, np.eye(4)
    np.testing.assert_array_equal(u @ basis[2], basis[3])  # |-z, m+> -> |-z, m->
    np.testing.assert_array_equal(u @ basis[0], basis[0])  # |+z, m+> fixed


# --- lab-level measurements ------------------------------------------------


def test_lab_basis_is_complete():
    for kind in ("Z", "X"):
        projs = lab_measurement_basis(kind)
        total = sum(p.matrix for p in projs)
        np.testing.assert_allclose(total, np.eye(4), atol=1e-12)


def test_lab_basis_rejects_unknown_kind():
    with pytest.raises(ContractViolation):
        lab_measurement_basis("Y")


def test_lab_pair_state_stays_in_pointer_subspace():
    lab = lab_pair_state(brukner_state())
    assert lab.dims == (2, 2, 2, 2)
    assert abs(lab.norm() - 1.0) < 1e-12
    outside = np.ones((4, 4), dtype=bool)  # (lab 1, lab 2) basis index pairs
    outside[np.ix_([0, 3], [0, 3])] = False  # both labs at |Z+> or |Z->
    assert not lab.amplitudes.reshape(4, 4)[outside].any()


def _pauli_correlator(psi, op_a, op_b):
    full = np.kron(op_a, op_b)
    return float(np.real(np.vdot(psi.amplitudes, full @ psi.amplitudes)))


def test_lab_measurements_reduce_to_particle_paulis():
    # oracle: a Z (X) lab measurement on the entangled lab pair has the same
    # statistics as sigma_z (sigma_x) on the original two-particle state
    sz = np.diag([1.0, -1.0])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    ops = {"Z": sz, "X": sx}
    psi = brukner_state()
    lab = lab_pair_state(psi)
    for kind_a in ("Z", "X"):
        for kind_b in ("Z", "X"):
            probs = lab_joint_probabilities(lab, kind_a, kind_b)
            e = probs[0, 0] - probs[0, 1] - probs[1, 0] + probs[1, 1]
            expected = _pauli_correlator(psi, ops[kind_a], ops[kind_b])
            assert abs(e - expected) < 1e-12
