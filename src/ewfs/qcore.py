"""The lab-pair derivation behind the ewfs Born tables (Brukner's
construction): each friend copies its particle's z value onto a fresh memory
qubit with a CNOT, then each superobserver measures the whole lab (particle x
memory) in the Z or X lab basis.  Everything is immutable and deterministic.

Conventions: each qubit uses basis index 0 for ``+z`` / memory ``m+`` and
index 1 for ``-z`` / memory ``m-``.  A laboratory is the pair
(particle qubit, memory qubit); the pointer states ``|Z+> = |+z>|m+>`` and
``|Z-> = |-z>|m->`` sit at lab-space indices 0 and 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

STRUCT_TOL = 1e-10
LEAK_TOL = 1e-9

__all__ = [
    "ContractViolation",
    "StateVector",
    "Projector",
    "Unitary",
    "brukner_state",
    "born_probabilities",
    "lab_measurement_basis",
    "friend_unitary",
    "lab_pair_state",
    "lab_joint_probabilities",
]


class ContractViolation(ValueError):
    """An operation was handed inputs breaking its stated preconditions."""


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class StateVector:
    """Complex amplitude vector over a composite space with subsystem dims."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        amps = _frozen(np.asarray(self.amplitudes, dtype=complex).reshape(-1))
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if math.prod(self.dims) != amps.size:
            raise ContractViolation(
                f"amplitude count {amps.size} != product of dims {self.dims}"
            )

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class Projector:
    """Hermitian idempotent matrix; validated at construction."""

    matrix: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        mat = _frozen(np.asarray(self.matrix, dtype=complex))
        object.__setattr__(self, "matrix", mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ContractViolation("projector matrix must be square")
        object.__setattr__(self, "dim", mat.shape[0])
        if np.abs(mat - mat.conj().T).max() > STRUCT_TOL:
            raise ContractViolation("projector is not Hermitian")
        if np.abs(mat @ mat - mat).max() > STRUCT_TOL:
            raise ContractViolation("projector is not idempotent")


@dataclass(frozen=True)
class Unitary:
    """Unitary matrix; validated at construction."""

    matrix: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        mat = _frozen(np.asarray(self.matrix, dtype=complex))
        object.__setattr__(self, "matrix", mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ContractViolation("unitary matrix must be square")
        object.__setattr__(self, "dim", mat.shape[0])
        if np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])).max() > STRUCT_TOL:
            raise ContractViolation("matrix is not unitary")


def brukner_state() -> StateVector:
    """Two-particle entangled state maximally violating CHSH under Z/X lab
    measurements, with z1 z2 product-basis amplitudes proportional to
    (sin pi/8, cos pi/8, -cos pi/8, sin pi/8), renormalized to unit norm."""
    s, c = math.sin(math.pi / 8), math.cos(math.pi / 8)
    amps = np.array([s, c, -c, s], dtype=complex) / math.sqrt(2)
    return StateVector(amps, (2, 2))


def born_probabilities(s: StateVector, projectors: list[Projector]) -> np.ndarray:
    """<s|P_i|s> for a complete orthogonal projector set; sums to 1."""
    total = np.zeros((s.dim, s.dim), dtype=complex)
    for p in projectors:
        if p.dim != s.dim:
            raise ContractViolation("projector dimension mismatch with state")
        total += p.matrix
    if np.abs(total - np.eye(s.dim)).max() > STRUCT_TOL:
        raise ContractViolation("projector set does not sum to the identity")
    for i, p in enumerate(projectors):
        for q in projectors[i + 1 :]:
            if np.abs(p.matrix @ q.matrix).max() > STRUCT_TOL:
                raise ContractViolation("projectors are not mutually orthogonal")
    psi = s.amplitudes
    probs = np.array([np.real(np.vdot(psi, p.matrix @ psi)) for p in projectors])
    return np.clip(probs, 0.0, None)


def lab_measurement_basis(kind: str) -> list[Projector]:
    """Three projectors on a 4-dim lab (particle x memory): outcome +, outcome -,
    and the rank-2 complement of the pointer subspace.

    The complement covers particle/memory combinations a faithful friend
    measurement never produces; its Born weight is zero on any reachable state.
    """
    z_plus, z_minus = np.eye(4, dtype=complex)[[0, 3]]
    if kind == "Z":
        plus, minus = z_plus, z_minus
    elif kind == "X":
        plus, minus = (z_plus + z_minus) / math.sqrt(2), (z_plus - z_minus) / math.sqrt(2)
    else:
        raise ContractViolation(f"unknown lab measurement kind {kind!r}")
    p_plus = np.outer(plus, plus.conj())
    p_minus = np.outer(minus, minus.conj())
    p_rest = np.eye(4) - p_plus - p_minus
    return [Projector(p_plus), Projector(p_minus), Projector(p_rest)]


def friend_unitary() -> Unitary:
    """Entangling measurement of the friend: copies the particle's z value
    onto a fresh memory qubit, |+z>|m+> <-> itself, |-z>|m+> -> |-z>|m->."""
    return Unitary(np.eye(4, dtype=complex)[[0, 1, 3, 2]])  # swaps |-z,m+>, |-z,m->


def lab_pair_state(particles: StateVector) -> StateVector:
    """Entangle a two-particle state with fresh friend memories.

    Returns the 16-dim state ordered (particle1, memory1, particle2, memory2),
    i.e. lab 1 tensor lab 2, after both friends' entangling unitaries.
    """
    if particles.dims != (2, 2):
        raise ContractViolation("expected a two-qubit particle state")
    full = np.zeros((2, 2, 2, 2), dtype=complex)
    full[:, 0, :, 0] = particles.amplitudes.reshape(2, 2)  # memories in m+
    full = full.reshape(-1)
    full /= np.linalg.norm(full)  # brukner_state's norm is 1 - 2e-16; the bits need it
    u = friend_unitary().matrix
    return StateVector(np.kron(u, u) @ full, (2, 2, 2, 2))


def lab_joint_probabilities(
    lab_state: StateVector, kind_a: str, kind_b: str
) -> np.ndarray:
    """Normalized 2x2 Born table over (outcome_A, outcome_B) of both
    superobserver lab measurements, index 0 -> +1, 1 -> -1.

    Raises ContractViolation if the state has weight outside the pointer
    subspace (outcome index 2 of ``lab_measurement_basis``).
    """
    joint = [
        Projector(np.kron(pa.matrix, pb.matrix))
        for pa in lab_measurement_basis(kind_a)
        for pb in lab_measurement_basis(kind_b)
    ]
    probs = born_probabilities(lab_state, joint).reshape(3, 3)
    if probs[2, :].sum() + probs[:, 2].sum() > LEAK_TOL:
        raise ContractViolation("lab state leaked outside the pointer subspace")
    table = probs[:2, :2]
    return table / table.sum()
