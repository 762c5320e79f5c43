"""Exact finite-dimensional quantum state engine.

Pure state vectors over small composite Hilbert spaces (dimension <= 16),
with tensor products, unitaries, projectors and Born probabilities.
Everything is immutable after construction and deterministic.

Conventions: each qubit uses basis index 0 for ``+z`` / memory ``m+`` and
index 1 for ``-z`` / memory ``m-``.  A laboratory is the pair
(particle qubit, memory qubit); the pointer states ``|Z+> = |+z>|m+>`` and
``|Z-> = |-z>|m->`` sit at lab-space indices 0 and 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

NORM_TOL = 1e-12
STRUCT_TOL = 1e-10
DEGENERACY_TOL = 1e-15

__all__ = [
    "ContractViolation",
    "DegenerateProbabilities",
    "StateVector",
    "Projector",
    "Unitary",
    "basis_state",
    "tensor",
    "brukner_state",
    "singlet",
    "born_probabilities",
    "spin_projectors",
    "lab_measurement_basis",
    "friend_unitary",
    "apply_unitary",
    "permute_subsystems",
    "lab_pair_state",
    "lab_joint_probabilities",
]


class ContractViolation(ValueError):
    """An operation was handed inputs breaking its stated preconditions."""


class DegenerateProbabilities(ArithmeticError):
    """All measurement branches carry numerically negligible weight."""


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

    def normalize(self) -> "StateVector":
        n = self.norm()
        if n < DEGENERACY_TOL:
            raise DegenerateProbabilities("cannot normalize a null vector")
        return StateVector(self.amplitudes / n, self.dims)


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
        eye = np.eye(mat.shape[0])
        if np.abs(mat.conj().T @ mat - eye).max() > STRUCT_TOL:
            raise ContractViolation("matrix is not unitary")


def basis_state(index: int, dims: tuple[int, ...] | int) -> StateVector:
    if isinstance(dims, int):
        dims = (dims,)
    amps = np.zeros(math.prod(dims), dtype=complex)
    amps[index] = 1.0
    return StateVector(amps, dims)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product of two states; dims concatenate."""
    return StateVector(np.kron(a.amplitudes, b.amplitudes), a.dims + b.dims).normalize()


def brukner_state() -> StateVector:
    """Two-particle entangled state maximally violating CHSH under Z/X lab
    measurements, with z1 z2 product-basis amplitudes proportional to
    (sin pi/8, cos pi/8, -cos pi/8, sin pi/8), renormalized to unit norm."""
    s, c = math.sin(math.pi / 8), math.cos(math.pi / 8)
    amps = np.array([s, c, -c, s], dtype=complex) / math.sqrt(2)
    return StateVector(amps, (2, 2))


def singlet() -> StateVector:
    """(|+z,-z> - |-z,+z>) / sqrt(2)."""
    amps = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2)
    return StateVector(amps, (2, 2))


def _check_complete_orthogonal(projectors: list[Projector], dim: int) -> None:
    total = np.zeros((dim, dim), dtype=complex)
    for p in projectors:
        if p.dim != dim:
            raise ContractViolation("projector dimension mismatch with state")
        total += p.matrix
    if np.abs(total - np.eye(dim)).max() > STRUCT_TOL:
        raise ContractViolation("projector set does not sum to the identity")
    for i, p in enumerate(projectors):
        for q in projectors[i + 1 :]:
            if np.abs(p.matrix @ q.matrix).max() > STRUCT_TOL:
                raise ContractViolation("projectors are not mutually orthogonal")


def born_probabilities(s: StateVector, projectors: list[Projector]) -> np.ndarray:
    """<s|P_i|s> for a complete orthogonal projector set; sums to 1."""
    _check_complete_orthogonal(projectors, s.dim)
    psi = s.amplitudes
    probs = np.array([np.real(np.vdot(psi, p.matrix @ psi)) for p in projectors])
    return np.clip(probs, 0.0, None)


def spin_projectors(angle: float) -> list[Projector]:
    """Rank-1 projectors for a spin measurement along ``angle`` in the x-z
    plane; eigenstates cos(a/2)|+z> +/- sin(a/2)|-z> (up to orthogonality)."""
    plus = np.array([math.cos(angle / 2), math.sin(angle / 2)], dtype=complex)
    minus = np.array([-math.sin(angle / 2), math.cos(angle / 2)], dtype=complex)
    return [Projector(np.outer(v, v.conj())) for v in (plus, minus)]


def _lab_basis_vectors(kind: str) -> tuple[np.ndarray, np.ndarray]:
    z_plus = np.zeros(4, dtype=complex)
    z_plus[0] = 1.0
    z_minus = np.zeros(4, dtype=complex)
    z_minus[3] = 1.0
    if kind == "Z":
        return z_plus, z_minus
    if kind == "X":
        return (z_plus + z_minus) / math.sqrt(2), (z_plus - z_minus) / math.sqrt(2)
    raise ContractViolation(f"unknown lab measurement kind {kind!r}")


def lab_measurement_basis(side: int, kind: str) -> list[Projector]:
    """Three projectors on a 4-dim lab (particle x memory): outcome +, outcome -,
    and the rank-2 complement of the pointer subspace.

    The complement covers particle/memory combinations a faithful friend
    measurement never produces; its Born weight is zero on any reachable state.
    """
    if side not in (1, 2):
        raise ContractViolation("side must be 1 or 2")
    plus, minus = _lab_basis_vectors(kind)
    p_plus = np.outer(plus, plus.conj())
    p_minus = np.outer(minus, minus.conj())
    p_rest = np.eye(4) - p_plus - p_minus
    return [Projector(p_plus), Projector(p_minus), Projector(p_rest)]


def friend_unitary() -> Unitary:
    """Entangling measurement of the friend: copies the particle's z value
    onto a fresh memory qubit, |+z>|m+> <-> itself, |-z>|m+> -> |-z>|m->."""
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = 1.0  # |+z,m+> -> |+z,m+>
    mat[1, 1] = 1.0  # |+z,m-> -> |+z,m->
    mat[3, 2] = 1.0  # |-z,m+> -> |-z,m->
    mat[2, 3] = 1.0  # |-z,m-> -> |-z,m+>
    return Unitary(mat)


def apply_unitary(s: StateVector, u: Unitary, targets: tuple[int, ...]) -> StateVector:
    """Apply ``u`` to the listed subsystems (in order), identity elsewhere."""
    dims = s.dims
    n = len(dims)
    targets = tuple(targets)
    tdim = math.prod(dims[t] for t in targets)
    if u.dim != tdim:
        raise ContractViolation("unitary dimension does not match target subsystems")
    rest = [i for i in range(n) if i not in targets]
    tensor_form = s.amplitudes.reshape(dims)
    moved = np.transpose(tensor_form, targets + tuple(rest))
    flat = moved.reshape(tdim, -1)
    out = (u.matrix @ flat).reshape([dims[t] for t in targets] + [dims[r] for r in rest])
    inverse = np.argsort(targets + tuple(rest))
    return StateVector(np.transpose(out, inverse).reshape(-1), dims)


def permute_subsystems(s: StateVector, order: tuple[int, ...]) -> StateVector:
    """Reorder subsystems so that new position i holds old subsystem order[i]."""
    tensor_form = s.amplitudes.reshape(s.dims)
    new_dims = tuple(s.dims[i] for i in order)
    return StateVector(np.transpose(tensor_form, order).reshape(-1), new_dims)


def lab_pair_state(particles: StateVector) -> StateVector:
    """Entangle a two-particle state with fresh friend memories.

    Returns the 16-dim state ordered (particle1, memory1, particle2, memory2),
    i.e. lab 1 tensor lab 2, after both friends' entangling unitaries.
    """
    if particles.dims != (2, 2):
        raise ContractViolation("expected a two-qubit particle state")
    memories = tensor(basis_state(0, 2), basis_state(0, 2))
    full = tensor(particles, memories)  # (p1, p2, m1, m2)
    full = permute_subsystems(full, (0, 2, 1, 3))  # (p1, m1, p2, m2)
    cnot = friend_unitary()
    full = apply_unitary(full, cnot, (0, 1))
    return apply_unitary(full, cnot, (2, 3))


def lab_joint_probabilities(
    lab_state: StateVector, kind_a: str, kind_b: str
) -> np.ndarray:
    """Joint Born probabilities of both superobserver lab measurements.

    Returns a 3x3 array over (outcome_A, outcome_B) with outcome index
    0 -> +1, 1 -> -1, 2 -> complement subspace (zero weight on reachable
    states).
    """
    proj_a = lab_measurement_basis(1, kind_a)
    proj_b = lab_measurement_basis(2, kind_b)
    joint = [
        Projector(np.kron(pa.matrix, pb.matrix)) for pa in proj_a for pb in proj_b
    ]
    return born_probabilities(lab_state, joint).reshape(3, 3)
