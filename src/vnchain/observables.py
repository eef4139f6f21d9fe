"""Observables in unique spectral form and decompositions of the identity.

A spectral observable is stored as an ordered list of branches
``(index, eigenvalue, projector)`` with pairwise distinct eigenvalues and
orthogonal projectors summing to the identity; eigenvalues may be
arbitrarily degenerate (projectors of any rank >= 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotAProjectorError
from .hilbert import _frozen_array
from .tolerances import DEFAULT

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def is_projector(p: np.ndarray) -> bool:
    p = np.asarray(p, dtype=complex)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        return False
    return (
        np.linalg.norm(p - p.conj().T) <= DEFAULT.herm
        and np.linalg.norm(p @ p - p) <= DEFAULT.orth * p.shape[0]
    )


@dataclass(frozen=True)
class SpectralBranch:
    index: int
    eigenvalue: float
    projector: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "projector", _frozen_array(self.projector))

    @property
    def rank(self) -> int:
        return int(round(np.real(np.trace(self.projector))))


@dataclass(frozen=True)
class SpectralObservable:
    """Observable with no eigenvalue repetition, branches sorted ascending."""

    subsystem: str
    branches: tuple[SpectralBranch, ...]

    def __post_init__(self):
        branches = tuple(self.branches)
        if not branches:
            raise DimensionMismatchError("observable needs at least one branch")
        object.__setattr__(self, "branches", branches)
        d = branches[0].projector.shape[0]
        eigs = [b.eigenvalue for b in branches]
        if not all(math.isfinite(e) for e in eigs):
            raise ValueError(f"branch eigenvalues {eigs} are not all finite")
        if any(b - a <= DEFAULT.eig_merge for a, b in zip(eigs, eigs[1:])):
            raise ValueError(
                f"branch eigenvalues {eigs} not ascending with separation > {DEFAULT.eig_merge}"
            )
        scale = DEFAULT.orth * max(1, d)
        total = np.zeros((d, d), dtype=complex)
        for b in branches:
            p = b.projector
            if p.shape != (d, d):
                raise DimensionMismatchError("branch projectors differ in shape")
            if not is_projector(p):
                raise NotAProjectorError(f"branch {b.index} projector is not a projector")
            if np.real(np.trace(p)) < 0.5:
                raise NotAProjectorError(f"branch {b.index} projector has rank 0")
            total += p
        for i, a in enumerate(branches):
            for b in branches[i + 1 :]:
                if np.linalg.norm(a.projector @ b.projector) > scale:
                    raise NotAProjectorError(
                        f"branches {a.index} and {b.index} are not orthogonal"
                    )
        if np.linalg.norm(total - np.eye(d)) > scale:
            raise NotAProjectorError("branch projectors do not sum to the identity")
        if len(branches) > d:
            raise DimensionMismatchError("more branches than dimensions")

    @property
    def dim(self) -> int:
        return self.branches[0].projector.shape[0]

    @property
    def branch_count(self) -> int:
        return len(self.branches)

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return tuple(b.eigenvalue for b in self.branches)

    def projector(self, index: int) -> np.ndarray:
        return self.branches[index].projector

    def matrix(self) -> np.ndarray:
        """Reconstruction sum_k o_k E_k."""
        return sum(b.eigenvalue * b.projector for b in self.branches)

    def decomposition(self) -> "DecompositionOfIdentity":
        return DecompositionOfIdentity(
            self.subsystem, tuple(b.projector for b in self.branches)
        )


@dataclass(frozen=True)
class DecompositionOfIdentity:
    """Projector family meant to sum to the identity.

    Only shapes are checked at construction so that ``check_decomposition``
    can report violations instead of refusing to look at them.
    """

    subsystem: str
    projectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        projs = tuple(_frozen_array(p) for p in self.projectors)
        if not projs:
            raise DimensionMismatchError("decomposition needs at least one projector")
        d = projs[0].shape[0]
        if any(p.shape != (d, d) for p in projs):
            raise DimensionMismatchError("projectors differ in shape")
        object.__setattr__(self, "projectors", projs)

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]


@dataclass(frozen=True)
class DecompositionReport:
    max_idempotency: float
    max_hermiticity: float
    max_orthogonality: float
    completeness: float
    tolerance: float
    passed: bool


def check_decomposition(d: DecompositionOfIdentity) -> DecompositionReport:
    """Report idempotency, orthogonality, and completeness residuals."""
    projs = d.projectors
    idem = max(float(np.linalg.norm(p @ p - p)) for p in projs)
    herm = max(float(np.linalg.norm(p - p.conj().T)) for p in projs)
    orth = 0.0
    for i, a in enumerate(projs):
        for b in projs[i + 1 :]:
            orth = max(orth, float(np.linalg.norm(a @ b)))
    comp = float(np.linalg.norm(sum(projs) - np.eye(d.dim)))
    threshold = DEFAULT.orth * max(1, d.dim)
    passed = max(idem, herm, orth, comp) <= threshold
    return DecompositionReport(idem, herm, orth, comp, threshold, passed)


def observable_from_matrix(h: np.ndarray, subsystem: str) -> SpectralObservable:
    """Unique spectral form of a finite Hermitian matrix.

    Eigenvalues closer than ``DEFAULT.eig_merge`` are merged into a single branch
    whose projector is the sum of the eigenprojectors; branches come out
    sorted by ascending eigenvalue and indexed by position.
    """
    h = _frozen_array(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {h.shape}")
    herm = np.linalg.norm(h - h.conj().T)
    if herm > DEFAULT.herm:
        raise ValueError(f"matrix not Hermitian: residual {herm:.3e}")
    eigvals, eigvecs = np.linalg.eigh((h + h.conj().T) / 2)
    groups: list[list[int]] = [[0]]
    for i in range(1, len(eigvals)):
        if eigvals[i] - eigvals[groups[-1][-1]] <= DEFAULT.eig_merge:
            groups[-1].append(i)
        else:
            groups.append([i])
    branches = []
    for k, group in enumerate(groups):
        vecs = eigvecs[:, group]
        proj = vecs @ vecs.conj().T
        value = float(np.mean(eigvals[group]))
        branches.append(SpectralBranch(k, value, proj))
    return SpectralObservable(subsystem, tuple(branches))


def event_complement(p: np.ndarray) -> np.ndarray:
    """Complementary event I - P of a projector."""
    p = np.asarray(p, dtype=complex)
    if not is_projector(p):
        raise NotAProjectorError("event_complement needs a projector")
    return np.eye(p.shape[0], dtype=complex) - p


def projector_onto(vectors) -> np.ndarray:
    """Orthogonal projector onto the span of the given orthonormal vectors."""
    m = np.column_stack([np.asarray(v, dtype=complex) for v in vectors])
    return m @ m.conj().T
