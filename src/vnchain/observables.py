"""Observables in unique spectral form and decompositions of the identity.

A spectral observable is stored as an ordered list of branches
``(index, eigenvalue, projector)`` with pairwise distinct eigenvalues and
orthogonal projectors summing to the identity; eigenvalues may be
arbitrarily degenerate (projectors of any rank >= 1).
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Sequence
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


def _check_spectrum(eigenvalues: list[float], d: int) -> None:
    """Branch eigenvalues finite and ascending by more than ``DEFAULT.eig_merge``,
    and no more branches than dimensions."""
    if not all(math.isfinite(e) for e in eigenvalues):
        raise ValueError(f"branch eigenvalues {eigenvalues} are not all finite")
    if any(b - a <= DEFAULT.eig_merge for a, b in zip(eigenvalues, eigenvalues[1:])):
        raise ValueError(
            f"branch eigenvalues {eigenvalues} not ascending with separation > {DEFAULT.eig_merge}"
        )
    if len(eigenvalues) > d:
        raise DimensionMismatchError("more branches than dimensions")


@dataclass(frozen=True, eq=False)
class SpectralBranch:
    index: int
    eigenvalue: float
    projector: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "projector", _frozen_array(self.projector))

    @property
    def rank(self) -> int:
        return int(round(np.real(np.trace(self.projector))))


@dataclass(frozen=True, eq=False)
class SpectralObservable:
    """Observable with no eigenvalue repetition, branches sorted ascending.

    Projectors given to the constructor are fully checked: each is
    Hermitian, idempotent and of rank >= 1, each pair is orthogonal and
    together they sum to the identity, which costs O(n^2 d^3) for n branches
    in dimension d.  An observable made by ``from_eigenbasis`` is checked
    through one Gram product of its eigenbasis instead.  Instances compare
    by identity.
    """

    subsystem: str
    branches: tuple[SpectralBranch, ...]

    def __post_init__(self):
        branches = tuple(self.branches)
        if not branches:
            raise DimensionMismatchError("observable needs at least one branch")
        object.__setattr__(self, "branches", branches)
        d = branches[0].projector.shape[0]
        _check_spectrum([b.eigenvalue for b in branches], d)
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

    @classmethod
    def from_eigenbasis(
        cls,
        subsystem: str,
        eigenvalues: Sequence[float],
        blocks: Sequence[np.ndarray],
        complement: float | None = None,
    ) -> "SpectralObservable":
        """The observable sum_k o_k Q_k Q_k^dag of orthonormal column blocks Q_k.

        ``eigenvalues`` o_k are ascending, one per block; each block is a
        (d, r_k) array with r_k >= 1.  When ``complement`` is given, one more
        branch with that eigenvalue projects onto the orthogonal complement
        of the blocks, I - Q Q^dag for Q the blocks side by side, placed by
        its eigenvalue; otherwise the blocks must span the space.

        The projectors are checked through the Gram residual
        eps = ||Q^dag Q - I|| alone, in O(d n^2) for n columns.  With
        E = Q^dag Q - I, every residual the constructor's dense check tests
        is a product of E with blocks of Q: idempotency Q_k E_kk Q_k^dag,
        orthogonality Q_i E_ij Q_j^dag (Q E_:j Q_j^dag against the
        complement), and completeness I - Q Q^dag, which has the singular
        values of E when Q is square.  Each is at most (1 + eps) eps,
        which is required to be within the dense threshold
        ``DEFAULT.orth * d``.  Every rank is ||Q_k||_F^2 = r_k + tr E_kk, and
        Q_k Q_k^dag is Hermitian by construction.
        """
        blocks = [_frozen_array(q) for q in blocks]
        eigs = [float(e) for e in eigenvalues]
        if not blocks:
            raise DimensionMismatchError("observable needs at least one branch")
        if len(eigs) != len(blocks):
            raise DimensionMismatchError(f"{len(eigs)} eigenvalues for {len(blocks)} blocks")
        if any(q.ndim != 2 for q in blocks):
            raise DimensionMismatchError("eigenbasis blocks must be 2-D arrays")
        d = blocks[0].shape[0]
        if any(q.shape[0] != d for q in blocks):
            raise DimensionMismatchError("eigenbasis blocks differ in row count")
        pos = len(eigs)
        if complement is not None:
            pos = bisect.bisect(eigs, complement)
            eigs.insert(pos, float(complement))
        _check_spectrum(eigs, d)
        for k, q in enumerate(blocks):
            if q.shape[1] == 0:
                raise NotAProjectorError(f"eigenbasis block {k} is empty: rank 0")
        basis = np.concatenate(blocks, axis=1)
        n = basis.shape[1]
        eps = float(np.linalg.norm(basis.conj().T @ basis - np.eye(n)))
        if not eps * (1 + eps) <= DEFAULT.orth * max(1, d):
            raise NotAProjectorError(f"eigenbasis is not orthonormal: Gram residual {eps:.3e}")
        projectors = [q @ q.conj().T for q in blocks]
        if complement is not None:
            if n >= d:
                raise NotAProjectorError("complement branch has rank 0")
            projectors.insert(pos, np.eye(d, dtype=complex) - basis @ basis.conj().T)
        elif n != d:
            raise NotAProjectorError("branch projectors do not sum to the identity")
        obs = object.__new__(cls)
        object.__setattr__(obs, "subsystem", subsystem)
        object.__setattr__(
            obs,
            "branches",
            tuple(SpectralBranch(k, e, p) for k, (e, p) in enumerate(zip(eigs, projectors))),
        )
        return obs

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


@dataclass(frozen=True, eq=False)
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
    return SpectralObservable.from_eigenbasis(
        subsystem,
        [float(np.mean(eigvals[group])) for group in groups],
        [eigvecs[:, group] for group in groups],
    )


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
