"""Observables in unique spectral form and decompositions of the identity.

A spectral observable is stored as an ordered list of branches
``(index, eigenvalue, basis)``: pairwise distinct eigenvalues, each with an
orthonormal (d, r_k) block Q_k of eigenvectors (any rank r_k >= 1), the
blocks side by side an orthonormal basis of the space.  The branch
projector Q_k Q_k^dag is derived from its block on request.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

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


def _side_by_side(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """The 2-D blocks of one row count, concatenated column-wise."""
    if any(q.ndim != 2 for q in blocks):
        raise DimensionMismatchError("eigenbasis blocks must be 2-D arrays")
    if len({q.shape[0] for q in blocks}) != 1:
        raise DimensionMismatchError("eigenbasis blocks differ in row count")
    return np.concatenate(blocks, axis=1)


@dataclass(frozen=True, eq=False)
class SpectralBranch:
    """Eigenvalue o_k and an orthonormal (d, r_k) block Q_k of eigenvectors.
    A block that is not already a read-only complex array is copied."""

    index: int
    eigenvalue: float
    basis: np.ndarray

    def __post_init__(self):
        q = self.basis
        if not (isinstance(q, np.ndarray) and q.dtype == complex and not q.flags.writeable):
            object.__setattr__(self, "basis", _frozen_array(q))

    @property
    def projector(self) -> np.ndarray:
        """Q_k Q_k^dag, formed anew on each read; read-only."""
        p = self.basis @ self.basis.conj().T
        p.setflags(write=False)
        return p

    @property
    def rank(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True, eq=False)
class SpectralObservable:
    """Observable sum_k o_k Q_k Q_k^dag with distinct eigenvalues, branches
    sorted ascending; instances compare by identity.

    The constructor is the only check.  Besides shapes, ranks >= 1 and the
    spectrum, it needs d columns and bounds eps = ||E||, E = B^dag B - I for
    the blocks side by side, B = [Q_1, ..., Q_n].  Every residual of a dense
    check of the projectors (idempotency Q_k E_kk Q_k^dag, orthogonality
    Q_i E_ij Q_j^dag, completeness I - B B^dag) is then at most
    (1 + eps) eps, which must be within the dense bound ``DEFAULT.orth * d``.
    """

    subsystem: str
    branches: tuple[SpectralBranch, ...]

    def __post_init__(self):
        branches = tuple(self.branches)
        if not branches:
            raise DimensionMismatchError("observable needs at least one branch")
        object.__setattr__(self, "branches", branches)
        basis = _side_by_side([b.basis for b in branches])
        d, n = basis.shape
        eigs = [b.eigenvalue for b in branches]
        if not all(math.isfinite(e) for e in eigs):
            raise ValueError(f"branch eigenvalues {eigs} are not all finite")
        if any(b - a <= DEFAULT.eig_merge for a, b in zip(eigs, eigs[1:])):
            raise ValueError(
                f"branch eigenvalues {eigs} not ascending with separation > {DEFAULT.eig_merge}"
            )
        if len(eigs) > d:
            raise DimensionMismatchError("more branches than dimensions")
        for b in branches:
            if b.rank == 0:
                raise NotAProjectorError(f"branch {b.index} block is empty: rank 0")
        gram = basis.conj().T @ basis
        gram.flat[:: n + 1] -= 1.0
        eps = float(np.linalg.norm(gram))
        if not eps * (1 + eps) <= DEFAULT.orth * max(1, d):
            raise NotAProjectorError(f"eigenbasis is not orthonormal: Gram residual {eps:.3e}")
        if n != d:
            raise NotAProjectorError("branch projectors do not sum to the identity")

    @classmethod
    def from_eigenbasis(
        cls,
        subsystem: str,
        eigenvalues: Sequence[float],
        blocks: Sequence[np.ndarray],
        complement: float | None = None,
    ) -> "SpectralObservable":
        """The observable sum_k o_k Q_k Q_k^dag of (d, r_k) blocks Q_k, one per
        ascending eigenvalue o_k.  When ``complement`` is given, one more
        branch with that eigenvalue, placed by it, spans the orthogonal
        complement of the blocks: the trailing columns of their complete QR.
        """
        blocks = [_frozen_array(q) for q in blocks]
        eigs = [float(e) for e in eigenvalues]
        if not blocks:
            raise DimensionMismatchError("observable needs at least one branch")
        if len(eigs) != len(blocks):
            raise DimensionMismatchError(f"{len(eigs)} eigenvalues for {len(blocks)} blocks")
        if complement is not None:
            basis = _side_by_side(blocks)
            rest = np.linalg.qr(basis, mode="complete")[0][:, basis.shape[1] :]
            rest.setflags(write=False)
            pos = bisect.bisect(eigs, complement)
            eigs.insert(pos, float(complement))
            blocks.insert(pos, rest)
        return cls(
            subsystem,
            tuple(SpectralBranch(k, e, q) for k, (e, q) in enumerate(zip(eigs, blocks))),
        )

    @property
    def dim(self) -> int:
        return self.branches[0].basis.shape[0]

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
        """The branch projectors, carried as this checked observable."""
        dec = object.__new__(DecompositionOfIdentity)
        object.__setattr__(dec, "subsystem", self.subsystem)
        object.__setattr__(dec, "observable", self)
        return dec


@dataclass(frozen=True, eq=False)
class DecompositionOfIdentity:
    """Projector family meant to sum to the identity.

    Projectors given to the constructor are only shape-checked, so that
    ``check_decomposition`` can report violations instead of refusing to
    look at them; the chain analyses run that check before using them.
    ``SpectralObservable.decomposition`` carries the checked observable
    instead and forms ``projectors`` on first read.
    """

    subsystem: str
    projectors: tuple[np.ndarray, ...]
    observable: SpectralObservable | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        projs = tuple(_frozen_array(p) for p in self.projectors)
        if not projs:
            raise DimensionMismatchError("decomposition needs at least one projector")
        d = projs[0].shape[0]
        if any(p.shape != (d, d) for p in projs):
            raise DimensionMismatchError("projectors differ in shape")
        object.__setattr__(self, "projectors", projs)

    def __getattr__(self, name: str):
        # Reached only when normal lookup fails: the unformed ``projectors``
        # of an observable's decomposition.
        observable = self.__dict__.get("observable")
        if name != "projectors" or observable is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        projs = tuple(b.projector for b in observable.branches)
        object.__setattr__(self, "projectors", projs)
        return projs

    @property
    def factors(self) -> tuple[np.ndarray, ...]:
        """One factor L_k per projector, F_k = L_k^dag L_k: Q_k^dag of an
        observable's block, or a given projector P itself (P = P^dag P)."""
        if self.observable is None:
            return self.projectors
        return tuple(b.basis.conj().T for b in self.observable.branches)

    @property
    def dim(self) -> int:
        return self.factors[0].shape[1]


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
