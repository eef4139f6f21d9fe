"""Observables in unique spectral form and decompositions of the identity.

A spectral observable is stored as an ordered list of branches
``(index, eigenvalue, basis)``: pairwise distinct eigenvalues, each with an
orthonormal (d, r_k) block Q_k of eigenvectors (any rank r_k >= 1), the
blocks side by side an orthonormal basis of the space.  The branch
projector Q_k Q_k^dag is derived from its block on request.  A caller gives
an event or a decomposition of the identity as such blocks too, and
``_orthonormal_block`` is the one check of every block.
"""

from __future__ import annotations

import bisect
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidDecompositionError, NotAProjectorError
from .hilbert import _frozen_array, _gram_residual, _hermitian_spectrum, _refuse_infinite_norm
from .tolerances import DEFAULT

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _orthonormal_block(q, what: str) -> np.ndarray:
    """``q`` as a complex (d, r) block Q of orthonormal columns: the one check
    of an eigenbasis and of an event P = Q Q^dag.

    Q must be 2-D with r <= d and bound eps = ||Q^dag Q - I|| by
    (1 + eps) eps <= ``DEFAULT.orth * d``, which a NaN or infinite entry
    fails.  That bounds the dense idempotency residual
    ||P^2 - P|| = ||Q (Q^dag Q - I) Q^dag||, and P is Hermitian by
    construction.  ``what`` names the block in the error.
    """
    q = np.asarray(q, dtype=complex)
    if q.ndim != 2 or q.shape[1] > q.shape[0]:
        raise NotAProjectorError(f"{what} of shape {q.shape} is not a (d, r) block with r <= d")
    d = q.shape[0]
    eps = _gram_residual(q)
    if not eps * (1 + eps) <= DEFAULT.orth * d:
        raise NotAProjectorError(f"{what} is not orthonormal: Gram residual {eps:.3e}")
    return q


def _side_by_side(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """The 2-D blocks of one row count, concatenated column-wise."""
    if any(q.ndim != 2 for q in blocks):
        raise DimensionMismatchError("eigenbasis blocks must be 2-D arrays")
    if len({q.shape[0] for q in blocks}) != 1:
        raise DimensionMismatchError("eigenbasis blocks differ in row count")
    return np.concatenate(blocks, axis=1)


def _block_array(q) -> np.ndarray:
    """``q`` itself when it is a read-only complex array, else a frozen copy
    whose entries are scanned for NaN and infinity (``_frozen_array``)."""
    if isinstance(q, np.ndarray) and q.dtype == complex and not q.flags.writeable:
        return q
    return _frozen_array(q)


@dataclass(frozen=True, eq=False)
class SpectralBranch:
    """Eigenvalue o_k and an orthonormal (d, r_k) block Q_k of eigenvectors.
    A read-only complex block is taken as is; any other is copied and its
    entries checked finite (``_block_array``)."""

    index: int
    eigenvalue: float
    basis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "basis", _block_array(self.basis))

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
    the blocks side by side, B = [Q_1, ..., Q_n], by ``_orthonormal_block``.
    Every residual of a dense check of the projectors (idempotency
    Q_k E_kk Q_k^dag, orthogonality Q_i E_ij Q_j^dag, completeness
    I - B B^dag) is then at most (1 + eps) eps, which must be within the
    dense bound ``DEFAULT.orth * d``.  That Gram check is also the
    finiteness check of every block, behind
    ``hilbert._refuse_infinite_norm``, so a read-only block that a branch
    took as is gets checked here.
    """

    subsystem: str
    branches: tuple[SpectralBranch, ...]

    def __post_init__(self):
        branches = tuple(self.branches)
        if not branches:
            raise DimensionMismatchError("observable needs at least one branch")
        object.__setattr__(self, "branches", branches)
        basis = _side_by_side([b.basis for b in branches])
        _refuse_infinite_norm(basis)
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
        _orthonormal_block(basis, "eigenbasis")
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

        A read-only complex block is adopted, not copied, as
        ``SpectralBranch`` takes it (a pointer built from a
        ``SubsystemBasis`` shares that basis's checked rows); any other
        block is copied and scanned.  The constructor's Gram check covers
        every block, finiteness included.
        """
        blocks = [_block_array(q) for q in blocks]
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
        return DecompositionOfIdentity(self)


@dataclass(frozen=True, eq=False)
class DecompositionOfIdentity:
    """The branch projectors F_k = Q_k Q_k^dag of a checked observable: a
    decomposition of the identity on its subsystem.  A family of blocks
    that a caller gives becomes one through ``from_blocks``.
    """

    observable: SpectralObservable

    @classmethod
    def from_blocks(
        cls, subsystem: str, blocks: Sequence[np.ndarray]
    ) -> "DecompositionOfIdentity":
        """The projectors Q_k Q_k^dag of a caller's (d, r_k) blocks Q_k, checked,
        with eigenvalues 0..n-1, by the ``SpectralObservable`` constructor,
        whose one Gram product bounds orthonormality and completeness.  A
        family that fails it, a rank-0 member included, raises
        ``InvalidDecompositionError``; blocks of different row counts, or
        more members than dimensions, raise ``DimensionMismatchError``.
        """
        branches = tuple(SpectralBranch(k, float(k), q) for k, q in enumerate(blocks))
        try:
            return cls(SpectralObservable(subsystem, branches))
        except NotAProjectorError as exc:
            raise InvalidDecompositionError(
                f"blocks are not a decomposition of the identity: {exc}"
            ) from exc

    @property
    def subsystem(self) -> str:
        return self.observable.subsystem

    @property
    def factors(self) -> tuple[np.ndarray, ...]:
        """One factor L_k = Q_k^dag per projector, F_k = L_k^dag L_k."""
        return tuple(b.basis.conj().T for b in self.observable.branches)

    @property
    def projectors(self) -> tuple[np.ndarray, ...]:
        """The projectors F_k, formed anew on each read; read-only."""
        return tuple(b.projector for b in self.observable.branches)

    @property
    def dim(self) -> int:
        return self.observable.dim


def observable_from_matrix(h: np.ndarray, subsystem: str) -> SpectralObservable:
    """Unique spectral form of a finite Hermitian matrix.

    Eigenvalues closer than ``DEFAULT.eig_merge`` are merged into a single branch
    whose projector is the sum of the eigenprojectors; branches come out
    sorted by ascending eigenvalue and indexed by position.
    """
    _, eigvals, eigvecs = _hermitian_spectrum(h)
    values = eigvals.tolist()  # Python floats: a gap that overflows is inf, silently
    groups: list[list[int]] = [[0]]
    for i in range(1, len(values)):
        if values[i] - values[groups[-1][-1]] <= DEFAULT.eig_merge:
            groups[-1].append(i)
        else:
            groups.append([i])
    return SpectralObservable.from_eigenbasis(
        subsystem,
        [_group_mean([values[i] for i in group]) for group in groups],
        [eigvecs[:, group] for group in groups],
    )


def _group_mean(values: list[float]) -> float:
    """The mean of eigenvalues merged into one branch, as ``np.mean`` forms it
    bit for bit whenever its sum cannot overflow; otherwise as the first
    value plus the mean offset from it, which cannot overflow, since the
    values lie within a few ``DEFAULT.eig_merge`` of each other."""
    n = len(values)
    if max(abs(v) for v in values) <= sys.float_info.max / n:
        return float(np.mean(values))
    first = values[0]
    return first + sum(v - first for v in values) / n
