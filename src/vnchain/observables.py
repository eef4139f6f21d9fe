"""Observables in unique spectral form and decompositions of the identity.

A spectral observable is stored as an ordered list of branches: pairwise
distinct eigenvalues, each with an orthonormal (d, r_k) block Q_k of
eigenvectors (any rank r_k >= 1), and at most one idle branch, the
complement of the others.  The given blocks side by side, G = [Q_1, ...],
are kept as ``basis``; the complement holds no block of its own, and its
projector is "the rest", I - G G^dag, which no block of d - m columns is
formed for.  Every branch acts in one way: Q^dag x for a block and
x - G (G^dag x) for the complement, so the cost of a branch grows with the
columns given, not with the dimension.  A branch projector is derived on
request.  A caller gives an event or a decomposition of the identity as
such blocks too, and ``_orthonormal_block`` is the one check of every
block.  Every block family meets one criterion on its Gram residual
(``_require_orthonormal``).
"""

from __future__ import annotations

import bisect
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import ClassVar, Union

import numpy as np

from .errors import DimensionMismatchError, InvalidDecompositionError, NotAProjectorError
from .hilbert import (
    SubsystemBasis,
    _gram_residual,
    _hermitian_spectrum,
    _owned,
    _refuse_non_finite,
    _resized,
    apply_local,
)
from .tolerances import DEFAULT

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _orthonormal_block(q, what: str) -> np.ndarray:
    """``q`` owned (``hilbert._owned``) as a (d, r) block Q of orthonormal
    columns: the one check of a block that a caller gives, an event
    P = Q Q^dag or a range.

    Q must be 2-D with r <= d, have finite entries and meet
    ``_require_orthonormal``.  ``_gram_residual`` checks finiteness before
    the Gram product, so a NaN or infinite entry raises "``what`` has NaN or
    infinite entries" with no floating-point warning.  ``what`` names the
    block in the error.
    """
    q = _owned(q)
    _require_block_shape(q, what)
    _require_orthonormal(_gram_residual(q, what, NotAProjectorError), q.shape[0], what)
    return q


def _require_block_shape(q: np.ndarray, what: str) -> None:
    if q.ndim != 2 or q.shape[1] > q.shape[0]:
        raise NotAProjectorError(f"{what} of shape {q.shape} is not a (d, r) block with r <= d")


def _require_orthonormal(eps: float, d: int, what: str) -> None:
    """The one orthonormality criterion of a block Q of d rows, on its Gram
    residual eps = ||Q^dag Q - I||: (1 + eps) eps <= ``DEFAULT.orth * d``,
    which a NaN eps fails.  That bounds the dense idempotency residual
    ||P^2 - P|| = ||Q (Q^dag Q - I) Q^dag|| of P = Q Q^dag, a Hermitian
    matrix by construction.
    """
    if not eps * (1 + eps) <= DEFAULT.orth * d:
        raise NotAProjectorError(f"{what} is not orthonormal: Gram residual {eps:.3e}")


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
    The block is owned (``hilbert._owned``): a read-only complex block is
    taken as is, any other is copied, and a copy's squared norm is its
    finiteness check (``hilbert._refuse_non_finite``).  The observable or
    the event that uses the branch checks the block orthonormal.

    The branch acts through its block: ``factor`` applies L = Q_k^dag, of
    which F_k = L^dag L, and ``through`` also gives F_k x = Q_k (Q_k^dag x).
    """

    index: int
    eigenvalue: float
    basis: np.ndarray

    is_complement: ClassVar[bool] = False

    def __post_init__(self):
        basis = _owned(self.basis)
        if basis is not self.basis:  # a copy, which no check has covered yet
            _refuse_non_finite(basis)
        object.__setattr__(self, "basis", basis)

    @property
    def projector(self) -> np.ndarray:
        """Q_k Q_k^dag, formed anew on each read; read-only."""
        p = self.basis @ self.basis.conj().T
        p.setflags(write=False)
        return p

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @property
    def factor_rows(self) -> int:
        """The dimension that ``factor`` maps the acted-on axis to: r_k."""
        return self.basis.shape[1]

    def factor(self, values: np.ndarray, dims: tuple[int, ...], axis: int) -> np.ndarray:
        """L x = Q_k^dag x on axis ``axis`` (``hilbert.apply_local``): the
        coefficients of x in the block, whose squared norm is <x|F_k|x>."""
        return apply_local(self.basis.conj().T, values, dims, axis)

    def through(
        self, values: np.ndarray, dims: tuple[int, ...], axis: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The coefficients Q_k^dag x and the projection F_k x = Q_k Q_k^dag x."""
        coeffs = self.factor(values, dims, axis)
        return coeffs, apply_local(self.basis, coeffs, _resized(dims, axis, self.rank), axis)

    def project(self, v: np.ndarray) -> np.ndarray:
        """F_k v of a vector v on this subsystem alone."""
        return self.basis @ (self.basis.conj().T @ v)


@dataclass(frozen=True, eq=False)
class ComplementBranch:
    """The idle branch of an observable: eigenvalue o and the projector
    I - G G^dag onto the complement of its given blocks, G = [Q_1, ...] side
    by side, a (d, m) array with m < d.  It holds no block: its rank d - m is
    "the rest", and it acts as x - G (G^dag x) in O(d m) per vector.

    ``factor`` applies L = I - G G^dag, a projector and so its own factor
    (F = L^dag L = L), which keeps the axis at dimension d; ``through`` gives
    that projection twice, as coefficients and as F x.  ``given`` is owned
    like a ``SpectralBranch`` block, and checked by the observable that
    holds the branch, as its ``basis``, or by the event that uses it.
    """

    index: int
    eigenvalue: float
    given: np.ndarray = field(repr=False)

    is_complement: ClassVar[bool] = True

    def __post_init__(self):
        given = _owned(self.given)
        if given is not self.given:  # a copy, which no check has covered yet
            _refuse_non_finite(given)
        object.__setattr__(self, "given", given)

    @property
    def projector(self) -> np.ndarray:
        """I - G G^dag, formed anew on each read; read-only."""
        g = self.given
        p = np.eye(g.shape[0], dtype=complex) - g @ g.conj().T
        p.setflags(write=False)
        return p

    @property
    def dim(self) -> int:
        return self.given.shape[0]

    @property
    def rank(self) -> int:
        return self.given.shape[0] - self.given.shape[1]

    @property
    def factor_rows(self) -> int:
        """The dimension that ``factor`` maps the acted-on axis to: d."""
        return self.given.shape[0]

    def factor(self, values: np.ndarray, dims: tuple[int, ...], axis: int) -> np.ndarray:
        """x - G (G^dag x) on axis ``axis``, two ``hilbert.apply_local`` calls
        through the m given columns."""
        g = self.given
        coeffs = apply_local(g.conj().T, values, dims, axis)
        back = apply_local(g, coeffs, _resized(dims, axis, g.shape[1]), axis)
        return values - back.reshape(np.shape(values))

    def through(
        self, values: np.ndarray, dims: tuple[int, ...], axis: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The projection F x = x - G (G^dag x), as coefficients and as F x."""
        projected = self.factor(values, dims, axis)
        return projected, projected

    def project(self, v: np.ndarray) -> np.ndarray:
        """F v = v - G (G^dag v) of a vector v on this subsystem alone."""
        g = self.given
        return v - g @ (g.conj().T @ v)


ObservableBranch = Union[SpectralBranch, ComplementBranch]


@dataclass(frozen=True, eq=False)
class SpectralObservable:
    """Observable sum_k o_k F_k with distinct eigenvalues, branches sorted
    ascending; instances compare by identity.

    The branches are ``SpectralBranch`` blocks Q_k and at most one
    ``ComplementBranch``.  The constructor checks every observable but one
    kind.  Besides shapes, ranks >= 1 and the spectrum, it bounds
    eps = ||E||, E = G^dag G - I for the given blocks side by side,
    G = [Q_1, ..., Q_n], a (d, m) array, by ``_require_orthonormal``.
    Without a complement G must have d columns; with one, m < d, and the
    complement's ``given`` must be G.  Every residual of a dense check of
    the projectors (idempotency Q_k E_kk Q_k^dag and G E G^dag of the
    complement, orthogonality Q_i E_ij Q_j^dag and G E_k Q_k^dag,
    completeness I - G G^dag, or exactly zero with a complement) is then at
    most (1 + eps) eps, which must be within the dense bound
    ``DEFAULT.orth * d``.  That Gram check (``hilbert._gram_residual``) is
    also the finiteness check of every block.  G is kept,
    read-only, as ``basis``: d columns for a complete observable, m < d
    with a complement, whose d - m columns are never formed; eps is kept
    as ``gram_residual``, from which a premeasurement that measures the
    observable bounds its own check (``premeasurement.Premeasurement``).

    The one other route is ``_adopt_basis``: the pointer of a
    ``SubsystemBasis``, complete or not, whose rows that basis has already
    copied, checked finite and Gram-checked.  It applies the same criterion
    to that basis's stored residual, and forms no second G or Gram product.
    """

    subsystem: str
    branches: tuple[ObservableBranch, ...]
    basis: np.ndarray = field(init=False, repr=False)
    gram_residual: float = field(init=False, repr=False)

    def __post_init__(self):
        branches = tuple(self.branches)
        if not branches:
            raise DimensionMismatchError("observable needs at least one branch")
        object.__setattr__(self, "branches", branches)
        blocks = [b for b in branches if not b.is_complement]
        rest = [b for b in branches if b.is_complement]
        if not blocks:
            raise DimensionMismatchError("observable needs at least one block")
        if len(rest) > 1:
            raise NotAProjectorError("observable has more than one complement branch")
        basis = _side_by_side([b.basis for b in blocks])
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
        for b in blocks:
            if b.rank == 0:
                raise NotAProjectorError(f"branch {b.index} block is empty: rank 0")
        _require_block_shape(basis, "eigenbasis")
        eps = _gram_residual(basis)
        _require_orthonormal(eps, d, "eigenbasis")
        if rest:
            if n == d:
                raise NotAProjectorError(f"branch {rest[0].index} complement is empty: rank 0")
            if rest[0].given.shape != basis.shape or not np.array_equal(rest[0].given, basis):
                raise NotAProjectorError(
                    f"branch {rest[0].index} is not the complement of the given blocks"
                )
        elif n != d:
            raise NotAProjectorError("branch projectors do not sum to the identity")
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "gram_residual", eps)

    @classmethod
    def _adopt_basis(cls, pointer_states: SubsystemBasis) -> "SpectralObservable":
        """The pointer observable sum_k k |b_k><b_k| of a basis of n <= d
        vectors b_k, one rank-1 branch per vector, built on the basis's
        checked rows R; for n < d, one idle complement branch with eigenvalue
        -1 comes first and branch k sits at position k + 1.

        What the constructor would check holds by construction: one branch
        per vector, eigenvalues -1, 0..n-1 (finite, ascending, 1 apart),
        entries that the basis found finite, and a complement of the given
        columns.  What is left is the constructor's criterion on the Gram
        residual of G = R^T, which is ||R R^dag - I||, the residual the basis
        stored and the observable keeps as its ``gram_residual``.  G is R^T,
        a view, and each block is a view of one row.
        """
        rows = pointer_states.rows
        n, d = rows.shape
        _require_orthonormal(pointer_states.gram_residual, d, "eigenbasis")
        observable = object.__new__(cls)
        given = rows.T
        offset = 1 if n < d else 0
        branches = tuple(
            SpectralBranch(k + offset, float(k), v[:, None])
            for k, v in enumerate(pointer_states.vectors)
        )
        if offset:
            branches = (ComplementBranch(0, -1.0, given),) + branches
        object.__setattr__(observable, "subsystem", pointer_states.subsystem)
        object.__setattr__(observable, "branches", branches)
        object.__setattr__(observable, "basis", given)
        object.__setattr__(observable, "gram_residual", pointer_states.gram_residual)
        return observable

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
        branch with that eigenvalue, placed by it, is the complement of the
        blocks: a ``ComplementBranch`` on the blocks side by side, with no
        block of its own.

        Each block is owned (``hilbert._owned``) as ``SpectralBranch`` owns
        it: a read-only complex block is adopted, any other copied.  The
        constructor's Gram check covers every block, finiteness included.
        """
        blocks = [_owned(q) for q in blocks]
        eigs = [float(e) for e in eigenvalues]
        if not blocks:
            raise DimensionMismatchError("observable needs at least one branch")
        if len(eigs) != len(blocks):
            raise DimensionMismatchError(f"{len(eigs)} eigenvalues for {len(blocks)} blocks")
        if complement is not None:
            given = _side_by_side(blocks)
            given.setflags(write=False)
            pos = bisect.bisect(eigs, complement)
            eigs.insert(pos, float(complement))
            blocks.insert(pos, None)
        return cls(
            subsystem,
            tuple(
                ComplementBranch(k, e, given) if q is None else SpectralBranch(k, e, q)
                for k, (e, q) in enumerate(zip(eigs, blocks))
            ),
        )

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

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
    """The branch projectors F_k of a checked observable, Q_k Q_k^dag or a
    complement I - G G^dag: a decomposition of the identity on its subsystem.  A family of blocks
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
        """One factor L_k per projector, F_k = L_k^dag L_k: Q_k^dag for a
        block, and the projector I - G G^dag itself for a complement, formed
        on read.  The package applies each branch through ``factor``."""
        return tuple(
            b.projector if b.is_complement else b.basis.conj().T
            for b in self.observable.branches
        )

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
