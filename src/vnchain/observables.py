"""Observables in unique spectral form and decompositions of the identity.

A spectral observable is stored as an ordered list of branches: pairwise
distinct eigenvalues, each with an orthonormal (d, r_k) block Q_k of
eigenvectors (any rank r_k >= 1), and at most one idle branch, the
complement of the others.  The given blocks side by side, G = [Q_1, ...],
are the observable's one store of its columns, a checked ``SubsystemBasis``
with rows G^T, and every block is a view of it; the complement holds no
block of its own, and its projector is "the rest", I - G G^dag, which no
block of d - m columns is formed for.  Every branch acts in one way: Q^dag x
for a block and x - G (G^dag x) for the complement, so the cost of a branch
grows with the columns given, not with the dimension.  A branch projector
is derived on request.  A caller gives an event or a decomposition of the
identity as such blocks too, and ``_orthonormal_block`` is the one check of
every block.  Every block family meets one criterion on its Gram residual
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

from .errors import (
    DimensionMismatchError,
    InvalidDecompositionError,
    NonOrthonormalBasisError,
    NotAProjectorError,
)
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

    It holds its given columns G = [Q_1, ..., Q_n], a (d, m) array, as the
    checked basis ``columns``, whose rows are G^T, and one eigenvalue and
    one rank per branch: a block Q_k is the next r_k >= 1 columns of G, and
    rank ``None`` marks the one idle ``ComplementBranch``, the complement
    I - G G^dag of the blocks, which holds no columns.  Without a complement
    G has d columns; with one, m < d.

    The constructor derives every branch as a view of G and forms no Gram
    product.  Besides the eigenvalues and ranks, it judges the residual
    eps = ||G^dag G - I|| that ``columns`` stored by ``_require_orthonormal``,
    on top of the basis's own criterion.  Every residual of a dense check of
    the projectors (idempotency Q_k E_kk Q_k^dag and G E G^dag of the
    complement, orthogonality Q_i E_ij Q_j^dag and G E_k Q_k^dag,
    completeness I - G G^dag, or exactly zero with a complement) is then at
    most (1 + eps) eps, which must be within the dense bound
    ``DEFAULT.orth * d``.  G is read off ``columns`` as ``basis`` and eps as
    ``gram_residual``, from which a premeasurement that measures the
    observable bounds its own check (``premeasurement.Premeasurement``).

    A ``SpectralObservable`` given as ``eigenvalues`` is adopted on
    ``columns``, which must hold its very rows (a ``SubsystemBasis`` that
    adopted its columns under another label): its eigenvalues, ranks and
    branches are taken as they are, since no branch holds a label, with no
    second branch build and no second orthonormality check.  A chain link
    whose instrument reads with the previous pointer's states so shares
    that pointer's branches.
    """

    columns: SubsystemBasis
    eigenvalues: tuple[float, ...] | SpectralObservable
    ranks: tuple[int | None, ...] = ()
    branches: tuple[ObservableBranch, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if isinstance(self.eigenvalues, type(self)):
            source = self.eigenvalues
            if self.columns.rows is not source.columns.rows or self.ranks:
                raise ValueError("an adopted observable keeps its columns and its ranks")
            object.__setattr__(self, "eigenvalues", source.eigenvalues)
            object.__setattr__(self, "ranks", source.ranks)
            object.__setattr__(self, "branches", source.branches)
            return
        eigs, ranks = tuple(map(float, self.eigenvalues)), tuple(self.ranks)
        object.__setattr__(self, "eigenvalues", eigs)
        object.__setattr__(self, "ranks", ranks)
        if len(eigs) != len(ranks):
            raise DimensionMismatchError(f"{len(eigs)} eigenvalues for {len(ranks)} ranks")
        if not eigs:
            raise DimensionMismatchError("observable needs at least one branch")
        if not all(map(math.isfinite, eigs)):
            raise ValueError(f"branch eigenvalues {list(eigs)} are not all finite")
        g = self.basis
        d, m = g.shape
        branches, idle, start = [], [], 0
        for k, (e, r) in enumerate(zip(eigs, ranks)):
            if k and e - eigs[k - 1] <= DEFAULT.eig_merge:
                raise ValueError(
                    f"branch eigenvalues {list(eigs)} not ascending with separation > "
                    f"{DEFAULT.eig_merge}"
                )
            if r is None:
                idle.append(k)
                branches.append(ComplementBranch(k, e, g))
            elif r < 1:
                raise NotAProjectorError(f"branch {k} block is empty: rank {r}")
            else:
                branches.append(SpectralBranch(k, e, g[:, start : start + r]))
                start += r
        if len(idle) == len(ranks):
            raise DimensionMismatchError("observable needs at least one block")
        if len(idle) > 1:
            raise NotAProjectorError("observable has more than one complement branch")
        if start != m:
            raise DimensionMismatchError(f"ranks {ranks} do not split the {m} given columns")
        _require_orthonormal(self.gram_residual, d, "eigenbasis")
        if idle and m == d:
            raise NotAProjectorError(f"branch {idle[0]} complement is empty: rank 0")
        if not idle and m != d:
            raise NotAProjectorError("branch projectors do not sum to the identity")
        object.__setattr__(self, "branches", tuple(branches))

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

        The blocks are copied once, side by side, into the observable's
        ``columns``, whose Gram check covers every block, finiteness
        included.  A family that fails the basis's criterion raises
        ``NotAProjectorError`` ("eigenbasis is not orthonormal: ...").
        """
        blocks = [np.asarray(q) for q in blocks]
        eigs = [float(e) for e in eigenvalues]
        if not blocks:
            raise DimensionMismatchError("observable needs at least one branch")
        if len(eigs) != len(blocks):
            raise DimensionMismatchError(f"{len(eigs)} eigenvalues for {len(blocks)} blocks")
        if any(q.ndim != 2 for q in blocks):
            raise DimensionMismatchError("eigenbasis blocks must be 2-D arrays")
        if len({q.shape[0] for q in blocks}) != 1:
            raise DimensionMismatchError("eigenbasis blocks differ in row count")
        g = np.concatenate(blocks, axis=1, dtype=complex)
        g.setflags(write=False)
        ranks: list[int | None] = [q.shape[1] for q in blocks]
        if complement is not None:
            pos = bisect.bisect(eigs, complement)
            eigs.insert(pos, float(complement))
            ranks.insert(pos, None)
        if len(eigs) > g.shape[0]:
            raise DimensionMismatchError("more branches than dimensions")
        try:
            columns = SubsystemBasis(subsystem, g.T)
        except NonOrthonormalBasisError as exc:
            raise NotAProjectorError(f"eigenbasis is not orthonormal: {exc}") from exc
        return cls(columns, eigs, ranks)

    @property
    def subsystem(self) -> str:
        return self.columns.subsystem

    @property
    def basis(self) -> np.ndarray:
        """G, the given columns side by side: a read-only view of the rows of
        ``columns``, transposed."""
        return self.columns.rows.T

    @property
    def gram_residual(self) -> float:
        """eps = ||G^dag G - I||, as ``columns`` stored it."""
        return self.columns.gram_residual

    @property
    def dim(self) -> int:
        return self.columns.dim

    @property
    def branch_count(self) -> int:
        return len(self.branches)

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
        """The projectors Q_k Q_k^dag of a caller's (d, r_k) blocks Q_k, checked
        as the observable with eigenvalues 0..n-1 that
        ``SpectralObservable.from_eigenbasis`` makes of them, whose one Gram
        product, of its columns, bounds orthonormality and completeness.  A
        family that fails it, a rank-0 member included, raises
        ``InvalidDecompositionError``; blocks of different row counts, or
        more members than dimensions, raise ``DimensionMismatchError``.
        """
        try:
            return cls(SpectralObservable.from_eigenbasis(subsystem, range(len(blocks)), blocks))
        except NotAProjectorError as exc:
            raise InvalidDecompositionError(
                f"blocks are not a decomposition of the identity: {exc}"
            ) from exc

    @property
    def subsystem(self) -> str:
        return self.observable.subsystem

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
    whose projector is the sum of the eigenprojectors (``_merged_spectrum``);
    branches come out sorted by ascending eigenvalue and indexed by position.

    The spectrum is ``eigh``'s of h/2 + h^dag/2 (``_hermitian_spectrum``), so
    even a diagonal matrix is not returned exactly at the edges of the float
    range: a subnormal diagonal entry loses its last bit in the halving
    (``np.diag([5e-324, 1.0])`` gives eigenvalues (0.0, 1.0)), and LAPACK
    rescales a matrix whose norm exceeds about 7e145, which moves its small
    eigenvalues (``np.diag([3.0, 1e308])`` gives 3.0000000000000004).  A
    scenario's ``diag`` observable takes its exact spectral form instead.
    """
    _, eigvals, eigvecs = _hermitian_spectrum(h)
    means, runs = _merged_spectrum(eigvals.tolist())
    return SpectralObservable.from_eigenbasis(subsystem, means, [eigvecs[:, run] for run in runs])


def _merged_spectrum(values: list[float]) -> tuple[list[float], list[range]]:
    """Ascending eigenvalues merged into branches: the runs of positions in
    which each value lies within ``DEFAULT.eig_merge`` of the one before it,
    with the ``_group_mean`` of each run.  ``values`` are Python floats, so a
    gap that overflows is inf, silently, and starts a new run."""
    cuts = [i for i in range(1, len(values)) if values[i] - values[i - 1] > DEFAULT.eig_merge]
    runs = [range(a, b) for a, b in zip([0, *cuts], [*cuts, len(values)])]
    return [_group_mean(values[run.start : run.stop]) for run in runs], runs


def _group_mean(values: list[float]) -> float:
    """The mean of eigenvalues merged into one branch, as ``np.mean`` forms it
    bit for bit whenever its sum cannot overflow; otherwise as the first
    value plus the mean offset from it, which cannot overflow, since the
    values lie within a few ``DEFAULT.eig_merge`` of each other.  A lone
    value is its own mean, returned as is."""
    n = len(values)
    if n == 1:
        return values[0]
    if max(abs(v) for v in values) <= sys.float_info.max / n:
        return float(np.mean(values))
    first = values[0]
    return first + sum(v - first for v in values) / n
