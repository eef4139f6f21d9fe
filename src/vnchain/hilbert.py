"""Multipartite complex linear algebra on labeled tensor-product spaces.

Index convention (fixed everywhere): for a layout (s0, d0), (s1, d1), ...
the composite basis index is i0*(d1*d2*...) + i1*(d2*...) + ..., i.e. the
leftmost subsystem varies slowest.  This matches ``numpy.kron`` order, so
``tensor`` is a plain Kronecker product.

All values are immutable after construction and every operation is a pure
function; instances may be shared between threads freely.  Values that hold
arrays (states, bases) compare and hash by identity: an elementwise array
comparison has no single truth value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import (
    DegenerateLayoutError,
    DimensionMismatchError,
    LayoutConflictError,
    NonOrthonormalBasisError,
)
from .tolerances import DEFAULT


def _owned(values) -> np.ndarray:
    """``values`` as a read-only complex array, owned by the value that holds
    it: the one ownership rule.  A read-only complex array is taken as is
    (the package freezes what it makes and hands it over, and a caller who
    froze an array will not change it); anything else is copied and frozen."""
    if isinstance(values, np.ndarray) and values.dtype == complex and not values.flags.writeable:
        return values
    out = np.array(values, dtype=complex)
    out.setflags(write=False)
    return out


def _refuse_non_finite(a, what: str = "array", error=ValueError, scalar=None) -> float:
    """``scalar``, by default ||a||^2 as one ``np.vdot``; ``error`` when ``a``
    has a NaN or infinite entry.

    The one finiteness rule: a value's scalar check (a norm, a trace, a Gram
    residual, or this squared norm) is its finiteness check, since a NaN or
    infinite entry makes the scalar NaN or infinite, and neither ``np.vdot``
    nor a check written ``not value <= bound`` raises a floating-point
    warning on the way.  Only a non-finite scalar makes this scan ``a``, so
    that a non-finite entry is named; finite entries whose squares overflow
    pass, for the caller to judge.
    """
    if scalar is None:
        scalar = np.vdot(a, a).real
    if not math.isfinite(scalar) and not np.isfinite(a).all():
        raise error(f"{what} has NaN or infinite entries")
    return scalar


def _check_state_norm(amplitudes: np.ndarray, normalized: bool = True) -> None:
    """The check of a state's amplitudes: their squared norm, one ``np.vdot``,
    is their finiteness check (``_refuse_non_finite``) and, for a normalized
    state, their norm check.  ``StateVector`` makes it, and a chain makes it
    on each link's amplitudes that it wraps in no ``StateVector``."""
    n = math.sqrt(_refuse_non_finite(amplitudes))
    if normalized and not abs(n - 1.0) <= DEFAULT.norm:
        raise ValueError(f"state flagged normalized but ||amplitudes|| = {n!r}")


def _fro(a) -> float:
    """The Frobenius (vector 2-) norm of ``a`` as a Python float: the one
    check-norm kernel.

    Computed as ``np.linalg.norm(a)`` computes it, so bit for bit equal to
    it: the entries in memory order (``ravel(order="K")``), then
    re.re + im.im for a complex array, then an IEEE square root; without
    its argument dispatch.
    """
    x = np.asarray(a).ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    if x.dtype.kind != "f":
        x = x.astype(float)
    return math.sqrt(x.dot(x))


def _worst(values: Iterable[float]) -> float:
    """The largest of the residuals ``values``, 0.0 if there are none, and
    NaN if any is NaN: the one worst-residual fold.

    Python's ``max`` keeps a NaN only when it comes first, since every
    comparison with NaN is false, so a NaN residual could pass a check.
    Otherwise this is ``max(0.0, *values)`` to the bit: the first of equal
    values is kept, and inf wins.
    """
    worst = 0.0
    for value in values:
        if math.isnan(value):
            return math.nan
        if value > worst:
            worst = value
    return worst


def _gram_residual(m: np.ndarray, what: str = "array", error=ValueError) -> float:
    """||m^dag m - I||_F for a (d, k) matrix ``m``: the one Gram-residual kernel.

    ||m||_F^2 comes first, as the finiteness check (``_refuse_non_finite``):
    a non-finite entry, or finite ones whose squares overflow, raise
    ``error`` naming ``what`` before the Gram product could raise a
    floating-point warning.

    The identity is subtracted in place on the Gram diagonal, which is bit
    for bit the ``- np.eye(k)`` form (x - 0 is x) without forming the eye.
    The product is a new C-ordered array, so ``reshape(-1)`` is a view of it
    (and a cheaper one than ``.flat``).
    """
    if not math.isfinite(_refuse_non_finite(m, what, error)):
        raise error(f"{what} has entries too large: its squared norm overflows")
    gram = m.conj().T @ m
    gram.reshape(-1)[:: gram.shape[0] + 1] -= 1.0
    return _fro(gram)


def _hermitian_spectrum(h, dim: int | None = None):
    """The one boundary of a Hermitian matrix that a caller gives.

    ``h`` is owned, and must have finite entries (its squared norm, ahead of
    the halves below, where inf - inf would warn), be square (of side
    ``dim`` when given) and be Hermitian within ``DEFAULT.herm``.  Returns
    ``h`` and the ascending eigenvalues and eigenvectors of its Hermitian
    part (h + h^dag)/2, formed as h/2 + h^dag/2.  The Hermiticity residual
    is 2 ||h/2 - h^dag/2|| from the same halves.  For entries in the normal
    range halving and doubling are exact, so the residual has the bits of
    ||h - h^dag||; no difference of finite halves overflows, and a residual
    whose squares pass the float range is inf (its ``_fro`` runs with
    overflow ignored), which the check refuses with no floating-point
    warning.  Below the normal range the halving can drop an entry's last
    bit, which moves the residual by a few multiples of the smallest
    subnormal (about 5e-324), far below any tolerance.
    """
    h = _owned(h)
    _refuse_non_finite(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or dim not in (None, h.shape[0]):
        side = "" if dim is None else f" of side {dim}"
        raise DimensionMismatchError(f"expected a square matrix{side}, got shape {h.shape}")
    half, half_adjoint = h / 2, h.conj().T / 2
    with np.errstate(over="ignore"):
        herm = 2 * _fro(half - half_adjoint)
    if not herm <= DEFAULT.herm:
        raise ValueError(f"matrix not Hermitian: residual {herm:.3e}")
    eigvals, eigvecs = np.linalg.eigh(half + half_adjoint)
    return h, eigvals, eigvecs


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered, labeled subsystem dimensions defining a product basis."""

    subsystems: tuple[tuple[str, int], ...]
    # Derived once from ``subsystems``; equality and hashing ignore them.
    labels: tuple[str, ...] = field(init=False, repr=False, compare=False)
    dims: tuple[int, ...] = field(init=False, repr=False, compare=False)
    dim: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        subs = tuple([(str(label), int(dim)) for label, dim in self.subsystems])
        object.__setattr__(self, "subsystems", subs)
        if not subs:
            raise DegenerateLayoutError("layout needs at least one subsystem")
        labels, dims = zip(*subs)  # every entry is a (label, dim) pair
        if len(set(labels)) != len(labels):
            raise LayoutConflictError(f"duplicate subsystem labels in {list(labels)}")
        if min(dims) < 1:
            raise DimensionMismatchError("subsystem dimensions must be >= 1")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "dim", math.prod(dims))

    def position(self, label: str) -> int:
        for i, (name, _) in enumerate(self.subsystems):
            if name == label:
                return i
        raise LayoutConflictError(f"unknown subsystem label {label!r}")

    def dim_of(self, label: str) -> int:
        return self.subsystems[self.position(label)][1]

    def restricted(self, keep: Iterable[str]) -> "SubsystemLayout":
        """Sub-layout of the given labels, preserving the original order."""
        keep = set(keep)
        missing = keep - set(self.labels)
        if missing:
            raise LayoutConflictError(f"unknown subsystem labels {sorted(missing)}")
        subs = tuple(s for s in self.subsystems if s[0] in keep)
        if not subs:
            raise DegenerateLayoutError("restriction keeps no subsystems")
        return SubsystemLayout(subs)

    def concat(self, other: "SubsystemLayout") -> "SubsystemLayout":
        collision = set(self.labels) & set(other.labels)
        if collision:
            raise LayoutConflictError(f"label collision on {sorted(collision)}")
        return SubsystemLayout(self.subsystems + other.subsystems)

    def relabeled(self, mapping: dict[str, str]) -> "SubsystemLayout":
        """Rename subsystems in place (dimensions and order unchanged)."""
        unknown = set(mapping) - set(self.labels)
        if unknown:
            raise LayoutConflictError(f"unknown subsystem labels {sorted(unknown)}")
        return SubsystemLayout(
            tuple((mapping.get(label, label), dim) for label, dim in self.subsystems)
        )

    def __str__(self) -> str:
        return "*".join(f"{label}({dim})" for label, dim in self.subsystems)


def layout(*subsystems: tuple[str, int]) -> SubsystemLayout:
    """Convenience constructor: ``layout(("A", 2), ("B", 3))``."""
    return SubsystemLayout(tuple(subsystems))


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure multipartite state; unnormalized vectors must be flagged.

    Unnormalized instances carry expansion coefficients and similar
    intermediate vectors; they are never valid physical inputs to evolution.

    The amplitudes are owned (``_owned``).  Their squared norm, one
    ``np.vdot``, is the finiteness check of every state
    (``_refuse_non_finite``) and, for a normalized one, the norm check, as
    ``DensityOperator`` checks its trace: finite amplitudes whose squares
    overflow give an infinite norm and a typed error, with no
    floating-point warning.

    A ``StateVector`` given as ``amplitudes`` is adopted on ``layout``,
    which must have its dimensions (a relabeling, as ``relabeled`` makes):
    its amplitudes are taken as they are, and its check stands for this
    one's unless this state is flagged normalized and it was not.  A
    chain's instruments that start in one ready state so share its vector.
    """

    layout: SubsystemLayout
    amplitudes: np.ndarray | StateVector
    normalized: bool = True

    def __post_init__(self):
        source = self.amplitudes
        if isinstance(source, StateVector):
            if source.layout.dims != self.layout.dims:
                raise DimensionMismatchError(
                    f"a state on {source.layout} cannot be adopted on {self.layout}"
                )
            object.__setattr__(self, "amplitudes", source.amplitudes)
            if self.normalized and not source.normalized:
                _check_state_norm(source.amplitudes)
            return
        amps = _owned(source)
        if amps.ndim != 1 or amps.shape[0] != self.layout.dim:
            raise DimensionMismatchError(
                f"amplitudes of length {amps.shape} do not match layout "
                f"{self.layout} of dimension {self.layout.dim}"
            )
        object.__setattr__(self, "amplitudes", amps)
        _check_state_norm(amps, self.normalized)

    def norm(self) -> float:
        return _fro(self.amplitudes)

    def normalize(self) -> "StateVector":
        n = self.norm()
        if n < DEFAULT.zero_norm:
            raise ValueError("cannot normalize a (numerically) zero vector")
        return StateVector(self.layout, self.amplitudes / n, normalized=True)

    def density(self) -> "DensityOperator":
        """Projector |psi><psi| as a density operator (normalized states only),
        factored as M = psi[:, None]."""
        if not self.normalized:
            raise DimensionMismatchError("density() needs a normalized state")
        return DensityOperator(self.layout, self.amplitudes[:, None])

    def reorder(self, new_labels: Sequence[str]) -> "StateVector":
        """Permute subsystems into the given label order."""
        perm, new_layout = _permutation(self.layout, new_labels)
        tens = self.amplitudes.reshape(self.layout.dims).transpose(perm)
        return StateVector(new_layout, tens.reshape(-1), normalized=self.normalized)

    def relabeled(self, mapping: dict[str, str]) -> "StateVector":
        return StateVector(self.layout.relabeled(mapping), self, normalized=self.normalized)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Mixed or pure multipartite state rho = M M^dag, held as its factor M.

    The constructor takes a (layout.dim, r) factor M and owns it
    (``_owned``).  M M^dag is Hermitian and PSD by construction, so the one
    check is the shape and the trace ||M||_F^2 = 1, in O(D r); the trace
    check is also the finiteness check (``_refuse_non_finite``).  A caller's dense matrix
    enters through ``from_matrix``.
    """

    layout: SubsystemLayout
    factor: np.ndarray = field(repr=False)

    def __post_init__(self):
        d = self.layout.dim
        m = _owned(self.factor)
        if m.ndim != 2 or m.shape[0] != d:
            raise DimensionMismatchError(f"expected array of shape ({d}, r), got {m.shape}")
        tr = complex(np.vdot(m, m))
        if not abs(tr - 1.0) <= DEFAULT.norm:
            _refuse_non_finite(m, scalar=abs(tr))
            raise ValueError(f"trace {tr:.12g} is not 1 within {DEFAULT.norm}")
        object.__setattr__(self, "factor", m)

    @classmethod
    def from_matrix(cls, layout: SubsystemLayout, rho: np.ndarray) -> "DensityOperator":
        """The state of a caller's dense (D, D) matrix rho, factored once.

        rho must be Hermitian within ``DEFAULT.herm``, of unit trace within
        ``DEFAULT.norm`` and PSD down to lambda_min >= -``DEFAULT.psd``.  The
        factor is V sqrt(lambda) over the eigenpairs with lambda > lambda_max D
        eps (the default rank cut of ``np.linalg.matrix_rank``), so rounding
        noise adds no columns; it is rescaled to unit Frobenius norm so that
        the dropped eigenvalues leave the trace at one.
        """
        mat, eigvals, eigvecs = _hermitian_spectrum(rho, layout.dim)
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > DEFAULT.norm:
            raise ValueError(f"trace {tr:.12g} is not 1 within {DEFAULT.norm}")
        lo = float(eigvals[0])
        if lo < -DEFAULT.psd:
            raise ValueError(f"matrix not PSD: lowest eigenvalue {lo:.3e}")
        kept = eigvals > eigvals[-1] * layout.dim * np.finfo(float).eps
        m = eigvecs[:, kept] * np.sqrt(eigvals[kept])
        return cls(layout, m / _fro(m))

    @cached_property
    def matrix(self) -> np.ndarray:
        """rho = M M^dag, formed on first read and kept; read-only."""
        mat = self.factor @ self.factor.conj().T
        mat.setflags(write=False)
        return mat

    def purity(self) -> float:
        return purity(self)

    def reorder(self, new_labels: Sequence[str]) -> "DensityOperator":
        """Permute subsystems into the given label order (the rows of M)."""
        perm, new_layout = _permutation(self.layout, new_labels)
        rows = self.factor.reshape(self.layout.dims + (-1,))
        rows = rows.transpose(perm + (len(perm),))
        return DensityOperator(new_layout, rows.reshape(new_layout.dim, -1))

    def relabeled(self, mapping: dict[str, str]) -> "DensityOperator":
        return DensityOperator(self.layout.relabeled(mapping), self.factor)


State = Union[StateVector, DensityOperator]


def _permutation(lay: SubsystemLayout, new_labels: Sequence[str]):
    if sorted(new_labels) != sorted(lay.labels):
        raise LayoutConflictError(
            f"reorder labels {list(new_labels)} must be a permutation of {list(lay.labels)}"
        )
    perm = tuple(lay.position(label) for label in new_labels)
    new_layout = SubsystemLayout(tuple(lay.subsystems[p] for p in perm))
    return perm, new_layout


@dataclass(frozen=True, eq=False)
class SubsystemBasis:
    """Orthonormal vectors on one subsystem; may be a sub-basis.

    The vectors are owned as ``rows``, a read-only (n, d) array
    (``_owned``: a read-only complex (n, d) array is taken as is, any other
    sequence of vectors copied once), and ``vectors`` holds its rows.  The
    Gram check (``_gram_residual``) is also the finiteness check.  Its
    residual eps = ||R R^dag - I|| of the rows R is kept as
    ``gram_residual``.  A ``SpectralObservable`` keeps its columns G as such
    a basis, with rows G^T, and judges this residual by its own criterion,
    so an observable's columns are checked once.

    A ``SubsystemBasis`` given as ``vectors`` is adopted under the new
    label, as ``_owned`` adopts a frozen array: its ``rows``, ``vectors``
    and checked ``gram_residual`` are taken as they are, with no copy and
    no second Gram product.  A chain whose instruments share one list of
    pointer states so checks it once.
    """

    subsystem: str
    vectors: tuple[np.ndarray, ...] | SubsystemBasis
    rows: np.ndarray = field(init=False, repr=False)
    gram_residual: float = field(init=False, repr=False)

    def __post_init__(self):
        if isinstance(self.vectors, SubsystemBasis):
            checked = self.vectors
            object.__setattr__(self, "rows", checked.rows)
            object.__setattr__(self, "vectors", checked.vectors)
            object.__setattr__(self, "gram_residual", checked.gram_residual)
            return
        vecs = self.vectors if isinstance(self.vectors, np.ndarray) else tuple(self.vectors)
        if not len(vecs):
            raise NonOrthonormalBasisError("basis needs at least one vector")
        try:
            rows = _owned(vecs)
        except (TypeError, ValueError):  # vectors of different lengths, or not numbers
            rows = None
        if rows is None or rows.ndim != 2:
            raise DimensionMismatchError("basis vectors have inconsistent shapes")
        n, dim = rows.shape
        if n > dim:
            raise NonOrthonormalBasisError(
                f"{n} vectors cannot be orthonormal in dimension {dim}"
            )
        resid = _gram_residual(rows.T)
        if not resid <= DEFAULT.orth * max(1, n):
            raise NonOrthonormalBasisError(f"orthonormality residual {resid:.3e}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "vectors", tuple(rows))
        object.__setattr__(self, "gram_residual", resid)

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    @property
    def is_complete(self) -> bool:
        return len(self.vectors) == self.dim

    def completed(self) -> "SubsystemBasis":
        """Deterministic completion to a full basis.

        Missing directions are filled by Gram-Schmidt over the canonical
        basis vectors, in index order, so the result is reproducible.
        """
        if self.is_complete:
            return self
        full = complete_orthonormal(list(self.vectors), self.dim)
        return SubsystemBasis(self.subsystem, tuple(full))


def complete_orthonormal(vectors: Sequence[np.ndarray], dim: int) -> list[np.ndarray]:
    """Extend orthonormal ``vectors`` to a full orthonormal basis of ``dim``.

    The canonical basis vectors are tried in index order; near-dependent
    ones are skipped.  The input vectors come first in the result, untouched.
    """
    basis = [np.asarray(v, dtype=complex) for v in vectors]
    for w in np.eye(dim, dtype=complex):
        if len(basis) == dim:
            break
        for _ in range(2):  # re-orthogonalize for numerical safety
            for b in basis:
                w = w - np.vdot(b, w) * b
        n = _fro(w)
        if n > DEFAULT.completion:
            basis.append(w / n)
    if len(basis) != dim:
        raise NonOrthonormalBasisError("could not complete basis")
    return basis


def tensor(a: State, b: State) -> State:
    """Kronecker product of two states; layouts are concatenated in order."""
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        lay = a.layout.concat(b.layout)
        return StateVector(
            lay,
            np.kron(a.amplitudes, b.amplitudes),
            normalized=a.normalized and b.normalized,
        )
    if isinstance(a, DensityOperator) and isinstance(b, DensityOperator):
        lay = a.layout.concat(b.layout)
        return DensityOperator(lay, np.kron(a.factor, b.factor))
    raise TypeError("tensor needs two StateVectors or two DensityOperators")


def apply_local(
    op: np.ndarray, values: np.ndarray, dims: Sequence[int], axis: int
) -> np.ndarray:
    """Apply a one-subsystem operator to axis ``axis`` of a product tensor.

    ``values`` holds amplitudes laid out over ``dims`` (leftmost slowest)
    in its trailing axes, optionally behind leading batch axes: the tensor
    is the shortest run of one or more trailing axes that holds exactly
    ``prod(dims)`` entries, and the axes in front of it are the batch.  A
    density matrix is the tensor over ``dims + dims``, so a (D, D) matrix
    has no batch axes; axis ``p`` is the row (ket) side of subsystem ``p``
    and axis ``n + p`` its column side, so ``rho @ P`` is
    ``apply_local(P.T, rho, dims + dims, n + p)``.  The tensor is viewed as
    ``(left, d, right)`` and contracted as one broadcast matmul; no operator
    on the full space is formed.  A square operator keeps the shape of
    ``values``.  A rectangular ``(m, d)`` operator (an isometry) maps the
    axis to dimension ``m``; the result is then the batch axes followed by
    the flat resized tensor.
    """
    op, values = np.asarray(op), np.asarray(values)
    d = dims[axis]
    if op.ndim != 2 or op.shape[1] != d:
        raise DimensionMismatchError(
            f"operator of shape {op.shape} does not fit axis {axis} of dimension {d}"
        )
    size, batch = math.prod(dims), values.ndim - 1
    tail = values.shape[-1] if values.ndim else 0
    while tail < size and batch > 0:
        batch -= 1
        tail *= values.shape[batch]
    if tail != size:
        raise DimensionMismatchError(
            f"values of shape {values.shape} do not end in a tensor over dims {tuple(dims)}"
        )
    right = math.prod(dims[axis + 1 :])
    if right == 1:  # trailing axis: one (rows, d) x (d, m) product
        out = values.reshape(-1, d) @ op.T
    else:
        out = op @ values.reshape(-1, d, right)
    if op.shape[0] == d:
        return out.reshape(values.shape)
    return out.reshape(values.shape[:batch] + (-1,))


def _resized(dims: Sequence[int], axis: int, size: int) -> tuple[int, ...]:
    """``dims`` with axis ``axis`` of dimension ``size``: the dims of what
    ``apply_local`` returns for an operator with ``size`` rows."""
    return tuple(dims[:axis]) + (size,) + tuple(dims[axis + 1 :])


def partial_trace_matrix(
    matrix: np.ndarray, dims: Sequence[int], keep: Sequence[int]
) -> np.ndarray:
    """Partial trace of a raw matrix over all axes not in ``keep``.

    ``keep`` holds subsystem positions (in layout order); the result keeps
    them in that order.  No normalization or validation is performed.
    """
    dims = tuple(dims)
    n = len(dims)
    keep = sorted(keep)
    tens = matrix.reshape(dims + dims)
    in_idx = list(range(n)) + [i + n if i in keep else i for i in range(n)]
    out_idx = [i for i in keep] + [i + n for i in keep]
    reduced = np.einsum(tens, in_idx, out_idx)
    d_keep = int(np.prod([dims[i] for i in keep]))
    return reduced.reshape(d_keep, d_keep)


def partial_trace_vector(
    amplitudes: np.ndarray, dims: Sequence[int], keep: Sequence[int]
) -> np.ndarray:
    """Factor M of the partial trace of |psi><psi| over all axes not in ``keep``.

    The reduced state is M M^dag, where M is the amplitude tensor with the
    kept axes (in layout order) moved to the front and reshaped to
    (kept, traced).  Leading batch axes of ``amplitudes`` (vectors psi_j)
    give the factor of sum_j tr(|psi_j><psi_j|), with the batch folded into
    the columns.  No normalization or validation is performed.
    """
    dims = tuple(dims)
    keep = sorted(keep)
    b = amplitudes.ndim - 1
    traced = [i for i in range(len(dims)) if i not in keep]
    perm = [b + i for i in keep] + list(range(b)) + [b + i for i in traced]
    d_keep = math.prod(dims[i] for i in keep)
    tens = amplitudes.reshape(amplitudes.shape[:-1] + dims)
    return tens.transpose(perm).reshape(d_keep, -1)


def partial_trace(state: State, traced: Iterable[str]) -> DensityOperator:
    """Reduced density operator after tracing out the ``traced`` subsystems.

    The trace is preserved, so the input must be normalized for the result
    to be a valid density operator.
    """
    lay = state.layout
    traced = set(traced)
    unknown = traced - set(lay.labels)
    if unknown:
        raise LayoutConflictError(f"cannot trace unknown subsystems {sorted(unknown)}")
    keep = [i for i, label in enumerate(lay.labels) if label not in traced]
    if not keep:
        raise DegenerateLayoutError("tracing out every subsystem leaves no state")
    new_layout = lay.restricted(set(lay.labels) - traced)
    # a mixed state's factor columns are a batch of vectors
    vectors = state.amplitudes if isinstance(state, StateVector) else state.factor.T
    return DensityOperator(new_layout, partial_trace_vector(vectors, lay.dims, keep))


def partial_scalar_product(bra: np.ndarray, subsystem: str, state: StateVector) -> StateVector:
    """Contract <bra| against one subsystem of a pure state.

    Returns the (generally unnormalized) coefficient vector on the remaining
    subsystems, in their original order.
    """
    lay = state.layout
    pos = lay.position(subsystem)
    bra = np.asarray(bra, dtype=complex)
    if bra.ndim != 1 or bra.shape[0] != lay.dims[pos]:
        raise DimensionMismatchError(
            f"bra of length {bra.shape} does not match subsystem "
            f"{subsystem!r} of dimension {lay.dims[pos]}"
        )
    tens = state.amplitudes.reshape(lay.dims)
    contracted = np.tensordot(bra.conj(), tens, axes=([0], [pos]))
    remaining = [label for label in lay.labels if label != subsystem]
    if not remaining:
        raise DegenerateLayoutError("partial scalar product leaves no subsystems")
    new_layout = lay.restricted(remaining)
    return StateVector(new_layout, contracted.reshape(-1), normalized=False)


def expand_in_basis(
    state: StateVector, basis: SubsystemBasis
) -> list[tuple[int, StateVector]]:
    """Expand a pure state in a basis of one subsystem.

    A sub-basis is first completed deterministically (``SubsystemBasis.completed``).
    Returns ``(n, coefficient_n)`` pairs over the full basis; the coefficients
    are unnormalized vectors on the remaining subsystems and satisfy
    ``sum_n tensor(coefficient_n, |n>) == state`` up to subsystem reordering.
    """
    full = basis.completed()
    if full.dim != state.layout.dim_of(full.subsystem):
        raise DimensionMismatchError(
            f"basis dimension {full.dim} does not match subsystem "
            f"{full.subsystem!r} in {state.layout}"
        )
    return [
        (n, partial_scalar_product(v, full.subsystem, state))
        for n, v in enumerate(full.vectors)
    ]


def basis_state(lay: SubsystemLayout, index: int | Sequence[int]) -> StateVector:
    """Canonical product-basis vector, by flat index or per-subsystem indices."""
    if not isinstance(index, (int, np.integer)):
        idx = 0
        for (label, dim), i in zip(lay.subsystems, index, strict=True):
            if not 0 <= i < dim:
                raise DimensionMismatchError(f"index {i} out of range for {label!r}")
            idx = idx * dim + i
        index = idx
    amps = np.zeros(lay.dim, dtype=complex)
    amps[index] = 1.0
    return StateVector(lay, amps)


def purity(state: State) -> float:
    """tr(rho^2): ||psi||^4 for a pure state, in O(D), and ||M^dag M||_F^2 for
    rho = M M^dag, in O(D r^2)."""
    if isinstance(state, StateVector):
        return float(np.vdot(state.amplitudes, state.amplitudes).real) ** 2
    return _fro(state.factor.conj().T @ state.factor) ** 2


def factor_difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A small Hermitian matrix with the norms and nonzero spectrum of A A^dag - B B^dag.

    With the thin QR [A, B] = Q T and S = diag(I, -I), A A^dag - B B^dag is
    Q (T S T^dag) Q^dag, so T S T^dag, of the size of the stacked column
    count, carries its Frobenius norm and trace norm.  O(D r^2), and free of
    the cancellation of the Gram identity ||A^dag A||^2 + ||B^dag B||^2 -
    2 ||A^dag B||^2, which loses half the digits when A A^dag ~ B B^dag.
    """
    t = np.linalg.qr(np.hstack([a, b]), mode="r")
    signs = np.concatenate([np.ones(a.shape[1]), -np.ones(b.shape[1])])
    return (t * signs) @ t.conj().T


def _same_dims(a: State, b: State, what: str) -> None:
    if a.layout.dims != b.layout.dims:
        raise DimensionMismatchError(f"{what} of states on different layouts")


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    """(1/2) * trace norm of rho_a - rho_b: the nuclear norm of the
    ``factor_difference`` of their factors, in O(D r^2)."""
    _same_dims(a, b, "trace distance")
    return 0.5 * float(np.linalg.norm(factor_difference(a.factor, b.factor), "nuc"))


def _haar_isometries(count: int, dim: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` independent Haar-distributed (dim, cols) isometries, stacked
    as (count, dim, cols): the leading ``cols`` columns of Haar unitaries.

    One stacked QR of complex Ginibre matrices, each column's phase fixed
    by the diagonal of R (Mezzadri, *Notices AMS* 54(5), 2007).  A stack of
    one gives the matrices of a plain QR bit for bit."""
    shape = (count, dim, cols)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r, axis1=1, axis2=2)
    return q * (phases / np.abs(phases))[:, None, :]


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary (``_haar_isometries`` of one square matrix)."""
    return _haar_isometries(1, dim, dim, rng)[0]


def random_state(lay: SubsystemLayout, rng: np.random.Generator) -> StateVector:
    v = rng.standard_normal(lay.dim) + 1j * rng.standard_normal(lay.dim)
    return StateVector(lay, v / _fro(v))


def random_density(
    lay: SubsystemLayout, rng: np.random.Generator, rank: int | None = None
) -> DensityOperator:
    """Random mixed state G G^dag / tr(G G^dag) of a (D, rank) Ginibre matrix
    G (rank D when None), held as its factor G / ||G||_F."""
    d = lay.dim
    r = rank if rank is not None else d
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    return DensityOperator(lay, g / _fro(g))
