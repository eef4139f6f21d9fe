"""Premeasurements on object x instrument pairs.

A premeasurement couples a measured observable on the object to a pointer
observable on the instrument: whenever the input has a sharp measured value,
the output has the corresponding sharp pointer value (calibration).  The
ideal construction leaves sharp inputs untouched; the exact construction
dresses an ideal one with per-branch unitaries and keeps calibration while
breaking idealness.

Only the initial sector matters physically: a premeasurement is carried as
its isometry V = U(. (x) |ready>).  A full unitary U, one of many
completions of V, is formed only by ``complete_unitary``.

Branch correspondence is an explicit ``index_map`` from measured branch
positions to pointer branch positions; nothing is inferred from eigenvalue
equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .branches import Branch, BranchDecomposition
from .errors import DimensionMismatchError, DressingError, LayoutConflictError
from .hilbert import (
    StateVector,
    SubsystemBasis,
    SubsystemLayout,
    DensityOperator,
    _fro,
    _gram_residual,
    _owned,
    _refuse_non_finite,
    _resized,
    apply_local,
    complete_orthonormal,
    random_unitary,
)
from .observables import ObservableBranch, SpectralObservable, _orthonormal_block
from .tolerances import DEFAULT


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one verification condition over randomized inputs."""

    condition: str
    max_residual: float
    samples: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


@dataclass(frozen=True, eq=False)
class Premeasurement:
    """Premeasurement on object (x) instrument plus the observables it couples.

    It is carried as its isometry V = U(. (x) |ready>), shape
    (object_dim * instrument_dim, object_dim): how the premeasurement acts
    on object amplitudes, and all that any physical result depends on.  A
    unitary U is one of many completions of V; ``complete_unitary`` forms
    one on request.

    Construction validates structure (labels, dimensions, V^dag V = I, the
    injective index map); ``dataclasses.replace(pm, isometry=V2)`` checks
    V2 the same way.  The observables and the ready state arrive checked by
    their own constructors, and their entries are not checked again.  V is
    owned (``hilbert._owned``): a read-only complex V is adopted as is, and
    the ``build_*`` constructors hand over the V they make that way; any
    other is copied.  The calibration condition itself is the contract of
    the ``build_*`` constructors and is verified by ``check_conditions``,
    so deliberately broken instances can still be represented.  Instances
    compare by identity.
    """

    object_label: str
    instrument_label: str
    measured: SpectralObservable
    pointer: SpectralObservable
    ready_state: StateVector
    isometry: np.ndarray = field(repr=False)
    index_map: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.object_label == self.instrument_label:
            raise LayoutConflictError("object and instrument labels must differ")
        if self.measured.subsystem != self.object_label:
            raise LayoutConflictError("measured observable is not on the object")
        if self.pointer.subsystem != self.instrument_label:
            raise LayoutConflictError("pointer observable is not on the instrument")
        if self.ready_state.layout.labels != (self.instrument_label,):
            raise LayoutConflictError("ready state must live on the instrument alone")
        if self.ready_state.layout.dim != self.pointer.dim:
            raise DimensionMismatchError("ready state does not match instrument dim")
        if not self.ready_state.normalized:
            raise ValueError("ready state must be normalized")
        d_a, d_b = self.measured.dim, self.pointer.dim
        v = _checked_isometry(self.isometry, (d_a * d_b, d_a))
        object.__setattr__(self, "isometry", v)
        pairs = tuple((int(a), int(b)) for a, b in self.index_map)
        object.__setattr__(self, "index_map", pairs)
        keys = [a for a, _ in pairs]
        vals = [b for _, b in pairs]
        if sorted(keys) != list(range(self.measured.branch_count)):
            raise ValueError("index_map must cover every measured branch exactly once")
        if len(set(vals)) != len(vals):
            raise ValueError("index_map must be injective into pointer branches")
        if any(not 0 <= v < self.pointer.branch_count for v in vals):
            raise ValueError("index_map targets unknown pointer branches")
        if self.pointer.branch_count < self.measured.branch_count:
            raise DimensionMismatchError("fewer pointer branches than measured branches")

    @property
    def mapping(self) -> dict[int, int]:
        return dict(self.index_map)

    @property
    def object_dim(self) -> int:
        return self.measured.dim

    @property
    def instrument_dim(self) -> int:
        return self.pointer.dim

    @property
    def layout(self) -> SubsystemLayout:
        return SubsystemLayout(
            (
                (self.object_label, self.object_dim),
                (self.instrument_label, self.instrument_dim),
            )
        )


def _checked_isometry(m: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """``m`` owned (``hilbert._owned``) and checked to have ``shape`` and
    m^dag m = I.  The Gram check (``hilbert._gram_residual``) is also the
    finiteness check."""
    square = shape[0] == shape[1]
    m = _owned(m)
    if m.shape != shape:
        kind = "unitary" if square else "isometry"
        raise DimensionMismatchError(f"{kind} shape {m.shape}, expected {shape}")
    resid = _gram_residual(m)
    if not resid <= DEFAULT.unitary * max(1, shape[0]):
        kind = "unitary" if square else "an isometry"
        raise ValueError(f"matrix is not {kind}: residual {resid:.3e}")
    return m


def build_ideal(
    measured: SpectralObservable,
    pointer_states: SubsystemBasis,
    ready_state: StateVector,
    pointer: SpectralObservable | None = None,
) -> Premeasurement:
    """Ideal premeasurement from one pointer state per measured branch.

    Its isometry is V = sum_k E_k (x) |b_k>, formed in closed form from the
    given blocks of E_k = Q_k Q_k^dag, read side by side from
    ``measured.basis``: it maps |phi> (x) |ready> to
    sum_k (E_k |phi>) (x) |b_k>.  A measured complement E_c = I - G G^dag
    (the idle branch of an earlier pointer) enters as I (x) |b_c> plus the
    given columns' terms with |b_k> - |b_c>, so no complement block is
    read.  V is frozen and handed to ``Premeasurement``, which Gram-checks
    it and keeps it without a copy.

    When ``pointer`` is omitted, the pointer observable is built from the
    states themselves by ``SpectralObservable._adopt_basis``, which reuses
    the basis's Gram check: eigenvalue k for branch k, plus one idle
    complement branch with eigenvalue -1 if the instrument has leftover
    dimensions.  When given, each pointer state must lie in the range of
    exactly one of its projectors, which fixes the index map.
    """
    n_branches = measured.branch_count
    d_a = measured.dim
    d_b = pointer_states.dim
    if len(pointer_states.vectors) != n_branches:
        raise DimensionMismatchError(
            f"{len(pointer_states.vectors)} pointer states for {n_branches} branches"
        )
    if d_b < n_branches:
        raise DimensionMismatchError(
            f"instrument dimension {d_b} < branch count {n_branches}"
        )
    instrument = pointer_states.subsystem
    if ready_state.layout.labels != (instrument,) or ready_state.layout.dim != d_b:
        raise LayoutConflictError("ready state must live on the instrument subsystem")

    if pointer is None:
        pointer, index_map = _pointer_from_states(pointer_states)
    else:
        if pointer.subsystem != instrument or pointer.dim != d_b:
            raise LayoutConflictError("pointer observable does not match instrument")
        index_map = _match_pointer_states(pointer, pointer_states)

    basis = measured.basis
    rows = pointer_states.rows
    ranks = [b.rank for b in measured.branches if not b.is_complement]
    idle = None
    if len(ranks) < n_branches:
        # sum_k E_k (x) b_k = I (x) b_c + sum_{k != c} E_k (x) (b_k - b_c), c the complement
        c = next(k for k, b in enumerate(measured.branches) if b.is_complement)
        idle = rows[c]
        rows = rows[[k for k in range(n_branches) if k != c]] - idle
    pointed = np.repeat(rows.T, ranks, axis=1)  # column j: the pointer state of j's branch
    isometry = np.einsum("ic,jc,mc->ijm", basis, pointed, basis.conj())
    if idle is not None:
        diagonal = np.arange(d_a)
        isometry[diagonal, :, diagonal] += idle
    isometry = isometry.reshape(d_a * d_b, d_a)
    isometry.setflags(write=False)
    return Premeasurement(
        object_label=measured.subsystem,
        instrument_label=instrument,
        measured=measured,
        pointer=pointer,
        ready_state=ready_state,
        isometry=isometry,
        index_map=tuple(index_map.items()),
    )


def _pointer_from_states(
    pointer_states: SubsystemBasis,
) -> tuple[SpectralObservable, dict[int, int]]:
    """The pointer of ``pointer_states`` and its index map: state k is branch
    k, behind the idle complement branch (position 0) when there is one."""
    offset = 0 if pointer_states.is_complete else 1
    index_map = {k: k + offset for k in range(len(pointer_states.vectors))}
    return SpectralObservable._adopt_basis(pointer_states), index_map


def _match_pointer_states(
    pointer: SpectralObservable, pointer_states: SubsystemBasis
) -> dict[int, int]:
    index_map: dict[int, int] = {}
    for k, v in enumerate(pointer_states.vectors):
        hits = [
            j
            for j, b in enumerate(pointer.branches)
            if _fro(b.project(v) - v) <= DEFAULT.pointer_match
        ]
        if len(hits) != 1:
            raise DimensionMismatchError(
                f"pointer state {k} does not lie in the range of exactly one "
                f"pointer projector (matches {hits})"
            )
        index_map[k] = hits[0]
    if len(set(index_map.values())) != len(index_map):
        raise DimensionMismatchError("pointer states share a pointer projector")
    return index_map


def build_exact(
    ideal: Premeasurement,
    dressings: list[tuple[np.ndarray, np.ndarray]],
) -> Premeasurement:
    """Dress an ideal premeasurement into a general exact one.

    ``dressings`` holds one (object unitary V_k, instrument unitary W_k) pair
    per measured branch; W_k must map the range of the k-th pointer projector
    into itself.  The dressing D = sum_k V_k (x) W_k F_k + sum_j I (x) F_j,
    j over the pointer branches no measured branch maps to, is applied to
    the ideal's isometry: the result has isometry D V.  It keeps the
    calibration, probability reproduction, and dynamical conditions but is
    no longer ideal in general.  Each F = Q Q^dag enters through its block:
    W F = (W Q) Q^dag, and ||(I - F) W F|| = ||W Q - Q Q^dag W Q||.  A
    complement F = I - G G^dag enters as itself, x - G (G^dag x): unmapped,
    as that projection; mapped (a caller's pointer state in it), through
    W F = W - (W G) G^dag, formed densely like W.  A dressing with a NaN or
    infinite entry raises ``DressingError``.
    """
    n = ideal.measured.branch_count
    if len(dressings) != n:
        raise DimensionMismatchError(f"{len(dressings)} dressings for {n} branches")
    d_a, d_b = ideal.object_dim, ideal.instrument_dim
    terms = []  # (object operator or None, B or None, branch F = L^dag L) per term
    mapped = set()
    for k, (v_a, w_b) in enumerate(dressings):
        v_a = np.asarray(v_a, dtype=complex)
        w_b = np.asarray(w_b, dtype=complex)
        if v_a.shape != (d_a, d_a) or w_b.shape != (d_b, d_b):
            raise DimensionMismatchError("dressing shapes do not match the layout")
        what = f"object dressing {k}"
        if not _gram_residual(v_a, what, DressingError) <= DEFAULT.unitary * d_a:
            raise DressingError(f"{what} is not unitary")
        what = f"instrument dressing {k}"
        if not math.isfinite(_refuse_non_finite(w_b, what, DressingError)):
            raise DressingError(f"{what} has entries too large: its squared norm overflows")
        branch = ideal.pointer.branches[ideal.mapping[k]]
        if branch.is_complement:
            g = branch.given
            wq = w_b - (w_b @ g) @ g.conj().T  # W F
            isometric = _fro(wq.conj().T @ wq - branch.projector)
        else:
            wq = w_b @ branch.basis  # W Q
            isometric = _gram_residual(wq)
        leak = _fro(wq - branch.project(wq))
        if not leak <= DEFAULT.orth * d_b:
            raise DressingError(
                f"instrument dressing {k} leaks outside its pointer range "
                f"(residual {leak:.3e})"
            )
        if not isometric <= DEFAULT.orth * d_b:
            raise DressingError(f"instrument dressing {k} is not isometric on its range")
        terms.append((v_a, wq, branch))
        mapped.add(ideal.mapping[k])
    for j, branch in enumerate(ideal.pointer.branches):
        if j not in mapped:
            terms.append((None, None if branch.is_complement else branch.basis, branch))
    return replace(ideal, isometry=_dress(terms, ideal.isometry, d_a, d_b))


def _dress(terms, matrix: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """sum over ``terms`` (A, B, F) of (A (x) B L) ``matrix`` for the factor L
    of the branch F = L^dag L, A = None and B = None meaning I.

    The rows of ``matrix`` are split into (object, instrument); each term is
    applied one subsystem at a time, its instrument part as L (Q^dag for a
    block, I - G G^dag for a complement, ``factor``), then B.  The result is
    frozen, for ``Premeasurement`` to keep without a copy.
    """
    dims = (d_a, d_b, matrix.shape[1])
    flat = matrix.reshape(-1)
    out = np.zeros_like(flat)
    for a, b, branch in terms:
        term = branch.factor(flat, dims, 1)
        if b is not None:
            term = apply_local(b, term, _resized(dims, 1, branch.factor_rows), 1)
        out += term if a is None else apply_local(a, term, dims, 0)
    out.setflags(write=False)
    return out.reshape(matrix.shape)


def complete_unitary(pm: Premeasurement) -> np.ndarray:
    """A premeasurement unitary U with U(. (x) |ready>) = V, for display and
    dense checks.

    U maps the initial sector {e_a (x) |ready>} onto the columns of V and
    the rest by Gram-Schmidt completions of both over the canonical basis,
    paired column by column.  Which completion is used is physically empty;
    nothing in the package calls this.
    """
    d_a, d_b = pm.object_dim, pm.instrument_dim
    d = d_a * d_b
    sector = np.einsum("am,j->ajm", np.eye(d_a), pm.ready_state.amplitudes).reshape(d, d_a)
    domain = complete_orthonormal(list(sector.T), d)
    image = complete_orthonormal(list(pm.isometry.T), d)
    return _checked_isometry(np.column_stack(image) @ np.column_stack(domain).conj().T, (d, d))


def evolve(pm: Premeasurement, object_state: StateVector) -> StateVector:
    """Final composite state U(|phi> (x) |ready>)."""
    if object_state.layout.labels != (pm.object_label,):
        raise LayoutConflictError(
            f"object state must live on {pm.object_label!r} alone, "
            f"got {object_state.layout}"
        )
    if object_state.layout.dim != pm.object_dim:
        raise DimensionMismatchError("object state dimension mismatch")
    if not object_state.normalized:
        raise ValueError("object state must be normalized")
    amps = pm.isometry @ object_state.amplitudes
    return StateVector(pm.layout, amps, normalized=True)


def _sharp_vector(branch: ObservableBranch, rng: np.random.Generator) -> np.ndarray:
    """Random unit vector in the range of the branch projector F: F applied
    to a complex Gaussian vector, normalized."""
    dim = branch.dim
    for _ in range(64):
        raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        vec = branch.project(raw)
        n = _fro(vec)
        if n > DEFAULT.sharp_sample:
            return vec / n
    raise RuntimeError("could not sample a state in the projector range")


def check_conditions(
    pm: Premeasurement, trials: int, seed: int = 0
) -> tuple[ConditionReport, ConditionReport, ConditionReport]:
    """The three defining conditions of a premeasurement in one pass.

    Returns the (calibration, probability_reproduction, dynamical) reports:

    - calibration: a sharp measured value in gives a sharp pointer value out;
      the largest ||F_k |Phi> - |Phi>|| over ``trials`` random states in each
      measured eigenspace;
    - probability reproduction: <phi|E_k|phi> = <Phi|F_k|Phi>;
    - dynamical: only the k-th initial component feeds the k-th final one,
      F_k U(|phi> (x) |ready>) = U(E_k |phi> (x) |ready>).

    The last two share ``trials`` random states |phi>, their evolution and
    one application of each F_k.  The sharp states and the shared states
    each come from a fresh ``default_rng(seed)``, so every report depends
    only on ``pm``, ``trials`` and ``seed``.  Every E_k and F_k is applied
    as its branch acts (``through``): through its eigenbasis block, or as
    x - G (G^dag x) for a complement.
    """
    iso = pm.isometry
    dims = (pm.object_dim, pm.instrument_dim)
    branches = pm.measured.branches
    pointer = [pm.pointer.branches[pm.mapping[k]] for k in range(len(branches))]
    samples = max(trials, 0) * len(branches)
    calibration = probability = dynamical = 0.0
    if trials > 0:
        rng = np.random.default_rng(seed)
        sharp = [_sharp_vector(b, rng) for b in branches for _ in range(trials)]
        finals = (np.array(sharp) @ iso.T).reshape(len(branches), trials, -1)
        for f_k, rows in zip(pointer, finals):
            resid = np.linalg.norm(f_k.through(rows, dims, 1)[1] - rows, axis=1)
            calibration = max(calibration, float(resid.max()))
        rng = np.random.default_rng(seed)
        phis = []
        for _ in range(trials):
            raw = rng.standard_normal(pm.object_dim) + 1j * rng.standard_normal(pm.object_dim)
            phis.append(raw / _fro(raw))
        phis = np.array(phis)
        finals = phis @ iso.T
        for f_k, branch in zip(pointer, branches):
            coeffs, projected = branch.through(phis, (pm.object_dim,), 0)
            final_coeffs, final_pointed = f_k.through(finals, dims, 1)
            lhs = np.sum(np.abs(coeffs) ** 2, axis=1)
            rhs = np.sum(np.abs(final_coeffs) ** 2, axis=1)
            probability = max(probability, float(np.max(np.abs(lhs - rhs))))
            resid = np.linalg.norm(final_pointed - projected @ iso.T, axis=1)
            dynamical = max(dynamical, float(resid.max()))
    return (
        ConditionReport("calibration", calibration, samples, DEFAULT.condition),
        ConditionReport("probability_reproduction", probability, samples, DEFAULT.condition),
        ConditionReport("dynamical", dynamical, samples, DEFAULT.condition),
    )


def check_calibration(pm: Premeasurement, trials: int, seed: int = 0) -> ConditionReport:
    """Calibration report of ``check_conditions``."""
    return check_conditions(pm, trials, seed)[0]


def check_probability_reproduction(
    pm: Premeasurement, trials: int, seed: int = 0
) -> ConditionReport:
    """Probability-reproduction report of ``check_conditions``."""
    return check_conditions(pm, trials, seed)[1]


def check_dynamical(pm: Premeasurement, trials: int, seed: int = 0) -> ConditionReport:
    """Dynamical-condition report of ``check_conditions``."""
    return check_conditions(pm, trials, seed)[2]


def luders_state(object_state: StateVector, measured: SpectralObservable) -> DensityOperator:
    """Non-selective post-measurement object state sum_k E_k |phi><phi| E_k."""
    if object_state.layout.dim != measured.dim:
        raise DimensionMismatchError("state does not match the observable dimension")
    if not object_state.normalized:
        raise ValueError("object state must be normalized")
    phi = object_state.amplitudes
    m = np.stack([b.project(phi) for b in measured.branches], axis=1)
    return DensityOperator(object_state.layout, m)


def branch_decomposition(final: StateVector, pointer: SpectralObservable) -> BranchDecomposition:
    """Complete-measurement branches (k, ||F_k Phi||^2, F_k Phi normalized).

    Each F_k is applied as its branch acts (``through``): through its
    eigenbasis block, or as x - G (G^dag x) for the idle complement, whose
    weight ||F_c Phi||^2 costs O(D m).  Branches with weight below the drop
    threshold are recorded only through ``dropped_weight``.
    """
    if not final.normalized:
        raise ValueError("final state must be normalized")
    lay = final.layout
    pos = lay.position(pointer.subsystem)
    kept: list[Branch] = []
    dropped = 0.0
    for j, b in enumerate(pointer.branches):
        coeffs, vec = b.through(final.amplitudes, lay.dims, pos)
        w = float(np.real(np.vdot(coeffs, coeffs)))
        if w > DEFAULT.weight:
            component = StateVector(lay, vec / np.sqrt(w), normalized=True)
            kept.append(Branch(j, w, component))
        else:
            dropped += w
    return BranchDecomposition(pointer.subsystem, tuple(kept), dropped)


def random_observable(
    dim: int, n_branches: int, subsystem: str, rng: np.random.Generator
) -> SpectralObservable:
    """Random observable with the requested branch count.

    Eigenvalues are 0..n-1; multiplicities are a random composition of the
    dimension, so degenerate eigenspaces are exercised whenever dim > n.
    """
    if not 1 <= n_branches <= dim:
        raise DimensionMismatchError(f"cannot fit {n_branches} branches in dim {dim}")
    cuts = np.sort(rng.choice(dim - 1, size=n_branches - 1, replace=False) + 1)
    bounds = [0, *cuts.tolist(), dim]
    u = random_unitary(dim, rng)
    return SpectralObservable.from_eigenbasis(
        subsystem,
        [float(k) for k in range(n_branches)],
        [u[:, bounds[k] : bounds[k + 1]] for k in range(n_branches)],
    )


def random_range_unitary(block: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Haar unitary on the range of an orthonormal (d, r) block Q, identity on
    its complement: I - Q Q^dag + Q U Q^dag."""
    q = _orthonormal_block(block, "range block")
    u = random_unitary(q.shape[1], rng)
    full = np.eye(q.shape[0], dtype=complex) - q @ q.conj().T
    return full + q @ u @ q.conj().T


def random_ideal(
    object_label: str,
    instrument_label: str,
    object_dim: int,
    instrument_dim: int,
    rng: np.random.Generator,
    n_branches: int | None = None,
) -> Premeasurement:
    """Random ideal premeasurement at the given dimensions."""
    n = n_branches if n_branches is not None else min(object_dim, instrument_dim)
    measured = random_observable(object_dim, n, object_label, rng)
    q = random_unitary(instrument_dim, rng)
    pointer_states = SubsystemBasis(instrument_label, tuple(q[:, k] for k in range(n)))
    raw = rng.standard_normal(instrument_dim) + 1j * rng.standard_normal(instrument_dim)
    ready = StateVector(
        SubsystemLayout(((instrument_label, instrument_dim),)), raw / _fro(raw)
    )
    rng.integers(2**32)  # unused; drawn so that seeded inputs stay as they were
    return build_ideal(measured, pointer_states, ready)


def random_exact(
    object_label: str,
    instrument_label: str,
    object_dim: int,
    instrument_dim: int,
    rng: np.random.Generator,
    n_branches: int | None = None,
) -> Premeasurement:
    """Random exact (dressed) premeasurement at the given dimensions."""
    ideal = random_ideal(
        object_label, instrument_label, object_dim, instrument_dim, rng, n_branches
    )
    dressings = [
        (
            random_unitary(ideal.object_dim, rng),
            random_range_unitary(ideal.pointer.branches[ideal.mapping[k]].basis, rng),
        )
        for k in range(ideal.measured.branch_count)
    ]
    return build_exact(ideal, dressings)
