"""Measurement chains, improper mixtures, relative states, ensemble updates.

Everything here is phrased over labeled multipartite states: a chain link
appends one instrument subsystem, a decomposition of the identity on one
subsystem splits the state of the remaining subsystems into weighted
branches, and conditioning on an event gives the relative (conditional)
state of the opposite subsystems.  An event P = Q Q^dag on one subsystem is
given as its (d, r) block Q of orthonormal columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .branches import Branch, BranchDecomposition
from .errors import (
    DimensionMismatchError,
    LayoutConflictError,
    ObservableMismatchError,
    UndefinedConditionalError,
    ZeroSampleError,
)
from .hilbert import (
    DensityOperator,
    State,
    StateVector,
    SubsystemLayout,
    _resized,
    apply_local,
    factor_difference,
    partial_scalar_product,
    partial_trace_matrix,
    partial_trace_vector,
)
from .observables import DecompositionOfIdentity, SpectralObservable, _orthonormal_block
from .premeasurement import Premeasurement, evolve
from .tolerances import DEFAULT


@dataclass(frozen=True)
class WeightedEnsemble:
    """Proper mixture: a classical list of (weight, pure state) members."""

    members: tuple[tuple[float, StateVector], ...]

    def __post_init__(self):
        members = tuple((float(w), s) for w, s in self.members)
        object.__setattr__(self, "members", members)
        if not members:
            raise ValueError("ensemble needs at least one member")
        lay = members[0][1].layout
        for w, s in members:
            if not (math.isfinite(w) and w > 0.0):
                raise ValueError(f"member weight {w} must be finite and positive")
            if s.layout != lay:
                raise LayoutConflictError("ensemble members live on different layouts")
            if not s.normalized:
                raise ValueError("ensemble members must be normalized")
        total = sum(w for w, _ in members)
        if abs(total - 1.0) > DEFAULT.reconstruction:
            raise ValueError(f"member weights sum to {total!r}, not 1")

    @property
    def layout(self) -> SubsystemLayout:
        return self.members[0][1].layout

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(w for w, _ in self.members)

    def density(self) -> DensityOperator:
        """The mixture sum_k w_k |Psi_k><Psi_k| (decomposition forgotten),
        factored as M = [sqrt(w_k) Psi_k]."""
        m = np.stack([np.sqrt(w) * s.amplitudes for w, s in self.members], axis=1)
        return DensityOperator(self.layout, m)


@dataclass(frozen=True)
class UpdatedMember:
    index: int
    weight: float
    state: DensityOperator


@dataclass(frozen=True)
class EnsembleUpdateResult:
    """Re-weighted ensemble after an event occurred on the subject subsystem."""

    members: tuple[UpdatedMember, ...]
    aggregate: DensityOperator
    occurrence_probability: float

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(m.weight for m in self.members)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(m.index for m in self.members)


@dataclass(frozen=True)
class MonteCarloUpdate:
    """Empirical counterpart of an ensemble update.

    Sampling order (fixed for reproducibility): one array of member indices
    drawn with the prior weights, then one array of uniform coins compared
    against each drawn member's occurrence probability.  Counts from shards
    run with different seeds may be summed before forming weights.
    """

    member_counts: tuple[int, ...]
    accepted_counts: tuple[int, ...]
    n_samples: int
    seed: int

    @property
    def weights(self) -> tuple[float, ...]:
        total = sum(self.accepted_counts)
        return tuple(c / total for c in self.accepted_counts)

    @staticmethod
    def merged(parts: "list[MonteCarloUpdate]") -> "MonteCarloUpdate":
        """Combine shards by summing counts; the result ignores shard order.

        The merged seed is reported as -1 since no single generator stream
        produced the union.
        """
        if not parts:
            raise ZeroSampleError("nothing to merge")
        k = len(parts[0].member_counts)
        if any(len(p.member_counts) != k for p in parts):
            raise DimensionMismatchError("shards disagree on member count")
        member = tuple(sum(p.member_counts[i] for p in parts) for i in range(k))
        accepted = tuple(sum(p.accepted_counts[i] for p in parts) for i in range(k))
        return MonteCarloUpdate(member, accepted, sum(p.n_samples for p in parts), -1)


def _keep_positions(lay: SubsystemLayout, remove: set[str]) -> list[int]:
    return [i for i, label in enumerate(lay.labels) if label not in remove]


def _condition_vector(
    amplitudes: np.ndarray,
    factor: np.ndarray,
    dims: tuple[int, ...],
    pos: int,
    keep: list[int],
) -> tuple[float, np.ndarray | None]:
    """Weight <psi|F|psi> of an event F = L^dag L on axis ``pos`` of a pure
    state and a factor M of the conditional state tr_rest(F|psi><psi|F) / w =
    M M^dag on the ``keep`` axes, both from L psi (for L = Q^dag, the
    relative-state coefficients), as tr_pos(L X L^dag) = tr_pos(F X).

    Leading batch axes of ``amplitudes`` stand for the columns psi_j of a
    factored state sum_j |psi_j><psi_j|; the weight is then summed over them.
    No factor (None) is returned when the weight is at or below ``DEFAULT.weight``.
    """
    projected = apply_local(factor, amplitudes, dims, pos)
    w = float(np.real(np.vdot(projected, projected)))
    if w <= DEFAULT.weight:
        return w, None
    m = partial_trace_vector(projected, _resized(dims, pos, factor.shape[0]), keep)
    return w, m / math.sqrt(w)


def _condition_matrix(
    matrix: np.ndarray,
    op: np.ndarray,
    dims: tuple[int, ...],
    pos: int,
    keep: list[int],
) -> tuple[float, np.ndarray | None]:
    """Weight tr(rho F) and conditional state tr_rest(rho F) / w on the
    ``keep`` axes of an event ``op`` = F on axis ``pos`` of rho, the tensor
    over ``dims + dims``, with F applied on the column side.  The conditional
    is None when w <= ``DEFAULT.weight``.
    """
    prod = apply_local(op.T, matrix, dims + dims, len(dims) + pos)
    w = float(np.real(np.trace(prod)))
    if w <= DEFAULT.weight:
        return w, None
    return w, partial_trace_matrix(prod, dims, keep) / w


def observables_match(a: SpectralObservable, b: SpectralObservable) -> bool:
    """Same subsystem, same branch structure within ``DEFAULT.observable_match``."""
    if a is b:
        return True
    if a.subsystem != b.subsystem or a.dim != b.dim or a.branch_count != b.branch_count:
        return False
    for x, y in zip(a.branches, b.branches):
        if abs(x.eigenvalue - y.eigenvalue) > DEFAULT.observable_match:
            return False
        # ||Q_x Q_x^dag - Q_y Q_y^dag||_F from a thin QR of the two blocks
        if np.linalg.norm(factor_difference(x.basis, y.basis)) > DEFAULT.observable_match * a.dim:
            return False
    return True


def extend_chain(
    state: StateVector,
    pm: Premeasurement,
    measured_source: SpectralObservable | None = None,
) -> StateVector:
    """Append one chain link: apply ``pm`` to one subsystem of a composite state.

    The premeasurement's object label must name a subsystem of ``state``; its
    instrument is appended as a new trailing subsystem.  ``measured_source``
    (typically the previous link's pointer observable) is checked against
    what ``pm`` measures.
    """
    lay = state.layout
    if pm.object_label not in lay.labels:
        raise LayoutConflictError(f"state has no subsystem {pm.object_label!r}")
    if pm.instrument_label in lay.labels:
        raise LayoutConflictError(f"label {pm.instrument_label!r} already in use")
    if lay.dim_of(pm.object_label) != pm.object_dim:
        raise DimensionMismatchError("object subsystem dimension mismatch")
    if measured_source is not None and not observables_match(measured_source, pm.measured):
        raise ObservableMismatchError(
            "link does not measure the previous link's pointer observable"
        )
    d_a, d_b = pm.object_dim, pm.instrument_dim
    pos = lay.position(pm.object_label)
    amps = apply_local(pm.isometry, state.amplitudes, lay.dims, pos)
    right = math.prod(lay.dims[pos + 1 :])
    if right > 1:  # move the new instrument axis behind the later subsystems
        amps = amps.reshape(-1, d_a, d_b, right).transpose(0, 1, 3, 2).reshape(-1)
    extended_layout = lay.concat(SubsystemLayout(((pm.instrument_label, d_b),)))
    return StateVector(extended_layout, amps, normalized=True)


def run_two_link_chain(
    pm1: Premeasurement,
    pm2: Premeasurement,
    object_state: StateVector,
) -> tuple[StateVector, StateVector]:
    """Two-link von Neumann chain: measure, then read the pointer.

    ``pm2`` must measure ``pm1``'s pointer observable (second link reads the
    first link's result).  Returns (intermediate, final) states.
    """
    intermediate = evolve(pm1, object_state)
    final = extend_chain(intermediate, pm2, measured_source=pm1.pointer)
    return intermediate, final


def improper_mixture(state: State, d: DecompositionOfIdentity) -> BranchDecomposition:
    """Decompose the reduced state of the opposite subsystems over ``d``.

    Weights are the occurrence probabilities tr(rho P_n); components are the
    conditional states tr_subject(rho P_n) / w_n.  The weighted components
    resum to the plain reduced state; the decomposition has meaning only
    relative to the traced-out subject subsystem.  Each projector is applied
    through its factor Q_n^dag.
    """
    lay = state.layout
    keep = _keep_positions(lay, {d.subsystem})
    if not keep:
        raise LayoutConflictError("decomposition subsystem is the whole layout")
    pos = lay.position(d.subsystem)
    reduced_layout = lay.restricted(set(lay.labels) - {d.subsystem})
    kept: list[Branch] = []
    dropped = 0.0
    # a mixed state's factor columns are a batch of vectors
    vectors = state.amplitudes if isinstance(state, StateVector) else state.factor.T
    for n, f in enumerate(d.factors):
        w, m = _condition_vector(vectors, f, lay.dims, pos, keep)
        if m is not None:
            kept.append(Branch(n, w, DensityOperator(reduced_layout, m)))
        else:
            dropped += max(w, 0.0)
    return BranchDecomposition(d.subsystem, tuple(kept), dropped)


def conditional_state(
    rho: DensityOperator,
    event: np.ndarray,
    subject: str,
    form: str = "plain",
) -> DensityOperator:
    """State of the opposite subsystems given the event P = Q Q^dag on the
    subject, from its block Q = ``event``.

    ``form="plain"`` computes tr_subject(rho P) / tr(rho P) with P itself
    against the dense rho, and factors the result once; ``form="sandwich"``
    computes tr_subject(P rho P) / tr(P rho P) through the factors Q^dag and
    M.  The two agree by idempotency and under-partial-trace commutativity.
    """
    if form not in ("plain", "sandwich"):
        raise ValueError(f"unknown form {form!r}")
    q = _orthonormal_block(event, "event")
    lay = rho.layout
    keep = _keep_positions(lay, {subject})
    if not keep:
        raise LayoutConflictError("subject subsystem is the whole layout")
    pos = lay.position(subject)
    if form == "sandwich":
        w, reduced = _condition_vector(rho.factor.T, q.conj().T, lay.dims, pos, keep)
        make = DensityOperator
    else:
        w, reduced = _condition_matrix(rho.matrix, q @ q.conj().T, lay.dims, pos, keep)
        make = DensityOperator.from_matrix
    if reduced is None:
        raise UndefinedConditionalError(
            f"event has probability {w!r}; conditional state undefined"
        )
    return make(lay.restricted(set(lay.labels) - {subject}), reduced)


def relative_state(
    psi: StateVector,
    subject: str,
    subject_vector: np.ndarray,
) -> StateVector:
    """Normalized component of ``psi`` in relation to one subject vector.

    Computed as the normalized partial scalar product <phi_subject | psi>;
    defined up to a phase, so compare results as projectors.
    """
    subject_vector = np.asarray(subject_vector, dtype=complex)
    n = np.linalg.norm(subject_vector)
    if abs(n - 1.0) > DEFAULT.unit_vector:
        raise ValueError(f"subject vector must be a unit vector, got norm {n!r}")
    coeff = partial_scalar_product(subject_vector, subject, psi)
    if coeff.norm() <= DEFAULT.weight:
        raise UndefinedConditionalError(
            "subject vector has vanishing overlap with the state"
        )
    return coeff.normalize()


def world_branches(state: StateVector, pointer: SpectralObservable) -> BranchDecomposition:
    """Branch states of everything else, relative to each pointer position.

    When the state factorizes between the pointer subsystem and the rest,
    every branch carries one and the same component state; entanglement with
    the pointer makes the branch components differ.
    """
    return improper_mixture(state, pointer.decomposition())


def tripartite_conditional_consistency(
    rho: DensityOperator,
    event: np.ndarray,
    subject: str,
    environment: str,
) -> tuple[DensityOperator, DensityOperator]:
    """Conditional state of the object computed along two routes.

    Route one conditions the full state, tracing out subject and environment
    together; route two first reduces over the environment and then
    conditions.  Both agree, which is why conditioning is well defined on
    improper mixtures.  The event's block Q is checked once; both routes
    multiply the dense rho by P = Q Q^dag and factor their result once.
    """
    q = _orthonormal_block(event, "event")
    lay, p = rho.layout, q @ q.conj().T
    if not _keep_positions(lay, {subject, environment}):
        raise LayoutConflictError("no object subsystems left")
    lay_ab = lay.restricted(set(lay.labels) - {environment})
    rho_ab = partial_trace_matrix(rho.matrix, lay.dims, _keep_positions(lay, {environment}))
    object_layout = lay.restricted(set(lay.labels) - {subject, environment})
    routes = []
    for lay_r, mat in ((lay, rho.matrix), (lay_ab, rho_ab)):
        keep = _keep_positions(lay_r, {subject, environment})
        w, reduced = _condition_matrix(mat, p, lay_r.dims, lay_r.position(subject), keep)
        if reduced is None:
            raise UndefinedConditionalError(f"event has probability {w!r}")
        routes.append(DensityOperator.from_matrix(object_layout, reduced))
    return routes[0], routes[1]


def proper_mixture(bd: BranchDecomposition) -> WeightedEnsemble:
    """Read a branch decomposition as a classical ensemble of pure states.

    This is the quasi-classical reading of a complete measurement: each
    branch becomes an independently prepared member with its Born weight.
    Dropped weight is renormalized away.  All components must be pure.
    """
    members = []
    scale = 1.0 - bd.dropped_weight
    for b in bd.branches:
        if not isinstance(b.component, StateVector):
            raise TypeError("proper_mixture needs pure branch components")
        members.append((b.weight / scale, b.component))
    return WeightedEnsemble(tuple(members))


def ensemble_update(
    ens: WeightedEnsemble, event: np.ndarray, subject: str
) -> EnsembleUpdateResult:
    """Re-weight a proper mixture after the event P = Q Q^dag, given as its
    block Q = ``event``, occurred on the subject.

    New weights are w_k * <Psi_k|P|Psi_k> renormalized by the total
    occurrence probability; members that never trigger the event are
    dropped.  The event is applied through the factor Q^dag.
    The aggregate opposite-subsystem state is conditioned from the mixture's
    factor [sqrt(w_k) Psi_k] in one batch and cross-checked against the
    member sum.
    """
    lay = ens.layout
    factor = _orthonormal_block(event, "event").conj().T
    keep = _keep_positions(lay, {subject})
    if not keep:
        raise LayoutConflictError("subject subsystem is the whole layout")
    pos = lay.position(subject)
    conditioned = [
        _condition_vector(s.amplitudes, factor, lay.dims, pos, keep) for _, s in ens.members
    ]
    total = sum(w * q for (w, _), (q, _) in zip(ens.members, conditioned))
    if total <= DEFAULT.weight:
        raise UndefinedConditionalError(
            f"event occurrence probability {total!r} is (numerically) zero"
        )
    reduced_layout = lay.restricted(set(lay.labels) - {subject})
    updated = []
    for k, ((w, _), (q, m)) in enumerate(zip(ens.members, conditioned)):
        if m is None:
            continue
        state = DensityOperator(reduced_layout, m)
        updated.append(UpdatedMember(k, w * q / total, state))
    mixture = np.stack([np.sqrt(w) * s.amplitudes for w, s in ens.members])
    _, m = _condition_vector(mixture, factor, lay.dims, pos, keep)
    aggregate = DensityOperator(reduced_layout, m)
    recombined = np.hstack([math.sqrt(u.weight) * u.state.factor for u in updated])
    resid = float(np.linalg.norm(factor_difference(recombined, aggregate.factor)))
    # The factored residual does not grow with D (see ``Tolerances``), so the
    # bound's D scale stops at 2**10, the largest D it was sized for.
    if resid > DEFAULT.reconstruction * min(max(1, aggregate.layout.dim), 2**10):
        raise ArithmeticError(
            f"updated members do not resum to the aggregate state ({resid:.3e})"
        )
    return EnsembleUpdateResult(tuple(updated), aggregate, total)


def monte_carlo_update(
    ens: WeightedEnsemble,
    event: np.ndarray,
    subject: str,
    n_samples: int,
    seed: int,
) -> MonteCarloUpdate:
    """Finite-sample counterpart of ``ensemble_update``.

    Each sample picks a member with the prior weights and then flips an
    occurrence coin with that member's event probability ||Q^dag Psi_k||^2
    for the event's block Q = ``event``; empirical weights are the accepted
    counts normalized.  Driven by ``numpy``'s PCG64 generator, so runs are
    bit-reproducible per seed.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    factor = _orthonormal_block(event, "event").conj().T
    lay = ens.layout
    amps = np.array([s.amplitudes for _, s in ens.members])
    projected = apply_local(factor, amps, lay.dims, lay.position(subject))
    probs = np.sum(np.abs(projected) ** 2, axis=1)
    probs = np.clip(probs, 0.0, 1.0)
    weights = np.array(ens.weights)
    rng = np.random.default_rng(seed)
    members = rng.choice(len(weights), size=n_samples, p=weights / weights.sum())
    coins = rng.random(n_samples)
    accepted = coins < probs[members]
    member_counts = np.bincount(members, minlength=len(weights))
    accepted_counts = np.bincount(members[accepted], minlength=len(weights))
    if accepted_counts.sum() == 0:
        raise ZeroSampleError("no sample triggered the event; cannot form weights")
    return MonteCarloUpdate(
        tuple(int(c) for c in member_counts),
        tuple(int(c) for c in accepted_counts),
        n_samples,
        seed,
    )


def redecompose(ens: WeightedEnsemble, mixing: np.ndarray) -> WeightedEnsemble:
    """A different pure-state decomposition of the same mixture.

    Given a unitary mixing matrix of size >= member count, the members
    |f_j> proportional to sum_k mixing[j, k] sqrt(w_k) |Psi_k> carry the same
    density operator; only the classical bookkeeping changes.
    """
    mixing = np.asarray(mixing, dtype=complex)
    k = len(ens.members)
    if mixing.shape[0] < k or mixing.shape[0] != mixing.shape[1]:
        raise DimensionMismatchError("mixing matrix too small for the ensemble")
    if not np.isfinite(mixing).all():
        raise ValueError("mixing matrix has NaN or infinite entries")
    if np.linalg.norm(mixing.conj().T @ mixing - np.eye(mixing.shape[0])) > DEFAULT.unitary * mixing.shape[0]:
        raise ValueError("mixing matrix must be unitary")
    lay = ens.layout
    new_members = []
    for j in range(mixing.shape[0]):
        vec = np.zeros(lay.dim, dtype=complex)
        for i, (w, s) in enumerate(ens.members):
            vec += mixing[j, i] * np.sqrt(w) * s.amplitudes
        weight = float(np.real(np.vdot(vec, vec)))
        if weight > DEFAULT.weight:
            new_members.append((weight, StateVector(lay, vec / np.sqrt(weight))))
    return WeightedEnsemble(tuple(new_members))


def offdiagonal_block_norm(
    rho: DensityOperator, d: DecompositionOfIdentity
) -> float:
    """Largest Frobenius norm of a cross block P_j rho P_k (j != k).

    Zero (to tolerance) means the state carries no coherence between the
    decomposition's sectors: decoherence relative to these events.  With
    P = L^dag L for the factors L of ``d``, ||P_j rho P_k|| = ||L_j rho L_k^dag||,
    since L^dag is an isometry on the range of L.
    """
    lay = rho.layout
    pos = lay.position(d.subsystem)
    # L_j rho L_k^dag = (L_j M)(L_k M)^dag = Q_j R_j R_k^dag Q_k^dag, so its
    # norm is that of R_j R_k^dag, from one thin QR per factor.
    cols = rho.factor.T
    rs = [np.linalg.qr(apply_local(f, cols, lay.dims, pos).T, mode="r") for f in d.factors]
    cross = (a @ b.conj().T for j, a in enumerate(rs) for k, b in enumerate(rs) if j != k)
    return max((float(np.linalg.norm(x)) for x in cross), default=0.0)
