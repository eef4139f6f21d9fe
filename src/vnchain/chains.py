"""Measurement chains, improper mixtures, relative states, ensemble updates.

Everything here is phrased over labeled multipartite states: a chain link
appends one instrument subsystem, a decomposition of the identity on one
subsystem splits the state of the remaining subsystems into weighted
branches, and conditioning on an event gives the relative (conditional)
state of the opposite subsystems.  An event P = Q Q^dag on one subsystem is
given as its (d, r) block Q of orthonormal columns, or, where an ensemble
is updated, as a branch of a pointer observable, its idle complement
included.  Every branch acts through its factor (``SpectralBranch.factor``
and ``ComplementBranch.factor``), never through a dense projector.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
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
    _fro,
    _gram_residual,
    _refuse_non_finite,
    _resized,
    _worst,
    apply_local,
    factor_difference,
    partial_scalar_product,
    partial_trace_matrix,
    partial_trace_vector,
)
from .observables import (
    ComplementBranch,
    DecompositionOfIdentity,
    ObservableBranch,
    SpectralBranch,
    SpectralObservable,
    _orthonormal_block,
)
from .premeasurement import Premeasurement, _linked, evolve
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

    Sampling order (fixed for reproducibility): n uniforms that pick members
    through the cumulative prior weights, as ``Generator.choice`` does, then
    n uniform coins compared against each picked member's occurrence
    probability.  ``seed`` is the seed of the generator that drew them.
    """

    member_counts: tuple[int, ...]
    accepted_counts: tuple[int, ...]
    n_samples: int
    seed: int

    @property
    def weights(self) -> tuple[float, ...]:
        total = sum(self.accepted_counts)
        return tuple(c / total for c in self.accepted_counts)


def _keep_positions(lay: SubsystemLayout, remove: set[str]) -> list[int]:
    return [i for i, label in enumerate(lay.labels) if label not in remove]


def _condition_vector(
    amplitudes: np.ndarray,
    event: ObservableBranch,
    dims: tuple[int, ...],
    pos: int,
    keep: list[int],
) -> tuple[float, np.ndarray | None]:
    """Weight <psi|F|psi> of an event F = L^dag L on axis ``pos`` of a pure
    state and a factor M of the conditional state tr_rest(F|psi><psi|F) / w =
    M M^dag on the ``keep`` axes, both from L psi, as
    tr_pos(L X L^dag) = tr_pos(F X).  The event is a branch, which applies
    its L (``factor``): Q^dag for a block, whose L psi are the relative-state
    coefficients, and I - G G^dag for a complement.

    Leading batch axes of ``amplitudes`` stand for the columns psi_j of a
    factored state sum_j |psi_j><psi_j|; the weight is then summed over them.
    No factor (None) is returned when the weight is at or below ``DEFAULT.weight``.
    The factor is fresh and frozen, so the ``DensityOperator`` made of it
    adopts it (``hilbert._owned``) instead of copying it.
    """
    projected = event.factor(amplitudes, dims, pos)
    w = float(np.real(np.vdot(projected, projected)))
    if w <= DEFAULT.weight:
        return w, None
    m = partial_trace_vector(projected, _resized(dims, pos, event.factor_rows), keep)
    m = m / math.sqrt(w)
    m.setflags(write=False)
    return w, m


def _event_branch(event: np.ndarray | ObservableBranch) -> ObservableBranch:
    """An event on one subsystem as a branch to apply, checked once: a
    caller's block Q, or a branch (a block Q, or an idle complement on its
    given columns G), whose Q or G must pass ``_orthonormal_block``, so a
    branch made by hand is checked like a block."""
    if isinstance(event, (SpectralBranch, ComplementBranch)):
        _orthonormal_block(event.given if event.is_complement else event.basis, "event")
        return event
    return SpectralBranch(0, 0.0, _orthonormal_block(event, "event"))


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
        if _projector_distance(x, y) > DEFAULT.observable_match * a.dim:
            return False
    return True


def _projector_distance(x: ObservableBranch, y: ObservableBranch) -> float:
    """||F_x - F_y||_F of two branches on one space, from their columns only.

    Two blocks: from a thin QR of the two (``factor_difference``).  Two
    complements: (I - G_x G_x^dag) - (I - G_y G_y^dag) = G_y G_y^dag - G_x G_x^dag.
    A complement and a block Q: I - C C^dag for C = [G, Q]; when C is
    square, I - C C^dag and I - C^dag C share their spectrum, so the norm is
    C's Gram residual; otherwise the ranks differ, and so the projectors by
    at least 1 in norm, which no tolerance accepts.
    """
    if not x.is_complement and not y.is_complement:
        return _fro(factor_difference(x.basis, y.basis))
    if x.is_complement and y.is_complement:
        return _fro(factor_difference(y.given, x.given))
    c = np.hstack([x.given, y.basis] if x.is_complement else [y.given, x.basis])
    return _gram_residual(c) if c.shape[0] == c.shape[1] else math.inf


def _link_position(
    labels: Sequence[str],
    dims: Sequence[int],
    pm: Premeasurement,
    measured_source: SpectralObservable | None,
) -> int:
    """The checks of one chain link on a state over ``labels`` and ``dims``;
    returns the position of ``pm``'s object.  The labels must name the
    object and not the instrument, the object's dimension must be ``pm``'s,
    and ``pm`` must measure ``measured_source`` when one is given."""
    if pm.object_label not in labels:
        raise LayoutConflictError(f"state has no subsystem {pm.object_label!r}")
    if pm.instrument_label in labels:
        raise LayoutConflictError(f"label {pm.instrument_label!r} already in use")
    pos = labels.index(pm.object_label)
    if dims[pos] != pm.object_dim:
        raise DimensionMismatchError("object subsystem dimension mismatch")
    if measured_source is not None and not observables_match(measured_source, pm.measured):
        raise ObservableMismatchError(
            "link does not measure the previous link's pointer observable"
        )
    return pos


def extend_chain(
    state: StateVector,
    pm: Premeasurement,
    measured_source: SpectralObservable | None = None,
) -> StateVector:
    """Append one chain link: apply ``pm`` to one subsystem of a composite state.

    The premeasurement's object label must name a subsystem of ``state``; its
    instrument is appended as a new trailing subsystem.  ``measured_source``
    (typically the previous link's pointer observable) is checked against
    what ``pm`` measures.  The link is checked (``_link_position``), applied
    by the one link kernel (``premeasurement._linked``) and wrapped.
    """
    lay = state.layout
    pos = _link_position(lay.labels, lay.dims, pm, measured_source)
    amps = _linked(pm, state.amplitudes, lay.dims, pos)
    extended_layout = SubsystemLayout(lay.subsystems + ((pm.instrument_label, pm.instrument_dim),))
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
    through its branch's factor: Q_n^dag, or I - G G^dag for a complement.
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
    for n, branch in enumerate(d.observable.branches):
        w, m = _condition_vector(vectors, branch, lay.dims, pos, keep)
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
        branch = SpectralBranch(0, 0.0, q)
        w, reduced = _condition_vector(rho.factor.T, branch, lay.dims, pos, keep)
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
    defined up to a phase, so compare results as projectors.  Its weight
    ||<phi|psi>||^2, the probability of the event |phi><phi|, must exceed
    ``DEFAULT.weight``, as in ``conditional_state``.
    """
    subject_vector = np.asarray(subject_vector, dtype=complex)
    n = _fro(subject_vector)
    if not abs(n - 1.0) <= DEFAULT.unit_vector:
        _refuse_non_finite(subject_vector, "subject vector", scalar=n)
        raise ValueError(f"subject vector must be a unit vector, got norm {n!r}")
    coeff = partial_scalar_product(subject_vector, subject, psi)
    if coeff.norm() ** 2 <= DEFAULT.weight:
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
    ens: WeightedEnsemble, event: np.ndarray | ObservableBranch, subject: str
) -> EnsembleUpdateResult:
    """Re-weight a proper mixture after the event P occurred on the subject.
    The event is given as its block Q (P = Q Q^dag) or as a branch of a
    pointer observable, the idle complement included (``_event_branch``).

    New weights are w_k * <Psi_k|P|Psi_k> renormalized by the total
    occurrence probability; members that never trigger the event are
    dropped.  The event is applied through its factor: Q^dag, or
    I - G G^dag for a complement.
    The aggregate opposite-subsystem state is conditioned from the mixture's
    factor [sqrt(w_k) Psi_k] in one batch and cross-checked against the
    member sum.
    """
    lay = ens.layout
    branch = _event_branch(event)
    keep = _keep_positions(lay, {subject})
    if not keep:
        raise LayoutConflictError("subject subsystem is the whole layout")
    pos = lay.position(subject)
    conditioned = [
        _condition_vector(s.amplitudes, branch, lay.dims, pos, keep) for _, s in ens.members
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
    _, m = _condition_vector(mixture, branch, lay.dims, pos, keep)
    aggregate = DensityOperator(reduced_layout, m)
    recombined = np.hstack([math.sqrt(u.weight) * u.state.factor for u in updated])
    resid = _fro(factor_difference(recombined, aggregate.factor))
    # The factored residual does not grow with D (see ``Tolerances``), so the
    # bound's D scale stops at 2**10, the largest D it was sized for.
    if resid > DEFAULT.reconstruction * min(max(1, aggregate.layout.dim), 2**10):
        raise ArithmeticError(
            f"updated members do not resum to the aggregate state ({resid:.3e})"
        )
    return EnsembleUpdateResult(tuple(updated), aggregate, total)


def _mc_counts(
    weights: np.ndarray, probs: np.ndarray, n_samples: int, rng: np.random.Generator
) -> tuple[list[int], list[int]]:
    """Member and accepted counts of ``n_samples`` samples drawn from ``rng``.

    The draws are those of ``rng.choice(K, size=n, p=weights / weights.sum())``
    followed by ``rng.random(n)`` coins: n member uniforms, searched in the
    cumulative weights formed as ``choice`` forms them, then n coins.  Member
    k's samples are the uniforms with cdf[k-1] <= u < cdf[k], found as one
    ``u < cdf[k]`` pass XORed with the previous pass; that is
    ``searchsorted(side="right")``, ties included.  The passes cost K*n.
    """
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    u = rng.random(n_samples)
    coins = rng.random(n_samples)
    member_counts, accepted_counts = [], []
    below = np.zeros(n_samples, dtype=bool)
    for c, q in zip(cdf.tolist(), probs.tolist()):
        now = u < c
        mine = now ^ below
        member_counts.append(int(np.count_nonzero(mine)))
        accepted_counts.append(int(np.count_nonzero(mine & (coins < q))))
        below = now
    return member_counts, accepted_counts


def monte_carlo_update(
    ens: WeightedEnsemble,
    event: np.ndarray | ObservableBranch,
    subject: str,
    n_samples: int,
    seed: int,
) -> MonteCarloUpdate:
    """Finite-sample counterpart of ``ensemble_update``.

    Each sample picks a member with the prior weights and then flips an
    occurrence coin with that member's event probability ||L Psi_k||^2
    for the factor L of the event, a block Q (L = Q^dag) or a pointer
    branch, as ``ensemble_update`` takes it; empirical weights are the accepted
    counts normalized.  Driven by ``numpy``'s PCG64 generator, so runs are
    bit-reproducible per seed: n uniforms pick members through the
    cumulative weights, as ``Generator.choice`` does, then n occurrence
    coins are drawn.  Members are counted by one threshold pass each over
    the samples, with no per-sample member index.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    branch = _event_branch(event)
    lay = ens.layout
    amps = np.array([s.amplitudes for _, s in ens.members])
    projected = branch.factor(amps, lay.dims, lay.position(subject))
    probs = np.sum(np.abs(projected) ** 2, axis=1)
    probs = np.clip(probs, 0.0, 1.0)
    member_counts, accepted_counts = _mc_counts(
        np.array(ens.weights), probs, n_samples, np.random.default_rng(seed)
    )
    if sum(accepted_counts) == 0:
        raise ZeroSampleError("no sample triggered the event; cannot form weights")
    return MonteCarloUpdate(tuple(member_counts), tuple(accepted_counts), n_samples, seed)


def _three_se_ratio(
    exact: EnsembleUpdateResult, mc: MonteCarloUpdate
) -> tuple[float, tuple[tuple[float, float], ...]]:
    """The one Monte Carlo judgement: how far a sample's weights stray from
    the exact posterior weights, in units of 3 binomial standard errors.

    Returns the worst ratio |w_hat_k - w_k| / (3 se_k) over the members of
    ``exact`` (``hilbert._worst``), with se_k = sqrt(w_k (1 - w_k) / n) for
    the n accepted samples, and each member's (w_hat_k, 3 se_k).  The
    standard deviation sqrt(w_k (1 - w_k)) is floored at ``DEFAULT.zero_norm``,
    so a member of weight 1 has a positive bound, and a sample that matches
    it a ratio of 0, not 0/0.  The sample
    agrees with ``exact`` when the ratio is at most 1, which a NaN ratio is
    not.  The ``ensemble_update`` analysis reports the ratio and the pairs,
    and the Monte Carlo ``verify`` suite judges each repetition by it.
    """
    total = sum(mc.accepted_counts)
    empirical = []
    for m in exact.members:
        w_hat = mc.accepted_counts[m.index] / total
        se = math.sqrt(max(m.weight * (1 - m.weight), DEFAULT.zero_norm**2) / total)
        empirical.append((w_hat, 3 * se))
    ratio = _worst(
        abs(w_hat - m.weight) / bound for m, (w_hat, bound) in zip(exact.members, empirical)
    )
    return ratio, tuple(empirical)


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
    if not _gram_residual(mixing, "mixing matrix") <= DEFAULT.unitary * mixing.shape[0]:
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
    """Largest Frobenius norm of a cross block P_j rho P_k (j != k), NaN if
    any is NaN (``hilbert._worst``).

    Zero (to tolerance) means the state carries no coherence between the
    decomposition's sectors: decoherence relative to these events.  With
    P = L^dag L for the factors L of ``d``'s branches (``factor``),
    ||P_j rho P_k|| = ||L_j rho L_k^dag||, since L^dag is an isometry on the
    range of L.
    """
    lay = rho.layout
    pos = lay.position(d.subsystem)
    # L_j rho L_k^dag = (L_j M)(L_k M)^dag = Q_j R_j R_k^dag Q_k^dag, so its
    # norm is that of R_j R_k^dag, from one thin QR per factor.
    cols = rho.factor.T
    rs = [
        np.linalg.qr(b.factor(cols, lay.dims, pos).T, mode="r")
        for b in d.observable.branches
    ]
    cross = (a @ b.conj().T for j, a in enumerate(rs) for k, b in enumerate(rs) if j != k)
    return _worst(_fro(x) for x in cross)
