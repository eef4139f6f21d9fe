"""Premeasurements on object x instrument pairs.

A premeasurement couples a measured observable on the object to a pointer
observable on the instrument: whenever the input has a sharp measured value,
the output has the corresponding sharp pointer value (calibration).  The
ideal construction leaves sharp inputs untouched; the exact construction
dresses an ideal one with per-branch unitaries and keeps calibration while
breaking idealness.

Only the initial sector matters physically.  A premeasurement is carried as
its terms, the Kraus form of [BLM]'s V(phi (x) ready) = sum_k (U_k E_k phi)
(x) |b'_k>: one object operator A_k and one pointer vector c_k per term, so
that V = U(. (x) |ready>) = sum_k A_k (x) c_k.  Only U_k's action on the
range of E_k enters, so a dressed term is held as its thin block
W_k = U_k Q_k, (d_a, r_k).  The terms are checked once, by a bound on
||V^dag V - I|| from ||C^dag C - I|| and the Gram residuals of the blocks;
an ideal link reads both off its checked inputs and forms no Gram product
of V.  A link is applied through its factor (``_factor``), made on first
use and kept: V itself where V is no larger than its thin factor, and two
thin products otherwise.  ``isometry`` forms V only on request.  A link
repeated on other subsystems, as in a copy chain, adopts the checked link
with its terms and factor (``Premeasurement``).  A full unitary U, one of
many completions of V, is formed only by ``complete_unitary``.

Branch correspondence is an explicit ``index_map`` from measured branch
positions to pointer branch positions; nothing is inferred from eigenvalue
equality.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .branches import Branch, BranchDecomposition
from .errors import (
    DimensionMismatchError,
    DressingError,
    LayoutConflictError,
    NonOrthonormalBasisError,
)
from .hilbert import (
    StateVector,
    SubsystemBasis,
    SubsystemLayout,
    DensityOperator,
    _fro,
    _gram_residual,
    _owned,
    _haar_isometries,
    _refuse_non_finite,
    _resized,
    _worst,
    apply_local,
    complete_orthonormal,
    random_unitary,
)
from .observables import ObservableBranch, SpectralObservable
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


_UNIT_ROUNDOFF = np.finfo(float).eps / 2

# One term's object operator A = W L: L the factor of E, a branch of the
# measured observable, W its (d_a, rows of L) block or None (A = E).
Operator = tuple[np.ndarray | None, ObservableBranch]


@dataclass(frozen=True, eq=False)
class Premeasurement:
    """Premeasurement on object (x) instrument plus the observables it couples.

    It is carried as its terms: ``operators`` holds one object operator A_k
    per term, and ``pointer_states`` the pointer vectors c_k, the columns
    of C (d_b, n).  Every term acts through measured branch E_k, in order,
    as the pair (W_k, E_k): A_k = W_k L_k, L_k the branch's factor
    (Q_k^dag for a block, so W_k = U_k Q_k is (d_a, r_k) for a dressing
    U_k; I - G G^dag for the idle complement, with W_c (d_a, d_a)), or
    A_k = E_k for W_k None (``build_ideal``: every W_k None;
    ``build_exact``: the dressed blocks).  V = U(. (x) |ready>) =
    sum_k A_k (x) c_k, shape (object_dim * instrument_dim, object_dim), is
    applied through ``factor`` and formed as ``isometry`` only on request.
    A caller's V (``from_isometry``) is ``operators`` and its own factor.

    The one check is on the terms.  With eps = ||C^dag C - I|| and
    eta = ||S - I||, S = sum_k A_k^dag A_k, write V^dag V - I as
    (S - I) + sum_kl (C^dag C - I)_kl A_k^dag A_l, whose second part is
    A^dag ((C^dag C - I) (x) I) A for the terms stacked, A = sum_k |k> (x) A_k.
    Since ||A||_2^2 = ||S||_2 <= 1 + eta and ||A||_F <= sqrt(d_a) ||A||_2,

        ||V^dag V - I|| <= eta + sqrt(d_a) (1 + eta) eps,

    which is kept as ``isometry_bound`` and must be within
    ``DEFAULT.unitary * d_a * d_b``, the criterion a V was always judged by.
    eps is the Gram residual that ``pointer_states`` stored.  For branch
    terms eta comes from the Gram residual e = ||G^dag G - I|| that the
    measured observable's ``columns`` stored, G = [Q_1, ...] its blocks side
    by side, and from the blocks' Gram residuals X_k = W_k^dag W_k - I.  An
    undressed term has W_k = Q_k (W_c = I), so its X_k is the diagonal
    block E_kk of E = G^dag G - I (X_c = 0).  Each A_k^dag A_k is
    L_k^dag L_k + L_k^dag X_k L_k; the blocks' L_k^dag L_k sum to G G^dag,
    and a complement's is L_c^2 = L_c + G E G^dag.  So S - I is
    (G G^dag - I) + G bd(X) G^dag without a complement (G square, and
    ||G G^dag - I|| = e), and G (E + bd(X)) G^dag + L_c X_c L_c with one,
    bd(X) the blocks' X_k on the diagonal.  With ||G||_2^2 <= 1 + e,
    ||L_c||_2 <= 1 + e and ||bd(X)||^2 <= e^2 + x^2, x^2 the sum of
    ||X_k||^2 over the dressed blocks,

        eta <= (1 + e) (e + sqrt(e^2 + x^2) + (1 + e) ||X_c||):

    one Gram product of (d_a, r_k) per dressed block, O(d_a m^2) in all, and
    none for an ideal link, whose eta <= 2 e (1 + e).  Branch terms add
    u d_a (d_a d_b + 2 d_a + 4), u the unit roundoff, for the rounding of V
    applied through them (at most about 2 (m + 2) u d_a, m <= d_a, either
    side of the rule) and of a dense Gram product of it (about d_a d_b u
    ||V||_F^2), so that the bound also covers ||V^dag V - I|| as
    ``hilbert._gram_residual`` computes it.  A caller's V is not formed, so
    its bound is its own Gram residual and V is refused exactly where it
    always was.

    The observables and the ready state arrive checked by their own
    constructors.  Each W_k, and a caller's V, is owned
    (``hilbert._owned``).  The calibration condition itself is the contract
    of the ``build_*`` constructors and is verified by ``check_conditions``,
    so deliberately broken instances can still be represented.  Instances
    compare by identity.

    A ``Premeasurement`` given as ``operators``, with no ``index_map``, is
    adopted under this link's labels when it is the same link
    (``_repeats``): its measured branches, pointer rows and ready amplitudes
    are this link's very objects, and its pointer's branches this
    pointer's.  Its terms, index map, ``isometry_bound`` and factor are
    then taken as they are, so the terms are checked and the factor made
    once; every label check runs as for any link.  A chain whose links
    repeat one premeasurement on new subsystems so shares it.
    """

    object_label: str
    instrument_label: str
    measured: SpectralObservable
    pointer: SpectralObservable
    ready_state: StateVector
    operators: tuple[Operator, ...] | Premeasurement | np.ndarray = field(repr=False)
    pointer_states: SubsystemBasis = field(repr=False)
    index_map: tuple[tuple[int, int], ...] = ()
    isometry_bound: float = field(init=False, repr=False)

    def __post_init__(self):
        obj, instrument = self.object_label, self.instrument_label
        measured, pointer = self.measured, self.pointer
        m_columns, p_columns = measured.columns, pointer.columns
        if obj == instrument:
            raise LayoutConflictError("object and instrument labels must differ")
        if m_columns.subsystem != obj:
            raise LayoutConflictError("measured observable is not on the object")
        if p_columns.subsystem != instrument:
            raise LayoutConflictError("pointer observable is not on the instrument")
        ready = self.ready_state
        if ready.layout.labels != (instrument,):
            raise LayoutConflictError("ready state must live on the instrument alone")
        d_a, d_b = m_columns.rows.shape[1], p_columns.rows.shape[1]
        if ready.layout.dim != d_b:
            raise DimensionMismatchError("ready state does not match instrument dim")
        if not ready.normalized:
            raise ValueError("ready state must be normalized")
        states = self.pointer_states
        if states.subsystem != instrument or states.rows.shape[1] != d_b:
            raise LayoutConflictError("pointer vectors must live on the instrument")
        source = self.operators
        if isinstance(source, Premeasurement):
            if self.index_map or not (
                _repeats(source, measured, states, ready)
                and pointer.branches is source.pointer.branches
            ):
                raise ValueError(
                    "an adopted link must hold its source's measured branches, pointer "
                    "rows and branches and ready amplitudes, and no index map of its own"
                )
            for name in ("operators", "index_map", "isometry_bound", "factor"):
                object.__setattr__(self, name, getattr(source, name))
            return
        if isinstance(source, np.ndarray):  # a caller's V, its own folded factor
            v = _owned(source)
            if v.shape != (expected := (d_a * d_b, d_a)):
                raise DimensionMismatchError(f"isometry shape {v.shape}, expected {expected}")
            object.__setattr__(self, "operators", v)
            object.__setattr__(self, "factor", (v, None, None))
            bound = _gram_residual(v)
        else:
            bound = self._checked_terms(d_a, d_b)
        if not bound <= DEFAULT.unitary * max(1, d_a * d_b):
            raise ValueError(f"matrix is not an isometry: residual {bound:.3e}")
        object.__setattr__(self, "isometry_bound", bound)
        pairs = tuple([(int(a), int(b)) for a, b in self.index_map])
        object.__setattr__(self, "index_map", pairs)
        keys = [a for a, _ in pairs]
        vals = [b for _, b in pairs]
        n_measured, n_pointer = len(measured.branches), len(pointer.branches)
        if sorted(keys) != list(range(n_measured)):
            raise ValueError("index_map must cover every measured branch exactly once")
        if len(set(vals)) != len(vals):
            raise ValueError("index_map must be injective into pointer branches")
        if min(vals) < 0 or max(vals) >= n_pointer:
            raise ValueError("index_map targets unknown pointer branches")
        if n_pointer < n_measured:
            raise DimensionMismatchError("fewer pointer branches than measured branches")

    def _checked_terms(self, d_a: int, d_b: int) -> float:
        """The terms owned and checked; returns the bound on ||V^dag V - I||."""
        states = self.pointer_states
        n_states = len(states.vectors)
        ops = tuple(self.operators)
        if len(ops) != n_states:
            raise DimensionMismatchError(f"{n_states} pointer vectors for {len(ops)} terms")
        if tuple([b for _, b in ops]) != self.measured.branches:
            raise ValueError("terms must act through every measured branch in order")
        ops = tuple([(None if w is None else _owned(w), b) for w, b in ops])
        for k, (w, b) in enumerate(ops):
            shape = (d_a, b.factor_rows)
            if w is not None and w.shape != shape:
                raise DimensionMismatchError(
                    f"object operators must have shape {shape} for term {k}, not {w.shape}"
                )
        object.__setattr__(self, "operators", ops)
        e = self.measured.columns.gram_residual
        x = x_c = 0.0  # the dressed blocks' ||X_k||, combined; the complement's
        for k, (w, b) in enumerate(ops):
            if w is not None:
                resid = _gram_residual(w, f"object operator {k}")
                if b.is_complement:
                    x_c = resid
                else:
                    x = math.hypot(x, resid)
        eta = (1 + e) * (e + math.hypot(e, x) + (1 + e) * x_c)
        bound = eta + math.sqrt(d_a) * (1 + eta) * states.gram_residual
        return bound + _UNIT_ROUNDOFF * d_a * (d_a * d_b + 2 * d_a + 4)

    @classmethod
    def from_isometry(
        cls,
        isometry,
        *,
        object_label: str,
        instrument_label: str,
        measured: SpectralObservable,
        pointer: SpectralObservable,
        ready_state: StateVector,
        index_map,
    ) -> "Premeasurement":
        """The premeasurement of a caller's isometry V, shape (d_a d_b, d_a),
        given as the link's ``operators`` (values that are no numeric matrix
        raise ``DimensionMismatchError``), which own it (``hilbert._owned``:
        a read-only complex V is adopted as is).  V is its own folded
        factor, applied as it is and checked by its own Gram residual; its
        pointer vectors are the canonical basis.
        """
        return cls(
            object_label=object_label,
            instrument_label=instrument_label,
            measured=measured,
            pointer=pointer,
            ready_state=ready_state,
            operators=_complex_matrix(isometry, "isometry"),
            pointer_states=SubsystemBasis(instrument_label, tuple(np.eye(pointer.dim))),
            index_map=index_map,
        )

    @cached_property
    def factor(self) -> tuple:
        """The form in which ``_linked`` applies V (``_factor``), made on
        first use and kept.  An adopted link holds its source's."""
        return _factor(self)

    @property
    def isometry(self) -> np.ndarray:
        """V, fresh and read-only, formed on request by the link kernel, and
        read by no chain path; bit for bit V on the folded side."""
        d_a = self.object_dim
        v = np.ascontiguousarray(_linked(self, np.eye(d_a, dtype=complex), (d_a,), 0).T)
        v.setflags(write=False)
        return v

    @property
    def mapping(self) -> dict[int, int]:
        return dict(self.index_map)

    @property
    def object_dim(self) -> int:
        return self.measured.dim

    @property
    def instrument_dim(self) -> int:
        return self.pointer.dim

    @cached_property
    def layout(self) -> SubsystemLayout:
        """The layout object (x) instrument of ``evolve``'s states, made on
        first read and kept."""
        return SubsystemLayout(
            (
                (self.object_label, self.object_dim),
                (self.instrument_label, self.instrument_dim),
            )
        )


def _factor(pm: Premeasurement) -> tuple:
    """The read-only factor through which ``_linked`` applies the
    V = sum_k A_k (x) c_k of ``pm``'s terms, shape (d_a d_b, d_a).

    Branch terms A_k = W_k Q_k^dag give the thin factor T = [W_k (x) c_k],
    (d_a d_b, m), with V = T G^dag, where G = [Q_1, ...] holds the measured
    blocks side by side and an undressed block has W_k = Q_k.  A measured
    complement A_c = W_c (I - G G^dag) adds -(W_c G) (x) c_c to T and the
    idle term W_c (x) c_c (W_c None for I); for an ideal link (every W
    None) the former folds into the blocks' columns as Q_k (x) (c_k - c_c).
    When T and G hold at least as many entries as V, m (d_b + 1) >= d_a d_b,
    as for every complete observable, G^dag is folded into T and the idle
    term added: the factor is (V, None, None).  Otherwise it is (T, G^dag,
    idle), idle None without a complement, and V is never formed.
    """
    g = pm.measured.basis
    rows = pm.pointer_states.rows  # row k: c_k
    (d_a, m), d_b = g.shape, rows.shape[1]
    ws, branches = zip(*pm.operators)
    ideal = all(w is None for w in ws)
    idle = None  # a measured complement exists exactly when G has m < d_a columns
    if m < d_a:
        idle = next(k for k, b in enumerate(branches) if b.is_complement)
        w_c = ws[idle]
    pointed, blocks, block_ws = rows, branches, ws
    if idle is not None:
        pointed = np.concatenate([rows[:idle], rows[idle + 1 :]])
        blocks = branches[:idle] + branches[idle + 1 :]
        block_ws = ws[:idle] + ws[idle + 1 :]
        if ideal:
            pointed = pointed - rows[idle]
    if len(blocks) < m:  # one row per column of G
        pointed = np.repeat(pointed, [b.rank for b in blocks], axis=0)
    left = [b.basis if w is None else w for w, b in zip(block_ws, blocks)]
    left = g if ideal else np.hstack(left)
    thin = left[:, None, :] * pointed.T  # thin[i, j, c] = left[i, c] pointed[c, j]
    if idle is not None and not ideal:
        thin -= (g if w_c is None else w_c @ g)[:, None, :] * rows[idle][:, None]
    thin = thin.reshape(d_a * d_b, -1)
    if m * (d_b + 1) < d_a * d_b:
        adjoint = pm.measured.columns.rows.conj()  # G^dag
        for part in (thin, adjoint):
            part.setflags(write=False)
        return thin, adjoint, None if idle is None else (w_c, rows[idle])
    v = thin @ g.conj().T
    if idle is not None:
        cube = v.reshape(d_a, d_b, d_a)
        if w_c is None:
            diagonal = np.arange(d_a)
            cube[diagonal, :, diagonal] += rows[idle]
        else:
            cube += w_c[:, None, :] * rows[idle][:, None]
    v.setflags(write=False)
    return v, None, None


def build_ideal(
    measured: SpectralObservable,
    pointer_states: SubsystemBasis,
    ready_state: StateVector,
    pointer: SpectralObservable | None = None,
) -> Premeasurement:
    """Ideal premeasurement from one pointer state per measured branch.

    Its terms are A_k = E_k, measured branch k (applied through its block
    Q_k, or as the idle complement I - G G^dag), and c_k = |b_k>, the
    pointer state of branch k: V = sum_k E_k (x) |b_k> maps |phi> (x) |ready>
    to sum_k (E_k |phi>) (x) |b_k>.  ``Premeasurement`` checks them by the
    Gram residuals that ``measured`` and ``pointer_states`` already hold,
    and forms V only when it is read.

    When ``pointer`` is omitted, the pointer observable is the
    ``SpectralObservable`` constructor's on ``pointer_states`` itself, whose
    Gram check it judges and does not repeat: eigenvalue k for branch k,
    plus one idle complement branch with eigenvalue -1 if the instrument
    has leftover dimensions.  A ``measured`` observable that is already
    that pointer, on the very rows of ``pointer_states``, is adopted as it
    (``_pointer_from_states``).  When given, each pointer state must lie in the range of
    exactly one of its projectors, which fixes the index map.
    """
    n_branches = measured.branch_count
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
        pointer, index_map = _pointer_from_states(pointer_states, measured)
    else:
        if pointer.subsystem != instrument or pointer.dim != d_b:
            raise LayoutConflictError("pointer observable does not match instrument")
        index_map = _match_pointer_states(pointer, pointer_states)
    return Premeasurement(
        object_label=measured.subsystem,
        instrument_label=instrument,
        measured=measured,
        pointer=pointer,
        ready_state=ready_state,
        operators=tuple((None, b) for b in measured.branches),
        pointer_states=pointer_states,
        index_map=tuple(index_map.items()),
    )


def _pointer_from_states(
    pointer_states: SubsystemBasis, measured: SpectralObservable | None = None
) -> tuple[SpectralObservable, dict[int, int]]:
    """The pointer sum_k k |b_k><b_k| of ``pointer_states`` and its index
    map: state k is the rank-1 branch k, behind the idle complement branch
    (eigenvalue -1, position 0) when there is one.

    When ``measured`` is that very pointer on other labels, on the same rows
    (the previous pointer of a chain whose instruments read with one list
    of states), the pointer adopts it (``SpectralObservable`` given an
    observable) and shares its branches."""
    n = len(pointer_states.vectors)
    idle = () if pointer_states.is_complete else (None,)
    eigenvalues, ranks = range(-len(idle), n), idle + (1,) * n
    if (
        measured is not None
        and measured.columns.rows is pointer_states.rows
        and measured.ranks == ranks
        and measured.eigenvalues == tuple(eigenvalues)
    ):
        pointer = SpectralObservable(pointer_states, measured)
    else:
        pointer = SpectralObservable(pointer_states, eigenvalues, ranks)
    return pointer, {k: k + len(idle) for k in range(n)}


def _repeats(
    link: Premeasurement,
    measured: SpectralObservable,
    pointer_states: SubsystemBasis,
    ready_state: StateVector,
) -> bool:
    """The one rule of link adoption: whether a link of ``measured``,
    ``pointer_states`` and ``ready_state`` is ``link`` on other subsystems.
    It is when these hold ``link``'s very objects: its measured branches
    (and so their eigenvalues, blocks and ranks), its pointer rows, which
    are also the rows of its pointer (a pointer of its states, which a
    pointer on ``pointer_states`` can adopt), and its ready amplitudes."""
    return (
        measured.branches is link.measured.branches
        and pointer_states.rows is link.pointer_states.rows is link.pointer.columns.rows
        and ready_state.amplitudes is link.ready_state.amplitudes
    )


def _chained_ideal(
    previous: Premeasurement | None,
    measured: SpectralObservable,
    pointer_states: SubsystemBasis,
    ready_state: StateVector,
) -> Premeasurement:
    """The ideal link of ``measured``, ``pointer_states`` and ``ready_state``
    in a chain whose previous stage's ideal link is ``previous`` (None before
    the first): ``previous`` adopted under the new labels, with its pointer
    adopted on ``pointer_states``, when it is the same link (``_repeats``);
    otherwise ``build_ideal``'s."""
    if previous is None or not _repeats(previous, measured, pointer_states, ready_state):
        return build_ideal(measured, pointer_states, ready_state)
    return Premeasurement(
        object_label=measured.subsystem,
        instrument_label=pointer_states.subsystem,
        measured=measured,
        pointer=SpectralObservable(pointer_states, previous.pointer),
        ready_state=ready_state,
        operators=previous,
        pointer_states=pointer_states,
    )


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


@dataclass(frozen=True, eq=False)
class ThinDressing:
    """One measured branch's dressing in the form that ``build_exact`` keeps
    (``random_dressings`` draws these).

    ``block`` is the dressed term's object block W = U Q, (d_a, r) for a
    measured block Q of rank r, or (d_a, d_a), W = U, for the idle
    complement; None leaves the term as it is.  ``pointer`` is the (r', r')
    unitary u on the block Q' of the pointer branch that the measured
    branch maps to: it takes the pointer vector c to Q' u Q'^dag c.  Only
    that vector enters V, so u is checked through it: the dressed pointer
    vectors must be orthonormal.
    """

    block: np.ndarray | None
    pointer: np.ndarray


def _complex_matrix(values, what: str) -> np.ndarray:
    """``values`` as a complex array; ``DimensionMismatchError`` when they are
    not numbers of one rectangular shape."""
    try:
        return np.asarray(values, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatchError(f"{what} is not a numeric matrix") from exc


def build_exact(
    ideal: Premeasurement,
    dressings: Sequence[tuple[np.ndarray, np.ndarray] | ThinDressing],
) -> Premeasurement:
    """Dress an ideal premeasurement into a general exact one.

    ``dressings`` holds one dressing per measured branch k: a caller's dense
    pair (object unitary V_k, instrument unitary W_k), or a ``ThinDressing``.
    W_k must map the range of the k-th pointer projector F_k into itself.
    The dressing D = sum_k V_k (x) W_k F_k + sum_j I (x) F_j, j over the
    pointer branches no measured branch maps to, applied to
    V = sum_k A_k (x) c_k, where c_k lies in the range of F_k, leaves
    sum_k (V_k A_k) (x) (W_k c_k): the terms become A_k <- V_k A_k and
    c_k <- W_k c_k, and the unmapped branches contribute nothing.  It keeps
    the calibration, probability reproduction, and dynamical conditions but
    is no longer ideal in general.

    Only V_k's action on the range of E_k enters, so a dense pair is reduced
    once to the term's thin block V_k Q_k, (d_a, r_k) (V_k itself for the
    idle complement, whose term is V_k (I - G G^dag)), after V_k's dense
    unitarity check.  Each F = Q Q^dag enters W_k's range check through its
    block: W F = (W Q) Q^dag, and ||(I - F) W F|| = ||W Q - Q Q^dag W Q||.
    A complement F = I - G G^dag enters through W F = W - (W G) G^dag,
    formed densely like W.  A ``ThinDressing`` brings the block itself,
    checked with the terms (``Premeasurement``), and its pointer unitary u
    on the block Q' of F_k: c_k <- Q' u Q'^dag c_k, in O(d_b r'), which
    needs F_k to be a block, not the idle complement.

    A dressing that is no pair of numeric matrices of the layout's shapes
    raises ``DimensionMismatchError``; one with a NaN or infinite entry, or
    dressings that leave the c_k off orthonormality, raise
    ``DressingError``.  A premeasurement given as its isometry
    (``Premeasurement.from_isometry``) has no branch terms to dress.
    """
    n = ideal.measured.branch_count
    if len(dressings) != n:
        raise DimensionMismatchError(f"{len(dressings)} dressings for {n} branches")
    if isinstance(ideal.operators, np.ndarray):
        raise ValueError("a premeasurement given as its isometry has no branch terms to dress")
    d_a, d_b = ideal.object_dim, ideal.instrument_dim
    operators, vectors = [], []
    for k, dressing in enumerate(dressings):
        (w, e), c = ideal.operators[k], ideal.pointer_states.vectors[k]
        branch = ideal.pointer.branches[ideal.mapping[k]]
        if isinstance(dressing, ThinDressing):
            if dressing.block is not None:
                w = _complex_matrix(dressing.block, f"object dressing {k}")
            operators.append((w, e))
            vectors.append(_thin_pointer(k, dressing.pointer, branch, c))
            continue
        try:
            v_a, w_b = dressing
        except (TypeError, ValueError) as exc:
            raise DimensionMismatchError(f"dressing {k} is not a pair of matrices") from exc
        v_a = _complex_matrix(v_a, f"object dressing {k}")
        w_b = _complex_matrix(w_b, f"instrument dressing {k}")
        if v_a.shape != (d_a, d_a) or w_b.shape != (d_b, d_b):
            raise DimensionMismatchError("dressing shapes do not match the layout")
        what = f"object dressing {k}"
        if not _gram_residual(v_a, what, DressingError) <= DEFAULT.unitary * d_a:
            raise DressingError(f"{what} is not unitary")
        what = f"instrument dressing {k}"
        if not math.isfinite(_refuse_non_finite(w_b, what, DressingError)):
            raise DressingError(f"{what} has entries too large: its squared norm overflows")
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
        if w is None and not e.is_complement:
            w = e.basis  # the undressed block: V_k Q_k
        operators.append((v_a if w is None else v_a @ w, e))
        vectors.append(w_b @ c)
    try:
        states = SubsystemBasis(ideal.instrument_label, tuple(vectors))
    except NonOrthonormalBasisError as exc:
        raise DressingError(f"instrument dressings leave the pointer vectors: {exc}") from exc
    return replace(ideal, operators=tuple(operators), pointer_states=states)


def _thin_pointer(k: int, unit, branch: ObservableBranch, c: np.ndarray) -> np.ndarray:
    """Q' u Q'^dag c: pointer vector ``c`` of term ``k`` dressed by the
    (r', r') unitary ``unit`` on the block Q' of its pointer ``branch``."""
    what = f"instrument dressing {k}"
    if branch.is_complement:
        raise DressingError(
            f"{what} acts on the idle complement of the pointer, which has no block"
        )
    u = _complex_matrix(unit, what)
    if u.shape != (branch.rank, branch.rank):
        raise DimensionMismatchError(f"{what} has shape {u.shape}, expected {(branch.rank,) * 2}")
    if not math.isfinite(_refuse_non_finite(u, what, DressingError)):
        raise DressingError(f"{what} has entries too large: its squared norm overflows")
    q = branch.basis
    return q @ (u @ (q.conj().T @ c))


def complete_unitary(pm: Premeasurement) -> np.ndarray:
    """A premeasurement unitary U with U(. (x) |ready>) = V, for display and
    dense checks.

    U maps the initial sector {e_a (x) |ready>} onto the columns of V and
    the rest by Gram-Schmidt completions of both over the canonical basis,
    paired column by column, and is Gram-checked.  Which completion is used
    is physically empty; nothing in the package calls this.
    """
    d_a, d_b = pm.object_dim, pm.instrument_dim
    d = d_a * d_b
    sector = np.einsum("am,j->ajm", np.eye(d_a), pm.ready_state.amplitudes).reshape(d, d_a)
    domain = complete_orthonormal(list(sector.T), d)
    image = complete_orthonormal(list(pm.isometry.T), d)
    u = np.column_stack(image) @ np.column_stack(domain).conj().T
    resid = _gram_residual(u)
    if not resid <= DEFAULT.unitary * d:
        raise ValueError(f"matrix is not unitary: residual {resid:.3e}")
    u.setflags(write=False)
    return u


def _check_object_state(pm: Premeasurement, object_state: StateVector) -> None:
    """``evolve``'s checks: a normalized state of ``pm``'s object alone."""
    if object_state.layout.labels != (pm.object_label,):
        raise LayoutConflictError(
            f"object state must live on {pm.object_label!r} alone, "
            f"got {object_state.layout}"
        )
    if object_state.layout.dim != pm.object_dim:
        raise DimensionMismatchError("object state dimension mismatch")
    if not object_state.normalized:
        raise ValueError("object state must be normalized")


def _linked(
    pm: Premeasurement, amplitudes: np.ndarray, dims: Sequence[int], pos: int
) -> np.ndarray:
    """The one link kernel: ``pm``'s V applied through its factor
    (``hilbert.apply_local``: V, or G^dag then T plus W_c x (x) c_c) to
    axis ``pos`` of amplitudes over ``dims``, behind any leading batch axes,
    with the new instrument axis placed behind every other subsystem.  The
    result is fresh and frozen, for the state that adopts it.  The link is
    checked by the caller: ``evolve``, ``chains.extend_chain``, a scenario's
    chain, or ``check_conditions`` on its batches of object states."""
    thin, adjoint, idle = pm.factor
    d_a, d_b = pm.object_dim, pm.instrument_dim
    right = math.prod(dims[pos + 1 :])
    if adjoint is None:
        amps = apply_local(thin, amplitudes, dims, pos)
    else:
        reduced = apply_local(adjoint, amplitudes, dims, pos)
        amps = apply_local(thin, reduced, _resized(dims, pos, len(adjoint)), pos)
        if idle is not None:
            w_c, c_c = idle
            x = amplitudes if w_c is None else apply_local(w_c, amplitudes, dims, pos)
            cube = amps.reshape(-1, d_a, d_b, right)
            cube += np.reshape(x, (-1, d_a, 1, right)) * c_c[:, None]
    if right > 1:  # move the new instrument axis behind the later subsystems
        amps = amps.reshape(-1, d_a, d_b, right).transpose(0, 1, 3, 2).reshape(amps.shape)
    amps.setflags(write=False)
    return amps


def evolve(pm: Premeasurement, object_state: StateVector) -> StateVector:
    """Final composite state U(|phi> (x) |ready>); its fresh amplitudes are
    frozen and handed to the state."""
    _check_object_state(pm, object_state)
    amps = _linked(pm, object_state.amplitudes, (pm.object_dim,), 0)
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
    x - G (G^dag x) for a complement.  Each of the three batches of object
    states (the sharp states, the shared states and every E_k |phi> of
    them) is evolved by one call of the link kernel (``_linked``).

    Each residual is the worst over the samples and branches, folded by
    ``hilbert._worst``: a NaN anywhere makes it NaN, and the condition fails.
    """
    dims = (pm.object_dim, pm.instrument_dim)
    alone = (pm.object_dim,)
    branches = pm.measured.branches
    pointer = [pm.pointer.branches[pm.mapping[k]] for k in range(len(branches))]
    samples = max(trials, 0) * len(branches)
    calibration = probability = dynamical = 0.0
    if trials > 0:
        rng = np.random.default_rng(seed)
        sharp = [_sharp_vector(b, rng) for b in branches for _ in range(trials)]
        finals = _linked(pm, np.array(sharp), alone, 0).reshape(len(branches), trials, -1)
        calibration = _worst(
            float(np.linalg.norm(f_k.through(rows, dims, 1)[1] - rows, axis=1).max())
            for f_k, rows in zip(pointer, finals)
        )
        rng = np.random.default_rng(seed)
        phis = []
        for _ in range(trials):
            raw = rng.standard_normal(pm.object_dim) + 1j * rng.standard_normal(pm.object_dim)
            phis.append(raw / _fro(raw))
        phis = np.array(phis)
        finals = _linked(pm, phis, alone, 0)
        through = [branch.through(phis, alone, 0) for branch in branches]
        evolved = _linked(pm, np.array([projected for _, projected in through]), alone, 0)
        probabilities, dynamicals = [], []
        for f_k, (coeffs, _), evolved_k in zip(pointer, through, evolved):
            final_coeffs, final_pointed = f_k.through(finals, dims, 1)
            lhs = np.sum(np.abs(coeffs) ** 2, axis=1)
            rhs = np.sum(np.abs(final_coeffs) ** 2, axis=1)
            probabilities.append(float(np.max(np.abs(lhs - rhs))))
            dynamicals.append(float(np.linalg.norm(final_pointed - evolved_k, axis=1).max()))
        probability, dynamical = _worst(probabilities), _worst(dynamicals)
    return (
        ConditionReport("calibration", calibration, samples, DEFAULT.condition),
        ConditionReport("probability_reproduction", probability, samples, DEFAULT.condition),
        ConditionReport("dynamical", dynamical, samples, DEFAULT.condition),
    )


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
            # ``vec`` is fresh (for a complement it is ``coeffs`` too, whose
            # weight is already read): it is scaled in place and adopted.
            np.divide(vec, np.sqrt(w), out=vec)
            vec.setflags(write=False)
            component = StateVector(lay, vec, normalized=True)
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
    return build_exact(ideal, random_dressings(ideal, rng))


def random_dressings(ideal: Premeasurement, rng: np.random.Generator) -> list[ThinDressing]:
    """One random ``ThinDressing`` per measured branch of ``ideal``, for
    ``build_exact``.

    A measured block Q_k of rank r_k gets W_k = U_k Q_k for a Haar U_k,
    which is a Haar (d_a, r_k) isometry whatever Q_k is: the leading r_k
    columns of a Haar unitary.  All of them come from one stacked QR
    (``hilbert._haar_isometries``) of (d_a, max r_k) Gaussians, W_k taking
    the leading r_k columns of its draw.  The measured idle complement stays
    undressed (its term keeps A_c = I - G G^dag), so no block of its d_a - m
    columns is drawn or formed, and the link costs O(d_a m) however large
    the complement.  Each pointer block of rank r' gets an (r', r') Haar
    unitary, one stacked QR per distinct rank.  The draws come in that
    order: the object blocks in branch order, then the pointer unitaries by
    ascending rank, each rank in branch order.  A pointer branch that is the
    idle complement holds no block to draw on: that raises
    ``DressingError`` before any draw."""
    pointer, mapping = ideal.pointer.branches, ideal.mapping
    measured = ideal.measured.branches
    targets = [pointer[mapping[k]] for k in range(len(measured))]
    for k, branch in enumerate(targets):
        if branch.is_complement:
            raise DressingError(
                f"measured branch {k} maps to the idle complement of the pointer, "
                "which has no block to draw a random dressing on"
            )
    ranks = [b.rank for b in measured if not b.is_complement]
    blocks = _haar_isometries(len(ranks), ideal.object_dim, max(ranks), rng)
    blocks.setflags(write=False)  # adopted by the terms as they are
    drawn = iter(blocks)
    units = {
        r: iter(_haar_isometries(sum([t.rank == r for t in targets]), r, r, rng))
        for r in sorted({t.rank for t in targets})
    }
    return [
        ThinDressing(None if b.is_complement else next(drawn)[:, : b.rank], next(units[t.rank]))
        for b, t in zip(measured, targets)
    ]
