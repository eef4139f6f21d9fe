"""Misuse of the dressing and isometry constructors, and of the ensemble
and relative-state calls, fails with a typed error.

``build_exact`` with a caller's dense pairs or thin dressings,
``random_dressings`` (also on a pointer whose idle complement receives a
pointer state), ``Premeasurement.from_isometry``, ``ensemble_update``,
``monte_carlo_update`` and ``relative_state`` each return a checked value
or raise a ``vnchain.errors`` type or a ``ValueError``.  No other exception
(``AttributeError``, ``TypeError``, ``IndexError``, ``LinAlgError``) and no
warning may escape.  The inputs are drawn by Hypothesis, derandomized, at
dimensions up to 5.
"""

import inspect
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnchain import (
    SpectralObservable,
    StateVector,
    SubsystemBasis,
    WeightedEnsemble,
    basis_state,
    build_ideal,
    ensemble_update,
    errors,
    layout,
    monte_carlo_update,
    relative_state,
)
from vnchain.hilbert import random_state, random_unitary
from vnchain.premeasurement import (
    Premeasurement,
    ThinDressing,
    build_exact,
    check_conditions,
    random_dressings,
    random_ideal,
)

from oracles import range_unitary

TYPED = (ValueError,) + tuple(
    cls for _, cls in inspect.getmembers(errors, inspect.isclass) if issubclass(cls, Exception)
)


def _typed(call):
    """``call()`` with every warning an error: its value, or None when it
    raised a typed error.  Any other exception propagates."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except TYPED:
            return None


def _idle_target_link(da: int, db: int) -> Premeasurement:
    """A link whose measured branch 0 maps to the idle complement of a
    pointer with one block, e_0: its pointer state is e_1."""
    eye_a, eye_b = np.eye(da, dtype=complex), np.eye(db, dtype=complex)
    pointer = SpectralObservable.from_eigenbasis("B", [0.0], [eye_b[:, :1]], complement=-1.0)
    measured = SpectralObservable.from_eigenbasis(
        "A", [0.0, 1.0], [eye_a[:, : da - 1], eye_a[:, da - 1 :]]
    )
    return build_ideal(
        measured, SubsystemBasis("B", (eye_b[1], eye_b[0])), basis_state(layout(("B", db)), 0),
        pointer=pointer,
    )


def _object_dressing(kind: str, d: int, rng):
    if kind == "unitary":
        return random_unitary(d, rng)
    if kind == "misshapen":
        return [np.eye(d + 1), np.ones(d), np.ones((2, d, d)), np.eye(d)[:, :1]][rng.integers(4)]
    if kind == "object dtype":
        return [
            np.array([[1, 2], [3]], dtype=object),
            np.array([["a"] * d] * d),
            np.full((d, d), None),
        ][rng.integers(3)]
    if kind == "non-finite":
        u = random_unitary(d, rng)
        u[rng.integers(d), rng.integers(d)] = [np.nan, np.inf][rng.integers(2)]
        return u
    if kind == "huge":
        return np.full((d, d), 1e300)
    return 2 * random_unitary(d, rng)  # not unitary


def _instrument_dressing(kind: str, pm: Premeasurement, k: int, rng):
    d = pm.instrument_dim
    branch = pm.pointer.branches[pm.mapping[k]]
    if kind == "unitary":
        return np.eye(d) if branch.is_complement else range_unitary(branch.basis, random_unitary(branch.rank, rng))
    if kind == "leaking":
        return random_unitary(d, rng)
    return _object_dressing(kind, d, rng)


KINDS = ("unitary", "misshapen", "object dtype", "non-finite", "huge", "non-unitary")


@st.composite
def _links(draw):
    da, db = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**16))
    idle = draw(st.booleans()) and da >= 2 and db >= 2
    if idle:
        return _idle_target_link(da, db), seed
    m = draw(st.integers(1, min(da, db)))
    return random_ideal("A", "B", da, db, np.random.default_rng(seed), m), seed


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    _links(),
    st.sampled_from(KINDS + ("leaking", "not a pair")),
    st.booleans(),
    st.integers(0, 4),
)
def test_build_exact_with_caller_pairs(link, kind, on_object, index):
    """Valid dense pairs, but for pair ``index``, whose object or
    instrument dressing is of ``kind``."""
    pm, seed = link
    rng = np.random.default_rng(seed + 1)
    pairs = [
        (random_unitary(pm.object_dim, rng), _instrument_dressing("unitary", pm, k, rng))
        for k in range(pm.measured.branch_count)
    ]
    k = index % len(pairs)
    v, w = pairs[k]
    if kind == "not a pair":
        pairs[k] = [(v,), (v, w, None), 3.0][rng.integers(3)]
    elif on_object and kind != "leaking":
        pairs[k] = (_object_dressing(kind, pm.object_dim, rng), w)
    else:
        pairs[k] = (v, _instrument_dressing(kind, pm, k, rng))
    exact = _typed(lambda: build_exact(pm, pairs))
    if exact is not None:
        assert all(report.passed for report in check_conditions(exact, trials=2))
    if kind == "unitary":
        assert exact is not None


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_links(), st.lists(st.sampled_from(KINDS), min_size=5, max_size=5))
def test_build_exact_with_thin_dressings(link, kinds):
    pm, seed = link
    rng = np.random.default_rng(seed + 2)
    drawn = _typed(lambda: random_dressings(pm, rng))
    if drawn is None:  # a measured branch maps to the idle complement of the pointer
        assert any(pm.pointer.branches[b].is_complement for b in pm.mapping.values())
        dressings = [ThinDressing(None, np.eye(1))] * pm.measured.branch_count
    else:
        dressings = list(drawn)
    for k, kind in zip(range(len(dressings)), kinds):
        d = dressings[k]  # spoilt by ``kind``
        if kind == "misshapen":
            dressings[k] = ThinDressing(np.ones((pm.object_dim, pm.object_dim + 1)), d.pointer)
        elif kind == "object dtype":
            dressings[k] = ThinDressing(d.block, np.array([[1, 2], [3]], dtype=object))
        elif kind == "non-finite":
            dressings[k] = ThinDressing(d.block, np.full_like(d.pointer, np.nan))
        elif kind == "huge":
            dressings[k] = ThinDressing(np.full((pm.object_dim, 1), 1e300), d.pointer)
        elif kind == "non-unitary" and d.block is not None:
            dressings[k] = ThinDressing(2 * d.block, d.pointer)
        elif kind == "non-unitary":
            dressings[k] = ThinDressing(d.block, 2 * d.pointer)
    exact = _typed(lambda: build_exact(pm, dressings))
    if exact is not None:
        assert all(report.passed for report in check_conditions(exact, trials=2))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_links(), st.sampled_from(KINDS + ("isometry",)))
def test_from_isometry(link, kind):
    pm, seed = link
    rng = np.random.default_rng(seed + 3)
    shape = (pm.object_dim * pm.instrument_dim, pm.object_dim)
    if kind == "isometry":
        v = pm.isometry
    elif kind == "unitary":
        v = random_unitary(shape[0], rng)[:, : shape[1]]
    elif kind in ("misshapen", "object dtype"):
        v = _object_dressing(kind, pm.object_dim, rng)
    elif kind == "non-finite":
        v = np.array(pm.isometry)
        v[rng.integers(shape[0]), rng.integers(shape[1])] = np.nan
    elif kind == "huge":
        v = np.full(shape, 1e300)
    else:
        v = 2 * pm.isometry
    parts = {
        name: getattr(pm, name)
        for name in ("object_label", "instrument_label", "measured", "pointer", "ready_state")
    }
    given = _typed(lambda: Premeasurement.from_isometry(v, index_map=pm.index_map, **parts))
    if kind == "isometry":
        assert all(report.passed for report in check_conditions(given, trials=2))
    elif kind == "unitary":
        assert given is not None
    elif kind != "misshapen":  # a misshapen (1, 1) block is V of a 1 x 1 layout
        assert given is None


def test_a_ragged_object_dressing_is_a_dimension_mismatch():
    pm = random_ideal("A", "B", 2, 4, np.random.default_rng(0), 2)
    ragged = np.array([[1, 2], [3]], dtype=object)
    with pytest.raises(errors.DimensionMismatchError, match="object dressing 0 is not a numeric"):
        build_exact(pm, [(ragged, np.eye(4))] * 2)


# --- ensemble updates and relative states ------------------------------------

# The subject is "S", the first subsystem; "Z" names none, and "A" names
# another subsystem when there is one.
SUBJECTS = ("S", "Z", "A")
EVENTS = (
    "block",
    "pointer block",
    "complement",
    "complement of another dimension",
    "non-orthonormal",
    "non-finite",
    "misshapen",
)


def _ensemble(ds: int, others, count: int, rng, part=None, tilt: float = 0.0):
    """``count`` members of weights summing to 1 + ``tilt`` on S (dimension
    ``ds``) and the ``others``; with a ``part``, each member is that S part
    times a random state of the others."""
    lay = layout(("S", ds), *zip("AB", others))
    members = []
    for _ in range(count):
        psi = random_state(lay, rng)
        if part is not None:
            rest = random_state(lay.restricted(set(lay.labels) - {"S"}), rng)
            psi = StateVector(lay, np.kron(part, rest.amplitudes))
        members.append(((1 + tilt) / count, psi))
    return WeightedEnsemble(tuple(members))


def _event(kind: str, ds: int, rng):
    """An event on S, of dimension ``ds``, spoilt by ``kind``."""
    r = int(rng.integers(1, ds + 1))
    block = random_unitary(ds, rng)[:, :r]
    eye = np.eye(ds + (kind == "complement of another dimension"), dtype=complex)
    pointer_kind = kind in ("pointer block", "complement", "complement of another dimension")
    if pointer_kind and eye.shape[0] >= 2:  # a pointer with a non-empty complement
        g = min(r, eye.shape[0] - 1)
        pointer = SpectralObservable.from_eigenbasis("S", [0.0], [eye[:, :g]], complement=-1.0)
        return next(b for b in pointer.branches if b.is_complement == (kind != "pointer block"))
    if kind == "non-orthonormal":
        return 2 * block
    if kind == "non-finite":
        block = np.array(block)
        block[rng.integers(ds), rng.integers(r)] = [np.nan, np.inf][rng.integers(2)]
        return block
    if kind == "misshapen":
        shapes = [(ds,), (ds, ds + 1), (2, ds, 1), (ds + 1, 1)]
        return np.ones(shapes[rng.integers(4)])
    return block


_dims = st.integers(1, 5)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    _dims,
    st.lists(_dims, max_size=2),
    st.integers(1, 3),
    st.integers(0, 2**16),
    st.sampled_from(EVENTS),
    st.sampled_from(SUBJECTS),
    st.sampled_from((-1, 0, 1, 40)),
)
def test_ensemble_update_and_monte_carlo_update(ds, others, count, seed, kind, subject, samples):
    """Mismatched subjects, events that are no orthonormal block, and pointer
    branches, the idle complement included, of the subject's dimension or
    another."""
    rng = np.random.default_rng(seed)
    ens = _ensemble(ds, others, count, rng)
    event = _event(kind, ds, rng)
    result = _typed(lambda: ensemble_update(ens, event, subject))
    if result is not None:
        assert abs(sum(result.weights) - 1.0) <= 1e-10
        assert result.aggregate.layout == result.members[0].state.layout
    sampled = _typed(lambda: monte_carlo_update(ens, event, subject, samples, seed=seed))
    if sampled is not None:
        assert sum(sampled.member_counts) == samples
    if subject == "S" and others and kind == "block":
        assert result is not None


# Amplitudes eps on |1> of S, whose squares lie around the event weight
# floor ``DEFAULT.weight`` = 1e-12; 1e-6 squares to it exactly.
NEAR_ZERO = (0.0, 1e-9, 9.9e-7, 1e-6, 1.01e-6, 1e-5)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.integers(2, 5),
    st.lists(_dims, min_size=1, max_size=2),
    st.integers(1, 3),
    st.integers(0, 2**16),
    st.sampled_from(NEAR_ZERO),
    st.sampled_from((-5e-11, 0.0, 5e-11)),
    st.booleans(),
)
def test_events_of_near_zero_probability(ds, others, count, seed, eps, tilt, complement):
    """Every member's S part is sqrt(1 - eps^2)|0> + eps|1>, so the event
    |1>, or the idle complement of a pointer on |0>, has probability eps^2
    in each member; the weights sum to 1 + ``tilt``, within the ensemble's
    tolerance.  Each call is defined where eps^2 clears the weight floor
    and refused where it does not, and may go either way within rounding of
    the floor."""
    rng = np.random.default_rng(seed)
    part = np.zeros(ds, dtype=complex)
    part[:2] = np.sqrt(1 - eps**2), eps
    ens = _ensemble(ds, others, count, rng, part, tilt)
    eye = np.eye(ds, dtype=complex)
    event = eye[:, 1:2]
    if complement:
        pointer = SpectralObservable.from_eigenbasis("S", [0.0], [eye[:, :1]], complement=-1.0)
        event = next(b for b in pointer.branches if b.is_complement)
    result = _typed(lambda: ensemble_update(ens, event, "S"))
    sampled = _typed(lambda: monte_carlo_update(ens, event, "S", 40, seed=seed))
    rel = _typed(lambda: relative_state(ens.members[0][1], "S", eye[1]))
    for value in (result, rel):
        if eps**2 > 1.01e-12:
            assert value is not None
        elif eps**2 < 0.99e-12:
            assert value is None
    if result is not None:
        assert result.members and abs(sum(result.weights) - 1.0) <= 1e-10
        assert result.aggregate.layout == result.members[0].state.layout
    if sampled is not None:
        assert sum(sampled.accepted_counts) > 0


VECTORS = ("unit", "long", "short", "non-finite", "matrix")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    _dims,
    st.lists(_dims, max_size=2),
    st.integers(0, 2**16),
    st.sampled_from(SUBJECTS),
    st.sampled_from(VECTORS),
)
def test_relative_state(ds, others, seed, subject, kind):
    """Mismatched subjects and subject vectors that are no unit vector of
    the subject's dimension."""
    rng = np.random.default_rng(seed)
    psi = _ensemble(ds, others, 1, rng).members[0][1]
    phi = random_state(layout(("S", ds)), rng).amplitudes
    if kind == "long":
        phi = 2 * phi
    elif kind == "short":
        phi = phi[:-1] / np.linalg.norm(phi[:-1]) if ds > 1 else np.ones(2) / np.sqrt(2)
    elif kind == "non-finite":
        phi = np.full(ds, [np.nan, np.inf][rng.integers(2)])
    elif kind == "matrix":
        phi = np.eye(ds)[:, :1]
    rel = _typed(lambda: relative_state(psi, subject, phi))
    if rel is not None:
        assert abs(rel.norm() - 1.0) <= 1e-10
    if subject == "S" and others and kind == "unit":
        assert rel is not None
