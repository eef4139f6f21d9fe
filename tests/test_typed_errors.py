"""Misuse of the dressing and isometry constructors fails with a typed error.

``build_exact`` with a caller's dense pairs or thin dressings,
``random_dressings`` (also on a pointer whose idle complement receives a
pointer state) and ``Premeasurement.from_isometry`` each return a checked
value or raise a ``vnchain.errors`` type or a ``ValueError``.  No other
exception (``TypeError``, ``IndexError``, ``LinAlgError``) and no warning
may escape.  The inputs are drawn by Hypothesis, derandomized, at
dimensions up to 5.
"""

import inspect
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnchain import SpectralObservable, SubsystemBasis, basis_state, build_ideal, errors, layout
from vnchain.hilbert import random_unitary
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
