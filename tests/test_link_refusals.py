"""Every refusal of ``Premeasurement(...)`` and ``build_ideal(...)``, with its
exact error type and message: a link that is checked faster must still be
refused for the same reason, in the same words."""

import dataclasses

import numpy as np
import pytest

from vnchain import (
    DimensionMismatchError,
    LayoutConflictError,
    SpectralObservable,
    StateVector,
    SubsystemBasis,
    basis_state,
    build_ideal,
    layout,
)
from vnchain.premeasurement import Premeasurement

EYE2, EYE3 = np.eye(2, dtype=complex), np.eye(3, dtype=complex)


def measured(label="A"):
    """The qubit observable diag(0, 1), in its eigenbasis."""
    return SpectralObservable.from_eigenbasis(label, [0.0, 1.0], [EYE2[:, :1], EYE2[:, 1:]])


def states(label="B", dim=2, count=2):
    return SubsystemBasis(label, tuple(np.eye(dim, dtype=complex)[:count]))


def ready(label="B", dim=2):
    return basis_state(layout((label, dim)), 0)


def ideal_fields(units=(None, None), **changes):
    """The fields of the ideal qubit link A -> B, with ``changes`` applied;
    the terms are (W_k, E_k) for the ``units``, the blocks W_k, given."""
    m = measured()
    fields = dict(
        object_label="A",
        instrument_label="B",
        measured=m,
        pointer=SpectralObservable(states(), [0.0, 1.0], [1, 1]),
        ready_state=ready(),
        operators=tuple(zip(units, m.branches)),
        pointer_states=states(),
        index_map=((0, 0), (1, 1)),
    )
    fields.update(changes)
    return fields


def qutrit_pointer(label="B"):
    """A qutrit pointer whose branch 1 has rank 2, over the canonical basis."""
    return SpectralObservable.from_eigenbasis(label, [0.0, 1.0], [EYE3[:, :1], EYE3[:, 1:]])


PREMEASUREMENT_REFUSALS = {
    "same-labels": (
        lambda: ideal_fields(instrument_label="A"),
        LayoutConflictError,
        "object and instrument labels must differ",
    ),
    "measured-off-the-object": (
        lambda: ideal_fields(measured=measured("X")),
        LayoutConflictError,
        "measured observable is not on the object",
    ),
    "pointer-off-the-instrument": (
        lambda: ideal_fields(pointer=SpectralObservable(states("X"), [0.0, 1.0], [1, 1])),
        LayoutConflictError,
        "pointer observable is not on the instrument",
    ),
    "ready-on-another-layout": (
        lambda: ideal_fields(ready_state=ready("X")),
        LayoutConflictError,
        "ready state must live on the instrument alone",
    ),
    "ready-on-two-subsystems": (
        lambda: ideal_fields(ready_state=basis_state(layout(("B", 2), ("C", 2)), 0)),
        LayoutConflictError,
        "ready state must live on the instrument alone",
    ),
    "ready-dimension": (
        lambda: ideal_fields(ready_state=ready(dim=3)),
        DimensionMismatchError,
        "ready state does not match instrument dim",
    ),
    "ready-not-normalized": (
        lambda: ideal_fields(
            ready_state=StateVector(layout(("B", 2)), [2.0, 0.0], normalized=False)
        ),
        ValueError,
        "ready state must be normalized",
    ),
    "pointer-vectors-off-the-instrument": (
        lambda: ideal_fields(pointer_states=states("X")),
        LayoutConflictError,
        "pointer vectors must live on the instrument",
    ),
    "pointer-vectors-dimension": (
        lambda: ideal_fields(pointer_states=states(dim=3)),
        LayoutConflictError,
        "pointer vectors must live on the instrument",
    ),
    "term-count": (
        lambda: ideal_fields(pointer_states=states(count=1)),
        DimensionMismatchError,
        "1 pointer vectors for 2 terms",
    ),
    "terms-out-of-order": (
        lambda: ideal_fields(operators=tuple((None, b) for b in measured().branches[::-1])),
        ValueError,
        "terms must act through every measured branch in order",
    ),
    "object-operator-shape": (
        lambda: ideal_fields(units=(EYE3, None)),
        DimensionMismatchError,
        "object operators must have shape (2, 1) for term 0, not (3, 3)",
    ),
    "isometry-bound": (
        lambda: ideal_fields(units=(2 * EYE2[:, :1], None)),
        ValueError,
        "matrix is not an isometry: residual 3.000e+00",
    ),
    "plain-terms": (
        lambda: ideal_fields(operators=((EYE2, None), (EYE2, None))),
        ValueError,
        "terms must act through every measured branch in order",
    ),
    "isometry-shape": (
        lambda: ideal_fields(operators=np.eye(4, 3)),
        DimensionMismatchError,
        "isometry shape (4, 3), expected (4, 2)",
    ),
    "isometry-as-operators-bound": (
        lambda: ideal_fields(operators=np.eye(4, 2) * 2),
        ValueError,
        "matrix is not an isometry: residual 4.243e+00",
    ),
    "index-map-misses-a-branch": (
        lambda: ideal_fields(index_map=((0, 0),)),
        ValueError,
        "index_map must cover every measured branch exactly once",
    ),
    "index-map-repeats-a-branch": (
        lambda: ideal_fields(index_map=((0, 0), (0, 1))),
        ValueError,
        "index_map must cover every measured branch exactly once",
    ),
    "index-map-not-injective": (
        lambda: ideal_fields(index_map=((0, 1), (1, 1))),
        ValueError,
        "index_map must be injective into pointer branches",
    ),
    "index-map-unknown-target": (
        lambda: ideal_fields(index_map=((0, 0), (1, 2))),
        ValueError,
        "index_map targets unknown pointer branches",
    ),
    "index-map-negative-target": (
        lambda: ideal_fields(index_map=((0, -1), (1, 0))),
        ValueError,
        "index_map targets unknown pointer branches",
    ),
}


@pytest.mark.parametrize("case", PREMEASUREMENT_REFUSALS)
def test_premeasurement_refusal(case):
    fields, error, message = PREMEASUREMENT_REFUSALS[case]
    with pytest.raises(ValueError) as info:
        Premeasurement(**fields())
    assert (type(info.value), str(info.value)) == (error, message)


# With (1, 0), a pair whose Gram residual, 1.56e-10, the observable and the
# basis constructors each accept, but whose two residuals the link's bound
# does not.
SKEWED = np.array([1.1e-10, 1.0], dtype=complex)

BUILD_IDEAL_REFUSALS = {
    "pointer-state-count": (
        lambda: (measured(), states(count=1), ready()),
        DimensionMismatchError,
        "1 pointer states for 2 branches",
    ),
    "ready-on-another-layout": (
        lambda: (measured(), states(), ready("X")),
        LayoutConflictError,
        "ready state must live on the instrument subsystem",
    ),
    "ready-dimension": (
        lambda: (measured(), states(dim=3), ready(dim=2)),
        LayoutConflictError,
        "ready state must live on the instrument subsystem",
    ),
    "ready-not-normalized": (
        lambda: (
            measured(),
            states(),
            StateVector(layout(("B", 2)), [2.0, 0.0], normalized=False),
        ),
        ValueError,
        "ready state must be normalized",
    ),
    "pointer-off-the-instrument": (
        lambda: (measured(), states(dim=3), ready(dim=3), qutrit_pointer("X")),
        LayoutConflictError,
        "pointer observable does not match instrument",
    ),
    "pointer-dimension": (
        lambda: (measured(), states(), ready(), qutrit_pointer()),
        LayoutConflictError,
        "pointer observable does not match instrument",
    ),
    "pointer-state-in-no-projector": (
        lambda: (
            measured(),
            SubsystemBasis("B", (np.array([1, 1, 0]) / np.sqrt(2), EYE3[2])),
            ready(dim=3),
            qutrit_pointer(),
        ),
        DimensionMismatchError,
        "pointer state 0 does not lie in the range of exactly one pointer projector "
        "(matches [])",
    ),
    "pointer-states-share-a-projector": (
        lambda: (
            measured(),
            SubsystemBasis("B", (EYE3[1], EYE3[2])),
            ready(dim=3),
            qutrit_pointer(),
        ),
        DimensionMismatchError,
        "pointer states share a pointer projector",
    ),
    "isometry-bound": (
        lambda: (
            SpectralObservable.from_eigenbasis(
                "A", [0.0, 1.0], [EYE2[:, :1], SKEWED[:, None]]
            ),
            SubsystemBasis("B", (EYE2[0], SKEWED)),
            ready(),
        ),
        ValueError,
        "matrix is not an isometry: residual 5.311e-10",
    ),
}


@pytest.mark.parametrize("case", BUILD_IDEAL_REFUSALS)
def test_build_ideal_refusal(case):
    args, error, message = BUILD_IDEAL_REFUSALS[case]
    with pytest.raises(ValueError) as info:
        build_ideal(*args())
    assert (type(info.value), str(info.value)) == (error, message)


def test_premeasurement_fields_are_those_of_the_table():
    """The table's base fields make a link: each row breaks one thing."""
    pm = Premeasurement(**ideal_fields())
    assert [f.name for f in dataclasses.fields(pm) if f.init] == list(ideal_fields())
