"""A repeated stage is one checked link.

A link whose measured branches, pointer rows and ready amplitudes are the
previous ideal link's very objects adopts that link under its own labels
(``Premeasurement`` given a link as ``operators``); a pointer adopts an
observable on the same rows (``SpectralObservable`` given an observable),
and a state another state on the same dimensions (``StateVector`` given a
state).  Nothing is checked twice, and every label check still runs.

Tested here: the three adoption forms and their refusals; every link that
``build_premeasurements`` makes against a fresh build of its stage that
shares no object with any other stage, field for field and V bit for bit;
and a table of errors recorded before links were adopted, for documents
that repeat a stage and break it at a later one.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from vnchain import (
    DimensionMismatchError,
    LayoutConflictError,
    SpectralObservable,
    StateVector,
    SubsystemBasis,
    basis_state,
    build_exact,
    build_ideal,
    layout,
)
from vnchain import hilbert, observables
from vnchain.cli import main
from vnchain.premeasurement import Premeasurement, _pointer_from_states, random_dressings
from vnchain.scenarios import (
    BUILTIN_DOCUMENTS,
    ScenarioError,
    build_premeasurements,
    builtin_document,
    parse_scenario,
    scenario_from_document,
)

from test_kernels import _copy_chain

EYE2 = np.eye(2, dtype=complex)


def _forbid(monkeypatch, module, name):
    def refused(*args, **kwargs):
        raise AssertionError(f"{name} called on an adoption")

    monkeypatch.setattr(module, name, refused)


# ---------------------------------------------------------------------------
# The adoption forms.


def test_an_adopted_observable_shares_its_branches(monkeypatch):
    """An observable given as ``eigenvalues`` is taken on a basis that
    adopted its columns: the same eigenvalues, ranks and branch objects,
    under the new label, with no branch build and no orthonormality
    judgement."""
    columns = SubsystemBasis("B", tuple(np.eye(3, dtype=complex)[:2]))
    source = SpectralObservable(columns, (-1, 0, 1), (None, 1, 1))
    _forbid(monkeypatch, observables, "_require_orthonormal")
    adopted = SpectralObservable(SubsystemBasis("C", columns), source)
    assert (adopted.subsystem, source.subsystem) == ("C", "B")
    assert adopted.eigenvalues is source.eigenvalues == (-1.0, 0.0, 1.0)
    assert adopted.ranks is source.ranks
    assert adopted.branches is source.branches
    assert adopted.basis.base is source.basis.base
    assert adopted.gram_residual == source.gram_residual


def test_an_observable_is_adopted_only_on_its_own_rows():
    columns = SubsystemBasis("B", tuple(EYE2))
    source = SpectralObservable(columns, (0, 1), (1, 1))
    for other in (
        SubsystemBasis("C", tuple(EYE2)),  # equal vectors, other rows
        SubsystemBasis("C", tuple(EYE2[::-1])),
    ):
        with pytest.raises(ValueError, match="keeps its columns and its ranks"):
            SpectralObservable(other, source)
    with pytest.raises(ValueError, match="keeps its columns and its ranks"):
        SpectralObservable(SubsystemBasis("C", columns), source, (2,))


def test_an_adopted_state_shares_its_amplitudes(monkeypatch):
    """A state given as ``amplitudes`` is taken on a layout of the same
    dimensions, with no second norm check when it was checked as
    normalized; ``relabeled`` adopts the state it relabels."""
    source = StateVector(layout(("B", 2)), np.array([0.6, 0.8]))
    loose = StateVector(layout(("B", 2)), [2.0, 0.0], normalized=False)
    _forbid(monkeypatch, hilbert, "_check_state_norm")
    adopted = StateVector(layout(("C", 2)), source)
    assert adopted.amplitudes is source.amplitudes
    assert adopted.layout.labels == ("C",) and adopted.normalized
    relabeled = source.relabeled({"B": "D"})
    assert relabeled.amplitudes is source.amplitudes and relabeled.layout.labels == ("D",)
    assert StateVector(layout(("C", 2)), loose, normalized=False).amplitudes is loose.amplitudes


def test_a_state_is_adopted_only_on_its_dimensions():
    source = basis_state(layout(("B", 2)), 0)
    with pytest.raises(DimensionMismatchError, match="cannot be adopted on C"):
        StateVector(layout(("C", 3)), source)
    with pytest.raises(DimensionMismatchError, match="cannot be adopted"):
        StateVector(layout(("C", 1), ("D", 2)), source)
    # a state flagged normalized is checked as one, whatever its source
    loose = StateVector(layout(("B", 2)), [2.0, 0.0], normalized=False)
    with pytest.raises(ValueError, match="flagged normalized but"):
        StateVector(layout(("C", 2)), loose)
    unit = StateVector(layout(("B", 2)), [1.0, 0.0], normalized=False)
    assert StateVector(layout(("C", 2)), unit).normalized


def test_a_copy_chain_checks_one_norm_per_distinct_state(monkeypatch):
    """The parse checks the norm of the ``initial`` state and of the first
    ``ready`` state; every later stage adopts that ready state under its own
    label."""
    checks = []
    check = hilbert._check_state_norm
    monkeypatch.setattr(hilbert, "_check_state_norm", lambda *a: checks.append(a) or check(*a))
    counts = []
    for links in (2, 6, 10):
        checks.clear()
        scenario = scenario_from_document(_copy_chain(links))
        counts.append(len(checks))
        ready = [st.link.ready_state for st in scenario.stages]
        assert [r.layout.labels for r in ready] == [(f"q{i + 1}",) for i in range(links)]
    assert counts == [2, 2, 2]


@pytest.mark.parametrize(
    "eigenvalues,adopted",
    [((0, 1), True), ((0, 5), False), ((0, 1, 2), True), ((0, 1, 5), False)],
)
def test_a_link_adopts_the_pointer_of_its_states_that_it_measures(eigenvalues, adopted):
    """``build_ideal`` gives a link the observable it measures as its pointer
    when that observable is already the pointer of its pointer states, on
    their very rows; another observable on those rows, or that pointer on
    equal rows that are not the same array, leaves the pointer built from
    the states, with the same V."""
    d = len(eigenvalues)
    rows = np.eye(d, dtype=complex)
    rows.setflags(write=False)
    measured = SpectralObservable(SubsystemBasis("A", rows), eigenvalues, (1,) * d)
    ready = basis_state(layout(("B", d)), 0)
    pm = build_ideal(measured, SubsystemBasis("B", measured.columns), ready)
    assert (pm.pointer.branches is measured.branches) is adopted
    assert pm.pointer.eigenvalues == tuple(range(d))
    fresh = build_ideal(measured, SubsystemBasis("B", tuple(rows)), ready)
    assert fresh.pointer.branches is not measured.branches
    assert _bits(pm.isometry) == _bits(fresh.isometry)


@pytest.mark.parametrize(
    "eigenvalues,ranks,adopted",
    [
        ((-1, 0, 1), (None, 1, 1), True),
        ((-1, 0, 1), (1, None, 1), False),  # the complement at another eigenvalue
        ((-1, 0, 5), (None, 1, 1), False),
    ],
)
def test_the_pointer_of_an_incomplete_basis_adopts_only_itself(eigenvalues, ranks, adopted):
    """The pointer of two states in three dimensions, whose idle complement
    is the first branch, adopts an observable on their rows only when it is
    that pointer."""
    rows = np.eye(3, dtype=complex)[:2]
    rows.setflags(write=False)
    measured = SpectralObservable(SubsystemBasis("A", rows), eigenvalues, ranks)
    pointer, index_map = _pointer_from_states(SubsystemBasis("B", measured.columns), measured)
    assert (pointer.branches is measured.branches) is adopted
    assert (pointer.eigenvalues, pointer.ranks) == ((-1, 0, 1), (None, 1, 1))
    assert index_map == {0: 1, 1: 2}


def _source_link():
    """The ideal qubit link A -> B that a link A -> C adopts."""
    measured = SpectralObservable(SubsystemBasis("A", tuple(EYE2)), (0, 1), (1, 1))
    ready = basis_state(layout(("B", 2)), 0)
    return build_ideal(measured, SubsystemBasis("B", tuple(EYE2)), ready)


def _adoption_fields(source, **changes):
    """The fields of ``source`` adopted on the instrument C, with ``changes``."""
    states = SubsystemBasis("C", source.pointer_states)
    fields = dict(
        object_label="A",
        instrument_label="C",
        measured=source.measured,
        pointer=SpectralObservable(states, source.pointer),
        ready_state=StateVector(layout(("C", 2)), source.ready_state),
        operators=source,
        pointer_states=states,
    )
    fields.update(changes)
    return fields


def test_an_adopted_link_shares_its_checked_values(monkeypatch):
    source = _source_link()
    _forbid(monkeypatch, Premeasurement, "_checked_terms")
    adopted = Premeasurement(**_adoption_fields(source))
    assert adopted.instrument_label == "C" and adopted.layout.labels == ("A", "C")
    assert adopted.operators is source.operators
    assert adopted.index_map is source.index_map
    assert adopted.isometry_bound == source.isometry_bound
    assert adopted.isometry is source.isometry


def _other(source, what):
    """An adoption of ``source`` whose ``what`` is not its object."""
    if what == "measured branches":
        columns = SubsystemBasis("A", tuple(EYE2))
        return {"measured": SpectralObservable(columns, (0, 1), (1, 1))}
    if what == "pointer rows":
        states = SubsystemBasis("C", tuple(EYE2))
        return {"pointer_states": states, "pointer": SpectralObservable(states, (0, 1), (1, 1))}
    if what == "pointer branches":
        states = SubsystemBasis("C", source.pointer_states)
        return {"pointer": SpectralObservable(states, (0, 1), (1, 1))}
    if what == "ready amplitudes":
        return {"ready_state": basis_state(layout(("C", 2)), 0)}
    return {"index_map": source.index_map}


@pytest.mark.parametrize(
    "what",
    ["measured branches", "pointer rows", "pointer branches", "ready amplitudes", "index map"],
)
def test_a_link_is_adopted_only_as_the_same_link(what):
    source = _source_link()
    with pytest.raises(ValueError) as info:
        Premeasurement(**_adoption_fields(source, **_other(source, what)))
    assert type(info.value) is ValueError
    assert str(info.value) == (
        "an adopted link must hold its source's measured branches, pointer rows and "
        "branches and ready amplitudes, and no index map of its own"
    )


def _relabeled(observable, label):
    return SpectralObservable(SubsystemBasis(label, observable.columns), observable)


def _relabeled_instrument(source, label):
    states = SubsystemBasis(label, source.pointer_states)
    return {
        "pointer_states": states,
        "pointer": SpectralObservable(states, source.pointer),
        "ready_state": StateVector(layout((label, 2)), source.ready_state),
    }


# Each label refusal of ``tests/test_link_refusals.py`` that an adoption can
# meet, with its type and message there.
ADOPTION_LABEL_REFUSALS = {
    "same-labels": (
        lambda s: {"instrument_label": "A", **_relabeled_instrument(s, "A")},
        LayoutConflictError,
        "object and instrument labels must differ",
    ),
    "measured-off-the-object": (
        lambda s: {"measured": _relabeled(s.measured, "X")},
        LayoutConflictError,
        "measured observable is not on the object",
    ),
    "pointer-off-the-instrument": (
        lambda s: {"pointer": _relabeled(s.pointer, "X")},
        LayoutConflictError,
        "pointer observable is not on the instrument",
    ),
    "ready-on-another-layout": (
        lambda s: {"ready_state": StateVector(layout(("X", 2)), s.ready_state)},
        LayoutConflictError,
        "ready state must live on the instrument alone",
    ),
    "pointer-vectors-off-the-instrument": (
        lambda s: {"pointer_states": SubsystemBasis("X", s.pointer_states)},
        LayoutConflictError,
        "pointer vectors must live on the instrument",
    ),
}


@pytest.mark.parametrize("case", ADOPTION_LABEL_REFUSALS)
def test_an_adopted_link_meets_every_label_check(case):
    changes, error, message = ADOPTION_LABEL_REFUSALS[case]
    source = _source_link()
    with pytest.raises(ValueError) as info:
        Premeasurement(**_adoption_fields(source, **changes(source)))
    assert (type(info.value), str(info.value)) == (error, message)


# ---------------------------------------------------------------------------
# Every link against a fresh build of its stage.


def _mixed_workload():
    """A chain of the shape of the benchmark's ``chain_mixed`` inputs: five
    qubits, a qutrit read with two pointer states (an idle branch) and a
    ququart whose three states copy the qutrit pointer, with the density
    analyses."""
    subsystems = [("q0", 2), ("q1", 2), ("q2", 2), ("q3", 2), ("q4", 2), ("t", 3), ("f", 4)]
    doc = _copy_chain(6)
    doc["subsystems"] = [list(s) for s in subsystems]
    labels = [label for label, _ in subsystems]
    for i, st in enumerate(doc["stages"]):
        st["object"], st["instrument"] = labels[i], labels[i + 1]
    doc["stages"][5]["pointer_states"] = ["basis:2", "basis:0", "basis:1"]
    doc["analyses"] = [
        "improper_mixture",
        {"kind": "world_branches", "pointer_stage": 0},
        {
            "kind": "ensemble_update",
            "projector": {"subsystem": "t", "state": [[0.6, 0], [0, 0.48], [0.64, 0]]},
            "samples": 1000,
        },
    ]
    return doc


def _mixing_chain():
    """Adopted and fresh stages side by side: an exact stage in the middle,
    an observable given as a matrix (the previous pointer again, diagonalized
    anew), a ``ready`` changed for two stages and back, which alone keeps
    link 7 from adopting link 6, and idle pointers on a qutrit and a
    ququart at the end.  Links 2 and 6 repeat the ideal link before
    them."""
    dims = {"q9": 3, "q10": 4}
    doc = _copy_chain(10)
    doc["subsystems"] = [[f"q{i}", dims.get(f"q{i}", 2)] for i in range(11)]
    stages = doc["stages"]
    stages[3]["kind"] = "exact"
    stages[4]["measured"] = {"matrix": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]}
    stages[5]["ready"] = stages[6]["ready"] = "basis:1"
    stages[9]["pointer_states"] = ["basis:2", "basis:0", "basis:1"]
    doc["analyses"] = [
        "branches",
        "improper_mixture",
        "condition_reports",
        {"kind": "world_branches", "pointer_stage": 4},
        {"kind": "ensemble_update", "projector": {"subsystem": "q9", "state": "plus"}},
    ]
    return doc


LINK_DOCUMENTS = {
    **{name: lambda name=name: builtin_document(name) for name in BUILTIN_DOCUMENTS},
    **{f"copy-{n}": lambda n=n: _copy_chain(n) for n in (2, 6, 10)},
    "idle-copy-4": lambda: _copy_chain(4, idle=True),
    "mixed-workload": _mixed_workload,
    "mixing": _mixing_chain,
}

# The links that adopt the ideal link before them.
ADOPTED = {
    "copy-2": set(),
    "copy-6": set(range(2, 6)),
    "copy-10": set(range(2, 10)),
    "idle-copy-4": set(),
    "mixed-workload": {2, 3},
    "mixing": {2, 6},
}


def _fresh_links(scenario, seed):
    """Each stage's link built anew by ``build_ideal`` (and ``build_exact``,
    with the dressings ``build_premeasurements`` draws) from copies of its
    pointer states and ready state, so that no two stages share a value."""
    links = []
    for i, st in enumerate(scenario.stages):
        label = st.link.instrument_label
        states = SubsystemBasis(label, tuple(np.array(v) for v in st.link.pointer_states.vectors))
        ready = StateVector(layout((label, states.dim)), np.array(st.link.ready_state.amplitudes))
        reads_previous = i and st.link.measured is scenario.stages[i - 1].link.pointer
        measured = links[-1].pointer if reads_previous else st.link.measured
        pm = build_ideal(measured, states, ready)
        if st.kind == "exact":
            dseed = st.dressings.seed
            if dseed is None:
                dseed = seed * 7_919 + st.index
            pm = build_exact(pm, random_dressings(pm, np.random.default_rng(dseed)))
        links.append(pm)
    return links


def _bits(a):
    return a.shape, a.dtype, a.tobytes()


def _same_observable(a, b):
    assert (a.subsystem, a.eigenvalues, a.ranks) == (b.subsystem, b.eigenvalues, b.ranks)
    assert _bits(a.basis) == _bits(b.basis)
    assert a.gram_residual == b.gram_residual


@pytest.mark.parametrize("name", sorted(LINK_DOCUMENTS))
@pytest.mark.parametrize("seed", [0, 5])
def test_every_link_equals_a_fresh_build_of_its_stage(name, seed):
    scenario = scenario_from_document(LINK_DOCUMENTS[name]())
    links = build_premeasurements(scenario, seed)
    fresh = _fresh_links(scenario, seed)
    adopted = set()
    for i, (got, want) in enumerate(zip(links, fresh, strict=True)):
        assert got.layout == want.layout
        _same_observable(got.measured, want.measured)
        _same_observable(got.pointer, want.pointer)
        assert got.index_map == want.index_map
        assert got.isometry_bound == want.isometry_bound
        assert _bits(got.isometry) == _bits(want.isometry)
        assert _bits(got.pointer_states.rows) == _bits(want.pointer_states.rows)
        assert _bits(got.ready_state.amplitudes) == _bits(want.ready_state.amplitudes)
        assert got.ready_state.layout == want.ready_state.layout
        if i and got.operators is links[i - 1].operators:
            adopted.add(i)
            assert got.isometry is links[i - 1].isometry
    assert adopted == ADOPTED.get(name, set())


# ---------------------------------------------------------------------------
# Errors of a repeated stage broken at a later one.


def _chain(n, dims=None, subsystems=None, **edits):
    """A copy chain on qubits q0..qn, with instrument ``dims`` changed and
    the fields of stage k updated by ``edits["sk"]``."""
    dims = dims or {}
    doc = _copy_chain(n)
    doc["subsystems"] = subsystems or [[f"q{i}", dims.get(f"q{i}", 2)] for i in range(n + 1)]
    doc["initial"] = "plus"
    for stage, fields in edits.items():
        doc["stages"][int(stage[1:])].update(fields)
    return doc


DIAG00 = {"diag": [0, 0]}

# Each row: a document and the parser's (code, location, message), which
# ``vnchain run`` prints, or the stderr of a document that only the build or
# the chain refuses; recorded before links were adopted.  The two label
# clashes and the two lists of the wrong length for the previous pointer
# were build or chain errors then, and are the parser's since; so is an
# explicit ``measured`` that is not the previous pointer, which now also
# comes before the error of a later stage.
ERROR_TABLE = {
    "declared label given twice": (
        _chain(4, subsystems=[["q0", 2], ["q1", 2], ["q2", 2], ["q3", 2], ["q1", 2]]),
        ("duplicate-label", "$.subsystems[4]", "label 'q1' repeated"),
    ),
    "instrument is its own object": (
        _chain(5, s4={"instrument": "q4"}),
        ("chain-order", "$.stages[4]", "stage 4 instrument 'q4' is already in the chain"),
    ),
    "instrument already in use": (
        _chain(5, s4={"instrument": "q1"}),
        ("chain-order", "$.stages[4]", "stage 4 instrument 'q1' is already in the chain"),
    ),
    "undeclared instrument": (
        _chain(5, s4={"instrument": "q9"}),
        ("unknown-label", "$.stages[4]", "subsystem 'q9' not declared"),
    ),
    "object off the chain": (
        _chain(5, s4={"object": "q2"}),
        ("chain-order", "$.stages[4]", "stage 4 object 'q2' must be stage 3's instrument 'q4'"),
    ),
    "repeated list on a one-dimensional instrument": (
        _chain(5, {"q5": 1}),
        ("dimension-mismatch", "$.stages[4].pointer_states[1]",
         "basis index 1 out of range for dim 1"),
    ),
    "repeated list on a wider instrument, read by a repeated list": (
        _chain(5, {"q3": 3}),
        ("dimension-mismatch", "$.stages[3].pointer_states", "2 pointer states for 3 branches"),
    ),
    "ready preset out of range": (
        _chain(5, s3={"ready": "basis:2"}),
        ("dimension-mismatch", "$.stages[3].ready", "basis index 2 out of range for dim 2"),
    ),
    "ready preset repeated, then on a one-dimensional instrument": (
        _chain(
            5,
            {"q4": 1},
            s0={"ready": "basis:1"},
            s1={"ready": "basis:1"},
            s2={"ready": "basis:1"},
            s3={"ready": "basis:1", "pointer_states": ["basis:0"], "measured": DIAG00},
        ),
        ("dimension-mismatch", "$.stages[3].ready", "basis index 1 out of range for dim 1"),
    ),
    "ready plus repeated, then on a one-dimensional instrument": (
        _chain(
            5,
            {"q5": 1},
            s0={"ready": "plus"},
            s1={"ready": "plus"},
            s2={"ready": "plus"},
            s3={"ready": "plus"},
            s4={"ready": "plus", "pointer_states": ["basis:0"], "measured": DIAG00},
        ),
        ("dimension-mismatch", "$.stages[4].ready", "'plus' needs dimension >= 2"),
    ),
    "too few states for the previous pointer": (
        _chain(5, s4={"pointer_states": ["basis:0"]}),
        ("dimension-mismatch", "$.stages[4].pointer_states", "1 pointer states for 2 branches"),
    ),
    "too many states for the previous pointer": (
        _chain(5, s4={"pointer_states": ["basis:0", "basis:1", "plus"]}),
        ("malformed-state", "$.stages[4].pointer_states",
         "3 vectors cannot be orthonormal in dimension 2"),
    ),
    "repeated stage with an unknown kind": (
        _chain(5, s3={"kind": "dressed"}),
        ("bad-value", "$.stages[3].kind", "unknown stage kind 'dressed'"),
    ),
    "explicit measured off the previous pointer": (
        _chain(5, s3={"measured": {"diag": [1, 0]}}),
        ("chain-order", "$.stages[3].measured",
         "stage 3 does not measure stage 2's pointer observable"),
    ),
    "explicit measured off the previous pointer, then a later fault": (
        _chain(5, s3={"measured": {"diag": [1, 0]}}, s4={"kind": "dressed"}),
        ("chain-order", "$.stages[3].measured",
         "stage 3 does not measure stage 2's pointer observable"),
    ),
    "repeated stage with a bad dressing seed": (
        _chain(5, s3={"kind": "exact", "dressing_seed": -1}),
        ("bad-value", "$.stages[3].dressing_seed", "expected an int >= 0, got -1"),
    ),
}


def _run(tmp_path, doc):
    """Exit code, stdout and stderr of an in-process ``vnchain run``."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", str(path)])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(ERROR_TABLE))
def test_a_repeated_stage_broken_later_fails_as_before(tmp_path, name):
    doc, expected = ERROR_TABLE[name]
    if isinstance(expected, str):
        parse_scenario(json.dumps(doc))
        stderr = expected
    else:
        with pytest.raises(ScenarioError) as err:
            parse_scenario(json.dumps(doc))
        assert (err.value.code, err.value.location, err.value.message) == expected
        stderr = "scenario error: [{}] at {}: {}\n".format(*expected)
    assert _run(tmp_path, doc) == (1, "", stderr)


@pytest.mark.parametrize(
    "stage, instrument",
    [(0, "q0"), (2, "q0"), (2, "q1"), (2, "q2")],
    ids=["first object, its own", "first object", "earlier instrument", "its own object"],
)
def test_an_instrument_already_in_the_chain_is_refused_by_the_parser(stage, instrument):
    """The first object and every earlier instrument are in the chain."""
    doc = _chain(3, **{f"s{stage}": {"instrument": instrument}})
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(doc))
    assert (err.value.code, err.value.location, err.value.message) == (
        "chain-order",
        f"$.stages[{stage}]",
        f"stage {stage} instrument {instrument!r} is already in the chain",
    )
