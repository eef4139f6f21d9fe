"""Each distinct value of a scenario is built once per run.

The parser keeps one table per document of the presets it has resolved
(``scenarios._PresetTable``): the unit vector of each (dimension, preset)
state spec, and the checked basis of each (dimension, presets) list of
pointer states, whose later repeats adopt it under their own label
(``SubsystemBasis`` given a basis).  The parser hands an ideal link whose
measured columns, ranks and pointer rows are the arrays of the previous
ideal link that link's factor, the form in which its V is applied.

Tested here: the shared values; a differential test of that route against
the same documents with every preset written out as an amplitude list,
which shares nothing, byte for byte in every output format; and a table of
errors recorded before the table existed, for documents that repeat a
valid preset or list and break it at a later stage.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from vnchain import (
    SpectralObservable,
    SubsystemBasis,
    basis_state,
    build_ideal,
    layout,
    random_unitary,
)
from vnchain import hilbert
from vnchain.cli import main
from vnchain.premeasurement import _chained_ideal, _factor
from vnchain.scenarios import (
    BUILTIN_DOCUMENTS,
    Scenario,
    ScenarioError,
    StageSpec,
    build_premeasurements,
    builtin_document,
    parse_scenario,
    scenario_from_document,
)

from test_adopted_links import _mixing_chain
from test_kernels import _copy_chain


def _run(tmp_path, doc, *args):
    """Exit code, stdout and stderr of an in-process ``vnchain run``."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", str(path), *args])
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# The shared values.


@pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (3, 3)])
def test_an_adopted_basis_shares_the_checked_rows(monkeypatch, n, d):
    """A basis given as the vectors of another is taken under the new label:
    the same rows and Gram residual, equal vectors and completeness, and no
    second Gram product."""
    u = random_unitary(d, np.random.default_rng(n + d))
    basis = SubsystemBasis("B", tuple(u[:, :n].T))

    def no_gram(*args, **kwargs):
        raise AssertionError("an adopted basis is not checked again")

    monkeypatch.setattr(hilbert, "_gram_residual", no_gram)
    adopted = SubsystemBasis("C", basis)
    assert (adopted.subsystem, basis.subsystem) == ("C", "B")
    assert adopted.rows is basis.rows
    assert adopted.gram_residual == basis.gram_residual
    assert len(adopted.vectors) == n
    assert all(a is b for a, b in zip(adopted.vectors, basis.vectors))
    assert adopted.is_complete == basis.is_complete == (n == d)
    assert adopted.dim == d


def _made_again(pm) -> bool:
    """Whether ``pm``'s kept factor equals the one its own terms make."""

    def parts(factor):
        thin, adjoint, idle = factor
        return [thin, adjoint, *(idle or (None, None))]

    pairs = zip(parts(pm.factor), parts(_factor(pm)))
    return all(a is b is None or np.array_equal(a, b) for a, b in pairs)


@pytest.mark.parametrize("links", [2, 6, 10])
def test_a_copy_chain_builds_each_distinct_value_once(links):
    """Every link's pointer basis is the first link's rows, every ready
    state the one ``basis:0`` vector, and every link after the second is
    handed the second's factor, which equals the one its own terms make."""
    scenario = scenario_from_document(_copy_chain(links))
    first = scenario.stages[0]
    for st in scenario.stages:
        assert st.link.pointer_states.subsystem == st.link.instrument_label
        assert st.link.pointer_states.rows is first.link.pointer_states.rows
        assert st.link.ready_state.amplitudes is first.link.ready_state.amplitudes
    pms = build_premeasurements(scenario, seed=0)
    assert pms[1].factor is not pms[0].factor
    for pm in pms[2:]:
        assert pm.factor is pms[1].factor
    for pm in pms:
        assert _made_again(pm)


def test_a_link_is_handed_v_only_for_the_same_terms():
    """An exact link keeps its own dressed factor, a link that measures a
    ``diag`` given again makes its own, and a link with another pointer list
    makes its own; the ideal link after an exact one takes the last ideal
    link's factor."""
    doc = _copy_chain(6)
    doc["stages"][2]["kind"] = "exact"
    doc["stages"][4]["measured"] = {"diag": [0, 1]}
    doc["stages"][5]["pointer_states"] = ["basis:1", "basis:0"]
    pms = build_premeasurements(scenario_from_document(doc), seed=0)
    v = [pm.factor for pm in pms]
    assert v[3] is v[1]
    assert len({id(x) for x in v}) == 5
    for pm in pms:
        assert _made_again(pm)


def test_a_link_with_other_ranks_forms_its_own_v():
    """Two links chained by hand measure observables on the same
    columns (one basis, adopted) and give the same pointer rows, but split
    the columns into blocks of other ranks, (1, 2) and (2, 1): the second
    link's factor is its own."""
    lay = layout(("a", 3), ("b", 3), ("c", 3))
    columns = SubsystemBasis("a", tuple(np.eye(3, dtype=complex)))
    pointer_states = SubsystemBasis("b", tuple(np.eye(2, 3, dtype=complex)))
    first = build_ideal(
        SpectralObservable(columns, [0, 1], [1, 2]),
        pointer_states, basis_state(layout(("b", 3)), 0),
    )
    second = _chained_ideal(
        first, SpectralObservable(SubsystemBasis("b", columns), [0, 1], [2, 1]),
        SubsystemBasis("c", pointer_states), basis_state(layout(("c", 3)), 0),
    )
    stages = (StageSpec(0, first, "ideal"), StageSpec(1, second, "ideal"))
    scenario = Scenario("ranks", lay, basis_state(layout(("a", 3)), 2), stages, ())
    pms = build_premeasurements(scenario, seed=0)
    assert pms[1].measured.columns.rows is pms[0].measured.columns.rows
    assert pms[1].pointer_states.rows is pms[0].pointer_states.rows
    assert pms[1].factor is not pms[0].factor
    assert _made_again(pms[1])


# ---------------------------------------------------------------------------
# The route against the same documents written out as amplitude lists.


def _amplitudes_of(spec, dim):
    """A state spec with every preset written out as an unnormalized list
    of amplitudes, whose normalization gives the preset's bits: ``plus`` is
    [1, 1] / sqrt(2) either way."""
    if not isinstance(spec, str):
        return spec
    amps = [0.0] * dim
    if spec in ("plus", "minus"):
        amps[0], amps[1] = 1.0, 1.0 if spec == "plus" else -1.0
    elif spec == "bell":
        amps[0] = amps[3] = 1.0
    else:
        amps[int(spec.split(":", 1)[1])] = 1.0
    return amps


def _written_out(doc):
    """``doc`` with every state preset written out as amplitudes."""
    doc = json.loads(json.dumps(doc))
    dims = dict(map(tuple, doc["subsystems"]))
    init = doc["initial"]
    init["state"] = _amplitudes_of(init["state"], dims[init["subsystem"]])
    for st in doc["stages"]:
        d = dims[st["instrument"]]
        st["pointer_states"] = [_amplitudes_of(s, d) for s in st["pointer_states"]]
        st["ready"] = _amplitudes_of(st["ready"], d)
    for a in doc["analyses"]:
        projector = a.get("projector") if isinstance(a, dict) else None
        if projector is not None:
            projector["state"] = _amplitudes_of(projector["state"], dims[projector["subsystem"]])
    return doc


def _mixed_kinds():
    """A 6-link copy chain with two exact links and every analysis."""
    doc = _copy_chain(6)
    doc["stages"][2]["kind"] = "exact"
    doc["stages"][4]["kind"] = "exact"
    doc["analyses"] = [
        "branches",
        "improper_mixture",
        "condition_reports",
        {"kind": "world_branches", "pointer_stage": 1},
        {"kind": "ensemble_update", "samples": 1000},
        {"kind": "ensemble_update", "projector": {"subsystem": "q3", "state": "minus"}},
    ]
    return doc


DOCUMENTS = {
    **{name: lambda name=name: builtin_document(name) for name in BUILTIN_DOCUMENTS},
    **{f"copy-{n}": lambda n=n: _copy_chain(n) for n in (2, 6, 10)},
    "mixed-kinds": _mixed_kinds,
    "mixing": _mixing_chain,
}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_shared_values_run_as_the_written_out_document(tmp_path, name):
    """``run`` of a document and of the same document with every preset
    written out (parsed vector by vector, checked once per link, every V
    formed from its own terms) print the same bytes in every format, at
    seeds 0 and 5, with and without ``--dump-states``."""
    doc = DOCUMENTS[name]()
    written = _written_out(doc)
    text = json.dumps(written)
    assert not any(f'"{p}' in text for p in ("plus", "minus", "bell", "basis:"))
    for fmt in ("text", "tsv", "json"):
        for seed in ("0", "5"):
            for dump in ((), ("--dump-states",)):
                args = ("--format", fmt, "--seed", seed, *dump)
                shared = _run(tmp_path, doc, *args)
                assert shared[0] == 0 and shared[2] == ""
                assert _run(tmp_path, written, *args) == shared, (fmt, seed, dump)


# ---------------------------------------------------------------------------
# Errors of a repeated preset or list broken at a later stage.


def _stage(obj, instrument, measured, pointers, ready="basis:0"):
    return {
        "object": obj,
        "instrument": instrument,
        "measured": measured,
        "pointer_states": pointers,
        "ready": ready,
    }


def _chain(subsystems, *stages):
    return {
        "name": "t",
        "subsystems": [list(s) for s in subsystems],
        "initial": "plus",
        "stages": list(stages),
        "analyses": ["branches"],
    }


PREV = "previous-pointer"
B01, B012 = ["basis:0", "basis:1"], ["basis:0", "basis:1", "basis:2"]
QUBITS = (("a", 2), ("b", 2), ("c", 2))

# Each row: a document and the parser's (code, location, message), which
# ``vnchain run`` prints, or the stderr of a document that only the build
# refuses; recorded before the preset table existed.  The list too short
# for the previous pointer was a build error then, and is the parser's
# since.
ERROR_TABLE = {
    "pointer list on a smaller instrument": (
        _chain(
            (("a", 3), ("b", 3), ("c", 2)),
            _stage("a", "b", {"diag": [0, 1, 2]}, B012),
            _stage("b", "c", PREV, B012),
        ),
        ("dimension-mismatch", "$.stages[1].pointer_states[2]",
         "basis index 2 out of range for dim 2"),
    ),
    "pointer list on a smaller instrument at stage 3": (
        _chain(
            (("a", 2), ("b", 2), ("c", 2), ("d", 3), ("e", 2)),
            _stage("a", "b", {"diag": [0, 1]}, B01),
            _stage("b", "c", PREV, B01),
            _stage("c", "d", PREV, ["basis:0", "basis:2"]),
            _stage("d", "e", PREV, ["basis:0", "basis:2", "basis:1"]),
        ),
        ("dimension-mismatch", "$.stages[3].pointer_states[1]",
         "basis index 2 out of range for dim 2"),
    ),
    "ready basis on a smaller instrument": (
        _chain(
            (("a", 2), ("b", 3), ("c", 2)),
            _stage("a", "b", {"diag": [0, 1]}, B01, ready="basis:2"),
            _stage("b", "c", {"diag": [0, 0, 1]}, B01, ready="basis:2"),
        ),
        ("dimension-mismatch", "$.stages[1].ready", "basis index 2 out of range for dim 2"),
    ),
    "ready plus on a one-dimensional instrument": (
        _chain(
            (("a", 2), ("b", 2), ("c", 1)),
            _stage("a", "b", {"diag": [0, 1]}, B01, ready="plus"),
            _stage("b", "c", {"diag": [0, 0]}, ["basis:0"], ready="plus"),
        ),
        ("dimension-mismatch", "$.stages[1].ready", "'plus' needs dimension >= 2"),
    ),
    "ready bell on a qubit": (
        _chain(
            (("a", 2), ("b", 4), ("c", 2)),
            _stage("a", "b", {"diag": [0, 1]}, ["basis:0", "basis:3"], ready="bell"),
            _stage("b", "c", {"diag": [0, 0, 1, 1]}, B01, ready="bell"),
        ),
        ("dimension-mismatch", "$.stages[1].ready", "'bell' needs dimension 4"),
    ),
    "bad basis index in a repeated list": (
        _chain(
            QUBITS,
            _stage("a", "b", {"diag": [0, 1]}, B01),
            _stage("b", "c", PREV, ["basis:0", "basis:x"]),
        ),
        ("malformed-state", "$.stages[1].pointer_states[1]", "bad basis index in 'basis:x'"),
    ),
    "bad basis index in a ready state": (
        _chain(
            QUBITS,
            _stage("a", "b", {"diag": [0, 1]}, B01, ready="basis:1"),
            _stage("b", "c", PREV, B01, ready="basis:x"),
        ),
        ("malformed-state", "$.stages[1].ready", "bad basis index in 'basis:x'"),
    ),
    "unknown preset in a repeated list": (
        _chain(
            QUBITS,
            _stage("a", "b", {"diag": [0, 1]}, B01),
            _stage("b", "c", PREV, ["basis:0", "one"]),
        ),
        ("malformed-state", "$.stages[1].pointer_states[1]", "unknown state preset 'one'"),
    ),
    "repeated entry in a later list": (
        _chain(
            QUBITS,
            _stage("a", "b", {"diag": [0, 1]}, B01),
            _stage("b", "c", PREV, ["basis:1", "basis:1"]),
        ),
        ("malformed-state", "$.stages[1].pointer_states", "orthonormality residual 1.414e+00"),
    ),
    "repeated list with too many states for a diag": (
        _chain(
            (("a", 2), ("b", 2), ("c", 2), ("d", 2)),
            _stage("a", "b", {"diag": [0, 1]}, B01),
            _stage("b", "c", PREV, B01),
            _stage("c", "d", {"diag": [0, 0]}, B01),
        ),
        ("dimension-mismatch", "$.stages[2].pointer_states", "2 pointer states for 1 branches"),
    ),
    "repeated list with too few states for a diag": (
        _chain(
            (("a", 2), ("b", 3), ("c", 3), ("d", 3)),
            _stage("a", "b", {"diag": [0, 1]}, B01),
            _stage("b", "c", PREV, B012),
            _stage("c", "d", {"diag": [0, 1, 2]}, B01),
        ),
        ("dimension-mismatch", "$.stages[2].pointer_states", "2 pointer states for 3 branches"),
    ),
    "repeated list with too few states for the previous pointer": (
        _chain(
            (("a", 2), ("b", 3), ("c", 3)),
            _stage("a", "b", {"diag": [0, 1]}, B01),
            _stage("b", "c", PREV, B01),
        ),
        ("dimension-mismatch", "$.stages[1].pointer_states", "2 pointer states for 3 branches"),
    ),
}


@pytest.mark.parametrize("name", sorted(ERROR_TABLE))
def test_a_repeat_broken_later_fails_as_before(tmp_path, name):
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
