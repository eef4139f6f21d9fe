"""A scenario's ``{"diag": [...]}`` observable takes its exact spectral form.

The parser builds it from the entries themselves, with no eigensolver: the
stable-sorted entries are its eigenvalues, merged within
``DEFAULT.eig_merge`` as ``observable_from_matrix`` merges them, and the
matching unit vectors are its blocks.  These tests hold it to the route
through ``observable_from_matrix(np.diag(entries))``, to the errors and the
report bytes that route gave, and to making no ``eigh`` call.
"""

import contextlib
import hashlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnchain import cli, observable_from_matrix
from vnchain.observables import _merged_spectrum
from vnchain.scenarios import ScenarioError, _parse_observable, builtin_names, parse_scenario
from vnchain.tolerances import DEFAULT

MERGE = DEFAULT.eig_merge


def _document(measured, dim: int = 2) -> dict:
    """One link from an object of dimension ``dim`` to a qubit meter with
    ``measured`` as its observable and two pointer states."""
    return {
        "name": "diag",
        "subsystems": [["a", dim], ["b", 2]],
        "initial": {"subsystem": "a", "state": "basis:0"},
        "stages": [
            {
                "object": "a",
                "instrument": "b",
                "measured": measured,
                "pointer_states": ["basis:0", "basis:1"],
                "ready": "basis:0",
            }
        ],
    }


def _observable_of(doc: dict):
    """The measured observable of the document's first stage."""
    stage = doc["stages"][0]
    dim = doc["subsystems"][0][1]
    return _parse_observable(stage["measured"], "a", dim, "$.stages[0].measured")


_NEAR = (0.5, 0.99, 1.01, 2.0)  # multiples of the merge width: in, in, out, out


@st.composite
def _entries(draw):
    """1-8 diagonal entries: ints, floats, the extremes +-1e308, repeats, and
    values just inside and just beyond ``DEFAULT.eig_merge`` of another."""
    entry = st.one_of(
        st.integers(-4, 4),
        st.floats(-8, 8, allow_nan=False, allow_infinity=False, allow_subnormal=False),
    )
    values = draw(st.lists(entry, min_size=1, max_size=8))
    if len(values) < 8 and draw(st.integers(0, 3)) == 0:
        values.append(draw(st.sampled_from([1e308, -1e308])))
    for _ in range(draw(st.integers(0, 8 - len(values)))):
        base = draw(st.sampled_from(values))
        if abs(base) < 1e300:
            values.append(base + draw(st.sampled_from(_NEAR)) * MERGE)
        else:
            values.append(base)  # a repeat
    return draw(st.permutations(values))


class TestDifferential:
    """Against the exact spectrum of the entries, and against
    ``observable_from_matrix(np.diag(entries))``: the same branches, every
    projector equal bit for bit, and the same eigenvalues.

    The exact oracle is ``_merged_spectrum`` of the sorted entries: the
    parsed eigenvalues, and the matrix they rebuild, equal it bit for bit
    at every norm.  The eigensolver's eigenvalues equal it bit for bit
    while the matrix norm stays between about 1e-146 and 7e145, LAPACK's
    thresholds for scaling.  Above the upper one ``eigh`` solves a
    scaled-down copy and scales its eigenvalues back, so an entry of 3
    beside 1e308 comes back as 3.0000000000000004; below the lower one it
    scales up, so the entry 5.848374525608026e-258 comes back one unit in
    the last place off, and the mean of [0, 5.848374525608026e-258] as
    2.9241872628040126e-258 against the exact 2.924187262804013e-258.
    There the eigensolver's eigenvalues lie within a few rounding errors
    of the exact ones, relative to the norm.
    """

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_entries())
    def test_diag_matches_the_eigensolver_route(self, entries):
        parsed = _observable_of(_document({"diag": entries}, len(entries)))
        reference = observable_from_matrix(np.diag(np.array(entries, dtype=float)), "a")
        assert parsed.branch_count == reference.branch_count
        assert [b.rank for b in parsed.branches] == [b.rank for b in reference.branches]
        for mine, theirs in zip(parsed.branches, reference.branches):
            assert mine.projector.tobytes() == theirs.projector.tobytes()
        exact, _ = _merged_spectrum(sorted(float(v) for v in entries))
        assert np.array(parsed.eigenvalues).tobytes() == np.array(exact).tobytes()
        rebuilt = sum(e * b.projector for e, b in zip(exact, reference.branches))
        assert parsed.matrix().tobytes() == rebuilt.tobytes()
        norm = max(abs(v) for v in entries)
        if norm == 0 or 1e-145 < norm < 1e145:
            assert parsed.eigenvalues == reference.eigenvalues
            assert parsed.matrix().tobytes() == reference.matrix().tobytes()
        else:
            np.testing.assert_allclose(
                reference.eigenvalues, exact, rtol=4e-16, atol=4e-16 * min(norm, 1)
            )
            lone = [b.eigenvalue for b in parsed.branches if b.rank == 1]
            assert all(e in entries for e in lone)

    def test_eigenvalues_are_the_sorted_entries(self):
        """A lone entry is its eigenvalue as given, a subnormal one included
        (the eigensolver route halves the matrix and drops its last bit)."""
        obs = _observable_of(_document({"diag": [3, 5e-324, -1e308]}, 3))
        assert obs.eigenvalues == (-1e308, 5e-324, 3.0)
        assert [b.rank for b in obs.branches] == [1, 1, 1]

    def test_degenerate_unsorted_blocks_are_unit_vectors(self):
        """diag(1, 0, 1): branch 0 is e_1, branch 1 spans e_0 and e_2, in
        index order, and every block is a read-only view of one array."""
        obs = _observable_of(_document({"diag": [1, 0, 1]}, 3))
        assert obs.eigenvalues == (0.0, 1.0)
        eye = np.eye(3)
        np.testing.assert_array_equal(obs.branches[0].basis, eye[:, [1]])
        np.testing.assert_array_equal(obs.branches[1].basis, eye[:, [0, 2]])
        blocks = [b.basis for b in obs.branches]
        assert all(not q.flags.writeable and q.dtype == complex for q in blocks)
        assert blocks[0].base is not None and blocks[0].base is blocks[1].base
        assert obs.gram_residual == 0.0


# Every bad ``diag`` value, as JSON text, with the (code, location, message)
# of its ScenarioError, recorded while ``diag`` went through
# ``observable_from_matrix``.
BAD_DIAG = [
    ("[NaN, 1]", "bad-observable", "array has NaN or infinite entries"),
    ("[1, NaN]", "bad-observable", "array has NaN or infinite entries"),
    ("[Infinity, 1]", "bad-observable", "array has NaN or infinite entries"),
    ("[0, -Infinity]", "bad-observable", "array has NaN or infinite entries"),
    ("[1e400, 0]", "bad-observable", "array has NaN or infinite entries"),
    ("[1" + "0" * 400 + ", 0]", "bad-observable", "int too large to convert to float"),
    ("[0, -1" + "0" * 400 + "]", "bad-observable", "int too large to convert to float"),
    ("[true, 0]", "bad-observable", "'diag' needs numbers, got [True, 0]"),
    ("[true, false]", "bad-observable", "'diag' needs numbers, got [True, False]"),
    ('["1", 0]', "bad-observable", "'diag' needs numbers, got ['1', 0]"),
    ("[null, 0]", "bad-observable", "'diag' needs numbers, got [None, 0]"),
    ("[[1], 0]", "bad-observable", "'diag' needs numbers, got [[1], 0]"),
    ('[{"re": 1}, 0]', "bad-observable", "'diag' needs numbers, got [{'re': 1}, 0]"),
    ("[1]", "dimension-mismatch", "'diag' needs 2 values"),
    ("[1, 2, 3]", "dimension-mismatch", "'diag' needs 2 values"),
    ("[]", "dimension-mismatch", "'diag' needs 2 values"),
    ('"01"', "dimension-mismatch", "'diag' needs 2 values"),
    ('{"a": 1}', "dimension-mismatch", "'diag' needs 2 values"),
    ("1", "dimension-mismatch", "'diag' needs 2 values"),
]


@pytest.mark.parametrize("stage", [0, 1])
@pytest.mark.parametrize("diag, code, message", BAD_DIAG)
def test_bad_diag_keeps_its_error(capsys, tmp_path, stage, diag, code, message):
    """The parser's error and the CLI's stderr line, byte for byte, with no
    floating-point warning on the way."""
    doc = _document({"diag": [0, 1]})
    if stage == 1:
        doc["subsystems"].append(["c", 2])
        doc["stages"].append(dict(doc["stages"][0], object="b", instrument="c"))
    doc["stages"][stage]["measured"] = {"diag": "@DIAG@"}
    text = json.dumps(doc).replace('"@DIAG@"', diag)
    location = f"$.stages[{stage}].measured"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert (err.value.code, err.value.location, err.value.message) == (code, location, message)
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert cli.main(["run", str(path)]) == 1
    out, stderr = capsys.readouterr()
    assert (out, stderr) == ("", f"scenario error: [{code}] at {location}: {message}\n")


# A qutrit chain whose first observable is degenerate and unsorted: the one
# case whose block column order differs from the eigensolver's.
DEGENERATE_QUTRIT = {
    "name": "degenerate-qutrit",
    "subsystems": [["a", 3], ["b", 2], ["c", 2]],
    "initial": {"subsystem": "a", "state": [[0.6, 0.0], [0.0, 0.48], [0.64, 0.0]]},
    "stages": [
        {
            "object": "a",
            "instrument": "b",
            "measured": {"diag": [1, 0, 1]},
            "pointer_states": ["basis:0", "basis:1"],
            "ready": "basis:0",
            "kind": "ideal",
        },
        {
            "object": "b",
            "instrument": "c",
            "measured": "previous-pointer",
            "pointer_states": ["basis:0", "basis:1"],
            "ready": "basis:0",
            "kind": "ideal",
        },
    ],
    "analyses": ["branches", "improper_mixture", "condition_reports"],
}


class TestDegenerateQutritBytes:
    """sha256 of `vnchain run` output, recorded while ``diag`` went through
    ``observable_from_matrix``: its exact spectral form moves no byte."""

    DIGESTS = {
        ("text", 0): "31cb31d8240fd110a70e14058289e08a729694c027040c476cef30a803241c10",
        ("json", 0): "485aeba36dbdc81427ff8334acdff2c00f26fd823de5ad441999d152aae69f5c",
        ("text", 3): "28c3507faab61fda3ff427c40da9b6e384509f4dde6320dfc5d87bfb2c833b46",
        ("json", 3): "50d96f92c698965b1c26c8d7bfe04d37eb2913219367481a38977bd59814102d",
    }

    @pytest.mark.parametrize("fmt, seed", sorted(DIGESTS))
    def test_report_bytes(self, capsys, tmp_path, fmt, seed):
        path = tmp_path / "qutrit.json"
        path.write_text(json.dumps(DEGENERATE_QUTRIT))
        assert cli.main(["run", str(path), "--format", fmt, "--seed", str(seed)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[fmt, seed]


def _copy_chain(qubits: int) -> dict:
    """The shape of the ``chain_pure`` benchmark input: a copy chain of
    qubits whose first link measures ``{"diag": [0, 1]}``."""
    doc = _document({"diag": [0, 1]})
    doc["subsystems"] = [[f"q{i}", 2] for i in range(qubits)]
    doc["initial"] = {"subsystem": "q0", "state": [[0.6, 0.0], [0.0, 0.8]]}
    doc["stages"] = [
        dict(
            doc["stages"][0],
            object=f"q{i}",
            instrument=f"q{i + 1}",
            measured={"diag": [0, 1]} if i == 0 else "previous-pointer",
        )
        for i in range(qubits - 1)
    ]
    doc["analyses"] = ["branches"]
    return doc


def _eigh_calls_in_one_run(monkeypatch, tmp_path, scenario) -> int:
    """Calls of ``np.linalg.eigh`` in one warm ``vnchain run`` of a builtin
    name or a document."""
    if isinstance(scenario, dict):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        scenario = str(path)
    argv = ["run", scenario, "--format", "json"]
    calls = []
    eigh = np.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(args)
        return eigh(*args, **kwargs)

    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0  # warm
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", counting)
            assert cli.main(argv) == 0
    return len(calls)


@pytest.mark.parametrize("scenario", [*builtin_names(), "copy-chain"])
def test_diag_runs_make_no_eigh_call(monkeypatch, tmp_path, scenario):
    """Every builtin and a ``chain_pure``-shaped chain declare their first
    observable as ``diag``: a run diagonalizes nothing."""
    if scenario == "copy-chain":
        scenario = _copy_chain(11)
    assert _eigh_calls_in_one_run(monkeypatch, tmp_path, scenario) == 0


@pytest.mark.parametrize(
    "measured", [{"matrix": [[0, 1], [1, 0]]}, {"pauli": "x"}, {"matrix": [[1, 0], [0, 0]]}]
)
def test_matrix_and_pauli_observables_still_use_eigh(monkeypatch, tmp_path, measured):
    """A first stage given as a matrix or a Pauli name goes through
    ``observable_from_matrix``: exactly one ``eigh``."""
    doc = _copy_chain(4)
    doc["stages"][0]["measured"] = measured
    assert _eigh_calls_in_one_run(monkeypatch, tmp_path, doc) == 1
