"""Metamorphic relations of ``vnchain run``: a change to a document that
changes no physics leaves its report unchanged, with no oracle needed.

Padding: raising an instrument's dimension while keeping its pointer
presets adds dimensions that no state reaches.  An ideal chain's branch
weights, trace distances, posteriors and condition residuals stay the
same; only the ``mixed dim=`` field of the improper-mixture rows moves.

Exact vs ideal: an ``exact`` stage dresses its link's terms, and by [BLM]'s
probability reproduction it keeps the pointer weights of its ideal link.
So the last pointer's branch weights and the ``ensemble_update``
occurrence probability stay those of the ideal chain, with random and with
explicit dressings, at every padding.

The padding wall holds the relation on the two-meter chain at d = 1024,
where C's V alone would take 16 GiB, in a child process with limited
address space (``test_growth.limited_python``).
"""

import json
import math
import re

import pytest
from test_growth import limited_python, two_meter_chain

from vnchain.cli import main


def padding_chain(d: int, event_branch: int = 3, kinds=("ideal",) * 3) -> dict:
    """q(3) -> B(d) -> C(d) -> E(d): q measured by a degenerate ``diag``,
    each later stage reading the previous pointer, whose idle complement
    the next instrument records, and every analysis.  The ``ensemble_update``
    event is branch ``event_branch`` of E's pointer; stage i is of kind
    ``kinds[i]``."""

    def stage(obj, instrument, pointers, measured, kind):
        return {
            "object": obj,
            "instrument": instrument,
            "measured": measured,
            "pointer_states": [f"basis:{j}" for j in range(pointers)],
            "ready": "basis:0",
            "kind": kind,
        }

    return {
        "name": "padding",
        "subsystems": [["q", 3], ["B", d], ["C", d], ["E", d]],
        "initial": {"subsystem": "q", "state": [[0.5, 0.0], [0.5, 0.0], [math.sqrt(0.5), 0.0]]},
        "stages": [
            stage("q", "B", 2, {"diag": [0, 0, 1]}, kinds[0]),
            stage("B", "C", 3, "previous-pointer", kinds[1]),
            stage("C", "E", 4, "previous-pointer", kinds[2]),
        ],
        "analyses": [
            "branches",
            "improper_mixture",
            {"kind": "world_branches", "stage": 0},
            {
                "kind": "ensemble_update",
                "projector": {"subsystem": "E", "branch": event_branch},
                "samples": 2000,
            },
            "condition_reports",
        ],
    }


def _report(tmp_path, capsys, doc, fmt):
    """The output of a run that passes (exit 0), at seed 3."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--format", fmt, "--seed", "3"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out


@pytest.mark.parametrize("fmt", ["text", "tsv", "json"])
def test_padding_changes_only_the_mixed_dimension(tmp_path, capsys, fmt):
    """The same report at d = 5 and d = 40 once ``mixed dim=N`` is masked
    (the improper mixture on q+B+C has dimension 3 d^2).  Text aligns each
    column to its widest cell, so there runs of spaces count as one."""
    small, large = (_report(tmp_path, capsys, padding_chain(d), fmt) for d in (5, 40))
    assert "mixed dim=75" in small and "mixed dim=4800" in large

    def masked(out):
        out = re.sub(r"mixed dim=\d+", "mixed dim=N", out)
        return re.sub(r" +", " ", out) if fmt == "text" else out

    assert masked(small) == masked(large)


def _explicit_dressings(d: int, n: int) -> list[dict]:
    """``n`` dense pairs on B(d) -> C(d): object dressing k the cyclic shift
    of B by k + 1, instrument dressing k the diagonal of signs (-1)^(j + k),
    which maps each pointer range of C, a span of canonical vectors, into
    itself."""
    pairs = []
    for k in range(n):
        shift = [[1.0 if i == (j + k + 1) % d else 0.0 for j in range(d)] for i in range(d)]
        signs = [[(-1.0) ** (j + k) if i == j else 0.0 for j in range(d)] for i in range(d)]
        pairs.append({"object": shift, "instrument": signs})
    return pairs


def _weights_and_probability(out: str) -> tuple[dict[str, float], float]:
    """The weight of each row of the ``branches`` section and the
    ``ensemble_update`` occurrence probability of a JSON report."""
    sections = json.loads(out)["sections"]
    (branches,) = [s for s in sections if s["title"].startswith("branches")]
    weights = {row[0]: float(row[2]) for row in branches["rows"]}
    (note,) = [n for s in sections for n in s["notes"] if n.startswith("occurrence probability")]
    return weights, float(note.split(":")[1])


EXACT_CHAINS = {
    "stage 0": ("exact", "ideal", "ideal"),
    "stage 1": ("ideal", "exact", "ideal"),
    "stage 2": ("ideal", "ideal", "exact"),
    "every stage": ("exact", "exact", "exact"),
    "stage 1 explicit": ("ideal", "explicit", "ideal"),
}


@pytest.mark.parametrize("d", [5, 40])
@pytest.mark.parametrize("case", EXACT_CHAINS)
def test_an_exact_stage_keeps_the_ideal_weights(tmp_path, capsys, d, case):
    """Every weight and the occurrence probability of the exact chain
    within 1e-9 of the ideal chain's, with the same rows."""
    kinds = EXACT_CHAINS[case]
    doc = padding_chain(d, kinds=[k.replace("explicit", "exact") for k in kinds])
    for stage, kind in zip(doc["stages"], kinds):
        if kind == "explicit":  # B's pointer: its idle complement and two blocks
            stage["dressings"] = _explicit_dressings(d, 3)
    ideal = _weights_and_probability(_report(tmp_path, capsys, padding_chain(d), "json"))
    exact = _weights_and_probability(_report(tmp_path, capsys, doc, "json"))
    assert exact[0].keys() == ideal[0].keys()
    for row, weight in ideal[0].items():
        assert exact[0][row] == pytest.approx(weight, abs=1e-9), row
    assert exact[1] == pytest.approx(ideal[1], abs=1e-9)


TSV_RUN = """
import sys
from vnchain.cli import main
sys.exit(main(["run", sys.argv[1], "--format", "tsv", "--seed", "3"]))
"""


def test_padding_wall(tmp_path):
    """The ideal two-meter chain q(2) -> B(d) -> C(d) gives the same TSV at
    d = 5 and d = 1024 once ``mixed dim=`` is masked, for every analysis
    but ``condition_reports``, whose trial batches of (trials m) x d^2
    states are its own cost."""

    def tsv(d):
        doc = two_meter_chain(d, "ideal", "branches")
        doc["analyses"] = [
            "branches",
            "improper_mixture",
            {"kind": "world_branches", "stage": 0},
            {
                "kind": "ensemble_update",
                "projector": {"subsystem": "C", "branch": 2},
                "samples": 2000,
            },
        ]
        path = tmp_path / f"two-meter-{d}.json"
        path.write_text(json.dumps(doc))
        return re.sub(r"mixed dim=\d+", "mixed dim=N", limited_python(TSV_RUN, str(path)))

    small = tsv(5)
    assert "mixed dim=N" in small
    assert tsv(1024) == small
