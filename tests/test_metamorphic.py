"""Metamorphic relations of ``vnchain run``: a change to a document that
changes no physics leaves its report unchanged, with no oracle needed.

Padding: raising an instrument's dimension while keeping its pointer
presets adds dimensions that no state reaches.  An ideal chain's branch
weights, trace distances, posteriors and condition residuals stay the
same; only the ``mixed dim=`` field of the improper-mixture rows moves.
"""

import json
import math
import re

import pytest

from vnchain.cli import main


def padding_chain(d: int, event_branch: int = 3) -> dict:
    """q(3) -> B(d) -> C(d) -> E(d): q measured by a degenerate ``diag``,
    each later stage reading the previous pointer, whose idle complement
    the next instrument records, and every analysis.  The ``ensemble_update``
    event is branch ``event_branch`` of E's pointer."""

    def stage(obj, instrument, pointers, measured):
        return {
            "object": obj,
            "instrument": instrument,
            "measured": measured,
            "pointer_states": [f"basis:{j}" for j in range(pointers)],
            "ready": "basis:0",
            "kind": "ideal",
        }

    return {
        "name": "padding",
        "subsystems": [["q", 3], ["B", d], ["C", d], ["E", d]],
        "initial": {"subsystem": "q", "state": [[0.5, 0.0], [0.5, 0.0], [math.sqrt(0.5), 0.0]]},
        "stages": [
            stage("q", "B", 2, {"diag": [0, 0, 1]}),
            stage("B", "C", 3, "previous-pointer"),
            stage("C", "E", 4, "previous-pointer"),
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
