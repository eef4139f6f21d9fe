"""Growth exponents from traced memory: the log-log slope of the
``tracemalloc`` peak of a parse and run, between consecutive sizes of a
sweep.  Traced memory, unlike time, is exact and repeatable per run, and a
slope also catches growth that a budget set at one size misses.

Each bound is the slope measured on the two-meter chain at d = 32, 64 and
128 (2-core x86-64 VM, Python 3.11.7, numpy 2.4.6), rounded up.  The ideal
and exact rows measured 2.67-2.93, and ``condition_reports`` 2.16 (32 to
64) and 2.30 (64 to 128), with either kind of link: the ideal
``branches`` run peaks at 0.63, 4.46 and 33.8 MiB, close to one d^3 array
of complex entries at d = 128.  A route whose peak grows more slowly
should tighten these bounds.
"""

import math
import tracemalloc

import pytest

from vnchain.scenarios import run, scenario_from_document

SIZES = (32, 64, 128)


def two_meter_chain(d: int, kind: str, analysis: str) -> dict:
    """q(2) -> B(d) -> C(d), where C reads B's pointer (its two states and
    the idle complement)."""

    def stage(obj, instrument, pointers, measured):
        return {
            "object": obj,
            "instrument": instrument,
            "measured": measured,
            "pointer_states": [f"basis:{j}" for j in range(pointers)],
            "ready": "basis:0",
            "kind": kind,
        }

    return {
        "name": "two-meter",
        "subsystems": [["q", 2], ["B", d], ["C", d]],
        "initial": {"subsystem": "q", "state": [[0.6, 0.0], [0.0, 0.8]]},
        "stages": [
            stage("q", "B", 2, {"diag": [0, 1]}),
            stage("B", "C", 3, "previous-pointer"),
        ],
        "analyses": [analysis],
    }


def _traced_peak(doc: dict) -> int:
    tracemalloc.start()
    try:
        report = run(scenario_from_document(doc))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    return peak


@pytest.mark.parametrize("kind", ["ideal", "exact"])
@pytest.mark.parametrize(
    "analysis,bound",
    [
        ("branches", 3.0),
        ("improper_mixture", 3.0),
        ("world_branches", 3.0),
        ("ensemble_update", 3.0),
        ("condition_reports", 2.4),
    ],
)
def test_two_meter_peak_slope(kind, analysis, bound):
    run(scenario_from_document(two_meter_chain(4, kind, analysis)))  # warm
    peaks = [_traced_peak(two_meter_chain(d, kind, analysis)) for d in SIZES]
    slopes = [
        math.log(peaks[i + 1] / peaks[i]) / math.log(SIZES[i + 1] / SIZES[i])
        for i in range(len(SIZES) - 1)
    ]
    assert max(slopes) <= bound, f"traced peaks {peaks}, slopes {slopes}"
