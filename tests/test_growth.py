"""Growth exponents from traced memory: the log-log slope of the
``tracemalloc`` peak of a parse and run, between consecutive sizes of a
sweep.  Traced memory, unlike time, is exact and repeatable per run, and a
slope also catches growth that a budget set at one size misses.

Each bound is held on the two-meter chain at d = 32, 64 and 128 (2-core
x86-64 VM, Python 3.11.7, numpy 2.4.6).  While each link's V, a d^3 array
of complex entries for C, was formed on its first use, the ideal and exact
rows measured 2.72-2.93 and ``condition_reports`` 2.16 (32 to 64) and 2.30
(64 to 128), with either kind of link: the ideal ``branches`` run peaked at
0.63, 4.46 and 33.8 MiB.  C's link reads B's pointer, two columns of d
dimensions, so it is applied through its thin factor and V is never formed:
every row now measures 1.65-1.98 (ideal ``branches`` 0.18, 0.65 and
2.29 MiB, ``condition_reports`` 3.57, 13.2 and 51.7 MiB), held at 2.1.
The chain's d^2 amplitudes are the floor.

Building the links alone (``scenario_from_document`` and
``build_premeasurements``, no run) is held at d = 128, 256 and 512 to a
slope of 1.2.  The exact chain's links peaked at 4.04, 16.07 and
64.13 MiB (slopes 1.99, 2.00) while each random dressing was a dense
d x d Haar unitary; as thin blocks they peak at 0.054, 0.097 and 0.182 MiB
(0.85, 0.91), and the ideal chain's at 0.035, 0.061 and 0.115 MiB (0.80,
0.91).  The Haar QR of a dressing is the cubic step of an exact link, so
its calls are counted too, as ``test_diag_observable.py`` counts ``eigh``.

The qubit copy chain at N = 12, 14 and 16 holds each analysis's traced
peak, parse and run together, in final-state vectors of 16 D bytes
(D = 2^N): it must not grow with N, and each bound is the largest
measured constant rounded up (``COPY_CHAIN_VECTORS``, measured on the
machine above).  ``check_conditions`` on a qubit-object link at
d_b = 64, 128 and 256, traced alone, measured slopes 0.97 and 0.98 and is
held at 1.0: linear in d_b.

The walls run the two-meter chain at d = 2048 and the padding relation at
d = 1024 (``test_metamorphic.py``), where C's V alone would take 128 GiB
and 16 GiB.  Each runs in a child process whose address space is limited
to ``WALL_LIMIT`` (``RLIMIT_AS``), so a route that formed V again fails
there with ``MemoryError`` and leaves the machine's memory alone.
"""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from vnchain.premeasurement import build_exact, check_conditions, random_dressings, random_ideal
from vnchain.scenarios import (
    CONDITION_TRIALS,
    build_premeasurements,
    run,
    scenario_from_document,
)

from test_kernels import _copy_chain

SIZES = (32, 64, 128)
CONSTRUCTION_SIZES = (128, 256, 512)
WALL_LIMIT = 3 * 2**30  # bytes of address space for a wall's child process
SRC = str(Path(__file__).resolve().parent.parent / "src")


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


def _traced(call):
    """``call()`` and the ``tracemalloc`` peak of the call."""
    tracemalloc.start()
    try:
        value = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return value, peak


def _traced_peak(doc: dict) -> int:
    report, peak = _traced(lambda: run(scenario_from_document(doc)))
    assert report.passed
    return peak


def _slopes(sizes, peaks) -> list[float]:
    return [
        math.log(peaks[i + 1] / peaks[i]) / math.log(sizes[i + 1] / sizes[i])
        for i in range(len(sizes) - 1)
    ]


@pytest.mark.parametrize("kind", ["ideal", "exact"])
@pytest.mark.parametrize(
    "analysis,bound",
    [
        ("branches", 2.1),
        ("improper_mixture", 2.1),
        ("world_branches", 2.1),
        ("ensemble_update", 2.1),
        ("condition_reports", 2.1),
    ],
)
def test_two_meter_peak_slope(kind, analysis, bound):
    run(scenario_from_document(two_meter_chain(4, kind, analysis)))  # warm
    peaks = [_traced_peak(two_meter_chain(d, kind, analysis)) for d in SIZES]
    slopes = _slopes(SIZES, peaks)
    assert max(slopes) <= bound, f"traced peaks {peaks}, slopes {slopes}"


def _construction_peak(doc: dict) -> int:
    pms, peak = _traced(lambda: build_premeasurements(scenario_from_document(doc), 0))
    assert len(pms) == 2
    return peak


@pytest.mark.parametrize("kind", ["ideal", "exact"])
def test_two_meter_construction_peak_slope(kind):
    """The links of q(2) -> B(d) -> C(d) grow with d, not d^2: the exact
    link of C holds B's two pointer blocks dressed, and B's idle complement
    of d - 2 dimensions undressed."""
    build_premeasurements(scenario_from_document(two_meter_chain(4, kind, "branches")), 0)
    peaks = [
        _construction_peak(two_meter_chain(d, kind, "branches")) for d in CONSTRUCTION_SIZES
    ]
    slopes = _slopes(CONSTRUCTION_SIZES, peaks)
    assert max(slopes) <= 1.2, f"traced peaks {peaks}, slopes {slopes}"
    assert peaks[-1] < 2**20, f"traced peaks {peaks}"


def copy_chain(qubits: int, analysis: str) -> dict:
    """The ideal copy chain of ``qubits`` qubits (``qubits - 1`` links)."""
    return {**_copy_chain(qubits - 1), "analyses": [analysis]}


COPY_QUBITS = (12, 14, 16)
# Peaks measured at N = 12, 14, 16, in final-state vectors, rounded up to
# the bound: branches 4.41, 4.08, 4.02; improper_mixture 7.32, 7.08, 7.02;
# world_branches 4.28, 4.08, 4.02; ensemble_update 4.91, 4.58, 4.52 (12.32,
# 12.09, 12.02 while it also conditioned the stacked mixture [sqrt(w_k) Psi_k]
# for its aggregate); condition_reports 1.77, 1.55, 1.52.
COPY_CHAIN_VECTORS = [
    ("branches", 4.5),
    ("improper_mixture", 7.4),
    ("world_branches", 4.3),
    ("ensemble_update", 5.0),
    ("condition_reports", 1.8),
]


@pytest.mark.parametrize("analysis,bound", COPY_CHAIN_VECTORS)
def test_copy_chain_peak_in_state_vectors(analysis, bound):
    """The traced peak of an N-qubit copy chain's parse and run, in
    final-state vectors of 16 D bytes (D = 2^N), stays flat from N = 12 to
    16: it never grows from one size to the next, and stays under today's
    constant rounded up (``COPY_CHAIN_VECTORS``)."""
    run(scenario_from_document(copy_chain(4, analysis)))  # warm
    vectors = [_traced_peak(copy_chain(n, analysis)) / (16 * 2**n) for n in COPY_QUBITS]
    assert max(vectors) <= bound, f"peaks in vectors {vectors}"
    assert all(b <= a for a, b in zip(vectors, vectors[1:])), f"peaks in vectors {vectors}"


CONDITION_SIZES = (64, 128, 256)
# Peaks measured 305000, 595880 and 1177512 bytes, slopes 0.97 and 0.98.
CONDITION_SLOPE = 1.0


def test_check_conditions_peak_slope():
    """``check_conditions`` on a qubit-object link grows with d_b, not d_b^2:
    each condition's states are 2 d_b amplitudes (``CONDITION_SLOPE``)."""
    links = [random_ideal("A", "B", 2, d, np.random.default_rng(d)) for d in CONDITION_SIZES]
    check_conditions(random_ideal("A", "B", 2, 4, np.random.default_rng(4)), CONDITION_TRIALS)
    peaks = [_traced(lambda: check_conditions(pm, CONDITION_TRIALS))[1] for pm in links]
    slopes = _slopes(CONDITION_SIZES, peaks)
    assert max(slopes) <= CONDITION_SLOPE, f"traced peaks {peaks}, slopes {slopes}"


# verify's default grid: object dimensions 2..4, instrument dimensions 2..6
VERIFY_GRID = [(da, db) for da in range(2, 5) for db in range(2, 7)]


@pytest.mark.parametrize("da,db", VERIFY_GRID)
def test_a_random_dressing_takes_two_qrs(monkeypatch, da, db):
    """``random_dressings`` and ``build_exact`` take one stacked QR for a
    random link's object blocks and one for its rank-1 pointer blocks, at
    every branch count m, where a d x d Haar unitary per object dressing
    and per pointer range would take 2 m."""
    original, shapes = np.linalg.qr, []

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    rng = np.random.default_rng(da * 10 + db)
    for m in range(1, min(da, db) + 1):
        ideal = random_ideal("A", "B", da, db, rng, m)
        assert {ideal.pointer.branches[b].rank for b in ideal.mapping.values()} == {1}
        shapes.clear()
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "qr", counting)
            build_exact(ideal, random_dressings(ideal, rng))
        assert len(shapes) <= 2, f"m = {m}: QRs of {shapes}"


def limited_python(script: str, *args: str) -> str:
    """The stdout of ``python -c script args`` run in a child process whose
    address space is limited to ``WALL_LIMIT`` before anything is imported;
    the child must exit 0."""
    limit = f"import resource\nresource.setrlimit(resource.RLIMIT_AS, ({WALL_LIMIT},) * 2)\n"
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-c", limit + script, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    return done.stdout


TRACED_RUN = """
import json, sys, tracemalloc
from vnchain.scenarios import run, scenario_from_document
tracemalloc.start()
report = run(scenario_from_document(json.loads(sys.argv[1])))
print(report.passed, tracemalloc.get_traced_memory()[1])
"""


@pytest.mark.parametrize("kind", ["ideal", "exact"])
def test_two_meter_wall(kind):
    """q(2) -> B(2048) -> C(2048) with ``branches``: C's link is applied
    through its thin factor, so the run's traced peak stays under 1 GiB
    (about 0.6 GiB: the final state of 2 d^2 amplitudes is 128 MiB), where
    C's V alone would take 128 GiB."""
    doc = two_meter_chain(2048, kind, "branches")
    passed, peak = limited_python(TRACED_RUN, json.dumps(doc)).split()
    assert passed == "True"
    assert int(peak) < 2**30, f"traced peak {int(peak) / 2**20:.0f} MiB"
