"""Scenario documents drawn at random, run end to end against dense oracles.

A document of 1-4 stages on subsystems of dimension 2-5 (at most
``MAX_DIM`` in all) is drawn together with the numbers that define it: each
stage's measured projectors, pointer states and, for an ``exact`` stage, its
object and instrument dressings, and an ``ensemble_update`` event.
The first stage measures a ``diag`` or ``matrix`` observable with a repeated
eigenvalue; a later one reads the previous pointer, as ``previous-pointer``
or written out as a ``diag`` or ``matrix``.  Pointer lists may hold fewer
states than the instrument's dimension, so idle pointer branches appear,
and a later stage that reads such a pointer measures its idle complement.

The expected final state is formed from the drawn numbers alone
(``tests/oracles.py``): each link's dense V, a sum of Kronecker products,
applied to the last subsystem.  ``run`` must report that state's branch,
improper-mixture and world-branch weights to 1e-9, the trace distances
between its world branches (brute partial traces) to 1e-6, the priors,
posteriors w_k <Psi_k|P|Psi_k> (renormalized) and occurrence probability of
the event to 1e-9, and passing condition reports.  The off-diagonal pointer
blocks of an improper mixture on an ideal stage are held to their oracle
value and pass; an ``exact`` stage, and an ideal stage whose pointer an
exact stage reads, have no such check.  Every other check of the report
passes.  The same links, applied by ``evolve`` and ``extend_chain`` to
states whose object has been moved into the middle of the layout, must
give the same state.
"""

import json
import math
import re

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vnchain import evolve, extend_chain, layout, random_unitary
from vnchain.scenarios import (
    RunOptions,
    _chain_states,
    build_premeasurements,
    parse_scenario,
    run,
)

from oracles import (
    brute_apply_local,
    brute_cross_block_norm,
    brute_kron,
    brute_partial_trace,
    brute_trace_distance,
    projector_onto,
)
from test_kernels import _copy_chain

WEIGHT_TOL = 1e-9
DISTANCE_TOL = 1e-6
STATE_TOL = 1e-12
TRIALS = 3
MAX_DIM = 360  # the largest total dimension drawn, which bounds the brute partial traces
EVENT_FLOOR = 1e-3  # the least occurrence probability of a drawn event
DISTANCE_NOTE = re.compile(r"trace distance between branches (\d+) and (\d+): ([0-9.]+)")


def _pair(z) -> list[float]:
    return [float(z.real), float(z.imag)]


def _vector_doc(v) -> list:
    return [_pair(z) for z in v]


def _matrix_doc(m) -> list:
    return [[_pair(z) for z in row] for row in m]


def _spectral(values, basis) -> list[tuple[int, np.ndarray]]:
    """(value, projector) of sum_i values[i] |basis_i><basis_i|, ascending:
    one projector per distinct value, over the columns that carry it."""
    return [
        (v, projector_onto(basis[:, [i for i, x in enumerate(values) if x == v]]))
        for v in sorted(set(values))
    ]


def _random_unit(rng, d) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.sqrt(np.vdot(v, v).real)


def _event_terms(psi, dims, position, pointer, subject, p) -> list[tuple[float, float]]:
    """Per member of the proper mixture of ``pointer``'s branches (on axis
    ``position``) that carry weight: its prior w_k and w_k <Psi_k|P|Psi_k>,
    for the event ``p`` on axis ``subject``."""
    kept = [(w, phi) for w, phi in _projected(psi, dims, position, pointer) if w > 1e-12]
    scale = sum(w for w, _ in kept)
    return [
        (w / scale, float(np.vdot(phi, brute_apply_local(p, phi, dims, subject)).real) / scale)
        for w, phi in kept
    ]


@st.composite
def drawn_chains(draw):
    """A scenario document and its numbers: the initial amplitudes, each
    link's dense V and each stage's pointer as (eigenvalue, projector) in
    the package's branch order (the idle complement first)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_stages = draw(st.integers(1, 4))
    dims = [draw(st.integers(2, 5))]
    if draw(st.booleans()):
        initial_doc, initial = "plus", (np.eye(dims[0])[0] + np.eye(dims[0])[1]) / np.sqrt(2)
    else:
        initial = _random_unit(rng, dims[0])
        initial_doc = _vector_doc(initial)
    stages, links, pointers = [], [], []
    previous = None  # the previous pointer's (values, basis, presets)
    for t in range(n_stages):
        d_a = dims[t]
        if previous is None:
            form = draw(st.sampled_from(["diag", "matrix"]))
            values = draw(st.lists(st.integers(0, 3), min_size=d_a - 1, max_size=d_a - 1))
            repeated = values[draw(st.integers(0, d_a - 2))]
            values.insert(draw(st.integers(0, d_a - 1)), repeated)
            basis = np.eye(d_a, dtype=complex) if form == "diag" else random_unitary(d_a, rng)
        else:
            values, basis, presets = previous
            forms = ["previous-pointer", "matrix"] + (["diag"] if presets else [])
            form = draw(st.sampled_from(forms))
        matrix = basis @ np.diag(np.asarray(values, dtype=complex)) @ basis.conj().T
        if form == "diag":
            measured_doc = {"diag": [int(round(x)) for x in np.diag(matrix).real]}
        elif form == "matrix":
            measured_doc = {"matrix": _matrix_doc((matrix + matrix.conj().T) / 2)}
        else:
            measured_doc = "previous-pointer"
        measured = [e for _, e in _spectral(values, basis)]
        m = len(measured)
        room = MAX_DIM // math.prod(dims)
        if room < max(2, m):  # no instrument fits: the chain ends here
            break

        d_b = draw(st.integers(max(2, m), min(5, room)))
        presets = draw(st.booleans())
        if presets:
            order = draw(st.permutations(range(d_b)))
            pointer_basis = np.eye(d_b, dtype=complex)[:, order]
            pointer_doc = [f"basis:{p}" for p in order[:m]]
        else:
            pointer_basis = random_unitary(d_b, rng)
            pointer_doc = [_vector_doc(pointer_basis[:, k]) for k in range(m)]
        pointer_values = list(range(m)) + [-1] * (d_b - m)
        pointers.append(_spectral(pointer_values, pointer_basis))
        previous = (pointer_values, pointer_basis, presets)

        ready = draw(st.sampled_from(["basis:0", "plus", "amplitudes"]))
        stage = {
            "object": f"s{t}",
            "instrument": f"s{t + 1}",
            "measured": measured_doc,
            "pointer_states": pointer_doc,
            "ready": _vector_doc(_random_unit(rng, d_b)) if ready == "amplitudes" else ready,
        }
        terms = [(e, pointer_basis[:, k]) for k, e in enumerate(measured)]
        if draw(st.booleans()):
            # V_k on the object; on the instrument a phase on pointer state k
            # and a unitary on the rest, which W_k must leave alone
            dressings = []
            for k in range(m):
                v_k = random_unitary(d_a, rng)
                rest = np.delete(pointer_basis, k, axis=1)
                b_k = pointer_basis[:, [k]]
                w_k = np.exp(2j * np.pi * rng.random()) * b_k @ b_k.conj().T
                w_k = w_k + rest @ random_unitary(d_b - 1, rng) @ rest.conj().T
                dressings.append({"object": _matrix_doc(v_k), "instrument": _matrix_doc(w_k)})
                terms[k] = (v_k @ terms[k][0], w_k @ terms[k][1])
            stage.update(kind="exact", dressings=dressings)
        links.append(sum(brute_kron(a, c[:, None]) for a, c in terms))
        stages.append(stage)
        dims.append(d_b)

    n_stages = len(stages)
    pick = st.integers(0, n_stages - 1)
    psi, _ = _final_state(initial, links)
    source = draw(pick)
    event = draw(st.sampled_from(["default", "state", "branch"]))
    if event == "branch":
        k = draw(pick)
        j = draw(st.integers(0, len(pointers[k]) - 1))
        projector = {"subsystem": f"s{k + 1}", "stage": k, "branch": j}
        subject, p = k + 1, pointers[k][j][1]
    else:
        subject = n_stages
        plus = (np.eye(dims[-1])[0] + np.eye(dims[-1])[1]) / np.sqrt(2)
        projector, p = None, projector_onto(plus[:, None])
    terms = _event_terms(psi, dims, source + 1, pointers[source], subject, p)
    if event == "state" or sum(q for _, q in terms) <= EVENT_FLOOR:
        # a random state on a random subsystem, which some member triggers
        subject = draw(st.integers(0, n_stages))
        v = _random_unit(rng, dims[subject])
        projector = {"subsystem": f"s{subject}", "state": _vector_doc(v)}
        p = projector_onto(v[:, None])
    ensemble = {"kind": "ensemble_update", "source_stage": source}
    if projector is not None:
        ensemble["projector"] = projector
    doc = {
        "name": "drawn",
        "subsystems": [[f"s{i}", d] for i, d in enumerate(dims)],
        "initial": initial_doc,
        "stages": stages,
        "analyses": [
            {"kind": "branches", "pointer_stage": draw(pick)},
            {"kind": "improper_mixture", "stage": draw(pick)},
            {"kind": "world_branches", "pointer_stage": draw(pick)},
            ensemble,
            {"kind": "condition_reports", "trials": TRIALS},
        ],
    }
    return doc, initial, links, pointers, (subject, p)


def _final_state(initial, links) -> tuple[np.ndarray, list[int]]:
    """The chain's amplitudes and dims: each V on the last subsystem."""
    psi, dims = initial, [initial.shape[0]]
    for v in links:
        d_a = dims[-1]
        psi = brute_apply_local(v, psi, dims, len(dims) - 1)
        dims.append(v.shape[0] // d_a)
    return psi, dims


def _check_weights(rows, weights, column):
    """A weight table: each kept branch at its weight, the rest dropped."""
    got = {row[0]: float(row[column]) for row in rows}
    dropped, missing = got.pop("dropped"), 0.0
    for j, w in enumerate(weights):
        if str(j) in got:
            assert abs(got.pop(str(j)) - w) <= WEIGHT_TOL
        else:
            missing += w
    assert got == {}
    assert abs(dropped - missing) <= WEIGHT_TOL


def _projected(psi, dims, position, pointer) -> list[tuple[float, np.ndarray]]:
    """Per pointer branch j: ||F_j psi||^2 and F_j psi."""
    out = []
    for _, f in pointer:
        phi = brute_apply_local(f, psi, dims, position)
        out.append((float(np.vdot(phi, phi).real), phi))
    return out


def _reduced(psi, dims, traced) -> np.ndarray:
    """The dense state of every subsystem but ``traced``."""
    keep = [i for i in range(len(dims)) if i != traced]
    return brute_partial_trace(np.outer(psi, psi.conj()), dims, keep)


@settings(
    max_examples=50,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(drawn_chains())
def test_drawn_scenario_reports_the_oracle_chain(drawn):
    doc, initial, links, pointers, (subject, event) = drawn
    scenario = parse_scenario(json.dumps(doc))
    psi, dims = _final_state(initial, links)
    report = run(scenario, RunOptions(seed=0))
    _, branches, improper, world, ensemble, conditions = report.sections

    idx = doc["analyses"][0]["pointer_stage"]
    _check_weights(branches.rows, [w for w, _ in _projected(psi, dims, idx + 1, pointers[idx])], 2)
    assert all(c.passed for c in branches.checks)
    eigenvalues = {row[0]: row[1] for row in branches.rows if row[0] != "dropped"}
    for j, e in eigenvalues.items():
        assert e == f"{pointers[idx][int(j)][0]:g}"

    idx = doc["analyses"][1]["stage"]
    _check_weights(improper.rows, [w for w, _ in _projected(psi, dims, idx + 1, pointers[idx])], 1)
    checks = {c.name: c for c in improper.checks}
    stages = doc["stages"]
    exact = [k for k in (idx, idx + 1) if k < len(stages) and stages[k].get("kind") == "exact"]
    if idx >= 1 and exact:
        # The object dressings of an exact stage idx, or of an exact stage
        # idx + 1 on stage idx's instrument, leave coherence between the
        # sectors of the pointer that stage idx measures: no check is made.
        assert "offdiagonal_pointer_blocks" not in checks
        assert improper.notes == (
            f"stage {exact[0]} is exact: its object dressings need not keep the "
            f"stage-{idx - 1} pointer sectors apart, so no decoherence check applies",
        )
    elif idx >= 1:
        # The coherence left between the sectors of the pointer that stage
        # idx measures, once its instrument is traced out: zero when stage
        # idx and the stage that reads its pointer are ideal.
        sectors = [f for _, f in pointers[idx - 1]]
        labels = layout(*[(f"s{i}", d) for i, d in enumerate(dims) if i != idx + 1])
        expected = brute_cross_block_norm(_reduced(psi, dims, idx + 1), sectors, f"s{idx}", labels)
        check = checks.pop("offdiagonal_pointer_blocks")
        assert abs(check.value - expected) <= WEIGHT_TOL
        assert check.passed
    assert all(c.passed for c in checks.values())

    idx = doc["analyses"][2]["pointer_stage"]
    projected = _projected(psi, dims, idx + 1, pointers[idx])
    _check_weights(world.rows, [w for w, _ in projected], 1)
    states = {
        j: _reduced(phi / np.sqrt(w), dims, idx + 1)
        for j, (w, phi) in enumerate(projected)
        if w > 1e-12
    }
    distances = [DISTANCE_NOTE.fullmatch(note).groups() for note in world.notes]
    kept = sorted(states)
    assert [(int(a), int(b)) for a, b, _ in distances] == [
        (a, b) for i, a in enumerate(kept) for b in kept[i + 1 :]
    ]
    for a, b, got in distances:
        expected = brute_trace_distance(states[int(a)], states[int(b)])
        assert abs(float(got) - expected) <= DISTANCE_TOL
    assert all(c.passed for c in world.checks)

    # Each member's prior and posterior, and the occurrence probability; a
    # member that the event leaves at no weight is dropped from the table.
    idx = doc["analyses"][3]["source_stage"]
    terms = _event_terms(psi, dims, idx + 1, pointers[idx], subject, event)
    total = sum(q for _, q in terms)
    rows = {int(row[0]): (float(row[1]), float(row[2])) for row in ensemble.rows}
    assert set(rows) <= set(range(len(terms)))
    for k, (prior, q) in enumerate(terms):
        if k in rows:
            assert abs(rows[k][0] - prior) <= WEIGHT_TOL
            assert abs(rows[k][1] - q / total) <= WEIGHT_TOL
        else:
            assert q / total <= WEIGHT_TOL
    occurrence = ensemble.notes[0].removeprefix("occurrence probability: ")
    assert abs(float(occurrence) - total) <= WEIGHT_TOL
    assert all(c.passed for c in ensemble.checks)

    assert len(conditions.rows) == 3 * len(links)
    assert all(row[-1] == "PASS" for row in conditions.rows)
    assert all(c.passed for c in conditions.checks)

    pms = build_premeasurements(scenario, seed=0)
    np.testing.assert_allclose(_chain_states(scenario, pms, every_stage=True)[-1].amplitudes, psi, atol=STATE_TOL)
    # the object moved into the middle: the link kernel moves the new
    # instrument axis behind the subsystems that follow the object
    state = evolve(pms[0], scenario.initial)
    for previous, pm in zip(pms, pms[1:]):
        labels = list(state.layout.labels)
        obj = labels.pop()
        labels.insert(len(labels) // 2, obj)
        state = extend_chain(state.reorder(labels), pm, measured_source=previous.pointer)
    state = state.reorder([label for label, _ in doc["subsystems"]])
    np.testing.assert_allclose(state.amplitudes, psi, atol=STATE_TOL)


def test_an_ideal_stage_read_by_an_exact_stage_has_no_decoherence_check():
    """The object dressings of exact stage 2 act on stage 1's instrument,
    which then need not keep stage 0's pointer sectors apart: traced out,
    it leaves coherence of 0.167 between them on this copy chain."""
    doc = _copy_chain(3)
    doc["stages"][2]["kind"] = "exact"
    doc["analyses"] = [{"kind": "improper_mixture", "stage": 1}]
    report = run(parse_scenario(json.dumps(doc)), RunOptions(seed=0))
    improper = report.sections[1]
    assert [c.name for c in improper.checks] == [
        "weight_table_sum",
        "resummation_residual",
        "full_state_purity_deficit",
    ]
    assert improper.notes == (
        "stage 2 is exact: its object dressings need not keep the "
        "stage-0 pointer sectors apart, so no decoherence check applies",
    )
    assert report.passed
