"""The path of ``vnchain run``: what a run makes, and that it is the chain of
``evolve`` and ``extend_chain`` applied link by link.

A warm run builds only what it reports.  Every analysis reads the final
state, so the chain's stages are formed as states only for
``--dump-states``; each link still gets the checks of ``evolve`` or
``extend_chain`` and the norm check of a state, and one kernel
(``premeasurement._linked``) applies every link.
"""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from vnchain import (
    DimensionMismatchError,
    LayoutConflictError,
    SubsystemBasis,
    basis_state,
    build_ideal,
    evolve,
    layout,
    observable_from_matrix,
    random_state,
)
from vnchain import chains, hilbert, scenarios
from vnchain.chains import extend_chain
from vnchain.cli import main
from vnchain.hilbert import StateVector, SubsystemLayout, apply_local
from vnchain.scenarios import (
    RunOptions,
    ScenarioError,
    build_premeasurements,
    builtin_document,
    builtin_names,
    run,
    scenario_from_document,
)

from test_kernels import _copy_chain


def _mixed_chain() -> dict:
    """Qubits, a qutrit and a ququart: an idle pointer branch, a last link
    that reads it, and an exact link."""
    doc = _copy_chain(4)
    doc["subsystems"] += [["t", 3], ["f", 4]]
    doc["stages"] += [
        {
            "object": "q4",
            "instrument": "t",
            "measured": "previous-pointer",
            "pointer_states": ["basis:0", "basis:1"],
            "ready": "basis:0",
        },
        {
            "object": "t",
            "instrument": "f",
            "measured": "previous-pointer",
            "pointer_states": ["basis:2", "basis:0", "basis:1"],
            "ready": "plus",
            "kind": "exact",
            "dressing_seed": 3,
        },
    ]
    return doc


DOCUMENTS = {
    **{name: (lambda name=name: builtin_document(name)) for name in builtin_names()},
    "copy-chain-1": lambda: _copy_chain(1),
    "copy-chain-6": lambda: _copy_chain(6),
    "idle-copy-chain-4": lambda: _copy_chain(4, idle=True),
    "mixed-chain": _mixed_chain,
}


def _scenario_and_links(name):
    scenario = scenario_from_document(DOCUMENTS[name]())
    return scenario, build_premeasurements(scenario, seed=5)


def _counting(monkeypatch, cls) -> list:
    """Every instance of ``cls`` made from now on, in order."""
    made = []
    post_init = cls.__post_init__

    def counting(self):
        post_init(self)
        made.append(self)

    monkeypatch.setattr(cls, "__post_init__", counting)
    return made


# --- the chain of evolve and extend_chain -------------------------------------


@pytest.mark.parametrize("name", DOCUMENTS)
def test_chain_states_are_the_evolve_extend_chain_loop_bit_for_bit(name):
    scenario, pms = _scenario_and_links(name)
    states = [evolve(pms[0], scenario.initial)]
    for previous, pm in zip(pms, pms[1:]):
        states.append(extend_chain(states[-1], pm, measured_source=previous.pointer))
    got = scenarios._chain_states(scenario, pms, every_stage=True)
    assert len(got) == len(states) == len(pms)
    for a, b in zip(got, states):
        assert a.layout == b.layout
        assert a.amplitudes.tobytes() == b.amplitudes.tobytes()
        assert not a.amplitudes.flags.writeable


@pytest.mark.parametrize("name", DOCUMENTS)
def test_run_reports_the_final_state_of_the_chain(name, monkeypatch):
    """``run`` with and without ``dump_states`` hands its analyses the same
    final state, bit for bit."""
    n_states, finals = [], []
    analysis, chain_states = scenarios._ANALYSES["branches"], scenarios._chain_states

    def recording(spec, pms, final, options):
        finals.append((n_states[-1], final))
        return analysis(spec, pms, final, options)

    def counting(scenario, pms, every_stage):
        states = chain_states(scenario, pms, every_stage)
        n_states.append(len(states))
        return states

    monkeypatch.setitem(scenarios._ANALYSES, "branches", recording)
    monkeypatch.setattr(scenarios, "_chain_states", counting)
    doc = DOCUMENTS[name]()
    doc["analyses"] = ["branches"]
    scenario = scenario_from_document(doc)
    plain = run(scenario, RunOptions(seed=5))
    dumped = run(scenario, RunOptions(seed=5, dump_states=True))
    (n_plain, a), (n_dumped, b) = finals
    assert (n_plain, n_dumped) == (1, len(scenario.stages))
    assert a.layout == b.layout
    assert a.amplitudes.tobytes() == b.amplitudes.tobytes()
    assert plain.sections == dumped.sections[:-1]


def _reference_extend(state, pm):
    """The amplitudes of a link as ``extend_chain`` formed them before it had
    a kernel: V on the object's axis, then the new instrument axis moved
    behind the later subsystems."""
    lay = state.layout
    d_a, d_b = pm.object_dim, pm.instrument_dim
    pos = lay.position(pm.object_label)
    amps = apply_local(pm.isometry, state.amplitudes, lay.dims, pos)
    right = math.prod(lay.dims[pos + 1 :])
    if right > 1:
        amps = amps.reshape(-1, d_a, d_b, right).transpose(0, 1, 3, 2).reshape(-1)
    return amps


@pytest.mark.parametrize("order", [("A", "B", "C"), ("B", "A", "C"), ("B", "C", "A")])
@pytest.mark.parametrize("d_b", [2, 3])
def test_kernel_is_the_former_extend_chain_bit_for_bit(order, d_b):
    """The object first, in the middle (the transpose branch) and last."""
    rng = np.random.default_rng(7)
    state = random_state(layout(("A", 3), ("B", 2), ("C", 4)), rng).reorder(order)
    measured = observable_from_matrix(np.diag([0.0, 1.0, 1.0]), "A")
    pointer = SubsystemBasis("X", tuple(np.eye(d_b, dtype=complex)[:2]))
    pm = build_ideal(measured, pointer, basis_state(layout(("X", d_b)), 0))
    extended = extend_chain(state, pm)
    assert extended.layout.labels == (*order, "X")
    assert extended.amplitudes.tobytes() == _reference_extend(state, pm).tobytes()


@pytest.mark.parametrize("name", DOCUMENTS)
def test_evolve_is_one_product_with_v(name):
    """The first link of a chain is ``evolve``'s V |phi>, as it always was."""
    scenario, pms = _scenario_and_links(name)
    final = evolve(pms[0], scenario.initial)
    expected = pms[0].isometry @ scenario.initial.amplitudes
    assert final.amplitudes.tobytes() == expected.tobytes()


def test_layout_is_made_once():
    scenario, pms = _scenario_and_links("copy-chain-1")
    pm = pms[0]
    assert pm.layout is pm.layout
    assert evolve(pm, scenario.initial).layout is pm.layout
    assert pm.layout == SubsystemLayout(((pm.object_label, 2), (pm.instrument_label, 2)))


# --- what a run makes ----------------------------------------------------------


@pytest.mark.parametrize("links", [1, 2, 6, 10])
def test_run_makes_one_chain_state(monkeypatch, links):
    """Without ``dump_states`` a run makes one ``StateVector`` and one
    ``SubsystemLayout`` for its chain, of the final state, however long the
    chain; with it, one of each per stage."""
    doc = _copy_chain(links)
    doc["analyses"] = []  # nothing but the chain
    scenario = scenario_from_document(doc)
    states = _counting(monkeypatch, StateVector)
    layouts = _counting(monkeypatch, SubsystemLayout)
    run(scenario)
    assert [s.layout.labels for s in states] == [tuple(f"q{i}" for i in range(links + 1))]
    assert layouts == [states[0].layout]
    del states[:], layouts[:]
    run(scenario, RunOptions(dump_states=True))
    assert len(states) == len(layouts) == links


def test_cli_run_makes_one_chain_state(tmp_path, monkeypatch, capsys):
    """The same through ``vnchain run``, its branches analysis included: the
    final state and one component per branch."""
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(_copy_chain(10)))
    states = _counting(monkeypatch, StateVector)
    assert main(["run", str(path)]) == 0
    capsys.readouterr()
    on_chain = [s for s in states if len(s.layout.labels) > 1]
    assert len(on_chain) == 1 + 2  # the final state and its two branch components


@pytest.mark.parametrize("samples", [0, 100_000])
def test_an_ensemble_update_run_never_forms_the_aggregate(monkeypatch, samples):
    """The ``ensemble_update`` analysis reports the members and reads the
    reduced layout off one of them, so a run never forms their aggregate."""
    doc = builtin_document("ensemble-update")
    doc["analyses"][0]["samples"] = samples
    formed = []
    monkeypatch.setattr(chains.EnsembleUpdateResult, "aggregate", property(formed.append))
    report = run(scenario_from_document(doc))
    assert report.passed
    assert "aggregate state on system" in report.sections[-1].notes
    assert formed == []


# --- each link keeps its checks ------------------------------------------------


def _forced_isometry(pm, v):
    """``pm`` with its kept factor replaced by the folded V past the
    constructor's check: a fault that only the check of each link's
    amplitudes can see."""
    v = np.array(v)
    v.setflags(write=False)
    object.__setattr__(pm, "factor", (v, None, None))
    return pm


def _broken(fault):
    """A copy chain's scenario and links with one fault at link 2 (or at the
    first link, for the initial state)."""
    scenario, pms = _scenario_and_links("copy-chain-6")
    if fault == "scaled":
        _forced_isometry(pms[2], 2 * pms[2].isometry)
    elif fault == "nan":
        v = np.array(pms[2].isometry)
        v[0, 0] = np.nan
        _forced_isometry(pms[2], v)
    elif fault == "overflow":
        _forced_isometry(pms[2], 1e200 * pms[2].isometry)
    elif fault == "swapped":
        pms[2], pms[3] = pms[3], pms[2]
    elif fault == "repeated":
        pms[3] = pms[2]
    elif fault == "initial-label":
        initial = StateVector(layout(("X", 2)), scenario.initial.amplitudes)
        scenario = dataclasses.replace(scenario, initial=initial)
    elif fault == "initial-dim":
        initial = StateVector(layout(("q0", 3)), [1.0, 0.0, 0.0])
        scenario = dataclasses.replace(scenario, initial=initial)
    elif fault == "pointer-mismatch":
        other = scenario_from_document(_copy_chain(6, idle=True))
        pms[2] = build_premeasurements(other, seed=0)[2]
    return scenario, pms


FAULTS = {
    "scaled": (ValueError, "stage 2: state flagged normalized but ||amplitudes|| = 1.99999"),
    "nan": (ValueError, "stage 2: array has NaN or infinite entries"),
    "overflow": (ValueError, "stage 2: state flagged normalized but ||amplitudes|| = inf"),
    "swapped": (LayoutConflictError, "stage 2: state has no subsystem 'q3'"),
    "repeated": (LayoutConflictError, "stage 3: label 'q3' already in use"),
    "initial-label": (
        LayoutConflictError,
        "stage 0: object state must live on 'q0' alone, got X(2)",
    ),
    "initial-dim": (DimensionMismatchError, "stage 0: object state dimension mismatch"),
    "pointer-mismatch": (DimensionMismatchError, "stage 2: object subsystem dimension mismatch"),
}


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("dump", [False, True])
def test_each_link_is_checked_on_either_path(fault, dump):
    """A run refuses a broken link with the error the every-stage chain
    gives, which is that of ``evolve`` or ``extend_chain`` or of the state it
    would make, behind the stage number."""
    scenario, pms = _broken(fault)
    with pytest.raises(ValueError) as chained:
        scenarios._chain_states(scenario, pms, every_stage=True)
    with pytest.raises(ValueError) as final_only:
        scenarios._chain_states(scenario, pms, every_stage=dump)
    error, message = FAULTS[fault]
    assert type(chained.value) is type(final_only.value) is error
    assert str(chained.value) == str(final_only.value)
    assert str(chained.value).startswith(message)


def test_observables_are_matched_on_either_path():
    """A link that measures something other than the previous pointer."""
    scenario, pms = _scenario_and_links("copy-chain-6")
    pms[3] = build_ideal(
        observable_from_matrix(np.diag([1.0, 0.0]), "q3"),
        SubsystemBasis("q4", tuple(np.eye(2, dtype=complex))),
        basis_state(layout(("q4", 2)), 0),
    )
    message = "stage 3: link does not measure the previous link's pointer observable"
    for every_stage in (False, True):
        with pytest.raises(ValueError) as info:
            scenarios._chain_states(scenario, pms, every_stage)
        assert str(info.value) == message


# --- memory ----------------------------------------------------------------------


def test_run_holds_one_chain_state_in_memory():
    """``run`` (``branches``) on an 18-qubit copy chain, without
    ``dump_states``, peaks at 4.0 final-state vectors: the final state and
    the 3.0 of ``branch_decomposition``.  Keeping every stage added the
    17 earlier stages, about one vector more."""
    n = 18
    scenario = scenario_from_document(_copy_chain(n - 1))
    run(scenario_from_document(_copy_chain(2)))  # warm
    tracemalloc.start()
    try:
        report = run(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    vector = 16 * 2**n
    assert report.passed
    assert peak < 4.25 * vector, f"run traced {peak / vector:.2f} vectors"


# --- the size guard ------------------------------------------------------------


def _qubits(n: int) -> dict:
    doc = _copy_chain(n - 1)
    doc["analyses"] = []
    return doc


@pytest.mark.parametrize("n", [4, 10])
def test_a_state_larger_than_memory_is_refused(monkeypatch, n):
    """The parser refuses a document whose one state vector, 16 D bytes,
    exceeds physical memory, before it makes any state; one that fits
    exactly is taken.  The memory figure is patched, so nothing large is
    allocated."""
    doc = _qubits(n)
    monkeypatch.setattr(scenarios, "_physical_memory", lambda: 16 * 2**n)
    assert scenario_from_document(doc).layout.dim == 2**n
    monkeypatch.setattr(scenarios, "_physical_memory", lambda: 16 * 2**n - 1)
    made = _counting(monkeypatch, StateVector)
    with pytest.raises(ScenarioError) as info:
        scenario_from_document(doc)
    assert (info.value.code, info.value.location) == ("dimension-mismatch", "$.subsystems")
    assert info.value.message == (
        f"one state vector of total dimension {2**n} takes {16 * 2**n} bytes, "
        f"more than the {16 * 2**n - 1} bytes of physical memory"
    )
    assert made == []


def test_size_guard_is_a_scenario_error_line(tmp_path, monkeypatch, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(_qubits(5)))
    monkeypatch.setattr(scenarios, "_physical_memory", lambda: 100)
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr() == (
        "",
        "scenario error: [dimension-mismatch] at $.subsystems: one state vector of "
        "total dimension 32 takes 512 bytes, more than the 100 bytes of physical memory\n",
    )


def test_no_memory_figure_means_no_guard(monkeypatch):
    monkeypatch.setattr(scenarios, "_physical_memory", lambda: None)
    assert scenario_from_document(_qubits(4)).layout.dim == 16


def test_the_idle_copy_chain_that_exhausted_memory_is_refused():
    """The 10-link idle-pointer copy chain has D = 12! = 479,001,600, whose
    state vector takes 7.7 GB; a document 10**6 times larger is refused by
    the machine's own memory figure."""
    memory = scenarios._physical_memory()
    if memory is None:
        pytest.skip("the system reports no physical memory")
    doc = _copy_chain(10, idle=True)
    assert math.prod(d for _, d in doc["subsystems"]) == 479_001_600
    doc["subsystems"].append(["huge", 10**6])
    assert 16 * 479_001_600 * 10**6 > memory
    with pytest.raises(ScenarioError) as info:
        scenario_from_document(doc)
    assert info.value.location == "$.subsystems"


def test_physical_memory_is_the_sysconf_figure(monkeypatch):
    figures = {"SC_PHYS_PAGES": 1000, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(scenarios.os, "sysconf", figures.__getitem__)
    assert scenarios._physical_memory() == 4_096_000
    figures["SC_PHYS_PAGES"] = -1  # indeterminate
    assert scenarios._physical_memory() is None

    def unknown(name):
        raise ValueError(f"unrecognized configuration name {name}")

    monkeypatch.setattr(scenarios.os, "sysconf", unknown)
    assert scenarios._physical_memory() is None


def test_state_norm_check_is_the_state_vector_check():
    """The check a chain makes on amplitudes it wraps in no state is the one
    a ``StateVector`` makes."""
    for amps in ([2.0, 0.0], [np.nan, 0.0], [1e200, 1e200]):
        amps = np.array(amps, dtype=complex)
        with pytest.raises(ValueError) as direct:
            hilbert._check_state_norm(amps)
        with pytest.raises(ValueError) as wrapped:
            StateVector(layout(("A", 2)), amps)
        assert str(direct.value) == str(wrapped.value)
