"""The idle pointer branch, which holds no block, against dense oracles.

An observable with a complement keeps only its given blocks G; the idle
branch acts as x - G (G^dag x).  Every pointer route is checked here against
projectors summed entry by entry (``oracles.brute_eigenbasis_projectors``):
the pointers of the builtins and of random incomplete bases up to d = 64, a
complement placed between the given eigenvalues, and a caller's pointer
whose pointer state lies in the complement.  The branch analyses on a
complement of nonzero weight match the dense route (``brute_partial_trace``
of P rho P).  Two wall tests pin that a large instrument no longer costs
d^2 memory: they assert sizes and results, never wall-clock times.
"""

import tracemalloc

import numpy as np
import pytest

from vnchain import (
    DEFAULT,
    DimensionMismatchError,
    DressingError,
    NotAProjectorError,
    SpectralObservable,
    StateVector,
    SubsystemBasis,
    WeightedEnsemble,
    basis_state,
    branch_decomposition,
    build_exact,
    build_ideal,
    check_conditions,
    ensemble_update,
    evolve,
    improper_mixture,
    layout,
    luders_state,
    observable_from_matrix,
    random_state,
    random_unitary,
    world_branches,
)
from vnchain.chains import observables_match
from vnchain.premeasurement import random_dressings, random_observable
from vnchain.scenarios import (
    build_premeasurements,
    builtin_document,
    builtin_names,
    run,
    scenario_from_document,
)

from oracles import (
    brute_density,
    brute_dressed_isometry,
    brute_eigenbasis_projectors,
    brute_ideal_isometry,
    brute_partial_trace,
    check_dense_spectral_family,
    embed_operator,
)


def dense_pairs(obs):
    """The oracle's (eigenvalue, projector) pairs for the observable's given
    blocks and its complement eigenvalue, if any, sorted ascending."""
    blocks = [b for b in obs.branches if not b.is_complement]
    idle = [b.eigenvalue for b in obs.branches if b.is_complement]
    return brute_eigenbasis_projectors(
        [b.eigenvalue for b in blocks], [b.basis for b in blocks], idle[0] if idle else None
    )


def check_against_oracle(obs):
    """The oracle's projectors pass every dense check (idempotent, orthogonal
    and complete within ``DEFAULT.orth * d``), and each branch projector
    equals the oracle's.  Returns the dense projectors in branch order."""
    pairs = dense_pairs(obs)
    check_dense_spectral_family(pairs)
    assert obs.eigenvalues == tuple(e for e, _ in pairs)
    for branch, (_, proj) in zip(obs.branches, pairs, strict=True):
        np.testing.assert_allclose(branch.projector, proj, rtol=0, atol=1e-12)
        if branch.is_complement:
            assert not hasattr(branch, "basis")
            assert branch.rank == obs.dim - obs.basis.shape[1] >= 1
    return [proj for _, proj in pairs]


def copy_link(obj, instrument, pointers):
    return {
        "object": obj,
        "instrument": instrument,
        "measured": {"diag": [0, 1]} if obj == "q" else "previous-pointer",
        "pointer_states": pointers,
        "ready": "basis:0",
        "kind": "ideal",
    }


# A qubit read by a qutrit (one idle dimension), which a ququart reads with
# three states (idle, 0, 1 -> |2>, |0>, |1>), leaving |3> idle.
IDLE_DOCUMENT = {
    "name": "idle",
    "subsystems": [["q", 2], ["t", 3], ["f", 4]],
    "initial": {"subsystem": "q", "state": [[0.6, 0.0], [0.0, 0.8]]},
    "stages": [
        copy_link("q", "t", ["basis:0", "basis:1"]),
        copy_link("t", "f", ["basis:2", "basis:0", "basis:1"]),
    ],
    "analyses": ["branches"],
}


@pytest.mark.parametrize("name", [*builtin_names(), "idle"])
def test_scenario_observables_match_the_oracle(name):
    doc = IDLE_DOCUMENT if name == "idle" else builtin_document(name)
    for pm in build_premeasurements(scenario_from_document(doc), seed=0):
        for obs in (pm.measured, pm.pointer):
            check_against_oracle(obs)
        np.testing.assert_allclose(
            pm.isometry, brute_ideal_isometry(pm.measured, build_states(pm)), rtol=0, atol=1e-12
        )


def build_states(pm):
    """The pointer states of an ideal premeasurement built from states: the
    unit vector of each measured branch's pointer branch."""
    vectors = [pm.pointer.branches[pm.mapping[k]].basis[:, 0] for k in range(len(pm.mapping))]
    return SubsystemBasis(pm.instrument_label, tuple(vectors))


def haar_states(label, n, d, rng):
    u = random_unitary(d, rng)
    return SubsystemBasis(label, tuple(u[:, k] for k in range(n))), u


@pytest.mark.parametrize("n,d", [(1, 2), (2, 3), (3, 8), (5, 17), (1, 64), (6, 64)])
def test_incomplete_pointer_and_the_link_that_reads_it(n, d):
    """A random incomplete pointer (idle complement first), the V that
    measures it in a next link (a measured complement), and the final
    state's branches, where the idle branch has zero weight."""
    rng = np.random.default_rng(7 * n + d)
    measured = random_observable(n + 1, n, "A", rng)
    states, _ = haar_states("B", n, d, rng)
    pm = build_ideal(measured, states, StateVector(layout(("B", d)), states.vectors[0]))
    check_against_oracle(pm.pointer)
    assert pm.pointer.branches[0].is_complement
    assert pm.mapping == {k: k + 1 for k in range(n)}
    np.testing.assert_allclose(pm.isometry, brute_ideal_isometry(measured, states), atol=1e-12)

    # the next link reads the pointer, complement included: E_c = I - G G^dag
    next_states, _ = haar_states("C", n + 1, n + 2, rng)
    ready = StateVector(layout(("C", n + 2)), next_states.vectors[0])
    link = build_ideal(pm.pointer, next_states, ready)
    np.testing.assert_allclose(
        link.isometry, brute_ideal_isometry(pm.pointer, next_states), rtol=0, atol=1e-12
    )
    for report in check_conditions(link, trials=5, seed=n):  # sharp states in the complement
        assert report.passed, report

    # the idle branch of the final pointer has zero weight and is dropped
    phi = random_state(layout(("A", measured.dim)), rng)
    bd = branch_decomposition(evolve(pm, phi), pm.pointer)
    assert 0 not in bd.indices and bd.dropped_weight <= 1e-12
    for b in bd.branches:
        want = np.vdot(phi.amplitudes, measured.projector(b.index - 1) @ phi.amplitudes).real
        assert b.weight == pytest.approx(want, abs=1e-12)


def idle_pointer(d, rng):
    """The pointer of n = d // 2 random states: complement first."""
    n = d // 2
    states, _ = haar_states("B", n, d, rng)
    measured = random_observable(n, n, "A", rng)
    return build_ideal(measured, states, StateVector(layout(("B", d)), states.vectors[0])).pointer


def between_pointer(d, rng):
    """A pointer with blocks of rank 2 and 1 at eigenvalues 0 and 1 and the
    complement placed between them, at 0.5."""
    u = random_unitary(d, rng)
    return SpectralObservable.from_eigenbasis(
        "B", [0.0, 1.0], [u[:, :2], u[:, 2:3]], complement=0.5
    )


POINTERS = {"idle": idle_pointer, "between": between_pointer}
DIMS = (4, 9, 64)


def three_part_layout(d):
    return layout(("A", 2), ("B", d), ("C", 2))


def dense_conditional(rho, p, lay):
    """tr(rho P) and tr_B(P rho P) / w on A and C, dense."""
    emb = embed_operator(p, "B", lay)
    w = float(np.real(np.trace(emb @ rho)))
    return w, brute_partial_trace(emb @ rho @ emb, lay.dims, [0, 2]) / w


@pytest.mark.parametrize("kind", sorted(POINTERS))
@pytest.mark.parametrize("d", DIMS)
def test_complement_of_nonzero_weight_in_the_middle(d, kind):
    """branch_decomposition, improper_mixture and world_branches of a state
    with weight on the complement, the pointer subsystem in the middle."""
    rng = np.random.default_rng(31 * d + len(kind))
    pointer = POINTERS[kind](d, rng)
    projectors = check_against_oracle(pointer)
    idle = next(j for j, b in enumerate(pointer.branches) if b.is_complement)
    lay = three_part_layout(d)
    psi = random_state(lay, rng)
    rho = brute_density(psi.amplitudes)

    bd = branch_decomposition(psi, pointer)
    assert idle in bd.indices
    for b in bd.branches:
        vec = embed_operator(projectors[b.index], "B", lay) @ psi.amplitudes
        w = float(np.real(np.vdot(vec, vec)))
        assert b.weight == pytest.approx(w, abs=1e-12)
        np.testing.assert_allclose(b.component.amplitudes, vec / np.sqrt(w), atol=1e-12)
    assert bd.branch(idle).weight > 1e-3

    members = [(0.3, psi), (0.7, random_state(lay, rng))]
    mixed = WeightedEnsemble(tuple(members))
    rho_mixed = brute_density([s.amplitudes for _, s in members], [w for w, _ in members])
    for state, dense in ((psi, rho), (mixed.density(), rho_mixed)):
        for result in (improper_mixture(state, pointer.decomposition()),) + (
            (world_branches(state, pointer),) if state is psi else ()
        ):
            assert idle in result.indices
            for b in result.branches:
                w, comp = dense_conditional(dense, projectors[b.index], lay)
                assert b.weight == pytest.approx(w, abs=1e-12)
                np.testing.assert_allclose(b.component.matrix, comp, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", sorted(POINTERS))
@pytest.mark.parametrize("d", DIMS)
def test_ensemble_update_on_a_complement_branch(d, kind):
    """The event is the complement branch itself, as a scenario passes a
    pointer branch: member weights, member states and the aggregate match
    the dense route with the oracle's projector."""
    rng = np.random.default_rng(41 * d + len(kind))
    pointer = POINTERS[kind](d, rng)
    projectors = check_against_oracle(pointer)
    idle = next(j for j, b in enumerate(pointer.branches) if b.is_complement)
    lay = three_part_layout(d)
    weights = (0.2, 0.5, 0.3)
    members = [random_state(lay, rng) for _ in weights]
    ens = WeightedEnsemble(tuple(zip(weights, members)))
    res = ensemble_update(ens, pointer.branches[idle], "B")
    conditioned = [
        dense_conditional(brute_density(s.amplitudes), projectors[idle], lay) for s in members
    ]
    total = sum(w * q for w, (q, _) in zip(weights, conditioned))
    assert res.occurrence_probability == pytest.approx(total, abs=1e-12)
    assert res.indices == (0, 1, 2)
    for m in res.members:
        q, comp = conditioned[m.index]
        assert m.weight == pytest.approx(weights[m.index] * q / total, abs=1e-12)
        np.testing.assert_allclose(m.state.matrix, comp, rtol=0, atol=1e-12)
    dense = brute_density([s.amplitudes for s in members], weights)
    _, aggregate = dense_conditional(dense, projectors[idle], lay)
    np.testing.assert_allclose(res.aggregate.matrix, aggregate, rtol=0, atol=1e-12)


def complement_pointer(rng, d=5):
    """A caller's pointer whose third pointer state lies in its complement:
    blocks u_0 (eigenvalue 0) and [u_1, u_2] (eigenvalue 1), complement
    span{u_3, u_4} (eigenvalue 2); states u_0, u_1, u_3."""
    u = random_unitary(d, rng)
    pointer = SpectralObservable.from_eigenbasis(
        "B", [0.0, 1.0], [u[:, :1], u[:, 1:3]], complement=2.0
    )
    states = SubsystemBasis("B", (u[:, 0], u[:, 1], u[:, 3]))
    return pointer, states, u


def test_caller_pointer_state_in_the_complement():
    rng = np.random.default_rng(57)
    pointer, states, u = complement_pointer(rng)
    projectors = check_against_oracle(pointer)
    measured = random_observable(3, 3, "A", rng)
    ready = StateVector(layout(("B", 5)), u[:, 4])
    pm = build_ideal(measured, states, ready, pointer=pointer)
    assert pm.mapping == {0: 0, 1: 1, 2: 2} and pointer.branches[2].is_complement
    np.testing.assert_allclose(pm.isometry, brute_ideal_isometry(measured, states), atol=1e-12)
    for report in check_conditions(pm, trials=20, seed=3):
        assert report.passed, report

    phi = random_state(layout(("A", 3)), rng)
    final = evolve(pm, phi)
    bd = branch_decomposition(final, pointer)
    for b in bd.branches:
        vec = embed_operator(projectors[b.index], "B", final.layout) @ final.amplitudes
        assert b.weight == pytest.approx(float(np.vdot(vec, vec).real), abs=1e-12)
    assert bd.branch(2).weight == pytest.approx(
        float(np.vdot(phi.amplitudes, measured.projector(2) @ phi.amplitudes).real), abs=1e-12
    )
    # the Lueders state of the pointer itself, complement included
    psi = random_state(layout(("B", 5)), rng)
    dense = sum(p @ brute_density(psi.amplitudes) @ p for p in projectors)
    np.testing.assert_allclose(luders_state(psi, pointer).matrix, dense, rtol=0, atol=1e-12)

    # a dressing of the complement range: a unitary on span{u_3, u_4} (the
    # test forms that basis; the package has none), identity elsewhere
    rest = u[:, 3:]
    w_c = np.eye(5) - rest @ rest.conj().T + rest @ random_unitary(2, rng) @ rest.conj().T
    dressings = [
        (random_unitary(3, rng), np.eye(5)),
        (np.eye(3), np.eye(5)),
        (random_unitary(3, rng), w_c),
    ]
    exact = build_exact(pm, dressings)
    np.testing.assert_allclose(exact.isometry, brute_dressed_isometry(pm, dressings), atol=1e-12)
    for report in check_conditions(exact, trials=20, seed=4):
        assert report.passed, report
    leaking = [dressings[0], dressings[1], (np.eye(3), random_unitary(5, rng))]
    with pytest.raises(DressingError, match="dressing 2 leaks"):
        build_exact(pm, leaking)


def test_random_dressings_refuse_a_complement_target():
    """A caller's pointer whose idle complement receives a pointer state
    has no block there for ``random_dressings`` to draw on: it raises the
    typed ``DressingError`` before any draw, not an ``AttributeError``."""
    e0, e1 = np.eye(2, dtype=complex)
    pointer = SpectralObservable.from_eigenbasis("B", [0.0], [e0[:, None]], complement=-1.0)
    pm = build_ideal(
        observable_from_matrix(np.diag([0.0, 1.0]), "A"),
        SubsystemBasis("B", (e1, e0)),
        basis_state(layout(("B", 2)), 0),
        pointer=pointer,
    )
    assert pm.pointer.branches[pm.mapping[0]].is_complement
    rng = np.random.default_rng(0)
    with pytest.raises(DressingError, match="measured branch 0 maps to the idle complement"):
        random_dressings(pm, rng)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_build_ideal_of_a_large_instrument_stays_small():
    """A qubit on a 2**12-dimensional instrument: no d x d complement block
    (256 MiB) and no complete QR; the pointer is the two given columns."""
    d = 2**12
    measured = random_observable(2, 2, "q", np.random.default_rng(0))
    states = SubsystemBasis("B", tuple(np.eye(2, d, dtype=complex)))
    ready = basis_state(layout(("B", d)), 0)
    tracemalloc.start()
    try:
        pm = build_ideal(measured, states, ready)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"build_ideal traced {peak / 2**20:.1f} MiB"
    assert pm.pointer.basis.shape == (d, 2) and pm.pointer.branches[0].rank == d - 2


def test_qubit_on_a_65536_dimensional_instrument_branches():
    """q(2) -> B(2**16) runs ``branches`` in-process, where a complement
    block alone would be 64 GiB; the weights are |a_k|^2."""
    doc = {
        "name": "wide",
        "subsystems": [["q", 2], ["B", 2**16]],
        "initial": {"subsystem": "q", "state": [[0.6, 0.0], [0.0, 0.8]]},
        "stages": [copy_link("q", "B", ["basis:0", "basis:1"])],
        "analyses": ["branches"],
    }
    report = run(scenario_from_document(doc))
    section = report.sections[-1]
    assert [row[:3] for row in section.rows] == [
        ("1", "0", "0.3600000000"),
        ("2", "1", "0.6400000000"),
        ("dropped", "-", "0.0000000000"),
    ]
    assert all(check.passed for check in section.checks)


def dense_match(a, b):
    """``observables_match`` decided densely: same eigenvalues, and every
    pair of oracle projectors within ``DEFAULT.observable_match * d``."""
    pa, pb = dense_pairs(a), dense_pairs(b)
    return len(pa) == len(pb) and all(
        abs(ea - eb) <= DEFAULT.observable_match
        and np.linalg.norm(p - q) <= DEFAULT.observable_match * a.dim
        for (ea, p), (eb, q) in zip(pa, pb)
    )


def rotated(u, angle):
    """u with column 0 rotated into column 3 and column 1 into column 4 by
    ``angle``: each given block moves by sqrt(2) angle in projector norm,
    and the complement of columns 0-2 by 2 angle."""
    v = u.copy()
    c, s = np.cos(angle), np.sin(angle)
    for a, b in ((0, 3), (1, 4)):
        v[:, a], v[:, b] = c * u[:, a] + s * u[:, b], -s * u[:, a] + c * u[:, b]
    return v


def pointer_of(columns):
    """The pointer of the given columns, complement first at -1."""
    return SpectralObservable.from_eigenbasis(
        "B", [0.0, 1.0], [columns[:, :1], columns[:, 1:3]], complement=-1.0
    )


# 0, an angle at which only the complement differs by more than the
# tolerance (sqrt(2) angle < 1e-8 * 5 < 2 angle), and a large one
MATCH_ANGLES = [0.0, DEFAULT.observable_match * 5 / 1.7, 1e-3]


@pytest.mark.parametrize("angle", MATCH_ANGLES)
def test_observables_match_with_complements(angle):
    """Two complements, and a complement against a block that spans the
    same space or another, are compared by their projectors, as densely."""
    u = random_unitary(5, np.random.default_rng(71))
    v = rotated(u, angle)
    a, b = pointer_of(u), pointer_of(v)
    # v's complement of its first three columns, given as a block instead
    explicit = SpectralObservable.from_eigenbasis(
        "B", [-1.0, 0.0, 1.0], [v[:, 3:], v[:, :1], v[:, 1:3]]
    )
    for x, y in ((a, b), (b, a), (a, explicit), (explicit, a)):
        assert observables_match(x, y) == dense_match(x, y) == (angle == 0.0)
    assert observables_match(b, explicit)


def test_complement_must_complement_the_given_blocks():
    """The complement is the rest of the given columns by construction: it
    holds the columns G themselves, and only one complement, beside at
    least one block, with fewer columns than dimensions, is accepted."""
    u = random_unitary(4, np.random.default_rng(73))
    columns = SubsystemBasis("B", u[:, :2].T)
    ok = SpectralObservable(columns, (-1.0, 0.0, 1.0), (None, 1, 1))
    assert ok.branches[0].rank == 2 and ok.basis.shape == (4, 2)
    assert np.shares_memory(ok.branches[0].given, columns.rows)
    np.testing.assert_array_equal(ok.branches[0].given, u[:, :2])
    with pytest.raises(NotAProjectorError, match="more than one complement"):
        SpectralObservable(columns, (-2.0, -1.0, 0.0, 1.0), (None, None, 1, 1))
    with pytest.raises(DimensionMismatchError, match="at least one block"):
        SpectralObservable(columns, (-1.0,), (None,))
    with pytest.raises(NotAProjectorError, match="complement is empty"):
        SpectralObservable(SubsystemBasis("B", u.T), (-1.0, 0.0), (None, 4))
