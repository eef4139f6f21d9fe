
import dataclasses

import numpy as np
import pytest

from vnchain import (
    PAULI_X,
    DimensionMismatchError,
    DressingError,
    NotAProjectorError,
    SpectralObservable,
    StateVector,
    SubsystemBasis,
    branch_decomposition,
    build_exact,
    build_ideal,
    basis_state,
    evolve,
    layout,
    luders_state,
    observable_from_matrix,
    partial_trace,
    random_exact,
    random_ideal,
    random_observable,
    random_range_unitary,
    random_state,
    random_unitary,
)
from vnchain import premeasurement
from vnchain.chains import extend_chain
from vnchain.hilbert import _gram_residual
from vnchain.premeasurement import Premeasurement, check_conditions, complete_unitary

from oracles import brute_dressed_isometry, brute_ideal_isometry, embed_operator, projector_onto

RNG = np.random.default_rng(2024)


def pointer_range(pm, k):
    """The block of the pointer branch that measured branch k maps to."""
    return pm.pointer.branches[pm.mapping[k]].basis


def canonical_basis(label, dim, count=None):
    count = dim if count is None else count
    eye = np.eye(dim, dtype=complex)
    return SubsystemBasis(label, tuple(eye[:, i] for i in range(count)))


def qubit_pm():
    """Ideal qubit premeasurement pairing |0>_A with |0>_B."""
    measured = observable_from_matrix(np.diag([0.0, 1.0]), "A")
    return build_ideal(measured, canonical_basis("B", 2), basis_state(layout(("B", 2)), 0))


class TestBuildIdeal:
    def test_plus_state_becomes_correlated_pair(self):
        pm = qubit_pm()
        plus = StateVector(layout(("A", 2)), np.array([1, 1]) / np.sqrt(2))
        out = evolve(pm, plus)
        expected = np.array([1, 0, 0, 1]) / np.sqrt(2)
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_sharp_input_object_unchanged(self):
        rng = np.random.default_rng(5)
        measured = random_observable(3, 3, "A", rng)
        pm = build_ideal(
            measured, canonical_basis("B", 3), basis_state(layout(("B", 3)), 0)
        )
        for k, branch in enumerate(measured.branches):
            raw = branch.projector @ (rng.standard_normal(3) + 1j * rng.standard_normal(3))
            phi = StateVector(layout(("A", 3)), raw / np.linalg.norm(raw))
            out = evolve(pm, phi)
            expected = np.kron(phi.amplitudes, np.eye(3, dtype=complex)[:, k])
            np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_matches_termwise_sum(self):
        rng = np.random.default_rng(6)
        measured = random_observable(3, 3, "A", rng)
        q = random_unitary(3, rng)
        pstates = SubsystemBasis("B", tuple(q[:, i] for i in range(3)))
        raw = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        ready = StateVector(layout(("B", 3)), raw / np.linalg.norm(raw))
        pm = build_ideal(measured, pstates, ready)
        for _ in range(20):
            phi = random_state(layout(("A", 3)), rng)
            out = evolve(pm, phi)
            expected = np.zeros(9, dtype=complex)
            for k, branch in enumerate(measured.branches):
                expected += np.kron(branch.projector @ phi.amplitudes, q[:, k])
            np.testing.assert_allclose(out.amplitudes, expected, atol=1e-10)

    def test_instrument_too_small(self):
        measured = observable_from_matrix(np.diag([0.0, 1.0, 2.0]), "A")
        with pytest.raises(DimensionMismatchError):
            build_ideal(
                measured, canonical_basis("B", 2), basis_state(layout(("B", 2)), 0)
            )

    def test_idle_pointer_branch_when_instrument_larger(self):
        measured = observable_from_matrix(np.diag([0.0, 1.0]), "A")
        pm = build_ideal(
            measured, canonical_basis("B", 4, count=2), basis_state(layout(("B", 4)), 0)
        )
        assert pm.pointer.branch_count == 3  # two readings plus one idle sector
        assert pm.pointer.eigenvalues[0] == -1.0
        assert pm.mapping == {0: 1, 1: 2}

    def test_explicit_pointer_observable(self):
        measured = observable_from_matrix(np.diag([0.0, 1.0]), "A")
        pointer = observable_from_matrix(np.diag([5.0, -3.0]), "B")
        pm = build_ideal(
            measured,
            canonical_basis("B", 2),
            basis_state(layout(("B", 2)), 0),
            pointer=pointer,
        )
        # |0>_B is the +5 eigenvector (branch 1 after ascending sort)
        assert pm.mapping == {0: 1, 1: 0}

    def test_pointer_state_outside_projector_range(self):
        measured = observable_from_matrix(np.diag([0.0, 1.0]), "A")
        pointer = observable_from_matrix(PAULI_X, "B")
        with pytest.raises(DimensionMismatchError):
            build_ideal(
                measured,
                canonical_basis("B", 2),
                basis_state(layout(("B", 2)), 0),
                pointer=pointer,
            )


class TestBuildExact:
    def test_identity_dressings_reproduce_ideal(self):
        pm = qubit_pm()
        dressed = build_exact(pm, [(np.eye(2), np.eye(2))] * 2)
        np.testing.assert_allclose(dressed.isometry, pm.isometry, atol=1e-12)

    def test_pauli_x_dressing_explicit_product(self):
        pm = qubit_pm()
        dressed = build_exact(pm, [(PAULI_X, np.eye(2)), (np.eye(2), np.eye(2))])
        f0, f1 = (pm.pointer.projector(pm.mapping[k]) for k in (0, 1))
        expected = (np.kron(PAULI_X, f0) + np.kron(np.eye(2), f1)) @ pm.isometry
        np.testing.assert_allclose(dressed.isometry, expected, atol=1e-12)
        # sharp "up" input keeps its pointer reading but the object flips
        up = basis_state(layout(("A", 2)), 0)
        out = evolve(dressed, up)
        np.testing.assert_allclose(out.amplitudes, [0, 0, 1, 0], atol=1e-12)
        assert check_conditions(dressed, 10)[0].passed

    def test_random_dressings_keep_probability_reproduction(self):
        rng = np.random.default_rng(8)
        pm = random_ideal("A", "B", 2, 3, rng)
        dressings = [
            (random_unitary(2, rng), random_range_unitary(pointer_range(pm, k), rng))
            for k in range(pm.measured.branch_count)
        ]
        dressed = build_exact(pm, dressings)
        worst = 0.0
        for _ in range(100):
            phi = random_state(layout(("A", 2)), rng)
            final = evolve(dressed, phi).amplitudes
            for k, branch in enumerate(dressed.measured.branches):
                born = np.vdot(phi.amplitudes, branch.projector @ phi.amplitudes)
                f = embed_operator(projector_onto(pointer_range(dressed, k)), "B", dressed.layout)
                pointer_prob = np.vdot(final, f @ final)
                worst = max(worst, abs(float(np.real(born - pointer_prob))))
        assert worst <= 1e-10

    @pytest.mark.parametrize(
        "p",
        [np.diag([0.7, 0.2]), np.array([[1.0, 1.0], [0.0, 0.0]]), np.ones((2, 3))],
        ids=["not_idempotent", "not_hermitian", "not_square"],
    )
    def test_range_unitary_needs_a_projector(self, p):
        with pytest.raises(NotAProjectorError):
            random_range_unitary(p, np.random.default_rng(0))

    def test_leaking_dressing_rejected(self):
        pm = qubit_pm()
        with pytest.raises(DressingError):
            build_exact(pm, [(np.eye(2), PAULI_X), (np.eye(2), np.eye(2))])

    def test_wrong_count_rejected(self):
        with pytest.raises(DimensionMismatchError):
            build_exact(qubit_pm(), [(np.eye(2), np.eye(2))])

    def test_non_finite_dressing_rejected(self):
        eye = np.eye(2)
        with pytest.raises(ValueError, match="NaN or infinite"):
            build_exact(qubit_pm(), [(np.full((2, 2), np.nan), eye), (eye, eye)])

    def test_non_finite_isometry_rejected(self):
        pm = qubit_pm()
        v = np.array(pm.isometry)
        v[0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN or infinite"):
            Premeasurement.from_isometry(v, **_parts(pm))


class TestEvolve:
    def test_norm_preserved(self):
        rng = np.random.default_rng(9)
        pm = random_exact("A", "B", 3, 4, rng)
        for _ in range(10):
            out = evolve(pm, random_state(layout(("A", 3)), rng))
            assert abs(out.norm() - 1.0) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            evolve(qubit_pm(), random_state(layout(("A", 3)), RNG))

    def test_wrong_label(self):
        from vnchain import LayoutConflictError

        with pytest.raises(LayoutConflictError):
            evolve(qubit_pm(), random_state(layout(("X", 2)), RNG))


class TestConditionChecks:
    def test_ideal_passes_all(self):
        rng = np.random.default_rng(10)
        pm = random_ideal("A", "B", 3, 4, rng)
        for rep in check_conditions(pm, 10, seed=1):
            assert rep.passed
            assert rep.max_residual <= 1e-12

    def test_exact_passes_all(self):
        rng = np.random.default_rng(11)
        pm = random_exact("A", "B", 3, 4, rng)
        for rep in check_conditions(pm, 10, seed=1):
            assert rep.passed

    def test_identity_unitary_fails_calibration(self):
        # a non-measurement: U = I with a ready state that is no pointer eigenstate
        pm = qubit_pm()
        plus_b = StateVector(layout(("B", 2)), np.array([1, 1]) / np.sqrt(2))
        v = np.eye(4) @ np.kron(np.eye(2), plus_b.amplitudes[:, None])
        broken = Premeasurement.from_isometry(v, **{**_parts(pm), "ready_state": plus_b})
        rep = check_conditions(broken, 10, seed=2)[0]
        assert not rep.passed
        assert rep.max_residual > 0.5

    def test_plus_state_splits_probability_evenly(self):
        pm = qubit_pm()
        plus = StateVector(layout(("A", 2)), np.array([1, 1]) / np.sqrt(2))
        final = evolve(pm, plus)
        for k, branch in enumerate(pm.measured.branches):
            born = np.real(np.vdot(plus.amplitudes, branch.projector @ plus.amplitudes))
            f = embed_operator(projector_onto(pointer_range(pm, k)), "B", pm.layout)
            pointer_prob = np.real(np.vdot(final.amplitudes, f @ final.amplitudes))
            assert born == pytest.approx(0.5, abs=1e-12)
            assert pointer_prob == pytest.approx(0.5, abs=1e-12)

    def test_cross_sector_column_swap_fails_probability(self):
        pm = qubit_pm()
        u = np.array(complete_unitary(pm))
        # swap an initial-sector column out: |0>|ready> now goes to |0>|1>
        u[:, [0, 1]] = u[:, [1, 0]]
        ready = pm.ready_state.amplitudes
        broken = Premeasurement.from_isometry(u @ np.kron(np.eye(2), ready[:, None]), **_parts(pm))
        rep = check_conditions(broken, 20, seed=3)[1]
        assert not rep.passed

    def test_random_unitaries_fail_dynamical(self):
        rng = np.random.default_rng(12)
        pm = qubit_pm()
        ready = pm.ready_state.amplitudes
        failures = 0
        for _ in range(100):
            v = random_unitary(4, rng) @ np.kron(np.eye(2), ready[:, None])
            broken = Premeasurement.from_isometry(v, **_parts(pm))
            rep = check_conditions(broken, 3, seed=int(rng.integers(2**32)))[2]
            if rep.max_residual > 1e-3:
                failures += 1
        assert failures == 100

    def test_report_pass_reflects_tolerance(self):
        rep = check_conditions(qubit_pm(), 5)[0]
        assert rep.passed == (rep.max_residual <= rep.tolerance)
        assert rep.samples == 10  # 5 trials x 2 branches


class TestLuders:
    def test_sharp_state_unchanged(self):
        measured = observable_from_matrix(np.diag([0.0, 1.0]), "A")
        up = basis_state(layout(("A", 2)), 0)
        out = luders_state(up, measured)
        np.testing.assert_allclose(out.matrix, np.diag([1.0, 0.0]), atol=1e-15)

    def test_plus_under_z_fully_mixes(self):
        measured = observable_from_matrix(np.diag([0.0, 1.0]), "A")
        plus = StateVector(layout(("A", 2)), np.array([1, 1]) / np.sqrt(2))
        np.testing.assert_allclose(
            luders_state(plus, measured).matrix, np.eye(2) / 2, atol=1e-15
        )

    def test_equals_reduced_evolved_state(self):
        rng = np.random.default_rng(13)
        for da, db in ((2, 2), (3, 3), (3, 5)):
            pm = random_ideal("A", "B", da, db, rng)
            phi = random_state(layout(("A", da)), rng)
            lud = luders_state(phi, pm.measured)
            red = partial_trace(evolve(pm, phi), {"B"})
            assert np.linalg.norm(lud.matrix - red.matrix) <= 1e-10


class TestBranchDecomposition:
    def test_sharp_input_single_branch(self):
        pm = qubit_pm()
        out = evolve(pm, basis_state(layout(("A", 2)), 0))
        bd = branch_decomposition(out, pm.pointer)
        assert bd.indices == (0,)
        assert bd.weights[0] == pytest.approx(1.0, abs=1e-12)
        assert bd.dropped_weight <= 1e-12

    def test_plus_input_two_even_branches(self):
        pm = qubit_pm()
        plus = StateVector(layout(("A", 2)), np.array([1, 1]) / np.sqrt(2))
        bd = branch_decomposition(evolve(pm, plus), pm.pointer)
        assert bd.weights == pytest.approx((0.5, 0.5), abs=1e-12)
        np.testing.assert_allclose(
            bd.branch(0).component.amplitudes, [1, 0, 0, 0], atol=1e-12
        )
        np.testing.assert_allclose(
            bd.branch(1).component.amplitudes, [0, 0, 0, 1], atol=1e-12
        )

    def test_weights_equal_born_probabilities(self):
        rng = np.random.default_rng(14)
        pm = random_ideal("A", "B", 3, 4, rng)
        phi = random_state(layout(("A", 3)), rng)
        bd = branch_decomposition(evolve(pm, phi), pm.pointer)
        for k, branch in enumerate(pm.measured.branches):
            born = float(
                np.real(np.vdot(phi.amplitudes, branch.projector @ phi.amplitudes))
            )
            j = pm.mapping[k]
            kept = {b.index: b.weight for b in bd.branches}
            assert kept.get(j, 0.0) == pytest.approx(born, abs=1e-12)


class TestEquivalenceTriangle:
    @pytest.mark.parametrize("da,db", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 6)])
    def test_dressed_premeasurements_pass_all_conditions(self, da, db):
        rng = np.random.default_rng(da * 100 + db)
        for _ in range(3):
            pm = random_exact("A", "B", da, db, rng)
            seed = int(rng.integers(2**32))
            for rep in check_conditions(pm, 5, seed=seed):
                assert rep.max_residual <= 1e-9

    def test_pointer_completeness_resummation(self):
        rng = np.random.default_rng(15)
        pm = random_exact("A", "B", 4, 6, rng)
        phi = random_state(layout(("A", 4)), rng)
        final = evolve(pm, phi)
        resum = np.zeros_like(final.amplitudes)
        for branch in pm.pointer.branches:
            f = embed_operator(branch.projector, "B", pm.layout)
            resum = resum + f @ final.amplitudes
        assert np.linalg.norm(resum - final.amplitudes) <= 1e-12


def _recorded_ideal(monkeypatch, *args):
    """``random_ideal(*args)`` and the positional arguments it gave ``build_ideal``."""
    calls = []
    original = premeasurement.build_ideal

    def recording(*a, **kw):
        calls.append(a)
        return original(*a, **kw)

    with monkeypatch.context() as m:
        m.setattr(premeasurement, "build_ideal", recording)
        pm = random_ideal(*args)
    (a,) = calls
    return pm, a


def _random_dressings(pm, rng):
    return [
        (random_unitary(pm.object_dim, rng), random_range_unitary(pointer_range(pm, k), rng))
        for k in range(pm.measured.branch_count)
    ]


def _parts(pm):
    """What ``Premeasurement.from_isometry`` takes of ``pm`` besides V."""
    names = ("object_label", "instrument_label", "measured", "pointer", "ready_state", "index_map")
    return {name: getattr(pm, name) for name in names}


GRID = [(da, db) for da in range(2, 5) for db in range(2, 7)]


class TestIsometryCore:
    """A premeasurement is its terms, which form its isometry V on read;
    ``complete_unitary`` extends V on request."""

    @pytest.mark.parametrize("da,db", GRID)
    def test_ideal_isometry_matches_kron_oracle(self, monkeypatch, da, db):
        rng = np.random.default_rng(da * 10 + db)
        pm, (measured, pstates, _) = _recorded_ideal(monkeypatch, "A", "B", da, db, rng)
        np.testing.assert_allclose(
            pm.isometry, brute_ideal_isometry(measured, pstates), rtol=0, atol=1e-12
        )
        assert not pm.isometry.flags.writeable

    def test_ideal_isometry_with_given_pointer(self):
        rng = np.random.default_rng(21)
        measured = random_observable(3, 2, "A", rng)
        pointer = observable_from_matrix(np.diag([0.0, 1.0, 2.0, 2.0]), "B")
        pstates = canonical_basis("B", 4, count=2)
        ready = basis_state(layout(("B", 4)), 2)
        pm = build_ideal(measured, pstates, ready, pointer=pointer)
        np.testing.assert_allclose(
            pm.isometry, brute_ideal_isometry(measured, pstates), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("da,db", GRID)
    def test_dressed_isometry_matches_kron_oracle(self, da, db):
        rng = np.random.default_rng(da * 10 + db + 500)
        ideal = random_ideal("A", "B", da, db, rng)
        dressings = _random_dressings(ideal, rng)
        exact = build_exact(ideal, dressings)
        np.testing.assert_allclose(
            exact.isometry, brute_dressed_isometry(ideal, dressings), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("da,db", GRID)
    def test_complete_unitary_extends_the_isometry(self, da, db):
        rng = np.random.default_rng(da * 10 + db + 900)
        for pm in (random_ideal("A", "B", da, db, rng), random_exact("A", "B", da, db, rng)):
            u = complete_unitary(pm)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(da * db), rtol=0, atol=1e-12)
            ready = pm.ready_state.amplitudes
            sector = u @ np.kron(np.eye(da), ready[:, None])
            np.testing.assert_allclose(sector, pm.isometry, rtol=0, atol=1e-12)

    def test_complete_unitary_is_pure_and_checked(self, monkeypatch):
        pm = random_exact("A", "B", 3, 4, np.random.default_rng(31))
        v = pm.isometry
        fields = dict(vars(pm))
        np.testing.assert_array_equal(complete_unitary(pm), complete_unitary(pm))
        assert vars(pm).keys() == fields.keys() and pm.isometry is v
        original = premeasurement.complete_orthonormal
        monkeypatch.setattr(
            premeasurement,
            "complete_orthonormal",
            lambda *args: [2 * v for v in original(*args)],
        )
        with pytest.raises(ValueError, match="not unitary"):
            complete_unitary(pm)

    def test_no_package_path_completes_a_unitary(self, monkeypatch):
        calls = []
        original = premeasurement.complete_orthonormal

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(premeasurement, "complete_orthonormal", counting)
        rng = np.random.default_rng(31)
        ideal = random_ideal("A", "B", 3, 4, rng)
        exact = build_exact(ideal, _random_dressings(ideal, rng))
        phi = random_state(layout(("A", 3)), rng)
        for pm in (ideal, exact):
            evolve(pm, phi)
            extend_chain(phi, pm)
            check_conditions(pm, 3)
            repr(pm)
        assert calls == []
        complete_unitary(exact)
        assert len(calls) == 2

    def test_given_isometry_is_checked(self):
        pm = qubit_pm()
        u = random_unitary(4, np.random.default_rng(4))
        v = u @ np.kron(np.eye(2), pm.ready_state.amplitudes[:, None])
        given = Premeasurement.from_isometry(v, **_parts(pm))
        np.testing.assert_array_equal(given.isometry, v)
        assert not given.isometry.flags.writeable
        assert given.isometry_bound == _gram_residual(np.array(v, dtype=complex))
        with pytest.raises(ValueError, match="not an isometry"):
            Premeasurement.from_isometry(1.1 * v, **_parts(pm))
        with pytest.raises(DimensionMismatchError, match="isometry shape"):
            Premeasurement.from_isometry(v[:, :1], **_parts(pm))
        with pytest.raises(DimensionMismatchError, match="isometry shape"):
            Premeasurement.from_isometry(u, **_parts(pm))
        with pytest.raises(ValueError, match="NaN or infinite"):
            Premeasurement.from_isometry(np.full((4, 2), np.nan), **_parts(pm))
        with pytest.raises(ValueError, match="no branch terms to dress"):
            build_exact(given, [(np.eye(2), np.eye(2))] * 2)

    def test_identity_equality_hash_and_repr(self):
        pm, other = qubit_pm(), qubit_pm()
        assert pm == pm
        assert (pm == other) is False
        assert pm != other
        assert hash(pm) == hash(pm)
        assert len({pm, other}) == 2
        text = repr(pm)
        assert "isometry" not in text
        assert text.startswith("Premeasurement(object_label='A', instrument_label='B'")


def _ideal_link(d, kind, rng):
    """An ideal link on an object of dimension d whose measured observable is
    complete (one rank-1 block per dimension), degenerate (blocks of rank > 1)
    or has an idle complement; its pointer states are Haar columns."""
    if kind == "complete":
        measured = random_observable(d, d, "A", rng)
    elif kind == "degenerate":
        measured = random_observable(d, max(1, d // 3), "A", rng)
    else:
        u = random_unitary(d, rng)
        m = max(1, d // 2)
        measured = SpectralObservable.from_eigenbasis(
            "A", [float(k) for k in range(m)], [u[:, k : k + 1] for k in range(m)], complement=-1.0
        )
    n = measured.branch_count
    db = max(n, int(rng.integers(2, d + 2)))
    q = random_unitary(db, rng)
    states = SubsystemBasis("B", tuple(q[:, k] for k in range(n)))
    return build_ideal(measured, states, basis_state(layout(("B", db)), 0))


class TestTermsCheck:
    """The constructor checks the terms once, by a bound on ||V^dag V - I||;
    an ideal link takes it from the Gram residuals its inputs hold."""

    @pytest.mark.parametrize("kind", ["complete", "degenerate", "idle"])
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 16, 32, 64])
    def test_ideal_bound_covers_the_dense_residual(self, d, kind):
        rng = np.random.default_rng(100 * d + len(kind))
        for _ in range(3 if d <= 16 else 1):
            pm = _ideal_link(d, kind, rng)
            e, eps = pm.measured.gram_residual, pm.pointer_states.gram_residual
            assert pm.isometry_bound >= 2 * e * (1 + e) + np.sqrt(d) * eps
            assert pm.isometry_bound >= _gram_residual(pm.isometry)
            assert pm.isometry_bound <= 1e-10 * d * pm.instrument_dim

    @pytest.mark.parametrize("da,db", [(2, 2), (3, 4), (4, 6)])
    def test_exact_bound_covers_the_dense_residual(self, da, db):
        rng = np.random.default_rng(da * 10 + db)
        for _ in range(5):
            pm = random_exact("A", "B", da, db, rng)
            assert pm.isometry_bound >= _gram_residual(pm.isometry)

    def test_an_ideal_link_is_judged_by_its_inputs_residuals(self):
        """Residuals that pass their own criteria can still fail the link's:
        the bound is judged against ``DEFAULT.unitary * d_a * d_b``."""
        pm = qubit_pm()
        states = canonical_basis("B", 2)
        measured = observable_from_matrix(np.diag([0.0, 1.0]), "A")
        object.__setattr__(measured.columns, "gram_residual", 1e-10)  # 2 e (1 + e), about 2e-10
        build_ideal(measured, states, pm.ready_state)
        object.__setattr__(measured.columns, "gram_residual", 2e-10)  # just past 4e-10
        with pytest.raises(ValueError, match=r"matrix is not an isometry: residual 4\.000e-10"):
            build_ideal(measured, states, pm.ready_state)

    def test_terms_must_follow_the_measured_branches(self):
        pm = qubit_pm()
        swapped = tuple(reversed(pm.operators))
        with pytest.raises(ValueError, match="every measured branch in order"):
            dataclasses.replace(pm, operators=swapped)
        with pytest.raises(DimensionMismatchError, match="1 pointer vectors for 2 terms"):
            dataclasses.replace(pm, pointer_states=canonical_basis("B", 2, count=1))
        with pytest.raises(DimensionMismatchError, match="object operators must have shape"):
            dataclasses.replace(pm, operators=((np.eye(3), b) for _, b in pm.operators))
