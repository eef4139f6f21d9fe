import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnchain import (
    DEFAULT,
    ComplementBranch,
    DecompositionOfIdentity,
    InvalidDecompositionError,
    NotAProjectorError,
    ObservableMismatchError,
    SpectralBranch,
    SpectralObservable,
    StateVector,
    SubsystemBasis,
    UndefinedConditionalError,
    WeightedEnsemble,
    ZeroSampleError,
    basis_state,
    branch_decomposition,
    build_ideal,
    conditional_state,
    ensemble_update,
    evolve,
    improper_mixture,
    layout,
    monte_carlo_update,
    observable_from_matrix,
    offdiagonal_block_norm,
    partial_trace,
    proper_mixture,
    purity,
    random_density,
    random_ideal,
    random_observable,
    random_state,
    random_unitary,
    redecompose,
    relative_state,
    run_two_link_chain,
    tensor,
    trace_distance,
    tripartite_conditional_consistency,
    world_branches,
)
from vnchain import chains
from vnchain.branches import Branch, BranchDecomposition
from vnchain.hilbert import apply_local

from oracles import (
    brute_partial_trace,
    embed_operator,
    projector_onto,
    reference_monte_carlo_counts,
)

RNG = np.random.default_rng(31415)


def canonical_basis(label, dim, count=None):
    count = dim if count is None else count
    eye = np.eye(dim, dtype=complex)
    return SubsystemBasis(label, tuple(eye[:, i] for i in range(count)))


def qubit_chain():
    measured = observable_from_matrix(np.diag([0.0, 1.0]), "A")
    pm1 = build_ideal(measured, canonical_basis("B", 2), basis_state(layout(("B", 2)), 0))
    pm2 = build_ideal(
        pm1.pointer, canonical_basis("C", 2), basis_state(layout(("C", 2)), 0)
    )
    return pm1, pm2


def random_chain(rng, da=3, db=3, dc=None):
    pm1 = random_ideal("A", "B", da, db, rng)
    n2 = pm1.pointer.branch_count
    dc = dc or n2
    q = random_unitary(dc, rng)
    pstates = SubsystemBasis("C", tuple(q[:, i] for i in range(n2)))
    raw = rng.standard_normal(dc) + 1j * rng.standard_normal(dc)
    ready = StateVector(layout(("C", dc)), raw / np.linalg.norm(raw))
    pm2 = build_ideal(pm1.pointer, pstates, ready)
    return pm1, pm2, pstates


class TestTwoLinkChain:
    def test_qubit_plus_state(self):
        pm1, pm2 = qubit_chain()
        plus = StateVector(layout(("A", 2)), np.array([1, 1]) / np.sqrt(2))
        intermediate, final = run_two_link_chain(pm1, pm2, plus)
        np.testing.assert_allclose(
            intermediate.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-12
        )
        expected = np.zeros(8, dtype=complex)
        expected[0] = expected[7] = 1 / np.sqrt(2)  # |0,0,0> + |1,1,1>
        np.testing.assert_allclose(final.amplitudes, expected, atol=1e-12)

    def test_sharp_input_single_product_branch(self):
        pm1, pm2 = qubit_chain()
        _, final = run_two_link_chain(pm1, pm2, basis_state(layout(("A", 2)), 1))
        bd = branch_decomposition(final, pm2.pointer)
        assert bd.indices == (1,)
        assert bd.weights[0] == pytest.approx(1.0, abs=1e-12)

    def test_three_outcome_resummation(self):
        rng = np.random.default_rng(21)
        pm1, pm2, pstates = random_chain(rng, da=3, db=3)
        phi = random_state(layout(("A", 3)), rng)
        intermediate, final = run_two_link_chain(pm1, pm2, phi)
        resum = np.zeros_like(final.amplitudes)
        for j, branch in enumerate(pm2.measured.branches):
            f = embed_operator(branch.projector, "B", intermediate.layout)
            resum += np.kron(f @ intermediate.amplitudes, pstates.vectors[j])
        np.testing.assert_allclose(resum, final.amplitudes, atol=1e-10)

    def test_expansion_in_pointer_sub_basis_gives_branch_terms(self):
        from vnchain import expand_in_basis

        rng = np.random.default_rng(22)
        pm1, pm2, pstates = random_chain(rng, da=2, db=2, dc=4)
        phi = random_state(layout(("A", 2)), rng)
        intermediate, final = run_two_link_chain(pm1, pm2, phi)
        coeffs = expand_in_basis(final, pstates)
        for j, branch in enumerate(pm2.measured.branches):
            f = embed_operator(branch.projector, "B", intermediate.layout)
            np.testing.assert_allclose(
                coeffs[j][1].amplitudes, f @ intermediate.amplitudes, atol=1e-10
            )

    def test_observable_mismatch_rejected(self):
        pm1, _ = qubit_chain()
        other = observable_from_matrix(np.diag([0.0, 2.0]), "B")
        pm2_bad = build_ideal(
            other, canonical_basis("C", 2), basis_state(layout(("C", 2)), 0)
        )
        plus = StateVector(layout(("A", 2)), np.array([1, 1]) / np.sqrt(2))
        with pytest.raises(ObservableMismatchError):
            run_two_link_chain(pm1, pm2_bad, plus)


class TestDecoherenceSplit:
    def test_offdiagonal_blocks_vanish_while_state_stays_pure(self):
        pm1, pm2 = qubit_chain()
        plus = StateVector(layout(("A", 2)), np.array([1, 1]) / np.sqrt(2))
        _, final = run_two_link_chain(pm1, pm2, plus)
        rho_ab = partial_trace(final, {"C"})
        assert offdiagonal_block_norm(rho_ab, pm1.pointer.decomposition()) <= 1e-10
        assert abs(purity(final.density()) - 1.0) <= 1e-10
        # the reduced state alone is coherent before the second link
        inter = evolve(pm1, plus)
        rho_a = partial_trace(inter, {"B"})
        assert offdiagonal_block_norm(inter.density(), pm1.pointer.decomposition()) > 0.1


class TestImproperMixture:
    def test_chain_weights_are_born_probabilities(self):
        rng = np.random.default_rng(23)
        pm1, pm2, _ = random_chain(rng, da=3, db=3)
        phi = random_state(layout(("A", 3)), rng)
        _, final = run_two_link_chain(pm1, pm2, phi)
        mix = improper_mixture(final, pm2.pointer.decomposition())
        kept = {b.index: b.weight for b in mix.branches}
        for k, branch in enumerate(pm1.measured.branches):
            born = float(np.real(np.vdot(phi.amplitudes, branch.projector @ phi.amplitudes)))
            j = pm2.mapping[pm1.mapping[k]]  # measured k -> B pointer -> C pointer
            assert kept.get(j, 0.0) == pytest.approx(born, abs=1e-10)

    def test_product_state_components_all_equal(self):
        rng = np.random.default_rng(24)
        rho_ab = random_density(layout(("A", 2), ("B", 2)), rng)
        rho_c = random_density(layout(("C", 3)), rng)
        state = tensor(rho_ab, rho_c)
        q = random_unitary(3, rng)
        d = DecompositionOfIdentity.from_blocks("C", (q[:, :1], q[:, 1:]))
        mix = improper_mixture(state, d)
        for b in mix.branches:
            assert np.linalg.norm(b.component.matrix - rho_ab.matrix) <= 1e-10

    def test_resummation_against_brute_force(self):
        rng = np.random.default_rng(25)
        rho = random_density(layout(("one", 3), ("two", 4)), rng)
        q = random_unitary(4, rng)
        d = DecompositionOfIdentity.from_blocks("two", (q[:, :1], q[:, 1:3], q[:, 3:]))
        mix = improper_mixture(rho, d)
        resum = sum(b.weight * b.component.matrix for b in mix.branches)
        expected = brute_partial_trace(rho.matrix, (3, 4), [0])
        assert np.linalg.norm(resum - expected) <= 1e-10

    def test_invalid_decomposition_rejected(self):
        q = np.eye(2)[:, :1]
        with pytest.raises(InvalidDecompositionError):  # refused when built
            DecompositionOfIdentity.from_blocks("B", (q, q))


class TestConditionalState:
    def test_identity_event_gives_reduced_state(self):
        rho = random_density(layout(("A", 3), ("B", 2)), RNG)
        cond = conditional_state(rho, np.eye(2), "B")
        np.testing.assert_allclose(
            cond.matrix, partial_trace(rho, {"B"}).matrix, atol=1e-12
        )

    def test_pure_rank_one_matches_relative_state(self):
        rng = np.random.default_rng(26)
        psi = random_state(layout(("A", 3), ("B", 4)), rng)
        raw = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        phi_b = raw / np.linalg.norm(raw)
        rel = relative_state(psi, "B", phi_b)
        cond = conditional_state(psi.density(), phi_b[:, None], "B")
        assert (
            np.linalg.norm(np.outer(rel.amplitudes, rel.amplitudes.conj()) - cond.matrix)
            <= 1e-10
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_plain_form_of_a_rank_one_event_has_one_column(self, seed):
        """The plain form factors its dense result, and rounding noise in the
        spectrum adds no columns: both forms give the rank-one relative state."""
        psi = random_state(layout(("A", 4), ("B", 3)), np.random.default_rng(seed))
        event = np.eye(3)[:, :1]
        for form in ("plain", "sandwich"):
            assert conditional_state(psi.density(), event, "B", form).factor.shape == (4, 1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_plain_equals_sandwich(self, seed):
        rng = np.random.default_rng(seed)
        da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        rho = random_density(layout(("A", da), ("B", db)), rng)
        r = int(rng.integers(1, db))
        q = random_unitary(db, rng)
        plain = conditional_state(rho, q[:, :r], "B", form="plain")
        sandwich = conditional_state(rho, q[:, :r], "B", form="sandwich")
        assert np.linalg.norm(plain.matrix - sandwich.matrix) <= 1e-12

    def test_zero_probability_event(self):
        rho = tensor(
            basis_state(layout(("A", 2)), 0).density(),
            basis_state(layout(("B", 2)), 0).density(),
        )
        with pytest.raises(UndefinedConditionalError):
            conditional_state(rho, np.eye(2)[:, 1:], "B")

    def test_unknown_form(self):
        rho = random_density(layout(("A", 2), ("B", 2)), RNG)
        with pytest.raises(ValueError):
            conditional_state(rho, np.eye(2), "B", form="weird")


class TestRelativeState:
    def test_product_state(self):
        a = random_state(layout(("A", 3)), RNG)
        b = random_state(layout(("B", 2)), RNG)
        psi = tensor(a, b)
        rel = relative_state(psi, "B", b.amplitudes)
        overlap = abs(np.vdot(rel.amplitudes, a.amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_bell_state(self):
        bell = StateVector(layout(("A", 2), ("B", 2)), np.array([1, 0, 0, 1]) / np.sqrt(2))
        rel = relative_state(bell, "B", np.array([1.0, 0.0]))
        np.testing.assert_allclose(rel.amplitudes, [1, 0], atol=1e-12)

    def test_vanishing_overlap(self):
        psi = tensor(
            basis_state(layout(("A", 2)), 0), basis_state(layout(("B", 2)), 0)
        )
        with pytest.raises(UndefinedConditionalError):
            relative_state(psi, "B", np.array([0.0, 1.0]))

    @pytest.mark.parametrize("form", ["relative", "plain", "sandwich"])
    @pytest.mark.parametrize("weight", [1e-20, 1e-11])
    def test_every_form_judges_the_event_weight(self, form, weight):
        """The event |1><1| on B of sqrt(1 - w)|00> + sqrt(w)|11> has weight
        w, and each form refuses it at or below ``DEFAULT.weight`` (1e-12);
        the relative state's overlap norm sqrt(w) = 1e-10 is above it."""
        amps = np.zeros(4)
        amps[0], amps[3] = np.sqrt(1 - weight), np.sqrt(weight)
        psi = StateVector(layout(("A", 2), ("B", 2)), amps)
        phi = np.array([0.0, 1.0])

        def condition():
            if form == "relative":
                return relative_state(psi, "B", phi).amplitudes
            return conditional_state(psi.density(), phi[:, None], "B", form).matrix

        if weight <= DEFAULT.weight:
            with pytest.raises(UndefinedConditionalError):
                condition()
        else:
            got = condition()
            np.testing.assert_allclose(abs(got.ravel()[-1]), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)], ids=repr)
    def test_non_finite_subject_vector_is_named(self, bad):
        """NaN fails the unit-norm check (written NaN-safe), and the scan on
        its failure path names the subject vector."""
        psi = tensor(basis_state(layout(("A", 2)), 0), basis_state(layout(("B", 2)), 0))
        with pytest.raises(ValueError) as info:
            relative_state(psi, "B", np.array([bad, 0.0]))
        assert type(info.value) is ValueError
        assert str(info.value) == "subject vector has NaN or infinite entries"

    def test_non_unit_subject_vector_message_prints_a_plain_float(self):
        psi = tensor(basis_state(layout(("A", 2)), 0), basis_state(layout(("B", 2)), 0))
        with pytest.raises(ValueError) as info:
            relative_state(psi, "B", np.array([1.0, 1.0]))
        assert str(info.value) == "subject vector must be a unit vector, got norm 1.4142135623730951"

    def test_three_forms_agree(self):
        from vnchain import complete_orthonormal, expand_in_basis, partial_scalar_product

        rng = np.random.default_rng(27)
        for _ in range(50):
            da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            psi = random_state(layout(("A", da), ("B", db)), rng)
            raw = rng.standard_normal(db) + 1j * rng.standard_normal(db)
            phi_b = raw / np.linalg.norm(raw)
            if partial_scalar_product(phi_b, "B", psi).norm() < 1e-3:
                continue
            basis = SubsystemBasis("B", tuple(complete_orthonormal([phi_b], db)))
            coeff = expand_in_basis(psi, basis)[0][1].normalize()
            rel = relative_state(psi, "B", phi_b)
            cond = conditional_state(psi.density(), phi_b[:, None], "B")
            p_coeff = np.outer(coeff.amplitudes, coeff.amplitudes.conj())
            p_rel = np.outer(rel.amplitudes, rel.amplitudes.conj())
            assert np.linalg.norm(p_coeff - p_rel) <= 1e-10
            assert np.linalg.norm(p_rel - cond.matrix) <= 1e-10


class TestWorldBranches:
    def test_unentangled_pointer_gives_identical_components(self):
        rng = np.random.default_rng(28)
        rest = random_state(layout(("A", 2), ("R", 2)), rng)
        core = random_state(layout(("K", 2)), rng)
        psi = tensor(rest, core).reorder(["A", "K", "R"])
        pointer = random_observable(2, 2, "K", rng)
        bd = world_branches(psi, pointer)
        comps = [b.component for b in bd.branches]
        assert len(comps) == 2
        assert trace_distance(comps[0], comps[1]) <= 1e-10

    def test_copy_correlated_register_splits_worlds(self):
        # GHZ-like chain: the record subsystem copies the pointer
        measured = observable_from_matrix(np.diag([0.0, 1.0]), "A")
        pm1 = build_ideal(
            measured, canonical_basis("K", 2), basis_state(layout(("K", 2)), 0)
        )
        pm2 = build_ideal(
            pm1.pointer, canonical_basis("R", 2), basis_state(layout(("R", 2)), 0)
        )
        plus = StateVector(layout(("A", 2)), np.array([1, 1]) / np.sqrt(2))
        _, final = run_two_link_chain(pm1, pm2, plus)
        bd = world_branches(final, pm1.pointer)
        assert sum(bd.weights) + bd.dropped_weight == pytest.approx(1.0, abs=1e-10)
        comps = [b.component for b in bd.branches]
        assert trace_distance(comps[0], comps[1]) > 0.1

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(29)
        psi = random_state(layout(("A", 2), ("K", 3), ("R", 2)), rng)
        pointer = random_observable(3, 3, "K", rng)
        bd = world_branches(psi, pointer)
        assert sum(bd.weights) + bd.dropped_weight == pytest.approx(1.0, abs=1e-10)


class TestBranchDecompositionWeights:
    @pytest.mark.parametrize("dropped", [np.nan, np.inf, -np.inf, 0.4])
    def test_weights_that_do_not_sum_to_one_are_refused(self, dropped):
        """A NaN dropped weight fails the sum check too, which is written
        NaN-safe."""
        kept = (Branch(0, 0.5, basis_state(layout(("A", 2)), 0)),)
        with pytest.raises(ValueError, match="^weights plus dropped weight sum to"):
            BranchDecomposition("K", kept, dropped)
        assert BranchDecomposition("K", kept, 0.5).dropped_weight == 0.5


class TestTripartiteConsistency:
    def test_product_environment(self):
        rng = np.random.default_rng(30)
        rho_ab = random_density(layout(("A", 2), ("B", 2)), rng)
        rho_c = random_density(layout(("C", 2)), rng)
        rho = tensor(rho_ab, rho_c)
        via_full, via_reduced = tripartite_conditional_consistency(rho, np.eye(2)[:, :1], "B", "C")
        assert np.linalg.norm(via_full.matrix - via_reduced.matrix) <= 1e-12

    def test_pure_chain_state(self):
        pm1, pm2 = qubit_chain()
        plus = StateVector(layout(("A", 2)), np.array([1, 1]) / np.sqrt(2))
        _, final = run_two_link_chain(pm1, pm2, plus)
        via_full, via_reduced = tripartite_conditional_consistency(
            final.density(), pm1.pointer.branches[0].basis, "B", "C"
        )
        assert np.linalg.norm(via_full.matrix - via_reduced.matrix) <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_mixed_tripartite(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(layout(("A", 2), ("B", 2), ("C", 2)), rng)
        q = random_unitary(2, rng)
        via_full, via_reduced = tripartite_conditional_consistency(rho, q[:, :1], "B", "C")
        assert np.linalg.norm(via_full.matrix - via_reduced.matrix) <= 1e-10


class TestEnsembleUpdate:
    def ensemble(self, rng, n=2):
        lay = layout(("A", 2), ("B", 2))
        weights = rng.random(n) + 0.1
        weights /= weights.sum()
        return WeightedEnsemble(
            tuple((float(w), random_state(lay, rng)) for w in weights)
        )

    def test_identity_event_keeps_weights(self):
        rng = np.random.default_rng(31)
        ens = self.ensemble(rng)
        res = ensemble_update(ens, np.eye(2), "B")
        assert res.weights == pytest.approx(ens.weights, abs=1e-12)
        np.testing.assert_allclose(
            res.aggregate.matrix,
            partial_trace(ens.density(), {"B"}).matrix,
            atol=1e-10,
        )

    def test_single_member_reduces_to_pure_rule(self):
        rng = np.random.default_rng(32)
        lay = layout(("A", 2), ("B", 2))
        psi = random_state(lay, rng)
        ens = WeightedEnsemble(((1.0, psi),))
        q = random_unitary(2, rng)
        res = ensemble_update(ens, q[:, :1], "B")
        # direct evaluation of the sandwich rule on the lone pure state
        emb = embed_operator(projector_onto(q[:, :1]), "B", lay)
        vec = emb @ psi.amplitudes
        rho = np.outer(vec, vec.conj())
        rho /= np.trace(rho)
        expected = brute_partial_trace(rho, (2, 2), [0])
        assert res.weights == (pytest.approx(1.0, abs=1e-12),)
        assert np.linalg.norm(res.aggregate.matrix - expected) <= 1e-10

    def test_two_member_weights_match_direct_formula(self):
        rng = np.random.default_rng(33)
        ens = self.ensemble(rng, n=2)
        q = random_unitary(2, rng)
        emb = embed_operator(projector_onto(q[:, :1]), "B", ens.layout)
        probs = [
            float(np.real(np.vdot(s.amplitudes, emb @ s.amplitudes)))
            for _, s in ens.members
        ]
        total = sum(w * q_ for (w, _), q_ in zip(ens.members, probs))
        expected = [w * q_ / total for (w, _), q_ in zip(ens.members, probs)]
        res = ensemble_update(ens, q[:, :1], "B")
        assert res.weights == pytest.approx(tuple(expected), abs=1e-12)
        # aggregate equals the closed form tr_B(rho P)/tr(rho P)
        rho = ens.density().matrix
        direct = brute_partial_trace(rho @ emb, (2, 2), [0])
        direct /= np.trace(rho @ emb)
        assert np.linalg.norm(res.aggregate.matrix - direct) <= 1e-10

    def test_zero_probability_event_rejected(self):
        lay = layout(("A", 2), ("B", 2))
        psi = tensor(basis_state(layout(("A", 2)), 0), basis_state(layout(("B", 2)), 0))
        ens = WeightedEnsemble(((1.0, psi),))
        with pytest.raises(UndefinedConditionalError):
            ensemble_update(ens, np.eye(2)[:, 1:], "B")

    def test_redecomposition_leaves_aggregate_alone(self):
        rng = np.random.default_rng(34)
        ens = self.ensemble(rng, n=3)
        other = redecompose(ens, random_unitary(3, rng))
        np.testing.assert_allclose(
            other.density().matrix, ens.density().matrix, atol=1e-12
        )
        q = random_unitary(2, rng)
        res_a = ensemble_update(ens, q[:, :1], "B")
        res_b = ensemble_update(other, q[:, :1], "B")
        assert np.linalg.norm(res_a.aggregate.matrix - res_b.aggregate.matrix) <= 1e-10


class TestBranchEvents:
    """A branch given as an event is checked like a block: a caller-made one
    that is not orthonormal is refused, and the branches of a checked
    observable, the idle complement included, are accepted."""

    LAY = layout(("A", 2), ("B", 2))

    def ensemble(self):
        rng = np.random.default_rng(41)
        return WeightedEnsemble(tuple((0.5, random_state(self.LAY, rng)) for _ in range(2)))

    @pytest.mark.parametrize(
        "branch",
        [
            SpectralBranch(0, 0.0, [[2], [0]]),
            ComplementBranch(0, 0.0, [[2], [0]]),
            SpectralBranch(0, 0.0, np.eye(2)[:, :1] * (1 + 1e-3)),
            ComplementBranch(0, 0.0, np.ones((2, 2))),
        ],
        ids=["block-2", "complement-2", "block-off-by-1e-3", "complement-rank-deficient"],
    )
    def test_caller_made_branch_is_refused(self, branch):
        ens = self.ensemble()
        for update in (
            lambda: ensemble_update(ens, branch, "B"),
            lambda: monte_carlo_update(ens, branch, "B", 100, seed=0),
        ):
            with pytest.raises(NotAProjectorError, match="^event is not orthonormal"):
                update()

    def test_checked_branches_are_accepted(self):
        """Every branch of a complete pointer and of one with an idle
        complement gives the update that its block gives."""
        lay = layout(("A", 2), ("B", 3))
        rng = np.random.default_rng(42)
        ens = WeightedEnsemble(tuple((0.5, random_state(lay, rng)) for _ in range(2)))
        q = random_unitary(3, rng)
        complete = SpectralObservable.from_eigenbasis(
            "B", [0.0, 1.0, 2.0], [q[:, k : k + 1] for k in range(3)]
        )
        measured = observable_from_matrix(np.diag([0.0, 1.0]), "A")
        ready = basis_state(layout(("B", 3)), 0)
        idle = build_ideal(measured, SubsystemBasis("B", tuple(q.T[:2])), ready).pointer
        assert idle.branches[0].is_complement
        for pointer in (complete, idle):
            for branch in pointer.branches:
                want = ensemble_update(ens, q[:, 2:] if branch.is_complement else branch.basis, "B")
                got = ensemble_update(ens, branch, "B")
                assert got.weights == pytest.approx(want.weights, abs=1e-12)
                assert got.occurrence_probability == pytest.approx(
                    want.occurrence_probability, abs=1e-12
                )
                assert monte_carlo_update(ens, branch, "B", 200, seed=1).n_samples == 200


class TestNonFiniteEnsembleInputs:
    """A NaN or infinite weight or mixing entry is refused when given, not
    carried into sampling or silently dropped."""

    LAY = layout(("A", 2), ("B", 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_weight_rejected(self, bad):
        s0, s1 = basis_state(self.LAY, 0), basis_state(self.LAY, 3)
        with pytest.raises(ValueError, match="must be finite and positive"):
            WeightedEnsemble(((bad, s0), (1.0, s1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_mixing_matrix_rejected(self, bad):
        """The bad entry is in a row past the members, whose weight would
        otherwise come out NaN and be dropped without a word."""
        rng = np.random.default_rng(40)
        members = tuple((0.5, random_state(self.LAY, rng)) for _ in range(2))
        ens = WeightedEnsemble(members)
        mixing = np.eye(3, dtype=complex)
        mixing[2, 0] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            redecompose(ens, mixing)


def _occurrence_probabilities(ens, event, position):
    amps = np.array([s.amplitudes for _, s in ens.members])
    projected = apply_local(event.conj().T, amps, ens.layout.dims, position)
    return np.clip(np.sum(np.abs(projected) ** 2, axis=1), 0.0, 1.0)


def _assert_reference_counts(ens, event, probs, n_samples, seed):
    expected = reference_monte_carlo_counts(ens.weights, probs, n_samples, seed)
    if sum(expected[1]) == 0:
        with pytest.raises(ZeroSampleError):
            monte_carlo_update(ens, event, "B", n_samples, seed=seed)
        return None
    mc = monte_carlo_update(ens, event, "B", n_samples, seed=seed)
    assert (mc.member_counts, mc.accepted_counts) == expected
    assert all(type(c) is int for c in mc.member_counts + mc.accepted_counts)
    return mc


class TestMonteCarlo:
    def test_identity_event_recovers_member_frequencies(self):
        rng = np.random.default_rng(35)
        lay = layout(("A", 2), ("B", 2))
        ens = WeightedEnsemble(
            ((0.25, random_state(lay, rng)), (0.75, random_state(lay, rng)))
        )
        mc = monte_carlo_update(ens, np.eye(2), "B", 50_000, seed=7)
        assert mc.accepted_counts == mc.member_counts
        assert mc.weights[0] == pytest.approx(0.25, abs=0.01)

    def test_binomial_error_bound(self):
        rng = np.random.default_rng(36)
        lay = layout(("A", 2), ("B", 2))
        ens = WeightedEnsemble(
            ((0.4, random_state(lay, rng)), (0.6, random_state(lay, rng)))
        )
        q = random_unitary(2, rng)
        exact = ensemble_update(ens, q[:, :1], "B")
        mc = monte_carlo_update(ens, q[:, :1], "B", 100_000, seed=11)
        total = sum(mc.accepted_counts)
        for m in exact.members:
            w_hat = mc.accepted_counts[m.index] / total
            se = np.sqrt(m.weight * (1 - m.weight) / total)
            assert abs(w_hat - m.weight) <= 3 * se

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(37)
        lay = layout(("A", 2), ("B", 2))
        ens = WeightedEnsemble(
            ((0.5, random_state(lay, rng)), (0.5, random_state(lay, rng)))
        )
        event = np.eye(2)[:, :1]
        a = monte_carlo_update(ens, event, "B", 10_000, seed=99)
        b = monte_carlo_update(ens, event, "B", 10_000, seed=99)
        assert a == b

    def test_zero_accepted_samples(self):
        psi = tensor(basis_state(layout(("A", 2)), 0), basis_state(layout(("B", 2)), 0))
        ens = WeightedEnsemble(((1.0, psi),))
        with pytest.raises(ZeroSampleError):
            monte_carlo_update(ens, np.eye(2)[:, 1:], "B", 1000, seed=1)

    @pytest.mark.parametrize(
        "weights",
        [(1.0,), (0.5, 0.5), (0.1, 0.2, 0.3, 0.4), (0.97, 0.01, 0.01, 0.01), (0.3, 0.0001, 0.6999)],
    )
    def test_counts_equal_the_two_bincount_formula(self, weights):
        """The counts equal those of the documented draws (member indices,
        then coins) counted one by one."""
        rng = np.random.default_rng(len(weights))
        lay = layout(("A", 3), ("B", 2))
        members = tuple((w, random_state(lay, rng)) for w in weights)
        ens = WeightedEnsemble(members)
        event = random_unitary(2, rng)[:, :1]
        probs = _occurrence_probabilities(ens, event, 1)
        for seed in range(6):
            _assert_reference_counts(ens, event, probs, 3000, seed)

    def test_fewer_than_one_sample_is_rejected(self):
        rng = np.random.default_rng(41)
        ens = WeightedEnsemble(((1.0, random_state(layout(("A", 2), ("B", 2)), rng)),))
        for n_samples in (0, -1):
            with pytest.raises(ValueError, match="n_samples must be >= 1"):
                monte_carlo_update(ens, np.eye(2)[:, :1], "B", n_samples, seed=1)


class TestMonteCarloCountsMatchChoice:
    """``monte_carlo_update`` counts exactly what ``rng.choice`` member
    indices followed by ``rng.random`` coins give, from one member to
    ensembles far larger than any the benchmark samples."""

    LAY = layout(("A", 3), ("B", 2))

    @pytest.mark.parametrize("members", [1, 2, 3, 64, 65, 300])
    @pytest.mark.parametrize("n_samples", [1, 7, 20_000])
    def test_random_ensembles(self, members, n_samples):
        rng = np.random.default_rng(1000 * members + n_samples)
        w = rng.random(members) + 0.05
        ens = WeightedEnsemble(
            tuple((x, random_state(self.LAY, rng)) for x in w / w.sum())
        )
        event = random_unitary(2, rng)[:, :1]
        probs = _occurrence_probabilities(ens, event, 1)
        for seed in (0, 1, 12345):
            _assert_reference_counts(ens, event, probs, n_samples, seed)

    @pytest.mark.parametrize("seed", [0, 5, 77])
    def test_exact_binary_weights_and_certain_events(self, seed):
        """cdf boundaries 0.25 and 0.5 are exact floats; basis members give
        occurrence probabilities of exactly 0 and 1."""
        lay = layout(("A", 2), ("B", 2))
        members = (
            (0.25, tensor(basis_state(layout(("A", 2)), 0), basis_state(layout(("B", 2)), 0))),
            (0.25, tensor(basis_state(layout(("A", 2)), 1), basis_state(layout(("B", 2)), 1))),
            (0.5, random_state(lay, np.random.default_rng(seed))),
        )
        ens = WeightedEnsemble(members)
        event = np.eye(2)[:, :1]
        probs = _occurrence_probabilities(ens, event, 1)
        assert probs[0] == 1.0 and probs[1] == 0.0
        for n_samples in (1, 7, 20_000):
            mc = _assert_reference_counts(ens, event, probs, n_samples, seed)
            if mc is not None:
                assert mc.accepted_counts[0] == mc.member_counts[0]
                assert mc.accepted_counts[1] == 0

    def test_ties_at_the_cumulative_weights_follow_searchsorted(self):
        """Uniforms that land exactly on a cdf boundary belong to the next
        member (``searchsorted(side="right")``), and a coin equal to its
        member's probability is rejected."""
        weights = np.array([0.25, 0.25, 0.5])
        cdf = np.array([0.25, 0.5, 1.0])
        u = np.array([0.0, 0.25, np.nextafter(0.25, 0), 0.5, np.nextafter(0.5, 0), 0.75, 0.999])
        probs = np.array([0.5, 1.0, 0.0])
        coins = np.array([0.5, 0.25, 0.49, 0.0, 0.99, 0.5, 0.1])

        class Draws:
            def __init__(self):
                self.left = [u, coins]

            def random(self, n):
                out = self.left.pop(0)
                assert len(out) == n
                return out

        member_counts, accepted_counts = chains._mc_counts(weights, probs, len(u), Draws())
        picked = cdf.searchsorted(u, side="right")
        accepted = coins < probs[picked]
        assert member_counts == np.bincount(picked, minlength=3).tolist() == [2, 2, 3]
        assert accepted_counts == np.bincount(picked[accepted], minlength=3).tolist() == [1, 2, 0]


class TestProperMixtureAbsoluteness:
    def test_adjoining_uncorrelated_system_is_reversible(self):
        rng = np.random.default_rng(38)
        for _ in range(10):
            pm = random_ideal("A", "B", 2, 2, rng)
            phi = random_state(layout(("A", 2)), rng)
            bd = branch_decomposition(evolve(pm, phi), pm.pointer)
            ens = proper_mixture(bd)
            rho_ab = ens.density()
            rho_c = random_density(layout(("C", 3)), rng)
            back = partial_trace(tensor(rho_ab, rho_c), {"C"})
            assert np.linalg.norm(back.matrix - rho_ab.matrix) <= 1e-12

    def test_proper_mixture_weights_are_born_weights(self):
        pm1, _ = qubit_chain()
        amps = np.array([np.sqrt(0.3), np.sqrt(0.7)])
        phi = StateVector(layout(("A", 2)), amps)
        bd = branch_decomposition(evolve(pm1, phi), pm1.pointer)
        ens = proper_mixture(bd)
        assert ens.weights == pytest.approx((0.3, 0.7), abs=1e-12)

    def test_needs_pure_components(self):
        rho = random_density(layout(("A", 2), ("B", 2)), RNG)
        dec = DecompositionOfIdentity.from_blocks("B", (np.eye(2)[:, :1], np.eye(2)[:, 1:]))
        mix = improper_mixture(rho, dec)
        with pytest.raises(TypeError):
            proper_mixture(mix)


def _traced_peak(fn, *args):
    """Peak bytes that ``tracemalloc`` sees while ``fn(*args)`` runs."""
    import tracemalloc

    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chain_path_hands_over_the_vectors_it_makes():
    """``extend_chain`` and ``branch_decomposition`` freeze the amplitudes they
    have just made, so each state adopts its vector (``hilbert._owned``)
    instead of copying it: extending an 18-qubit state allocates one output
    vector, not two.  ``branch_decomposition`` also scales each projection
    in place into its component, so decomposing the result into its two
    pointer branches peaks at 3 final vectors (the first component and its
    block's coefficients, the second block's coefficients and projection),
    not 4."""
    from vnchain.chains import extend_chain

    n = 18
    state = random_state(layout(*[(f"q{i}", 2) for i in range(n)]), np.random.default_rng(0))
    measured = observable_from_matrix(np.diag([0.0, 1.0]), f"q{n - 1}")
    pm = build_ideal(
        measured, SubsystemBasis("B", tuple(np.eye(2))), basis_state(layout(("B", 2)), 0)
    )
    assert pm.isometry is not None  # formed ahead of the traced calls
    extended, peak = _traced_peak(extend_chain, state, pm)
    vector = extended.amplitudes.nbytes
    assert vector == 2 * state.amplitudes.nbytes
    assert peak < 1.25 * vector
    decomposition, peak = _traced_peak(branch_decomposition, extended, pm.pointer)
    assert len(decomposition.branches) == 2
    assert peak < 3.25 * vector


def test_conditional_factors_are_adopted():
    """``chains._condition_vector`` freezes the factor it makes, so each
    conditional state adopts it instead of copying it.  For an 18-qubit
    state, the improper mixture over the last qubit peaks at 1.5 state
    vectors under tracemalloc (2.0 when each factor was copied), and the
    update of the two-member proper mixture of its branches by an event on
    the first qubit at 9.0 (11.0)."""
    n = 18
    state = random_state(layout(*[(f"q{i}", 2) for i in range(n)]), np.random.default_rng(0))
    vector = state.amplitudes.nbytes
    pointer = observable_from_matrix(np.diag([0.0, 1.0]), f"q{n - 1}")
    mixture, peak = _traced_peak(improper_mixture, state, pointer.decomposition())
    assert len(mixture.branches) == 2
    assert peak < 1.75 * vector
    ensemble = proper_mixture(branch_decomposition(state, pointer))
    event = np.array([[0.6], [0.8]], dtype=complex)
    update, peak = _traced_peak(ensemble_update, ensemble, event, "q0")
    assert len(update.members) == 2
    assert peak < 9.5 * vector
