import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnchain import (
    DecompositionOfIdentity,
    InvalidDecompositionError,
    ObservableMismatchError,
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

from oracles import brute_partial_trace, embed_operator, projector_onto

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

    def test_shard_merge_is_order_independent(self):
        from vnchain import MonteCarloUpdate

        rng = np.random.default_rng(39)
        lay = layout(("A", 2), ("B", 2))
        ens = WeightedEnsemble(
            ((0.5, random_state(lay, rng)), (0.5, random_state(lay, rng)))
        )
        event = np.eye(2)[:, :1]
        shards = [monte_carlo_update(ens, event, "B", 5_000, seed=s) for s in range(4)]
        forward = MonteCarloUpdate.merged(shards)
        backward = MonteCarloUpdate.merged(shards[::-1])
        assert forward.member_counts == backward.member_counts
        assert forward.accepted_counts == backward.accepted_counts
        assert forward.n_samples == 20_000
        exact = ensemble_update(ens, event, "B")
        total = sum(forward.accepted_counts)
        for m in exact.members:
            se = np.sqrt(m.weight * (1 - m.weight) / total)
            assert abs(forward.weights[m.index] - m.weight) <= 4 * se


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
