import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnchain import (
    DegenerateLayoutError,
    DensityOperator,
    DimensionMismatchError,
    LayoutConflictError,
    NonOrthonormalBasisError,
    StateVector,
    SubsystemBasis,
    SubsystemLayout,
    basis_state,
    complete_orthonormal,
    expand_in_basis,
    layout,
    partial_scalar_product,
    partial_trace,
    purity,
    random_density,
    random_state,
    random_unitary,
    tensor,
)
from vnchain.hilbert import partial_trace_matrix
from vnchain.tolerances import DEFAULT

from oracles import (
    brute_density,
    brute_kron,
    brute_partial_scalar_product,
    brute_partial_trace,
    embed_operator,
)

RNG = np.random.default_rng(1234)


def rand_vec(d, rng=RNG):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


class TestLayout:
    def test_basic(self):
        lay = layout(("A", 2), ("B", 3))
        assert lay.labels == ("A", "B")
        assert lay.dims == (2, 3)
        assert lay.dim == 6
        assert lay.position("B") == 1
        assert lay.dim_of("B") == 3

    def test_duplicate_labels_rejected(self):
        with pytest.raises(LayoutConflictError):
            layout(("A", 2), ("A", 3))

    def test_bad_dimension_rejected(self):
        with pytest.raises(DimensionMismatchError):
            layout(("A", 0))

    def test_empty_rejected(self):
        with pytest.raises(DegenerateLayoutError):
            SubsystemLayout(())

    def test_restricted_preserves_order(self):
        lay = layout(("A", 2), ("B", 3), ("C", 4))
        assert lay.restricted({"C", "A"}).labels == ("A", "C")

    def test_concat_collision(self):
        with pytest.raises(LayoutConflictError):
            layout(("A", 2)).concat(layout(("A", 2)))


class TestStateVector:
    def test_norm_flag_enforced(self):
        with pytest.raises(ValueError):
            StateVector(layout(("A", 2)), np.array([1.0, 1.0]))

    def test_norm_flag_message_prints_a_plain_float(self):
        with pytest.raises(ValueError) as info:
            StateVector(layout(("A", 2)), np.array([1.0, 1.0]))
        assert str(info.value) == "state flagged normalized but ||amplitudes|| = 1.4142135623730951"

    def test_unnormalized_allowed_when_flagged(self):
        s = StateVector(layout(("A", 2)), np.array([1.0, 1.0]), normalized=False)
        assert s.norm() == pytest.approx(np.sqrt(2))

    def test_amplitudes_immutable(self):
        s = basis_state(layout(("A", 2)), 0)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0

    def test_reorder_roundtrip(self):
        lay = layout(("A", 2), ("B", 3), ("C", 2))
        s = random_state(lay, RNG)
        back = s.reorder(["C", "A", "B"]).reorder(["A", "B", "C"])
        np.testing.assert_allclose(back.amplitudes, s.amplitudes, atol=1e-15)

    def test_relabel_enables_tensor_of_copies(self):
        s = random_state(layout(("A", 2)), RNG)
        pair = tensor(s, s.relabeled({"A": "A2"}))
        assert pair.layout.labels == ("A", "A2")
        with pytest.raises(LayoutConflictError):
            s.relabeled({"Z": "Y"})

    def test_density_immutable_and_unit_trace(self):
        rho = random_state(layout(("A", 3)), RNG).density()
        assert np.trace(rho.matrix) == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    @pytest.mark.parametrize("normalized", [True, False])
    def test_non_finite_amplitudes_rejected(self, bad, normalized):
        with pytest.raises(ValueError, match="NaN or infinite"):
            StateVector(layout(("A", 2)), [bad, 0], normalized=normalized)

    def test_purity_is_norm_to_the_fourth(self):
        rng = np.random.default_rng(77)
        lay = layout(("A", 2), ("B", 3), ("C", 4))
        for _ in range(20):
            psi = random_state(lay, rng)
            assert abs(purity(psi) - purity(psi.density())) <= 1e-14
            half = StateVector(lay, psi.amplitudes / np.sqrt(2), normalized=False)
            assert purity(half) == pytest.approx(0.25, abs=1e-15)


def spectrum_matrix(eigenvalues, rng):
    """Hermitian matrix U diag(eigenvalues) U^dag with a Haar-random U."""
    u = random_unitary(len(eigenvalues), rng)
    m = (u * np.asarray(eigenvalues)) @ u.conj().T
    return 0.5 * (m + m.conj().T)


def placed_spectrum(d, rank, lowest, rng):
    """Unit-trace spectrum with ``lowest`` as its smallest eigenvalue.

    ``rank`` positive eigenvalues (all ``d - 1`` remaining ones when None)
    share the weight ``1 - lowest``; the rest are zero.
    """
    n_pos = d - 1 if rank is None else rank
    pos = rng.uniform(0.5, 1.5, n_pos)
    pos *= (1.0 - lowest) / pos.sum()
    return np.concatenate([[lowest], pos, np.zeros(d - 1 - n_pos)])


class TestDensityOperatorValidation:
    PSD = DEFAULT.psd

    @pytest.mark.parametrize(
        "d,rank",
        [(2, 1), (24, 1), (24, 2), (24, None), (96, 2), (96, None),
         (384, 1), (384, 2), (384, None)],
    )
    @pytest.mark.parametrize("factor", [-2.0, -1.01, -0.99, -0.5, 0.0])
    def test_psd_decision_matches_eigvalsh(self, d, rank, factor):
        """Accept/reject and the message of ``from_matrix`` agree with
        lambda_min >= -psd by eigvalsh; an accepted matrix is factored with
        its eigenvalues below zero clipped and the trace rescaled to one."""
        rng = np.random.default_rng([d, rank or 0, round(1000 * (3 + factor))])
        m = spectrum_matrix(placed_spectrum(d, rank, factor * self.PSD, rng), rng)
        lo = float(np.linalg.eigvalsh(m)[0])
        assert lo == pytest.approx(factor * self.PSD, abs=1e-13)
        lay = layout(("A", d))
        if lo >= -self.PSD:
            rho = DensityOperator.from_matrix(lay, m)
            # rho = (m - lo v v^dag) / (1 - lo) for the eigenvector v of lo < 0
            assert np.linalg.norm(rho.matrix - m) <= 2 * max(-lo, 0.0) + 1e-12
            assert np.linalg.norm(rho.factor) ** 2 == pytest.approx(1.0, abs=1e-14)
            assert not rho.matrix.flags.writeable
        else:
            with pytest.raises(ValueError) as info:
                DensityOperator.from_matrix(lay, m)
            assert str(info.value) == f"matrix not PSD: lowest eigenvalue {lo:.3e}"

    def test_method_and_function_purity_agree(self):
        rng = np.random.default_rng(5)
        for rank in (1, 2, 24):
            rho = random_density(layout(("A", 4), ("B", 6)), rng, rank=rank)
            dense = brute_density(list(rho.factor.T))
            assert rho.purity() == purity(rho)
            assert purity(rho) == pytest.approx(np.real(np.trace(dense @ dense)), abs=1e-14)

    def test_psd_floor_of_a_diagonal_matrix(self):
        lay = layout(("A", 2))
        m = np.diag([1.0 + 0.5 * self.PSD, -0.5 * self.PSD])
        np.testing.assert_allclose(
            DensityOperator.from_matrix(lay, m).matrix, np.diag([1.0, 0.0]), rtol=0, atol=1e-15
        )
        with pytest.raises(ValueError, match="matrix not PSD: lowest eigenvalue -2.000e-09"):
            DensityOperator.from_matrix(lay, np.diag([1.0 + 2 * self.PSD, -2 * self.PSD]))

    def test_hermiticity_and_trace_still_checked(self):
        lay = layout(("A", 2))
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityOperator.from_matrix(lay, np.array([[0.5, 0.1], [0.0, 0.5]]))
        with pytest.raises(ValueError, match="trace"):
            DensityOperator.from_matrix(lay, np.diag([0.5, 0.6]))
        with pytest.raises(DimensionMismatchError, match="square matrix of side 2"):
            DensityOperator.from_matrix(lay, np.eye(3) / 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        with pytest.raises(ValueError, match="NaN or infinite"):
            DensityOperator.from_matrix(layout(("A", 2)), np.full((2, 2), bad))
        m = np.diag([1.0, 0.0]).astype(complex)
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            DensityOperator.from_matrix(layout(("A", 2)), m)

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_from_matrix_matches_the_dense_state_at_every_rank(self, d):
        """rho = sum_k w_k v_k v_k^dag, formed entry by entry, for ranks 1..D:
        the factor has one column per nonzero weight and forms rho again."""
        rng = np.random.default_rng(40 + d)
        lay = layout(("A", d))
        u = random_unitary(d, rng)
        for rank in range(1, d + 1):
            w = rng.uniform(0.5, 1.5, rank)
            rho = brute_density(list(u[:, :rank].T), w / w.sum())
            made = DensityOperator.from_matrix(lay, rho)
            np.testing.assert_allclose(made.matrix, rho, rtol=0, atol=1e-14)
            assert made.factor.shape[1] == rank

    @pytest.mark.parametrize("dims", [(2,), (2, 2), (2, 3), (4, 3), (2, 3, 4)])
    def test_from_matrix_keeps_the_rank_of_a_factored_state(self, dims):
        """A rank-r state made dense and factored again keeps r columns: the
        eigenvalues that rounding leaves in place of zeros are cut."""
        lay = layout(*((f"S{i}", d) for i, d in enumerate(dims)))
        rng = np.random.default_rng(list(dims))
        for rank in range(1, lay.dim + 1):
            rho = random_density(lay, rng, rank=rank)
            made = DensityOperator.from_matrix(lay, rho.matrix)
            assert made.factor.shape == (lay.dim, rank)
            np.testing.assert_allclose(made.matrix, rho.matrix, rtol=0, atol=1e-14)

    def test_a_dense_matrix_given_as_the_factor(self):
        """A mixed rho given where the factor goes fails the trace check, since
        ||rho||_F^2 is its purity; a pure rho gives rho rho^dag = rho."""
        lay = layout(("A", 2))
        with pytest.raises(ValueError, match=r"trace 0.5\+0j is not 1"):
            DensityOperator(lay, np.eye(2) / 2)
        v = rand_vec(2)
        pure = np.outer(v, v.conj())
        np.testing.assert_allclose(DensityOperator(lay, pure).matrix, pure, rtol=0, atol=1e-15)


class TestTensor:
    def test_basis_kets(self):
        a = basis_state(layout(("A", 2)), 0)
        b = basis_state(layout(("B", 2)), 0)
        out = tensor(a, b)
        np.testing.assert_array_equal(out.amplitudes, [1, 0, 0, 0])
        assert out.layout.labels == ("A", "B")

    def test_maximally_mixed_factors(self):
        a = DensityOperator.from_matrix(layout(("A", 2)), np.eye(2) / 2)
        b = DensityOperator.from_matrix(layout(("B", 3)), np.eye(3) / 3)
        out = tensor(a, b)
        np.testing.assert_allclose(out.matrix, np.eye(6) / 6)

    def test_mixed_states_stay_factored(self):
        """kron(M_a, M_b) is a factor of rho_a (x) rho_b, with ra * rb columns."""
        a = random_density(layout(("A", 2)), RNG, rank=2)
        b = random_density(layout(("B", 3)), RNG, rank=1)
        out = tensor(a, b)
        assert out.factor.shape == (6, 2)
        np.testing.assert_allclose(
            out.matrix, brute_kron(a.matrix, b.matrix), rtol=0, atol=1e-15
        )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_norm_multiplicative(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        sa = StateVector(layout(("A", 3)), a, normalized=False)
        sb = StateVector(layout(("B", 2)), b, normalized=False)
        out = tensor(sa, sb)
        assert out.norm() == pytest.approx(sa.norm() * sb.norm(), abs=1e-12)

    def test_label_collision(self):
        a = basis_state(layout(("A", 2)), 0)
        with pytest.raises(LayoutConflictError):
            tensor(a, a)

    def test_mixed_kinds_rejected(self):
        a = basis_state(layout(("A", 2)), 0)
        b = random_density(layout(("B", 2)), RNG)
        with pytest.raises(TypeError):
            tensor(a, b)


class TestPartialTrace:
    def test_product_state(self):
        a, b = rand_vec(3), rand_vec(2)
        state = tensor(
            StateVector(layout(("A", 3)), a), StateVector(layout(("B", 2)), b)
        )
        red = partial_trace(state, {"B"})
        np.testing.assert_allclose(red.matrix, np.outer(a, a.conj()), atol=1e-12)

    def test_bell_state(self):
        bell = StateVector(layout(("A", 2), ("B", 2)), np.array([1, 0, 0, 1]) / np.sqrt(2))
        red = partial_trace(bell, {"B"})
        np.testing.assert_allclose(red.matrix, np.eye(2) / 2, atol=1e-12)

    def test_sequential_equals_joint_on_tripartite(self):
        lay = layout(("A", 2), ("B", 2), ("C", 2))
        state = random_state(lay, RNG)
        two_step = partial_trace(partial_trace(state, {"C"}), {"B"})
        joint = partial_trace(state, {"B", "C"})
        np.testing.assert_allclose(two_step.matrix, joint.matrix, atol=1e-12)
        expected = brute_partial_trace(state.density().matrix, (2, 2, 2), [0])
        np.testing.assert_allclose(joint.matrix, expected, atol=1e-12)

    def test_against_brute_force_mixed(self):
        lay = layout(("A", 2), ("B", 3))
        rho = random_density(lay, RNG)
        red = partial_trace(rho, {"A"})
        expected = brute_partial_trace(rho.matrix, (2, 3), [1])
        np.testing.assert_allclose(red.matrix, expected, atol=1e-12)

    def test_keep_middle_subsystem(self):
        lay = layout(("A", 2), ("B", 3), ("C", 4))
        rho = random_density(lay, RNG)
        red = partial_trace(rho, {"A", "C"})
        assert red.layout.labels == ("B",)
        expected = brute_partial_trace(rho.matrix, (2, 3, 4), [1])
        np.testing.assert_allclose(red.matrix, expected, atol=1e-12)

    def test_keep_non_adjacent_subsystems(self):
        lay = layout(("A", 2), ("B", 3), ("C", 4))
        psi = random_state(lay, RNG)
        red = partial_trace(psi, {"B"})
        assert red.layout.labels == ("A", "C")
        expected = brute_partial_trace(psi.density().matrix, (2, 3, 4), [0, 2])
        np.testing.assert_allclose(red.matrix, expected, atol=1e-12)

    def test_degenerate_remainder(self):
        state = random_state(layout(("A", 2), ("B", 2)), RNG)
        with pytest.raises(DegenerateLayoutError):
            partial_trace(state, {"A", "B"})

    def test_unknown_label(self):
        state = random_state(layout(("A", 2)), RNG)
        with pytest.raises(LayoutConflictError):
            partial_trace(state, {"Z"})

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 4), st.integers(2, 4))
    def test_under_trace_commutativity(self, seed, da, db):
        # tr_B(Y_B X_AB) == tr_B(X_AB Y_B) for arbitrary operators
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((da * db,) * 2) + 1j * rng.standard_normal((da * db,) * 2)
        y = np.kron(
            np.eye(da),
            rng.standard_normal((db, db)) + 1j * rng.standard_normal((db, db)),
        )
        lhs = partial_trace_matrix(y @ x, (da, db), [0])
        rhs = partial_trace_matrix(x @ y, (da, db), [0])
        assert np.linalg.norm(lhs - rhs) <= 1e-10


class TestPartialScalarProduct:
    def test_product_state(self):
        a, b = rand_vec(3), rand_vec(2)
        state = tensor(
            StateVector(layout(("A", 3)), a), StateVector(layout(("B", 2)), b)
        )
        out = partial_scalar_product(b, "B", state)
        assert not out.normalized
        np.testing.assert_allclose(out.amplitudes, a, atol=1e-12)

    def test_bell_single_term(self):
        bell = StateVector(layout(("A", 2), ("B", 2)), np.array([1, 0, 0, 1]) / np.sqrt(2))
        out = partial_scalar_product(np.array([0.0, 1.0]), "B", bell)
        np.testing.assert_allclose(out.amplitudes, [0, 1 / np.sqrt(2)], atol=1e-15)

    def test_matches_brute_force(self):
        lay = layout(("A", 3), ("B", 4))
        state = random_state(lay, RNG)
        bra = rand_vec(4)
        out = partial_scalar_product(bra, "B", state)
        expected = brute_partial_scalar_product(bra, 1, state.amplitudes, (3, 4))
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_middle_subsystem(self):
        lay = layout(("A", 2), ("B", 3), ("C", 2))
        state = random_state(lay, RNG)
        bra = rand_vec(3)
        out = partial_scalar_product(bra, "B", state)
        assert out.layout.labels == ("A", "C")
        expected = brute_partial_scalar_product(bra, 1, state.amplitudes, (2, 3, 2))
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        state = random_state(layout(("A", 2), ("B", 2)), RNG)
        with pytest.raises(DimensionMismatchError):
            partial_scalar_product(np.zeros(3), "B", state)


class TestExpandInBasis:
    def test_product_state_single_coefficient(self):
        a, b = rand_vec(2), rand_vec(3)
        state = tensor(
            StateVector(layout(("A", 2)), a), StateVector(layout(("B", 3)), b)
        )
        basis = SubsystemBasis("B", tuple(complete_orthonormal([b], 3)))
        coeffs = expand_in_basis(state, basis)
        norms = [c.norm() for _, c in coeffs]
        assert norms[0] == pytest.approx(1.0, abs=1e-12)
        assert max(norms[1:]) <= 1e-12

    def test_reconstruction_and_weights(self):
        lay = layout(("A", 3), ("B", 4))
        state = random_state(lay, RNG)
        q = random_unitary(4, RNG)
        basis = SubsystemBasis("B", tuple(q[:, i] for i in range(4)))
        coeffs = expand_in_basis(state, basis)
        assert sum(c.norm() ** 2 for _, c in coeffs) == pytest.approx(1.0, abs=1e-10)
        resum = sum(
            tensor(c, StateVector(layout(("B", 4)), basis.vectors[n], normalized=False)).amplitudes
            for n, c in coeffs
        )
        np.testing.assert_allclose(resum, state.amplitudes, atol=1e-10)

    def test_sub_basis_completed(self):
        lay = layout(("A", 2), ("B", 3))
        state = random_state(lay, RNG)
        basis = SubsystemBasis("B", (np.array([1.0, 0, 0], dtype=complex),))
        coeffs = expand_in_basis(state, basis)
        assert len(coeffs) == 3
        assert sum(c.norm() ** 2 for _, c in coeffs) == pytest.approx(1.0, abs=1e-10)

    def test_coefficient_equals_psp(self):
        lay = layout(("A", 3), ("B", 4))
        state = random_state(lay, RNG)
        q = random_unitary(4, RNG)
        basis = SubsystemBasis("B", tuple(q[:, i] for i in range(4)))
        coeffs = expand_in_basis(state, basis)
        for n, c in coeffs:
            psp = partial_scalar_product(basis.vectors[n], "B", state)
            np.testing.assert_allclose(c.amplitudes, psp.amplitudes, atol=1e-12)

    def test_non_orthonormal_rejected(self):
        with pytest.raises(NonOrthonormalBasisError):
            SubsystemBasis("B", (np.array([1.0, 0]), np.array([1.0, 0])))


class TestEmbedOperator:
    """The dense oracle the local-operator tests compare against."""

    def test_identity(self):
        lay = layout(("A", 2), ("B", 3))
        np.testing.assert_array_equal(
            embed_operator(np.eye(3), "B", lay), np.eye(6)
        )

    def test_pauli_z_first_qubit(self):
        lay = layout(("A", 2), ("B", 2))
        z = np.diag([1.0, -1.0])
        np.testing.assert_array_equal(
            embed_operator(z, "A", lay), np.diag([1.0, 1.0, -1.0, -1.0])
        )

    def test_reduced_expectation_oracle(self):
        lay = layout(("A", 2), ("B", 3), ("C", 2))
        rho = random_density(lay, RNG)
        op = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
        full = np.trace(embed_operator(op, "B", lay) @ rho.matrix)
        reduced = brute_partial_trace(rho.matrix, (2, 3, 2), [1])
        assert full == pytest.approx(np.trace(op @ reduced), abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            embed_operator(np.eye(2), "B", layout(("A", 2), ("B", 3)))


class TestCompletion:
    def test_deterministic(self):
        v = rand_vec(4)
        first = complete_orthonormal([v], 4)
        second = complete_orthonormal([v], 4)
        for x, y in zip(first, second):
            np.testing.assert_array_equal(x, y)

    def test_orthonormal_and_full(self):
        vs = [rand_vec(5)]
        full = complete_orthonormal(vs, 5)
        m = np.column_stack(full)
        np.testing.assert_allclose(m.conj().T @ m, np.eye(5), atol=1e-12)

    def test_keeps_input_first(self):
        v = rand_vec(3)
        full = complete_orthonormal([v], 3)
        np.testing.assert_array_equal(full[0], v)
