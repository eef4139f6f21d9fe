import numpy as np
import pytest

from vnchain import (
    PAULI_X,
    PAULI_Z,
    DecompositionOfIdentity,
    NotAProjectorError,
    SpectralBranch,
    SpectralObservable,
    check_decomposition,
    event_complement,
    observable_from_matrix,
    projector_onto,
    random_unitary,
)

RNG = np.random.default_rng(77)


class TestObservableFromMatrix:
    def test_pauli_z_branches(self):
        obs = observable_from_matrix(PAULI_Z, "A")
        assert obs.eigenvalues == (-1.0, 1.0)
        np.testing.assert_allclose(obs.projector(0), [[0, 0], [0, 1]], atol=1e-12)
        np.testing.assert_allclose(obs.projector(1), [[1, 0], [0, 0]], atol=1e-12)

    def test_full_degeneracy_merges(self):
        obs = observable_from_matrix(np.eye(3), "A")
        assert obs.branch_count == 1
        assert obs.eigenvalues == (1.0,)
        np.testing.assert_allclose(obs.projector(0), np.eye(3), atol=1e-12)

    def test_random_hermitian_reconstruction(self):
        for _ in range(20):
            h = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
            h = (h + h.conj().T) / 2
            obs = observable_from_matrix(h, "A")
            assert np.linalg.norm(obs.matrix() - h) <= 1e-9

    def test_rebuild_idempotent(self):
        h = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
        h = (h + h.conj().T) / 2
        first = observable_from_matrix(h, "A")
        second = observable_from_matrix(first.matrix(), "A")
        assert first.branch_count == second.branch_count
        for a, b in zip(first.branches, second.branches):
            assert abs(a.eigenvalue - b.eigenvalue) <= 1e-8
            assert np.linalg.norm(a.projector - b.projector) <= 1e-8

    def test_merge_tolerance_clusters(self):
        h = np.diag([0.0, 1e-12, 1.0])
        obs = observable_from_matrix(h, "A")
        assert obs.branch_count == 2
        assert obs.branches[0].rank == 2

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            observable_from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]), "A")

    def test_branch_count_bounded_by_dim(self):
        for d in (2, 3, 4):
            h = np.diag(np.arange(d, dtype=float))
            assert observable_from_matrix(h, "A").branch_count == d

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        with pytest.raises(ValueError, match="NaN or infinite"):
            observable_from_matrix(np.diag([bad, 1.0]), "A")


class TestSpectralObservableInvariants:
    def test_zero_projector_rejected(self):
        with pytest.raises(NotAProjectorError):
            SpectralObservable(
                "A",
                (
                    SpectralBranch(0, 0.0, np.zeros((2, 2))),
                    SpectralBranch(1, 1.0, np.eye(2)),
                ),
            )

    def test_eigenvalue_separation_enforced(self):
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        with pytest.raises(ValueError):
            SpectralObservable(
                "A", (SpectralBranch(0, 0.0, p0), SpectralBranch(1, 1e-12, p1))
            )

    def test_incomplete_family_rejected(self):
        with pytest.raises(NotAProjectorError):
            SpectralObservable("A", (SpectralBranch(0, 1.0, np.diag([1.0, 0.0])),))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_eigenvalue_rejected(self, bad):
        with pytest.raises(ValueError, match="not all finite"):
            SpectralObservable("A", (SpectralBranch(0, bad, np.eye(2)),))

    def test_non_finite_projector_rejected(self):
        with pytest.raises(ValueError, match="NaN or infinite"):
            SpectralBranch(0, 0.0, np.diag([np.nan, 1.0]))
        with pytest.raises(ValueError, match="NaN or infinite"):
            DecompositionOfIdentity("A", (np.diag([np.nan, 1.0]), np.eye(2)))


class TestCheckDecomposition:
    def test_canonical_qubit_passes(self):
        d = DecompositionOfIdentity("B", (np.diag([1.0, 0]), np.diag([0, 1.0])))
        report = check_decomposition(d)
        assert report.passed
        assert max(report.max_idempotency, report.max_orthogonality) <= 1e-15
        assert report.completeness <= 1e-15

    def test_duplicated_projector_fails(self):
        p = np.diag([1.0, 0.0])
        report = check_decomposition(DecompositionOfIdentity("B", (p, p)))
        assert not report.passed
        assert report.completeness > 0.5
        assert report.max_orthogonality > 0.5

    def test_conjugation_preserves_validity(self):
        for _ in range(10):
            u = random_unitary(4, RNG)
            projs = tuple(
                u @ p @ u.conj().T
                for p in (
                    np.diag([1.0, 0, 0, 0]),
                    np.diag([0, 1.0, 1.0, 0]),
                    np.diag([0, 0, 0, 1.0]),
                )
            )
            assert check_decomposition(DecompositionOfIdentity("B", projs)).passed

    def test_spectral_observable_decomposition_passes(self):
        h = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
        obs = observable_from_matrix((h + h.conj().T) / 2, "A")
        assert check_decomposition(obs.decomposition()).passed


class TestEventComplement:
    def test_complement_of_zero(self):
        np.testing.assert_array_equal(event_complement(np.zeros((3, 3))), np.eye(3))

    def test_complement_of_identity(self):
        np.testing.assert_allclose(event_complement(np.eye(3)), np.zeros((3, 3)))

    def test_rank_complements(self):
        from oracles import projector_rank

        for _ in range(10):
            d = int(RNG.integers(2, 6))
            r = int(RNG.integers(1, d))
            q = random_unitary(d, RNG)
            p = projector_onto([q[:, i] for i in range(r)])
            c = event_complement(p)
            assert projector_rank(p) == r
            assert projector_rank(c) == d - r
            assert check_decomposition(DecompositionOfIdentity("B", (p, c))).passed

    def test_non_projector_rejected(self):
        with pytest.raises(NotAProjectorError):
            event_complement(np.diag([0.5, 0.5]))

    def test_pauli_x_eigenprojector(self):
        obs = observable_from_matrix(PAULI_X, "A")
        c = event_complement(obs.projector(0))
        np.testing.assert_allclose(c, obs.projector(1), atol=1e-12)
