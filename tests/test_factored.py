"""Factored reduced states (rho = M M^dag) against the dense route.

Every analysis that builds or compares states through factors is checked
against dense matrices formed entry by entry (``oracles.brute_density``) and
reduced by brute force, on 3-5 subsystem layouts with the subject first, in
the middle and last, for a pure state and for a three-member ensemble.  The
branch kernels, which apply an observable's branch through its eigenbasis
block, are checked the same way on a pointer with an idle complement
branch, also for a state given as a dense matrix and factored by
``DensityOperator.from_matrix``.
"""

import numpy as np
import pytest

from vnchain import (
    DecompositionOfIdentity,
    DensityOperator,
    DimensionMismatchError,
    StateVector,
    SubsystemBasis,
    branch_decomposition,
    build_ideal,
    WeightedEnsemble,
    ensemble_update,
    improper_mixture,
    layout,
    observable_from_matrix,
    offdiagonal_block_norm,
    partial_trace,
    projector_distance,
    random_density,
    random_state,
    random_unitary,
    tensor,
    trace_distance,
    world_branches,
)
from vnchain.hilbert import factor_difference

from oracles import (
    brute_cross_block_norm,
    brute_density,
    brute_eigenbasis_projectors,
    brute_partial_trace,
    brute_trace_distance,
    embed_operator,
    flat_index,
    projector_onto,
)
from test_local_operator import CASES, lay_for, rank_event

KINDS = ["pure", "ensemble"]
WEIGHTS = (0.2, 0.5, 0.3)


def sample(dims, kind, rng):
    """(factored state, its member vectors, their weights)."""
    lay = lay_for(dims)
    if kind == "pure":
        psi = random_state(lay, rng)
        return psi, [psi.amplitudes], [1.0]
    members = [random_state(lay, rng) for _ in WEIGHTS]
    ens = WeightedEnsemble(tuple(zip(WEIGHTS, members)))
    return ens.density(), [s.amplitudes for s in members], list(WEIGHTS)


def decomposition(subsystem, d, rng):
    return DecompositionOfIdentity.from_blocks(subsystem, rank_event(d, rng))


def dense_branch(rho, p, subsystem, lay, keep):
    """Weight tr(rho P) and conditional tr_rest(P rho P) / w, all dense."""
    emb = embed_operator(p, subsystem, lay)
    w = float(np.real(np.trace(emb @ rho)))
    return w, brute_partial_trace(emb @ rho @ emb, lay.dims, keep) / w


def keep_of(dims, axis):
    return [i for i in range(len(dims)) if i != axis]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dims,axis", CASES)
def test_partial_trace(dims, axis, kind):
    rng = np.random.default_rng(2000 + 10 * axis + len(dims))
    state, vectors, weights = sample(dims, kind, rng)
    red = partial_trace(state, {f"S{axis}"})
    assert "matrix" not in vars(red)
    expected = brute_partial_trace(brute_density(vectors, weights), dims, keep_of(dims, axis))
    np.testing.assert_allclose(red.matrix, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dims,axis", CASES)
def test_improper_mixture_and_world_branches(dims, axis, kind):
    rng = np.random.default_rng(2100 + 10 * axis + len(dims))
    state, vectors, weights = sample(dims, kind, rng)
    rho = brute_density(vectors, weights)
    subject, d = f"S{axis}", dims[axis]
    dec = decomposition(subject, d, rng)
    h = random_unitary(d, rng)
    pointer = observable_from_matrix((h * np.arange(d)) @ h.conj().T, subject)
    for bd, projectors in (
        (improper_mixture(state, dec), dec.projectors),
        (world_branches(state, pointer), [b.projector for b in pointer.branches]),
    ):
        assert bd.indices == tuple(range(len(projectors)))
        for b in bd.branches:
            w, comp = dense_branch(
                rho, projectors[b.index], subject, state.layout, keep_of(dims, axis)
            )
            assert b.weight == pytest.approx(w, abs=1e-12)
            assert "matrix" not in vars(b.component)
            np.testing.assert_allclose(b.component.matrix, comp, rtol=0, atol=1e-12)


def idle_pointer(subject, d, rng):
    """The pointer ``build_ideal`` makes from n = max(1, d // 2) random pointer
    states on ``subject``: n rank-one branches and an idle complement branch of
    rank d - n (eigenvalue -1, first), with its (eigenvalue, projector) pairs
    from the dense oracle."""
    n = max(1, d // 2)
    u = random_unitary(d, rng)
    measured = observable_from_matrix(np.diag(np.arange(n, dtype=float)), "X")
    states = SubsystemBasis(subject, tuple(u[:, k] for k in range(n)))
    pm = build_ideal(measured, states, StateVector(layout((subject, d)), u[:, 0]))
    pairs = brute_eigenbasis_projectors(range(n), [u[:, k : k + 1] for k in range(n)], -1.0)
    assert pm.pointer.eigenvalues == tuple(e for e, _ in pairs)
    assert pm.pointer.branches[0].rank == d - n
    return pm.pointer, [proj for _, proj in pairs]


def dense_sample(dims, rng):
    """A full-rank state given as a dense matrix, factored by ``from_matrix``."""
    rho = np.array(random_density(lay_for(dims), rng).matrix)
    return DensityOperator.from_matrix(lay_for(dims), rho), rho


STATE_KINDS = ["pure", "ensemble", "dense"]


def state_of_kind(dims, kind, rng):
    """(state, its dense density matrix) for a pure, factored or dense state."""
    if kind == "dense":
        return dense_sample(dims, rng)
    state, vectors, weights = sample(dims, kind, rng)
    return state, brute_density(vectors, weights)


@pytest.mark.parametrize("kind", STATE_KINDS)
@pytest.mark.parametrize("dims,axis", CASES)
def test_idle_pointer_branches(dims, axis, kind):
    """improper_mixture / world_branches through the eigenbasis blocks of a
    pointer with an idle complement, against dense projectors."""
    rng = np.random.default_rng(2600 + 10 * axis + len(dims))
    state, rho = state_of_kind(dims, kind, rng)
    subject = f"S{axis}"
    pointer, projectors = idle_pointer(subject, dims[axis], rng)
    results = [improper_mixture(state, pointer.decomposition())]
    if kind == "pure":
        results.append(world_branches(state, pointer))
    for bd in results:
        assert bd.indices == tuple(range(len(projectors)))
        assert sum(bd.weights) + bd.dropped_weight == pytest.approx(1.0, abs=1e-12)
        for b in bd.branches:
            w, comp = dense_branch(
                rho, projectors[b.index], subject, state.layout, keep_of(dims, axis)
            )
            assert b.weight == pytest.approx(w, abs=1e-12)
            assert "matrix" not in vars(b.component)
            np.testing.assert_allclose(b.component.matrix, comp, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", STATE_KINDS)
@pytest.mark.parametrize("dims,axis", CASES)
def test_idle_pointer_offdiagonal_blocks(dims, axis, kind):
    rng = np.random.default_rng(2700 + 10 * axis + len(dims))
    state, rho = state_of_kind(dims, kind, rng)
    if kind == "pure":
        state = state.density()
    subject = f"S{axis}"
    pointer, projectors = idle_pointer(subject, dims[axis], rng)
    expected = brute_cross_block_norm(rho, projectors, subject, state.layout)
    assert expected > 1e-3
    got = offdiagonal_block_norm(state, pointer.decomposition())
    assert got == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("dims,axis", CASES)
def test_idle_pointer_branch_decomposition(dims, axis):
    rng = np.random.default_rng(2800 + 10 * axis + len(dims))
    psi = random_state(lay_for(dims), rng)
    pointer, projectors = idle_pointer(f"S{axis}", dims[axis], rng)
    bd = branch_decomposition(psi, pointer)
    assert bd.indices == tuple(range(len(projectors)))
    for b in bd.branches:
        vec = embed_operator(projectors[b.index], f"S{axis}", psi.layout) @ psi.amplitudes
        w = float(np.real(np.vdot(vec, vec)))
        assert b.weight == pytest.approx(w, abs=1e-12)
        np.testing.assert_allclose(b.component.amplitudes, vec / np.sqrt(w), rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dims,axis", CASES)
def test_ensemble_update_members_and_aggregate(dims, axis, kind):
    rng = np.random.default_rng(2200 + 10 * axis + len(dims))
    _, vectors, weights = sample(dims, kind, rng)
    lay = lay_for(dims)
    ens = WeightedEnsemble(tuple((w, StateVector(lay, v)) for w, v in zip(weights, vectors)))
    subject = f"S{axis}"
    event, _ = rank_event(dims[axis], rng)
    p = projector_onto(event)
    res = ensemble_update(ens, event, subject)
    keep = keep_of(dims, axis)
    member_probs = [dense_branch(brute_density(v), p, subject, lay, keep) for v in vectors]
    total = sum(w * q for w, (q, _) in zip(weights, member_probs))
    assert res.occurrence_probability == pytest.approx(total, abs=1e-12)
    assert res.indices == tuple(range(len(vectors)))
    for m in res.members:
        q, comp = member_probs[m.index]
        assert m.weight == pytest.approx(weights[m.index] * q / total, abs=1e-12)
        assert m.state.factor is not None
        np.testing.assert_allclose(m.state.matrix, comp, rtol=0, atol=1e-12)
    _, aggregate = dense_branch(brute_density(vectors, weights), p, subject, lay, keep)
    assert res.aggregate.factor is not None
    np.testing.assert_allclose(res.aggregate.matrix, aggregate, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dims,axis", CASES)
def test_trace_distance(dims, axis, kind):
    rng = np.random.default_rng(2300 + 10 * axis + len(dims))
    state, vectors, weights = sample(dims, kind, rng)
    bd = improper_mixture(state, decomposition(f"S{axis}", dims[axis], rng))
    a, b = (br.component for br in bd.branches)
    ma, mb = (brute_density(list(f.T)) for f in (a.factor, b.factor))
    expected = brute_trace_distance(ma, mb)
    assert trace_distance(a, b) == pytest.approx(expected, abs=1e-12)
    assert trace_distance(a, a) <= 1e-14
    # a state given as a dense matrix is factored once and gives the same value
    dense_b = DensityOperator.from_matrix(b.layout, mb)
    assert trace_distance(a, dense_b) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dims,axis", CASES)
def test_offdiagonal_block_norm(dims, axis, kind):
    rng = np.random.default_rng(2400 + 10 * axis + len(dims))
    state, vectors, weights = sample(dims, kind, rng)
    rho = state if kind == "ensemble" else state.density()
    dense = brute_density(vectors, weights)
    subject, d = f"S{axis}", dims[axis]
    q = random_unitary(d, rng)
    projectors = tuple(np.outer(q[:, i], q[:, i].conj()) for i in range(d))
    dec = DecompositionOfIdentity.from_blocks(subject, [q[:, i : i + 1] for i in range(d)])
    expected = brute_cross_block_norm(dense, projectors, subject, rho.layout)
    assert offdiagonal_block_norm(rho, dec) == pytest.approx(expected, abs=1e-12)
    from_dense = DensityOperator.from_matrix(rho.layout, dense)
    assert offdiagonal_block_norm(from_dense, dec) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dims,axis", CASES)
def test_resummation_residual(dims, axis, kind):
    """The residual ||sum_n w_n rho_n - rho_red||_F as the improper-mixture
    analysis computes it, exact and with one branch weight off by 1e-3."""
    rng = np.random.default_rng(2500 + 10 * axis + len(dims))
    state, vectors, weights = sample(dims, kind, rng)
    subject = f"S{axis}"
    bd = improper_mixture(state, decomposition(subject, dims[axis], rng))
    reduced = partial_trace(state, {subject})
    dense_red = brute_partial_trace(brute_density(vectors, weights), dims, keep_of(dims, axis))
    for scale in (1.0, 1.001):
        ws = [b.weight * (scale if i == 0 else 1.0) for i, b in enumerate(bd.branches)]
        resum = np.hstack([np.sqrt(w) * b.component.factor for w, b in zip(ws, bd.branches)])
        residual = float(np.linalg.norm(factor_difference(resum, reduced.factor)))
        dense_resum = sum(
            w * brute_density(list(b.component.factor.T)) for w, b in zip(ws, bd.branches)
        )
        expected = float(np.linalg.norm(dense_resum - dense_red))
        assert residual == pytest.approx(expected, abs=1e-12)
        if scale == 1.0:
            assert residual <= 1e-14


class TestFromFactor:
    """The constructor takes the factor M of rho = M M^dag."""

    LAY = layout(("A", 2), ("B", 3))

    def factor(self, rng, r=2):
        m = rng.standard_normal((6, r)) + 1j * rng.standard_normal((6, r))
        return m / np.linalg.norm(m)

    def test_matrix_formed_once_on_read_and_read_only(self):
        m = self.factor(np.random.default_rng(1))
        rho = DensityOperator(self.LAY, m)
        assert "matrix" not in vars(rho)
        first = rho.matrix
        assert first is rho.matrix
        assert not first.flags.writeable
        np.testing.assert_array_equal(first, m @ m.conj().T)
        with pytest.raises(ValueError):
            first[0, 0] = 0
        with pytest.raises(AttributeError):
            rho.matrix = np.eye(6) / 6
        np.testing.assert_array_equal(rho.factor, m)
        assert not rho.factor.flags.writeable

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_rejected(self, bad):
        m = self.factor(np.random.default_rng(2)).astype(complex)
        m[3, 1] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            DensityOperator(self.LAY, m)

    def test_non_unit_trace_rejected(self):
        m = self.factor(np.random.default_rng(3)) * 1.01
        tr = np.vdot(m, m)
        with pytest.raises(ValueError) as info:
            DensityOperator(self.LAY, m)
        assert str(info.value) == f"trace {complex(tr):.12g} is not 1 within {1e-10}"

    @pytest.mark.parametrize("shape", [(6,), (5, 2), (6, 2, 1)])
    def test_shape_checked(self, shape):
        with pytest.raises(DimensionMismatchError):
            DensityOperator(self.LAY, np.full(shape, 0.1))

    def test_dense_constructor_keeps_every_check(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityOperator.from_matrix(layout(("A", 2)), np.array([[0.5, 0.1], [0.0, 0.5]]))
        with pytest.raises(ValueError, match="not PSD"):
            DensityOperator.from_matrix(layout(("A", 2)), np.diag([1.5, -0.5]))
        rho = DensityOperator.from_matrix(layout(("A", 2)), np.eye(2) / 2)
        assert rho.factor.shape == (2, 2)

    def test_attribute_errors_stay_attribute_errors(self):
        rho = DensityOperator(self.LAY, self.factor(np.random.default_rng(4)))
        with pytest.raises(AttributeError, match="no attribute 'no_such_attribute'"):
            rho.no_such_attribute

    def test_repr_shows_the_layout_not_the_factor(self):
        rho = DensityOperator(self.LAY, self.factor(np.random.default_rng(5)))
        assert repr(rho) == f"DensityOperator(layout={self.LAY!r})"
        assert "matrix" not in vars(rho)


def permuted_dense(rho, dims, perm):
    """rho with its subsystems in the order ``perm``, entry by entry."""
    new_dims = [dims[p] for p in perm]
    out = np.zeros_like(rho)
    for row in np.ndindex(*dims):
        for col in np.ndindex(*dims):
            new_row, new_col = [row[p] for p in perm], [col[p] for p in perm]
            out[flat_index(new_row, new_dims), flat_index(new_col, new_dims)] = rho[
                flat_index(row, dims), flat_index(col, dims)
            ]
    return out


class TestStaysFactored:
    """reorder, relabeled, tensor and partial_trace of a mixed state carry
    its factor and form no dense matrix."""

    LAY = layout(("A", 2), ("B", 3), ("C", 2))

    def state(self, seed, rank=2):
        return random_density(self.LAY, np.random.default_rng(seed), rank=rank)

    def test_reorder_permutes_the_rows_of_the_factor(self):
        rho = self.state(10)
        out = rho.reorder(["C", "A", "B"])
        assert out.layout.labels == ("C", "A", "B")
        assert out.factor.shape == (12, 2) and "matrix" not in vars(out)
        dense = brute_density(list(rho.factor.T))
        np.testing.assert_allclose(
            out.matrix, permuted_dense(dense, (2, 3, 2), (2, 0, 1)), rtol=0, atol=1e-15
        )

    def test_relabeled_reuses_the_factor(self):
        rho = self.state(11)
        out = rho.relabeled({"B": "B2"})
        assert out.layout.labels == ("A", "B2", "C")
        assert "matrix" not in vars(out)
        np.testing.assert_array_equal(out.factor, rho.factor)

    def test_tensor_is_the_kronecker_product_of_the_factors(self):
        a, b = self.state(12), random_density(layout(("D", 2)), np.random.default_rng(13), rank=1)
        out = tensor(a, b)
        assert out.factor.shape == (24, 2) and "matrix" not in vars(out)
        np.testing.assert_allclose(out.matrix, np.kron(a.matrix, b.matrix), rtol=0, atol=1e-15)

    def test_partial_trace_of_a_mixed_state(self):
        rho = self.state(14, rank=3)
        red = partial_trace(rho, {"B"})
        assert red.factor.shape == (4, 9) and "matrix" not in vars(red)
        expected = brute_partial_trace(brute_density(list(rho.factor.T)), (2, 3, 2), [0, 2])
        np.testing.assert_allclose(red.matrix, expected, rtol=0, atol=1e-15)


class TestDistancesNeedOneLayout:
    """States of different dimension are a ``DimensionMismatchError``."""

    def test_trace_distance(self):
        rng = np.random.default_rng(15)
        a = random_density(layout(("A", 2), ("B", 3)), rng)
        b = random_density(layout(("A", 2), ("B", 2)), rng)
        with pytest.raises(DimensionMismatchError, match="trace distance"):
            trace_distance(a, b)

    def test_projector_distance(self):
        rng = np.random.default_rng(16)
        a = random_state(layout(("A", 2), ("B", 3)), rng)
        b = random_state(layout(("A", 4)), rng)
        with pytest.raises(DimensionMismatchError, match="projector distance"):
            projector_distance(a, b)


@pytest.mark.parametrize("rank", [0, -1])
def test_random_density_rejects_rank_below_one(rank):
    rng = np.random.default_rng(17)
    with pytest.raises(ValueError, match=f"rank must be >= 1, got {rank}"):
        random_density(layout(("A", 2)), rng, rank=rank)
    # rejected before any draw
    assert rng.random() == np.random.default_rng(17).random()


def test_factor_difference_norms_match_dense():
    rng = np.random.default_rng(6)
    for d, ra, rb in [(24, 2, 3), (3, 4, 2), (96, 1, 1)]:
        a = rng.standard_normal((d, ra)) + 1j * rng.standard_normal((d, ra))
        b = rng.standard_normal((d, rb)) + 1j * rng.standard_normal((d, rb))
        small = factor_difference(a, b)
        diff = a @ a.conj().T - b @ b.conj().T
        assert np.linalg.norm(small) == pytest.approx(np.linalg.norm(diff), rel=1e-12)
        assert np.linalg.norm(small, "nuc") == pytest.approx(
            np.sum(np.abs(np.linalg.eigvalsh(diff))), rel=1e-12
        )


class TestProjectorDistance:
    LAY = layout(("A", 3), ("B", 4))

    @staticmethod
    def dense(a, b):
        return float(np.linalg.norm(brute_density(a.amplitudes) - brute_density(b.amplitudes)))

    @pytest.mark.parametrize("eps", [0.0, 1e-12, 1e-9, 1e-6, 1e-3])
    def test_near_equal_pairs(self, eps):
        rng = np.random.default_rng(7)
        a = random_state(self.LAY, rng)
        kick = random_state(self.LAY, rng).amplitudes
        raw = np.exp(0.3j) * a.amplitudes + eps * kick
        b = StateVector(self.LAY, raw / np.linalg.norm(raw))
        assert projector_distance(a, b) == pytest.approx(self.dense(a, b), abs=1e-14)

    def test_far_apart_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a, b = random_state(self.LAY, rng), random_state(self.LAY, rng)
            assert projector_distance(a, b) == pytest.approx(self.dense(a, b), abs=1e-14)

    def test_small_angle_keeps_its_digits(self):
        """|a> = |0>, |b> = cos t |0> + sin t |1>: the distance is sqrt(2) sin t,
        which 1 - |<a|b>|^2 would round to zero at t = 1e-9."""
        lay = layout(("A", 2))
        for t in (1e-9, 1e-5, 0.3):
            a = StateVector(lay, [1.0, 0.0])
            b = StateVector(lay, [np.cos(t), np.sin(t)])
            assert projector_distance(a, b) == pytest.approx(np.sqrt(2) * np.sin(t), rel=1e-12)


@pytest.mark.parametrize("qubits,residual,raises", [(10, 1.02e-7, False), (11, 1.5e-7, True)])
def test_ensemble_cross_check_bound_stops_growing_at_2_to_10(
    qubits, residual, raises, monkeypatch
):
    """The bound is reconstruction * min(D, 2**10): 1.024e-7 from D = 2**10 on."""
    import vnchain.chains as chains

    lay = layout(*[(f"q{i}", 2) for i in range(qubits + 1)])
    ens = WeightedEnsemble(((1.0, random_state(lay, np.random.default_rng(9))),))
    monkeypatch.setattr(chains, "factor_difference", lambda a, b: np.array([[residual]]))
    if raises:
        with pytest.raises(ArithmeticError, match="do not resum"):
            ensemble_update(ens, np.eye(2)[:, :1], "q0")
    else:
        ensemble_update(ens, np.eye(2)[:, :1], "q0")
