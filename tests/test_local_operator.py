"""The local-operator kernel against brute force, and every routine that uses
it against the dense route (``oracles.embed_operator``, ``kron(eye, U)``) it
replaced."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from vnchain import (
    DEFAULT,
    DecompositionOfIdentity,
    DensityOperator,
    DimensionMismatchError,
    SpectralObservable,
    StateVector,
    WeightedEnsemble,
    apply_local,
    branch_decomposition,
    build_exact,
    check_calibration,
    check_conditions,
    check_dynamical,
    check_probability_reproduction,
    complete_unitary,
    conditional_state,
    ensemble_update,
    evolve,
    extend_chain,
    improper_mixture,
    layout,
    monte_carlo_update,
    offdiagonal_block_norm,
    random_density,
    random_exact,
    random_ideal,
    random_range_unitary,
    random_state,
    random_unitary,
    tripartite_conditional_consistency,
)
from vnchain import chains
from vnchain.hilbert import partial_trace_matrix
from vnchain.scenarios import run, scenario_from_document
from vnchain.suites import corrupt_premeasurement

from oracles import (
    brute_apply_local,
    brute_density,
    brute_eigenbasis_projectors,
    brute_partial_trace,
    embed_operator,
    projector_onto,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "vnchain"

# (dims, target axes): 3-5 subsystems of dimension 2-4, target first, middle, last
LAYOUTS = [
    ((2, 3, 4), (0, 1, 2)),
    ((4, 2, 3, 2), (0, 2, 3)),
    ((3, 2, 2, 4, 2), (0, 2, 4)),
]
CASES = [(dims, axis) for dims, axes in LAYOUTS for axis in axes]


def rand_complex(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def labels_for(dims):
    return tuple(f"S{i}" for i in range(len(dims)))


def lay_for(dims):
    return layout(*zip(labels_for(dims), dims))


def rank_event(d, rng, rank=None):
    """The block of a random rank-r event, 1 <= r < d unless given, and the
    block of its complement: the first r columns of a Haar unitary and the rest."""
    q = random_unitary(d, rng)
    r = rank if rank is not None else int(rng.integers(1, d))
    return q[:, :r], q[:, r:]


class TestKernel:
    @pytest.mark.parametrize("dims,axis", CASES)
    def test_vector_matches_oracle(self, dims, axis):
        rng = np.random.default_rng(100 + axis)
        op = rand_complex((dims[axis], dims[axis]), rng)
        psi = rand_complex(math.prod(dims), rng)
        np.testing.assert_allclose(
            apply_local(op, psi, dims, axis), brute_apply_local(op, psi, dims, axis), atol=1e-12
        )

    @pytest.mark.parametrize("dims,axis", CASES)
    def test_density_both_sides_match_oracle(self, dims, axis):
        rng = np.random.default_rng(200 + axis)
        d, n = math.prod(dims), len(dims)
        op = rand_complex((dims[axis], dims[axis]), rng)
        rho = rand_complex((d, d), rng)
        dims2 = dims + dims
        for ax, o in ((axis, op), (n + axis, op.T)):
            expected = brute_apply_local(o, rho.reshape(-1), dims2, ax).reshape(d, d)
            np.testing.assert_allclose(apply_local(o, rho, dims2, ax), expected, atol=1e-12)
        # row side is the left product, column side (with op.T) the right product
        emb = embed_operator(op, f"S{axis}", lay_for(dims))
        np.testing.assert_allclose(apply_local(op, rho, dims2, axis), emb @ rho, atol=1e-12)
        np.testing.assert_allclose(apply_local(op.T, rho, dims2, n + axis), rho @ emb, atol=1e-12)

    @pytest.mark.parametrize("dims,axis", CASES)
    def test_batch_rows_apply_independently(self, dims, axis):
        rng = np.random.default_rng(300 + axis)
        op = rand_complex((dims[axis], dims[axis]), rng)
        rows = rand_complex((3, math.prod(dims)), rng)
        out = apply_local(op, rows, dims, axis)
        assert out.shape == rows.shape
        for row, got in zip(rows, out):
            np.testing.assert_allclose(got, brute_apply_local(op, row, dims, axis), atol=1e-12)

    @pytest.mark.parametrize("dims,axis", CASES)
    def test_isometry_widens_axis(self, dims, axis):
        rng = np.random.default_rng(400 + axis)
        iso = rand_complex((3 * dims[axis], dims[axis]), rng)
        psi = rand_complex(math.prod(dims), rng)
        out = apply_local(iso, psi, dims, axis)
        assert out.shape == (3 * psi.size,)
        np.testing.assert_allclose(out, brute_apply_local(iso, psi, dims, axis), atol=1e-12)

    @pytest.mark.parametrize("dims", [(2, 4, 3), (3, 2, 4)])
    @pytest.mark.parametrize("side", ["row", "column"])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("rows", [1, 5])
    def test_rectangular_operator_on_density_matrix(self, dims, side, axis, rows):
        """A (D, D) matrix over ``dims + dims`` has no batch axes: a (rows, d)
        operator on a row- or column-side axis returns the resized tensor
        flat, equal to an ``einsum`` over the (2n)-axis tensor."""
        rng = np.random.default_rng(450 + 10 * axis + rows)
        n, d = len(dims), math.prod(dims)
        ax = axis if side == "row" else n + axis
        op = rand_complex((rows, dims[axis]), rng)
        rho = rand_complex((d, d), rng)
        tens = list(range(2 * n))
        out_idx = tens[:ax] + [2 * n] + tens[ax + 1 :]
        expected = np.einsum(op, [2 * n, ax], rho.reshape(dims + dims), tens, out_idx)
        got = apply_local(op, rho, dims + dims, ax)
        assert got.shape == (expected.size,)
        np.testing.assert_allclose(got, expected.reshape(-1), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(3, 8), (13,), (2, 5, 3), ()])
    def test_values_not_ending_in_the_tensor(self, shape):
        with pytest.raises(DimensionMismatchError):
            apply_local(np.eye(3), np.ones(shape), (2, 2, 3), 2)

    def test_operator_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply_local(np.eye(3), np.ones(8), (2, 2, 2), 1)

    def test_values_not_filling_dims(self):
        with pytest.raises(DimensionMismatchError):
            apply_local(np.eye(2), np.ones(6), (2, 2), 0)


# ---------------------------------------------------------------------------
# Each rewritten routine against the dense route it replaced.


def dense_extend(state, pm):
    """Chain link the old way: reorder, kron with the ready state, kron(eye, U)."""
    lay = state.layout
    others = [label for label in lay.labels if label != pm.object_label]
    moved = state.reorder(others + [pm.object_label])
    amps = np.kron(moved.amplitudes, pm.ready_state.amplitudes)
    full_u = np.kron(np.eye(moved.layout.dim // pm.object_dim), complete_unitary(pm))
    tens = (full_u @ amps).reshape(moved.layout.dims + (pm.instrument_dim,))
    perm = [others.index(label) if label in others else len(others) for label in lay.labels]
    return tens.transpose(perm + [len(others) + 1]).reshape(-1)


def dense_condition(rho, p, subject, keep, sandwich=False):
    emb = embed_operator(p, subject, rho.layout)
    prod = emb @ rho.matrix @ emb if sandwich else rho.matrix @ emb
    w = float(np.real(np.trace(prod)))
    return w, partial_trace_matrix(prod, rho.layout.dims, keep) / w


class TestAgainstDenseRoute:
    @pytest.mark.parametrize("dims,axis", CASES)
    def test_extend_chain(self, dims, axis):
        rng = np.random.default_rng(500 + axis)
        state = random_state(lay_for(dims), rng)
        pm = random_ideal(f"S{axis}", "M", dims[axis], 3, rng)
        out = extend_chain(state, pm)
        assert out.layout.labels == labels_for(dims) + ("M",)
        np.testing.assert_allclose(out.amplitudes, dense_extend(state, pm), atol=1e-12)

    @pytest.mark.parametrize("dims,axis", CASES)
    def test_branch_decomposition(self, dims, axis):
        rng = np.random.default_rng(600 + axis)
        pm = random_ideal("X", f"S{axis}", 2, dims[axis], rng)
        state = random_state(lay_for(dims), rng)
        bd = branch_decomposition(state, pm.pointer)
        assert bd.indices == tuple(range(pm.pointer.branch_count))
        for b in bd.branches:
            f = embed_operator(pm.pointer.projector(b.index), f"S{axis}", state.layout)
            vec = f @ state.amplitudes
            w = float(np.real(np.vdot(vec, vec)))
            assert b.weight == pytest.approx(w, abs=1e-12)
            np.testing.assert_allclose(b.component.amplitudes, vec / np.sqrt(w), atol=1e-12)

    @pytest.mark.parametrize("dims,axis", CASES)
    @pytest.mark.parametrize("mixed", [False, True])
    def test_improper_mixture(self, dims, axis, mixed):
        rng = np.random.default_rng(700 + axis)
        lay = lay_for(dims)
        state = random_density(lay, rng) if mixed else random_state(lay, rng)
        rho = state if mixed else state.density()
        event, rest = rank_event(dims[axis], rng)
        bd = improper_mixture(state, DecompositionOfIdentity.from_blocks(f"S{axis}", (event, rest)))
        keep = [i for i in range(len(dims)) if i != axis]
        assert bd.indices == (0, 1)
        for b, proj in zip(bd.branches, (projector_onto(event), projector_onto(rest))):
            w, comp = dense_condition(rho, proj, f"S{axis}", keep)
            assert b.weight == pytest.approx(w, abs=1e-12)
            np.testing.assert_allclose(b.component.matrix, comp, atol=1e-12)

    def test_improper_mixture_idle_branch_dropped(self):
        rng = np.random.default_rng(17)
        pm = random_ideal("A", "B", 2, 3, rng)  # third pointer branch is idle
        final = evolve(pm, random_state(layout(("A", 2)), rng))
        bd = improper_mixture(final, pm.pointer.decomposition())
        assert len(bd.branches) == 2
        assert bd.dropped_weight <= 1e-12

    @pytest.mark.parametrize("dims,axis", CASES)
    @pytest.mark.parametrize("form", ["plain", "sandwich"])
    def test_conditional_state(self, dims, axis, form):
        rng = np.random.default_rng(800 + axis)
        rho = random_density(lay_for(dims), rng)
        event, _ = rank_event(dims[axis], rng)
        cond = conditional_state(rho, event, f"S{axis}", form=form)
        keep = [i for i in range(len(dims)) if i != axis]
        p = projector_onto(event)
        _, expected = dense_condition(rho, p, f"S{axis}", keep, sandwich=form == "sandwich")
        np.testing.assert_allclose(cond.matrix, expected, atol=1e-12)

    @pytest.mark.parametrize("dims,axis", CASES)
    def test_tripartite_conditional_consistency(self, dims, axis):
        rng = np.random.default_rng(900 + axis)
        rho = random_density(lay_for(dims), rng)
        event, _ = rank_event(dims[axis], rng)
        env = (axis + 1) % len(dims)
        via_full, via_reduced = tripartite_conditional_consistency(
            rho, event, f"S{axis}", f"S{env}"
        )
        keep = [i for i in range(len(dims)) if i not in (axis, env)]
        _, expected = dense_condition(rho, projector_onto(event), f"S{axis}", keep)
        np.testing.assert_allclose(via_full.matrix, expected, atol=1e-12)
        np.testing.assert_allclose(via_reduced.matrix, expected, atol=1e-12)

    @pytest.mark.parametrize("dims,axis", CASES)
    def test_ensemble_update_and_sampling(self, dims, axis):
        rng = np.random.default_rng(1000 + axis)
        lay = lay_for(dims)
        ens = WeightedEnsemble(tuple((w, random_state(lay, rng)) for w in (0.2, 0.5, 0.3)))
        event, _ = rank_event(dims[axis], rng)
        p = projector_onto(event)
        subject = f"S{axis}"
        res = ensemble_update(ens, event, subject)
        emb = embed_operator(p, subject, lay)
        keep = [i for i in range(len(dims)) if i != axis]
        probs = [float(np.real(np.vdot(s.amplitudes, emb @ s.amplitudes))) for _, s in ens.members]
        total = sum(w * q for (w, _), q in zip(ens.members, probs))
        assert res.occurrence_probability == pytest.approx(total, abs=1e-12)
        for m in res.members:
            s = ens.members[m.index][1]
            projected = emb @ s.amplitudes
            rho_k = np.outer(projected, projected.conj()) / probs[m.index]
            posterior = ens.weights[m.index] * probs[m.index] / total
            assert m.weight == pytest.approx(posterior, abs=1e-12)
            expected = partial_trace_matrix(rho_k, dims, keep)
            np.testing.assert_allclose(m.state.matrix, expected, atol=1e-12)
        _, aggregate = dense_condition(ens.density(), p, subject, keep)
        np.testing.assert_allclose(res.aggregate.matrix, aggregate, atol=1e-12)
        # the documented sampling order, with probabilities from the dense route
        mc = monte_carlo_update(ens, event, subject, 5_000, seed=5)
        sampler = np.random.default_rng(5)
        weights = np.array(ens.weights)
        members = sampler.choice(3, size=5_000, p=weights / weights.sum())
        accepted = sampler.random(5_000) < np.clip(probs, 0.0, 1.0)[members]
        assert mc.accepted_counts == tuple(np.bincount(members[accepted], minlength=3))

    @pytest.mark.parametrize("dims,axis", CASES)
    def test_offdiagonal_block_norm(self, dims, axis):
        rng = np.random.default_rng(1100 + axis)
        rho = random_density(lay_for(dims), rng)
        blocks = rank_event(dims[axis], rng)
        d = DecompositionOfIdentity.from_blocks(f"S{axis}", blocks)
        embs = [embed_operator(projector_onto(q), d.subsystem, rho.layout) for q in blocks]
        expected = max(
            float(np.linalg.norm(a @ rho.matrix @ b))
            for j, a in enumerate(embs)
            for k, b in enumerate(embs)
            if j != k
        )
        assert offdiagonal_block_norm(rho, d) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("da,db", [(2, 2), (3, 4), (4, 3)])
    def test_build_exact(self, da, db):
        rng = np.random.default_rng(1200 + da * db)
        ideal = random_ideal("A", "B", da, db, rng, n_branches=2)
        ranges = [ideal.pointer.branches[ideal.mapping[k]].basis for k in range(2)]
        dressings = [
            (random_unitary(da, rng), random_range_unitary(ranges[k], rng)) for k in range(2)
        ]
        dresser = sum(
            np.kron(v, w @ projector_onto(ranges[k])) for k, (v, w) in enumerate(dressings)
        )
        mapped = set(ideal.mapping.values())
        for j, br in enumerate(ideal.pointer.branches):
            if j not in mapped:
                dresser = dresser + embed_operator(br.projector, "B", ideal.layout)
        np.testing.assert_allclose(
            build_exact(ideal, dressings).isometry, dresser @ ideal.isometry, atol=1e-12
        )


def resized(dims, axis, size):
    return dims[:axis] + (size,) + dims[axis + 1 :]


def block_factor(d, rng):
    """L = Q^dag for a random orthonormal (d, r) block Q, r = max(1, d - 1),
    and the projector Q Q^dag summed column by column."""
    q = random_unitary(d, rng)[:, : max(1, d - 1)]
    return q.conj().T, brute_eigenbasis_projectors([0.0], [q])[0][1]


class TestFactorKernels:
    """The conditioning kernels with a rectangular factor L = Q^dag (not
    Hermitian), against L applied entry by entry on each side and against
    the dense projector F = L^dag L."""

    @pytest.mark.parametrize("dims,axis", CASES)
    def test_sandwich_of_dense_matrix(self, dims, axis):
        """A caller's dense matrix, factored once by ``from_matrix``, is
        conditioned through its factor: tr_rest(L rho L^dag) / w against L
        applied entry by entry on both sides of the dense matrix."""
        rng = np.random.default_rng(1400 + axis + 10 * len(dims))
        n = len(dims)
        dense = np.array(random_density(lay_for(dims), rng).matrix)
        rho = DensityOperator.from_matrix(lay_for(dims), dense)
        factor, f = block_factor(dims[axis], rng)
        keep = [i for i in range(n) if i != axis]
        w, m = chains._condition_vector(rho.factor.T, factor, dims, axis, keep)
        cond = m @ m.conj().T
        rows = resized(dims, axis, factor.shape[0])
        left = brute_apply_local(factor, dense.reshape(-1), dims + dims, axis)
        both = brute_apply_local(factor.conj(), left, rows + dims, n + axis)
        both = both.reshape(math.prod(rows), -1)
        assert w == pytest.approx(float(np.real(np.trace(both))), abs=1e-12)
        np.testing.assert_allclose(cond, brute_partial_trace(both, rows, keep) / w, atol=1e-12)
        w_dense, expected = dense_condition(rho, f, f"S{axis}", keep, sandwich=True)
        assert w == pytest.approx(w_dense, abs=1e-12)
        np.testing.assert_allclose(cond, expected, atol=1e-12)

    @pytest.mark.parametrize("dims,axis", CASES)
    def test_vector_batch(self, dims, axis):
        rng = np.random.default_rng(1500 + axis + 10 * len(dims))
        vectors = [random_state(lay_for(dims), rng).amplitudes for _ in range(3)]
        weights = (0.2, 0.5, 0.3)
        batch = np.stack([np.sqrt(w) * v for w, v in zip(weights, vectors)])
        factor, f = block_factor(dims[axis], rng)
        keep = [i for i in range(len(dims)) if i != axis]
        w, m = chains._condition_vector(batch, factor, dims, axis, keep)
        emb = embed_operator(f, f"S{axis}", lay_for(dims))
        projected = [emb @ v for v in vectors]
        w_dense = sum(
            wk * float(np.real(np.vdot(v, pv))) for wk, v, pv in zip(weights, vectors, projected)
        )
        assert w == pytest.approx(w_dense, abs=1e-12)
        expected = brute_partial_trace(brute_density(projected, weights), dims, keep) / w_dense
        np.testing.assert_allclose(m @ m.conj().T, expected, atol=1e-12)

    @pytest.mark.parametrize("angle", [0.0, 1e-12, 1e-9, 1e-6, 1e-3])
    def test_observables_match_by_thin_qr(self, angle):
        """Blocks rotated by a small angle: the factor comparison keeps the
        digits of ||Q_x Q_x^dag - Q_y Q_y^dag||, which a Gram identity
        r_x + r_y - 2 ||Q_x^dag Q_y||^2 would round away."""
        u = random_unitary(4, np.random.default_rng(16))
        c, s = np.cos(angle), np.sin(angle)
        v = u.copy()
        v[:, 1], v[:, 2] = c * u[:, 1] + s * u[:, 2], -s * u[:, 1] + c * u[:, 2]
        a, b = (
            SpectralObservable.from_eigenbasis("A", [0.0, 1.0], [w[:, :2], w[:, 2:]])
            for w in (u, v)
        )
        dense = max(
            float(np.linalg.norm(x.projector - y.projector)) for x, y in zip(a.branches, b.branches)
        )
        assert dense == pytest.approx(np.sqrt(2) * np.sin(angle), rel=1e-6, abs=1e-15)
        assert chains.observables_match(a, b) == (dense <= DEFAULT.observable_match * 4)


def dense_condition_reports(pm, trials, seed):
    """The three checks as per-trial loops over embedded pointer projectors."""
    lay_a = layout((pm.object_label, pm.object_dim))
    embedded = [
        embed_operator(pm.pointer.projector(pm.mapping[k]), pm.instrument_label, pm.layout)
        for k in range(pm.measured.branch_count)
    ]
    rng = np.random.default_rng(seed)
    calibration = 0.0
    for k, branch in enumerate(pm.measured.branches):
        for _ in range(trials):
            while True:
                vec = branch.projector @ rand_complex(pm.object_dim, rng)
                if np.linalg.norm(vec) > 1e-8:
                    break
            final = evolve(pm, StateVector(lay_a, vec / np.linalg.norm(vec))).amplitudes
            calibration = max(calibration, float(np.linalg.norm(embedded[k] @ final - final)))
    rng = np.random.default_rng(seed)
    probability = 0.0
    for _ in range(trials):
        raw = rand_complex(pm.object_dim, rng)
        phi = raw / np.linalg.norm(raw)
        final = evolve(pm, StateVector(lay_a, phi)).amplitudes
        for k, branch in enumerate(pm.measured.branches):
            lhs = np.real(np.vdot(phi, branch.projector @ phi))
            rhs = np.real(np.vdot(final, embedded[k] @ final))
            probability = max(probability, abs(float(lhs - rhs)))
    rng = np.random.default_rng(seed)
    ready = pm.ready_state.amplitudes
    u = complete_unitary(pm)
    dynamical = 0.0
    for _ in range(trials):
        raw = rand_complex(pm.object_dim, rng)
        phi = raw / np.linalg.norm(raw)
        final = u @ np.kron(phi, ready)
        for k, branch in enumerate(pm.measured.branches):
            rhs = u @ np.kron(branch.projector @ phi, ready)
            dynamical = max(dynamical, float(np.linalg.norm(embedded[k] @ final - rhs)))
    return calibration, probability, dynamical


@pytest.mark.parametrize("corrupt", [False, True])
@pytest.mark.parametrize("da,db", [(2, 2), (3, 5), (4, 6)])
def test_condition_reports_match_per_trial_loops(da, db, corrupt):
    rng = np.random.default_rng(1300 + da * db)
    checks = (check_calibration, check_probability_reproduction, check_dynamical)
    names = ("calibration", "probability_reproduction", "dynamical")
    seed = 77
    for build in (random_ideal, random_exact):
        pm = build("A", "B", da, db, rng)
        if corrupt:  # O(1) residuals expose any change in draw order
            pm = corrupt_premeasurement(pm, "phase")
        lay_a = layout(("A", da))
        ready = pm.ready_state.amplitudes
        u = complete_unitary(pm)
        for _ in range(3):
            phi = random_state(lay_a, rng)
            np.testing.assert_allclose(
                evolve(pm, phi).amplitudes,
                u @ np.kron(phi.amplitudes, ready),
                rtol=0,
                atol=1e-12,
            )
        branches = pm.measured.branch_count
        for trials in (-1, 0, 1, 4):
            fused = check_conditions(pm, trials, seed=seed)
            assert [fn(pm, trials, seed=seed) for fn in checks] == list(fused)
            expected = dense_condition_reports(pm, trials, seed)
            assert [r.condition for r in fused] == list(names)
            assert [r.samples for r in fused] == [max(trials, 0) * branches] * 3
            assert [r.tolerance for r in fused] == [DEFAULT.condition] * 3
            for rep, value in zip(fused, expected):
                assert rep.max_residual == pytest.approx(value, abs=1e-12)
                assert rep.passed == (value <= DEFAULT.condition)
            if trials <= 0:
                assert all(r.max_residual == 0.0 and r.passed for r in fused)
            elif corrupt:
                assert max(r.max_residual for r in fused) > 1e-3


TWENTY = 20


def copy_chain_report(n, analysis):
    """``vnchain run`` of an n-qubit ideal copy chain of 0.3|0> + 0.7 e^{0.4i}|1>."""
    a0, a1 = np.sqrt(0.3), np.sqrt(0.7) * np.exp(0.4j)
    stages = [
        {
            "object": f"q{i}",
            "instrument": f"q{i + 1}",
            "measured": {"diag": [0, 1]} if i == 0 else "previous-pointer",
            "pointer_states": ["basis:0", "basis:1"],
            "ready": "basis:0",
        }
        for i in range(n - 1)
    ]
    doc = {
        "subsystems": [[f"q{i}", 2] for i in range(n)],
        "initial": {"subsystem": "q0", "state": [[a0.real, 0.0], [a1.real, a1.imag]]},
        "stages": stages,
        "analyses": [analysis],
    }
    report = run(scenario_from_document(doc))
    assert report.passed
    return report.sections[1]


@pytest.fixture
def dense_states(monkeypatch):
    """Records every D x D density matrix made: a dense matrix factored by
    ``from_matrix`` or the first read of a state's ``matrix``."""
    made = []
    from_matrix, formed = DensityOperator.from_matrix.__func__, DensityOperator.matrix.func

    def checked(cls, lay, rho):
        made.append(("constructed", lay.dim))
        return from_matrix(cls, lay, rho)

    def read(self):
        made.append(("materialized", self.layout.dim))
        return formed(self)

    monkeypatch.setattr(DensityOperator, "from_matrix", classmethod(checked))
    monkeypatch.setattr(DensityOperator, "matrix", property(read))
    return made


def test_twenty_qubit_copy_chain_branches():
    """D = 2**20: the dense chain unitary alone would need 16 TB."""
    section = copy_chain_report(TWENTY, "branches")
    rows = section.rows
    assert [r[0] for r in rows] == ["0", "1", "dropped"]
    assert float(rows[0][2]) == pytest.approx(0.3, abs=1e-10)
    assert float(rows[1][2]) == pytest.approx(0.7, abs=1e-10)
    assert rows[0][3] == "|" + ",".join(["0"] * TWENTY) + "> (1.0000)"
    assert rows[1][3] == "|" + ",".join(["1"] * TWENTY) + "> (1.0000)"


def test_twenty_qubit_copy_chain_improper_mixture(dense_states):
    """Reduced states on 2**19 dimensions, resummed and checked for pointer
    coherence through their factors; a dense one would need 4 TiB."""
    section = copy_chain_report(TWENTY, "improper_mixture")
    assert [r[:2] for r in section.rows] == [
        ("0", "0.3000000000"), ("1", "0.7000000000"), ("dropped", "0.0000000000")
    ]
    assert section.rows[0][2] == f"mixed dim={2**19}"
    checks = {c.name: c.value for c in section.checks}
    assert checks["resummation_residual"] <= 1e-14
    assert checks["offdiagonal_pointer_blocks"] <= 1e-14
    assert dense_states == []


def test_twenty_qubit_copy_chain_world_branches(dense_states):
    section = copy_chain_report(TWENTY, "world_branches")
    assert [r[:2] for r in section.rows] == [
        ("0", "0.3000000000"), ("1", "0.7000000000"), ("dropped", "0.0000000000")
    ]
    assert section.notes == ("trace distance between branches 0 and 1: 1.000000",)
    assert dense_states == []


def test_twenty_qubit_copy_chain_ensemble_update(dense_states):
    """Members and aggregate conditioned on |+> of the last qubit, each a
    factored state on 2**19 dimensions, and their resummation cross-check."""
    section = copy_chain_report(TWENTY, "ensemble_update")
    assert section.rows == (
        ("0", "0.3000000000", "0.3000000000"),
        ("1", "0.7000000000", "0.7000000000"),
    )
    assert section.notes[0] == "occurrence probability: 0.5000000000"
    assert dense_states == []


def _callee(call):
    f = call.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute):
        return f.attr
    return None


def _is_ready_amplitudes(node):
    """``<x>.ready_state.amplitudes`` (or a bare ``ready_state.amplitudes``)."""
    if not (isinstance(node, ast.Attribute) and node.attr == "amplitudes"):
        return False
    owner = node.value
    return (isinstance(owner, ast.Attribute) and owner.attr == "ready_state") or (
        isinstance(owner, ast.Name) and owner.id == "ready_state"
    )


# Modules whose reduced states stay factored: no |psi><psi| (np.outer), no
# .density() and no D x D eigensolver.
DENSE_STATE_MODULES = ("chains.py", "scenarios.py", "hilbert.py")


class _DensePathFinder(ast.NodeVisitor):
    """Collects embed_operator calls,
    kron(eye(...), ...) calls and kron(..., ready_state.amplitudes) calls
    (the package applies U(. (x) |ready>) through ``Premeasurement.isometry``
    only), and
    np.outer, .density() and eigvalsh calls in ``DENSE_STATE_MODULES``, with
    the innermost enclosing function."""

    def __init__(self, module):
        self.module = module
        self.scope = ["<module>"]
        self.offenders = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        where = f"{self.module}:{node.lineno} in {self.scope[-1]}"
        name = _callee(node)
        if name == "embed_operator":
            self.offenders.append(f"embed_operator call at {where}")
        if name == "kron" and node.args:
            first = node.args[0]
            if isinstance(first, ast.Call) and _callee(first) == "eye":
                self.offenders.append(f"kron(eye(...), ...) at {where}")
            if any(map(_is_ready_amplitudes, node.args)):
                self.offenders.append(f"kron(..., ready_state.amplitudes) at {where}")
        if self.module in DENSE_STATE_MODULES and name in ("outer", "density", "eigvalsh"):
            self.offenders.append(f"{name} call at {where}")
        self.generic_visit(node)


def test_no_dense_local_operator_path_in_package():
    """Internal code applies one-subsystem operators with ``apply_local`` only,
    and a premeasurement to object amplitudes through its isometry only."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        finder = _DensePathFinder(path.name)
        finder.visit(ast.parse(path.read_text(), filename=str(path)))
        offenders += finder.offenders
    assert offenders == []


def test_dense_path_finder_flags_both_forms():
    finder = _DensePathFinder("chains.py")
    source = (
        "def f(p, lay, u, pm, phi):\n"
        "    e = embed_operator(p, 'B', lay)\n"
        "    v = u @ np.kron(phi, pm.ready_state.amplitudes)\n"
        "    return np.kron(np.eye(4), u)\n"
    )
    finder.visit(ast.parse(source))
    assert len(finder.offenders) == 3
    assert "kron(..., ready_state.amplitudes) at chains.py:3 in f" in finder.offenders


def test_dense_path_finder_flags_dense_states():
    source = (
        "class WeightedEnsemble:\n"
        "    def density(self, s):\n"
        "        return np.outer(s.amplitudes, s.amplitudes.conj())\n"
        "def ensemble_update(ens, p):\n"
        "    rho = ens.density()\n"
        "    return np.linalg.eigvalsh(rho.matrix)\n"
    )
    for module in ("chains.py", "scenarios.py"):
        finder = _DensePathFinder(module)
        finder.visit(ast.parse(source))
        assert finder.offenders == [
            f"outer call at {module}:3 in density",
            f"density call at {module}:5 in ensemble_update",
            f"eigvalsh call at {module}:6 in ensemble_update",
        ]
    other = _DensePathFinder("premeasurement.py")
    other.visit(ast.parse(source))
    assert other.offenders == []
    # no scope of hilbert.py is exempt, the density operator's own included
    hilbert = _DensePathFinder("hilbert.py")
    hilbert.visit(
        ast.parse(
            "class DensityOperator:\n"
            "    def __post_init__(self, tol):\n"
            "        np.linalg.eigvalsh(self.matrix)\n"
            "def trace_distance(a, b):\n"
            "    np.linalg.eigvalsh(a - b)\n"
            "def purity(rho):\n"
            "    np.outer(rho, rho)\n"
        )
    )
    assert hilbert.offenders == [
        "eigvalsh call at hilbert.py:3 in __post_init__",
        "eigvalsh call at hilbert.py:5 in trace_distance",
        "outer call at hilbert.py:7 in purity",
    ]
