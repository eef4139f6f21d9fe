"""Randomized property suites behind the ``verify`` command.

Each suite draws its own inputs from a seed derived from the run seed, so a
verify run is reproducible, and reports the worst residual it saw against a
fixed tolerance.  A suite that raises fails with an infinite residual and
the exception in its note; the other suites still run.  A suite skips a
case only when its conditioning event has (numerically) zero probability,
such as an ``UndefinedConditionalError``; one that skips every case fails
the same way, since it checked nothing.  The ``corrupt``
hook deliberately damages the system under test (not the checks) so that
fault injection can prove the suites have teeth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .chains import (
    WeightedEnsemble,
    conditional_state,
    ensemble_update,
    improper_mixture,
    monte_carlo_update,
    offdiagonal_block_norm,
    proper_mixture,
    redecompose,
    relative_state,
    run_two_link_chain,
    tripartite_conditional_consistency,
)
from .errors import UndefinedConditionalError
from .hilbert import (
    StateVector,
    SubsystemBasis,
    _hermitian_spectrum,
    apply_local,
    complete_orthonormal,
    expand_in_basis,
    layout,
    partial_scalar_product,
    partial_trace,
    partial_trace_matrix,
    purity,
    random_density,
    random_state,
    random_unitary,
    tensor,
)
from .observables import observable_from_matrix
from .premeasurement import (
    Premeasurement,
    _sharp_vector,
    branch_decomposition,
    build_exact,
    build_ideal,
    check_conditions,
    evolve,
    luders_state,
    random_exact,
    random_ideal,
)
from .tolerances import DEFAULT


@dataclass(frozen=True)
class SuiteResult:
    name: str
    cases: int
    max_residual: float
    tolerance: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


@dataclass(frozen=True)
class SuiteContext:
    object_dims: tuple[int, ...]
    instrument_dims: tuple[int, ...]
    trials: int
    seed: int
    corrupt: str | None = None

    def rng(self, suite_index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, suite_index])

    @property
    def dim_pairs(self) -> list[tuple[int, int]]:
        return [(a, b) for a in self.object_dims for b in self.instrument_dims]


CORRUPT_MODES = ("phase",)


def corrupt_premeasurement(pm: Premeasurement, mode: str) -> Premeasurement:
    """Damage a premeasurement for fault injection.

    ``phase``: swap the first and last rows of the isometry and flip the
    sign of the new first row.  That permutes the composite basis, so the
    result is still an isometry but no longer calibrated.
    """
    if mode == "phase":
        v = np.array(pm.isometry)
        v[[0, -1]] = v[[-1, 0]]
        v[0] *= -1.0
        return replace(pm, isometry=v)
    raise ValueError(f"unknown corruption mode {mode!r}")


def _maybe_corrupt(pm: Premeasurement, ctx: SuiteContext) -> Premeasurement:
    return corrupt_premeasurement(pm, ctx.corrupt) if ctx.corrupt else pm


def _random_event(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """The (dim, r) block of a Haar-random event of rank r."""
    r = rank if rank is not None else int(rng.integers(1, dim))
    q = random_unitary(dim, rng)
    return q[:, :r]


def _suite_pt_commutativity(ctx: SuiteContext) -> tuple[int, float]:
    rng = ctx.rng(1)
    worst, cases = 0.0, 0
    for _ in range(ctx.trials):
        da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        x = rng.standard_normal((da * db,) * 2) + 1j * rng.standard_normal((da * db,) * 2)
        y = rng.standard_normal((db, db)) + 1j * rng.standard_normal((db, db))
        dims = (da, db, da, db)
        lhs = partial_trace_matrix(apply_local(y, x, dims, 1), (da, db), [0])  # (I x Y) X
        rhs = partial_trace_matrix(apply_local(y.T, x, dims, 3), (da, db), [0])  # X (I x Y)
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
        # Tr_B(X_A x Y) = X_A tr Y for a non-Hermitian X_A, against no kernel
        xa = x[:da, :da]
        product = partial_trace_matrix(np.kron(xa, y), (da, db), [0])
        worst = max(worst, float(np.linalg.norm(product - xa * np.trace(y))))
        cases += 1
    return cases, worst


def _suite_pt_trace_one(ctx: SuiteContext) -> tuple[int, float]:
    rng = ctx.rng(2)
    worst, cases = 0.0, 0
    for _ in range(ctx.trials):
        da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        lay = layout(("A", da), ("B", db))
        state = random_state(lay, rng)
        red = partial_trace(state, {"B"})
        worst = max(worst, abs(float(np.real(np.trace(red.matrix))) - 1.0))
        cases += 1
    return cases, worst


def _suite_pt_psd(ctx: SuiteContext) -> tuple[int, float]:
    rng = ctx.rng(3)
    worst, cases = 0.0, 0
    for _ in range(ctx.trials):
        da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        lay = layout(("A", da), ("B", db))
        red = partial_trace(random_state(lay, rng), {"A"})
        lo = float(_hermitian_spectrum(red.matrix)[1][0])
        worst = max(worst, max(0.0, -lo))
        cases += 1
    return cases, worst


def _suite_expansion(ctx: SuiteContext) -> tuple[int, float]:
    rng = ctx.rng(4)
    worst, cases = 0.0, 0
    for _ in range(ctx.trials):
        da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        lay = layout(("A", da), ("B", db))
        state = random_state(lay, rng)
        q = random_unitary(db, rng)
        basis = SubsystemBasis("B", tuple(q[:, i] for i in range(db)))
        coeffs = expand_in_basis(state, basis)
        norms = sum(c.norm() ** 2 for _, c in coeffs)
        worst = max(worst, abs(norms - 1.0))
        resum = np.zeros(lay.dim, dtype=complex)
        for n, c in coeffs:
            resum += np.kron(c.amplitudes, basis.vectors[n])
        worst = max(worst, float(np.linalg.norm(resum - state.amplitudes)))
        cases += 1
    return cases, worst


def _suite_psp_expansion(ctx: SuiteContext) -> tuple[int, float]:
    rng = ctx.rng(5)
    worst, cases = 0.0, 0
    for _ in range(ctx.trials):
        da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        lay = layout(("A", da), ("B", db))
        state = random_state(lay, rng)
        q = random_unitary(db, rng)
        basis = SubsystemBasis("B", tuple(q[:, i] for i in range(db)))
        coeffs = expand_in_basis(state, basis)
        n = int(rng.integers(0, db))
        psp = partial_scalar_product(basis.vectors[n], "B", state)
        worst = max(
            worst, float(np.max(np.abs(psp.amplitudes - coeffs[n][1].amplitudes)))
        )
        cases += 1
    return cases, worst


def _suite_observables(ctx: SuiteContext) -> tuple[int, float]:
    rng = ctx.rng(6)
    worst, cases = 0.0, 0
    for _ in range(ctx.trials):
        d = int(rng.integers(2, 5))
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = (h + h.conj().T) / 2
        obs = observable_from_matrix(h, "A")
        worst = max(worst, float(np.linalg.norm(obs.matrix() - h)))
        rebuilt = observable_from_matrix(obs.matrix(), "A")
        worst = max(
            worst,
            max(
                abs(a.eigenvalue - b.eigenvalue)
                + float(np.linalg.norm(a.projector - b.projector))
                for a, b in zip(obs.branches, rebuilt.branches)
            )
            if obs.branch_count == rebuilt.branch_count
            else 1.0,
        )
        cases += 1
    return cases, worst


def _grid_premeasurements(ctx: SuiteContext, rng, exact=True):
    reps = max(1, ctx.trials // max(1, len(ctx.dim_pairs)))
    for da, db in ctx.dim_pairs:
        for _ in range(reps):
            if exact:
                pm = random_exact("A", "B", da, db, rng)
            else:
                pm = random_ideal("A", "B", da, db, rng)
            yield _maybe_corrupt(pm, ctx)


def _suite_triangle(ctx: SuiteContext) -> tuple[int, float]:
    rng = ctx.rng(7)
    worst, cases = 0.0, 0
    for pm in _grid_premeasurements(ctx, rng, exact=True):
        seed = int(rng.integers(2**32))
        for rep in check_conditions(pm, trials=3, seed=seed):
            worst = max(worst, rep.max_residual)
        cases += 1
    return cases, worst


def _suite_ideal_definitions(ctx: SuiteContext) -> tuple[int, float]:
    rng = ctx.rng(8)
    worst, cases = 0.0, 0
    for pm in _grid_premeasurements(ctx, rng, exact=False):
        lay_a = layout((pm.object_label, pm.object_dim))
        phi = random_state(lay_a, rng)
        final = evolve(pm, phi)
        # expansion form: sum_k (E_k phi) (x) |b_k>
        expected = np.zeros(final.layout.dim, dtype=complex)
        for k, br in enumerate(pm.measured.branches):
            pointer_vec = _recovered_pointer_state(pm, k, rng)
            expected += np.kron(br.projector @ phi.amplitudes, pointer_vec)
        worst = max(worst, float(np.linalg.norm(final.amplitudes - expected)))
        # Lueders form equals the reduced evolved state
        lud = luders_state(phi, pm.measured)
        red = partial_trace(final, {pm.instrument_label})
        worst = max(worst, float(np.linalg.norm(lud.matrix - red.matrix)))
        # sharp states unchanged
        k = int(rng.integers(0, pm.measured.branch_count))
        br = pm.measured.branches[k]
        raw = br.projector @ random_state(lay_a, rng).amplitudes
        if np.linalg.norm(raw) > 1e-6:
            sharp = StateVector(lay_a, raw / np.linalg.norm(raw))
            red_sharp = partial_trace(evolve(pm, sharp), {pm.instrument_label})
            proj = np.outer(sharp.amplitudes, sharp.amplitudes.conj())
            worst = max(worst, float(np.linalg.norm(red_sharp.matrix - proj)))
        cases += 1
    return cases, worst


def _recovered_pointer_state(
    pm: Premeasurement, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Pointer state of branch k, phase and all, read off the isometry itself.

    For an ideal premeasurement a sharp input |phi_k> evolves to
    |phi_k> (x) |b_k> exactly, so contracting <phi_k| against the output
    recovers |b_k| with the phase actually used by the construction.
    """
    phi = _sharp_vector(pm.measured.branches[k].basis, rng)
    final = pm.isometry @ phi
    return np.tensordot(
        phi.conj(), final.reshape(pm.object_dim, pm.instrument_dim), axes=(0, 0)
    )


def _suite_completeness(ctx: SuiteContext) -> tuple[int, float]:
    rng = ctx.rng(9)
    worst, cases = 0.0, 0
    for pm in _grid_premeasurements(ctx, rng, exact=True):
        phi = random_state(layout((pm.object_label, pm.object_dim)), rng)
        final = evolve(pm, phi)
        resum = np.zeros_like(final.amplitudes)
        dims = final.layout.dims
        for br in pm.pointer.branches:
            resum = resum + apply_local(br.projector, final.amplitudes, dims, 1)
        worst = max(worst, float(np.linalg.norm(resum - final.amplitudes)))
        cases += 1
    return cases, worst


def _suite_identity_dressing(ctx: SuiteContext) -> tuple[int, float]:
    rng = ctx.rng(10)
    worst, cases = 0.0, 0
    for pm in _grid_premeasurements(ctx, rng, exact=False):
        eye_a = np.eye(pm.object_dim, dtype=complex)
        eye_b = np.eye(pm.instrument_dim, dtype=complex)
        dressed = build_exact(pm, [(eye_a, eye_b)] * pm.measured.branch_count)
        worst = max(worst, float(np.max(np.abs(dressed.isometry - pm.isometry))))
        cases += 1
    return cases, worst


def _random_chain(ctx: SuiteContext, rng):
    da = int(rng.choice(ctx.object_dims))
    db = int(rng.choice(ctx.instrument_dims))
    pm1 = random_ideal("A", "B", da, db, rng)
    n2 = pm1.pointer.branch_count
    dc = max(n2, int(rng.choice(ctx.instrument_dims)))
    q = random_unitary(dc, rng)
    pstates = SubsystemBasis("C", tuple(q[:, i] for i in range(n2)))
    raw = rng.standard_normal(dc) + 1j * rng.standard_normal(dc)
    ready = StateVector(layout(("C", dc)), raw / np.linalg.norm(raw))
    rng.integers(2**32)  # unused; drawn so that seeded inputs stay as they were
    pm2 = build_ideal(pm1.pointer, pstates, ready)
    phi = random_state(layout(("A", da)), rng)
    return pm1, pm2, phi


def _suite_two_link(ctx: SuiteContext) -> tuple[int, float]:
    rng = ctx.rng(11)
    worst, cases = 0.0, 0
    trials = max(1, ctx.trials // 10)
    for _ in range(trials):
        pm1, pm2, phi = _random_chain(ctx, rng)
        intermediate, final = run_two_link_chain(pm1, pm2, phi)
        resum = np.zeros_like(final.amplitudes)
        dims = intermediate.layout.dims
        pos = intermediate.layout.position("B")
        for j, br in enumerate(pm2.measured.branches):
            projected = apply_local(br.projector, intermediate.amplitudes, dims, pos)
            pointer_vec = _recovered_pointer_state(pm2, j, rng)
            resum += np.kron(projected, pointer_vec)
        worst = max(worst, float(np.linalg.norm(resum - final.amplitudes)))
        cases += 1
    return cases, worst


def _suite_decoherence(ctx: SuiteContext) -> tuple[int, float]:
    rng = ctx.rng(12)
    worst, cases = 0.0, 0
    trials = max(1, ctx.trials // 10)
    for _ in range(trials):
        pm1, pm2, phi = _random_chain(ctx, rng)
        _, final = run_two_link_chain(pm1, pm2, phi)
        rho_ab = partial_trace(final, {"C"})
        worst = max(worst, offdiagonal_block_norm(rho_ab, pm1.pointer.decomposition()))
        worst = max(worst, abs(purity(final) - 1.0))
        cases += 1
    return cases, worst


def _suite_relative_forms(ctx: SuiteContext) -> tuple[int, float]:
    rng = ctx.rng(13)
    worst, cases = 0.0, 0
    for _ in range(max(ctx.trials, 1)):
        da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        lay = layout(("A", da), ("B", db))
        psi = random_state(lay, rng)
        raw = rng.standard_normal(db) + 1j * rng.standard_normal(db)
        phi_b = raw / np.linalg.norm(raw)
        overlap = np.linalg.norm(
            partial_scalar_product(phi_b, "B", psi).amplitudes
        )
        if overlap < 1e-3:
            continue
        # first form: coefficient in a basis containing phi_b
        basis_vectors = complete_orthonormal([phi_b], db)
        basis = SubsystemBasis("B", tuple(basis_vectors))
        coeff = expand_in_basis(psi, basis)[0][1].normalize()
        # second form: normalized partial scalar product
        rel = relative_state(psi, "B", phi_b)
        # third form: conditional state through the partial trace
        cond = conditional_state(psi.density(), phi_b[:, None], "B")
        p1 = np.outer(coeff.amplitudes, coeff.amplitudes.conj())
        p2 = np.outer(rel.amplitudes, rel.amplitudes.conj())
        worst = max(worst, float(np.linalg.norm(p1 - p2)))
        worst = max(worst, float(np.linalg.norm(p2 - cond.matrix)))
        cases += 1
    return cases, worst


def _suite_conditional_equiv(ctx: SuiteContext) -> tuple[int, float]:
    rng = ctx.rng(14)
    worst, cases = 0.0, 0
    for _ in range(max(ctx.trials, 1)):
        da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        lay = layout(("A", da), ("B", db))
        rho = random_density(lay, rng)
        event = _random_event(db, rng)
        try:
            plain = conditional_state(rho, event, "B", form="plain")
            sandwich = conditional_state(rho, event, "B", form="sandwich")
        except UndefinedConditionalError:
            continue
        worst = max(worst, float(np.linalg.norm(plain.matrix - sandwich.matrix)))
        # ensemble route: aggregate equals both closed forms
        weights = rng.random(3) + 0.1
        weights /= weights.sum()
        ens = WeightedEnsemble(
            tuple((float(w), random_state(lay, rng)) for w in weights)
        )
        try:
            res = ensemble_update(ens, event, "B")
        except UndefinedConditionalError:
            continue
        mixed = ens.density()
        agg_plain = conditional_state(mixed, event, "B", form="plain")
        agg_sandwich = conditional_state(mixed, event, "B", form="sandwich")
        worst = max(worst, float(np.linalg.norm(res.aggregate.matrix - agg_plain.matrix)))
        worst = max(worst, float(np.linalg.norm(agg_plain.matrix - agg_sandwich.matrix)))
        cases += 1
    return cases, worst


def _suite_tripartite(ctx: SuiteContext) -> tuple[int, float]:
    rng = ctx.rng(15)
    worst, cases = 0.0, 0
    for _ in range(max(ctx.trials, 1)):
        lay = layout(("A", 2), ("B", 2), ("C", 2))
        rho = random_density(lay, rng)
        event = _random_event(2, rng, rank=1)
        try:
            via_full, via_reduced = tripartite_conditional_consistency(rho, event, "B", "C")
        except UndefinedConditionalError:
            continue
        worst = max(worst, float(np.linalg.norm(via_full.matrix - via_reduced.matrix)))
        cases += 1
    return cases, worst


def _suite_born_weights(ctx: SuiteContext) -> tuple[int, float]:
    rng = ctx.rng(16)
    worst, cases = 0.0, 0
    trials = max(1, ctx.trials // 5)
    for _ in range(trials):
        da = int(rng.choice(ctx.object_dims))
        db = int(rng.choice(ctx.instrument_dims))
        pm = random_ideal("A", "B", da, db, rng)
        phi = random_state(layout(("A", da)), rng)
        final = evolve(pm, phi)
        bd = branch_decomposition(final, pm.pointer)
        mix = improper_mixture(final, pm.pointer.decomposition())
        for k, br in enumerate(pm.measured.branches):
            born = float(
                np.real(np.vdot(phi.amplitudes, br.projector @ phi.amplitudes))
            )
            j = pm.mapping[k]
            w_bd = next((b.weight for b in bd.branches if b.index == j), 0.0)
            w_mix = next((b.weight for b in mix.branches if b.index == j), 0.0)
            worst = max(worst, abs(w_bd - born), abs(w_mix - born))
        cases += 1
    return cases, worst


def _suite_absoluteness(ctx: SuiteContext) -> tuple[int, float]:
    rng = ctx.rng(17)
    worst, cases = 0.0, 0
    trials = max(1, ctx.trials // 5)
    for _ in range(trials):
        da = int(rng.choice(ctx.object_dims))
        db = int(rng.choice(ctx.instrument_dims))
        pm = random_ideal("A", "B", da, db, rng)
        phi = random_state(layout(("A", da)), rng)
        final = evolve(pm, phi)
        ens = proper_mixture(branch_decomposition(final, pm.pointer))
        rho_ab = ens.density()
        rho_c = random_density(layout(("C", int(rng.integers(2, 4)))), rng)
        joined = tensor(rho_ab, rho_c)
        back = partial_trace(joined, {"C"})
        worst = max(worst, float(np.linalg.norm(back.matrix - rho_ab.matrix)))
        cases += 1
    return cases, worst


def _suite_redecomposition(ctx: SuiteContext) -> tuple[int, float]:
    rng = ctx.rng(18)
    worst, cases = 0.0, 0
    trials = max(1, ctx.trials // 5)
    for _ in range(trials):
        lay = layout(("A", 2), ("B", 2))
        weights = rng.random(3) + 0.1
        weights /= weights.sum()
        ens = WeightedEnsemble(
            tuple((float(w), random_state(lay, rng)) for w in weights)
        )
        other = redecompose(ens, random_unitary(3, rng))
        event = _random_event(2, rng)
        try:
            res_a = ensemble_update(ens, event, "B")
            res_b = ensemble_update(other, event, "B")
        except UndefinedConditionalError:
            continue
        worst = max(
            worst, float(np.linalg.norm(res_a.aggregate.matrix - res_b.aggregate.matrix))
        )
        cases += 1
    return cases, worst


def _suite_monte_carlo(ctx: SuiteContext) -> tuple[int, float]:
    rng = ctx.rng(19)
    lay = layout(("A", 2), ("B", 2))
    ran, failures = 0, 0
    for _ in range(10):
        ens = WeightedEnsemble(
            ((0.4, random_state(lay, rng)), (0.6, random_state(lay, rng)))
        )
        event = _random_event(2, rng, rank=1)
        try:
            exact = ensemble_update(ens, event, "B")
        except UndefinedConditionalError:
            continue
        mc = monte_carlo_update(ens, event, "B", 20_000, seed=int(rng.integers(2**32)))
        total = sum(mc.accepted_counts)
        ok = True
        for m in exact.members:
            w_hat = mc.accepted_counts[m.index] / total
            se = math.sqrt(max(m.weight * (1 - m.weight), 1e-300) / total)
            if abs(w_hat - m.weight) > 3 * se:
                ok = False
        failures += 0 if ok else 1
        ran += 1
    return ran, failures / max(ran, 1)


@dataclass(frozen=True)
class Suite:
    """One property suite: ``check`` returns (cases, worst residual)."""

    name: str
    tolerance: float
    check: Callable[[SuiteContext], tuple[int, float]]
    note: str = ""


SUITES = (
    Suite("hilbert.partial_trace_commutativity", 1e-10, _suite_pt_commutativity),
    Suite("hilbert.partial_trace_trace_one", 1e-12, _suite_pt_trace_one),
    Suite("hilbert.partial_trace_psd", DEFAULT.psd, _suite_pt_psd),
    Suite("hilbert.expansion_resummation", 1e-10, _suite_expansion),
    Suite("hilbert.psp_matches_expansion", 1e-12, _suite_psp_expansion),
    Suite("observables.spectral_reconstruction", 1e-9, _suite_observables),
    Suite(
        "premeasurement.equivalence_triangle",
        1e-9,
        _suite_triangle,
        note="calibration, probability reproduction, dynamical on dressed unitaries",
    ),
    Suite("premeasurement.ideal_definitions", 1e-10, _suite_ideal_definitions),
    Suite("premeasurement.pointer_completeness", 1e-12, _suite_completeness),
    Suite("premeasurement.identity_dressing", 1e-12, _suite_identity_dressing),
    Suite("chains.two_link_resummation", 1e-10, _suite_two_link),
    Suite(
        "chains.decoherence_split",
        1e-10,
        _suite_decoherence,
        note="pointer cross blocks vanish while the full chain state stays pure",
    ),
    Suite("chains.relative_state_forms", 1e-10, _suite_relative_forms),
    Suite("chains.conditional_equivalences", 1e-10, _suite_conditional_equiv),
    Suite("chains.tripartite_consistency", 1e-10, _suite_tripartite),
    Suite("chains.born_weights", 1e-12, _suite_born_weights),
    Suite(
        "chains.absoluteness",
        1e-12,
        _suite_absoluteness,
        note="adjoining an uncorrelated system leaves a proper mixture alone",
    ),
    Suite("chains.redecomposition_invariance", 1e-10, _suite_redecomposition),
    Suite(
        "chains.monte_carlo_binomial",
        0.2,
        _suite_monte_carlo,
        note="fraction of repetitions outside 3 binomial standard errors",
    ),
)


def run_suites(
    max_object_dim: int = 4,
    max_instrument_dim: int = 6,
    trials: int = 100,
    seed: int = 0,
    corrupt: str | None = None,
) -> tuple[SuiteResult, ...]:
    """Run every property suite over the dimension grid; order is fixed."""
    if corrupt is not None and corrupt not in CORRUPT_MODES:
        raise ValueError(f"unknown corruption mode {corrupt!r}")
    if trials == 0:
        return ()
    ctx = SuiteContext(
        object_dims=tuple(range(2, max_object_dim + 1)),
        instrument_dims=tuple(range(2, max_instrument_dim + 1)),
        trials=trials,
        seed=seed,
        corrupt=corrupt,
    )
    results = []
    for suite in SUITES:
        try:
            cases, worst = suite.check(ctx)
            note = suite.note
        except Exception as exc:  # a library fault fails its suite, not the run
            cases, worst, note = 0, math.inf, f"raised {type(exc).__name__}: {exc}"
        else:
            if cases == 0:
                worst, note = math.inf, "ran no cases: every case was skipped"
        results.append(SuiteResult(suite.name, cases, worst, suite.tolerance, note))
    return tuple(results)
