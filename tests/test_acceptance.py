"""Acceptance gate: one test per criterion, each echoed in the summary.

Expected values come from independent in-test computation (direct Born
arithmetic, explicit term sums, closed-form re-weighting), never from the
code paths under test.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from vnchain import (
    StateVector,
    SubsystemBasis,
    WeightedEnsemble,
    branch_decomposition,
    build_ideal,
    basis_state,
    check_conditions,
    complete_orthonormal,
    conditional_state,
    ensemble_update,
    evolve,
    expand_in_basis,
    layout,
    luders_state,
    monte_carlo_update,
    observable_from_matrix,
    offdiagonal_block_norm,
    partial_scalar_product,
    partial_trace,
    proper_mixture,
    purity,
    random_density,
    random_exact,
    random_observable,
    random_state,
    random_unitary,
    relative_state,
    run_two_link_chain,
    tensor,
    tripartite_conditional_consistency,
)
from vnchain.scenarios import builtin_document, run, scenario_from_document

SRC = str(Path(__file__).resolve().parent.parent / "src")

OBJECT_DIMS = (2, 3, 4)
INSTRUMENT_DIMS = (2, 3, 4, 6)


def canonical_basis(label, dim, count=None):
    count = dim if count is None else count
    eye = np.eye(dim, dtype=complex)
    return SubsystemBasis(label, tuple(eye[:, i] for i in range(count)))


def test_criterion_1_condition_equivalence(acceptance):
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst, count = 0.0, 0
    for da in OBJECT_DIMS:
        for db in INSTRUMENT_DIMS:
            for _ in range(9):
                pm = random_exact("A", "B", da, db, rng)
                seed = int(rng.integers(2**32))
                for report in check_conditions(pm, 3, seed=seed):
                    worst = max(worst, report.max_residual)
                count += 1
    elapsed = time.monotonic() - start
    passed = worst <= 1e-9 and count >= 100 and elapsed <= 30.0
    acceptance(
        1,
        "premeasurement condition equivalence on randomly dressed unitaries",
        passed,
        f"{count} premeasurements, max residual {worst:.2e}, {elapsed:.1f}s",
    )
    assert count >= 100
    assert worst <= 1e-9
    assert elapsed <= 30.0


def test_criterion_2_ideal_definition_equivalence(acceptance):
    rng = np.random.default_rng(202)
    worst, count = 0.0, 0
    while count < 100:
        da = int(rng.choice(OBJECT_DIMS))
        db = int(rng.choice(INSTRUMENT_DIMS))
        n = min(da, db)
        measured = random_observable(da, n, "A", rng)
        q = random_unitary(db, rng)
        pointer_states = tuple(q[:, k] for k in range(n))
        raw = rng.standard_normal(db) + 1j * rng.standard_normal(db)
        ready = StateVector(layout(("B", db)), raw / np.linalg.norm(raw))
        rng.integers(2**32)  # unused; drawn so that seeded inputs stay as they were
        pm = build_ideal(measured, SubsystemBasis("B", pointer_states), ready)
        phi = random_state(layout(("A", da)), rng)
        final = evolve(pm, phi)
        # expansion form, summed term by term from the known inputs
        expected = np.zeros(da * db, dtype=complex)
        for k, branch in enumerate(measured.branches):
            expected += np.kron(branch.projector @ phi.amplitudes, pointer_states[k])
        worst = max(worst, float(np.linalg.norm(final.amplitudes - expected)))
        # non-selective object state agrees with the reduced evolved state
        lud = luders_state(phi, measured)
        red = partial_trace(final, {"B"})
        worst = max(worst, float(np.linalg.norm(lud.matrix - red.matrix)))
        # sharp inputs come out untouched
        k = int(rng.integers(0, n))
        raw = measured.branches[k].projector @ (
            rng.standard_normal(da) + 1j * rng.standard_normal(da)
        )
        if np.linalg.norm(raw) > 1e-6:
            sharp = StateVector(layout(("A", da)), raw / np.linalg.norm(raw))
            red_sharp = partial_trace(evolve(pm, sharp), {"B"})
            proj = np.outer(sharp.amplitudes, sharp.amplitudes.conj())
            worst = max(worst, float(np.linalg.norm(red_sharp.matrix - proj)))
        count += 1
    passed = worst <= 1e-10
    acceptance(
        2,
        "ideal premeasurement definitions agree (expansion, non-selective, sharp fixity)",
        passed,
        f"{count} inputs, max residual {worst:.2e}",
    )
    assert passed


def test_criterion_3_relative_state_forms(acceptance):
    rng = np.random.default_rng(303)
    worst, count = 0.0, 0
    while count < 200:
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
        worst = max(worst, float(np.linalg.norm(p_coeff - p_rel)))
        worst = max(worst, float(np.linalg.norm(p_rel - cond.matrix)))
        count += 1
    passed = worst <= 1e-10
    acceptance(
        3,
        "relative-state forms agree at projector level (expansion, contraction, trace)",
        passed,
        f"{count} state/vector pairs, max residual {worst:.2e}",
    )
    assert passed


def test_criterion_4_conditional_equivalences(acceptance):
    rng = np.random.default_rng(404)
    worst, count = 0.0, 0
    while count < 200:
        da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        lay = layout(("A", da), ("B", db))
        rho = random_density(lay, rng)
        r = int(rng.integers(1, db))
        q = random_unitary(db, rng)
        event = q[:, :r]
        plain = conditional_state(rho, event, "B", form="plain")
        sandwich = conditional_state(rho, event, "B", form="sandwich")
        worst = max(worst, float(np.linalg.norm(plain.matrix - sandwich.matrix)))
        # ensemble route: the member-wise update matches both closed forms
        weights = rng.random(3) + 0.1
        weights /= weights.sum()
        ens = WeightedEnsemble(
            tuple((float(w), random_state(lay, rng)) for w in weights)
        )
        try:
            res = ensemble_update(ens, event, "B")
        except ValueError:
            continue
        mixed = ens.density()
        agg_plain = conditional_state(mixed, event, "B", form="plain")
        agg_sandwich = conditional_state(mixed, event, "B", form="sandwich")
        worst = max(worst, float(np.linalg.norm(res.aggregate.matrix - agg_plain.matrix)))
        worst = max(worst, float(np.linalg.norm(agg_plain.matrix - agg_sandwich.matrix)))
        count += 1
    worst_tri = 0.0
    for _ in range(50):
        rho = random_density(layout(("A", 2), ("B", 2), ("C", 2)), rng)
        q = random_unitary(2, rng)
        via_full, via_reduced = tripartite_conditional_consistency(rho, q[:, :1], "B", "C")
        worst_tri = max(
            worst_tri, float(np.linalg.norm(via_full.matrix - via_reduced.matrix))
        )
    passed = worst <= 1e-10 and worst_tri <= 1e-10
    acceptance(
        4,
        "conditional-state equivalences (plain vs sandwich, ensemble route, two trace routes)",
        passed,
        f"{count} mixed cases {worst:.2e}; 50 tripartite cases {worst_tri:.2e}",
    )
    assert worst <= 1e-10
    assert worst_tri <= 1e-10


def test_criterion_5_decoherence_coherence_split(acceptance):
    measured = observable_from_matrix(np.diag([0.0, 1.0]), "A")
    pm1 = build_ideal(measured, canonical_basis("B", 2), basis_state(layout(("B", 2)), 0))
    pm2 = build_ideal(
        pm1.pointer, canonical_basis("C", 2), basis_state(layout(("C", 2)), 0)
    )
    plus = StateVector(layout(("A", 2)), np.array([1, 1]) / np.sqrt(2))
    _, final = run_two_link_chain(pm1, pm2, plus)
    rho_ab = partial_trace(final, {"C"})
    offdiag = offdiagonal_block_norm(rho_ab, pm1.pointer.decomposition())
    purity_deficit = abs(purity(final.density()) - 1.0)
    passed = offdiag <= 1e-10 and purity_deficit <= 1e-10
    acceptance(
        5,
        "two-link chain decoheres the subsystem while the full state stays pure",
        passed,
        f"offdiagonal {offdiag:.2e}, purity deficit {purity_deficit:.2e}",
    )
    assert passed


def test_criterion_6_absoluteness_of_proper_mixtures(acceptance):
    rng = np.random.default_rng(606)
    worst, count = 0.0, 0
    for _ in range(50):
        da = int(rng.choice(OBJECT_DIMS))
        db = int(rng.choice(INSTRUMENT_DIMS))
        pm = random_exact("A", "B", da, db, rng)
        phi = random_state(layout(("A", da)), rng)
        bd = branch_decomposition(evolve(pm, phi), pm.pointer)
        rho_ab = proper_mixture(bd).density()
        rho_c = random_density(layout(("C", int(rng.integers(2, 5)))), rng)
        back = partial_trace(tensor(rho_ab, rho_c), {"C"})
        worst = max(worst, float(np.linalg.norm(back.matrix - rho_ab.matrix)))
        count += 1
    passed = worst <= 1e-12 and count >= 50
    acceptance(
        6,
        "adjoining an uncorrelated system and re-reducing returns the proper mixture",
        passed,
        f"{count} instances, max residual {worst:.2e}",
    )
    assert passed


def test_criterion_7_monte_carlo_update(acceptance):
    start = time.monotonic()
    lay = layout(("A", 2), ("B", 2))
    psi_1 = StateVector(lay, np.array([0.6, 0.8, 0.0, 0.0], dtype=complex))
    psi_2 = StateVector(lay, np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2))
    weights = (0.4, 0.6)
    chi = np.array([1.0, 0.0], dtype=complex)
    # closed-form re-weighting from the raw amplitudes
    def event_prob(amps):
        contracted = amps.reshape(2, 2) @ chi.conj()
        return float(np.real(np.vdot(contracted, contracted)))

    p1, p2 = event_prob(psi_1.amplitudes), event_prob(psi_2.amplitudes)
    assert p1 == pytest.approx(0.36, abs=1e-12)
    assert p2 == pytest.approx(0.5, abs=1e-12)
    total = weights[0] * p1 + weights[1] * p2
    exact = (weights[0] * p1 / total, weights[1] * p2 / total)

    ens = WeightedEnsemble(((weights[0], psi_1), (weights[1], psi_2)))
    event = chi[:, None]
    n_samples = 100_000
    successes = 0
    for seed in range(100):
        mc = monte_carlo_update(ens, event, "B", n_samples, seed=seed)
        accepted = sum(mc.accepted_counts)
        ok = True
        for k, w_exact in enumerate(exact):
            w_hat = mc.accepted_counts[k] / accepted
            se = np.sqrt(w_exact * (1 - w_exact) / accepted)
            if abs(w_hat - w_exact) > 3 * se:
                ok = False
        successes += 1 if ok else 0
    elapsed = time.monotonic() - start
    passed = successes >= 95 and elapsed <= 60.0
    acceptance(
        7,
        "empirical ensemble re-weighting matches the closed form within 3 standard errors",
        passed,
        f"{successes}/100 repetitions within bounds, {elapsed:.1f}s",
    )
    assert successes >= 95
    assert elapsed <= 60.0


def test_criterion_8_stern_gerlach_builtin(acceptance):
    doc = builtin_document("stern-gerlach")
    doc["initial"]["state"] = [[np.sqrt(0.3), 0.0], [np.sqrt(0.7), 0.0]]
    scenario = scenario_from_document(doc)
    from vnchain.scenarios import build_premeasurements, run_chain

    pms = build_premeasurements(scenario, seed=0)
    states = run_chain(scenario, pms)
    bd = branch_decomposition(states[-1], pms[-1].pointer)
    kept = {b.index: b.weight for b in bd.branches}
    weight_err = max(abs(kept.get(0, 0.0) - 0.3), abs(kept.get(1, 0.0) - 0.7))

    doc_up = builtin_document("stern-gerlach")
    doc_up["initial"]["state"] = "basis:0"
    pms_up = build_premeasurements(scenario_from_document(doc_up), seed=0)
    states_up = run_chain(scenario_from_document(doc_up), pms_up)
    bd_up = branch_decomposition(states_up[-1], pms_up[-1].pointer)
    single = bd_up.indices == (0,) and abs(bd_up.weights[0] - 1.0) <= 1e-10

    report = run(scenario)
    passed = weight_err <= 1e-10 and single and report.passed
    acceptance(
        8,
        "stern-gerlach builtin reproduces Born weights and the sharp single branch",
        passed,
        f"weight error {weight_err:.2e}, sharp branch {bd_up.indices}",
    )
    assert weight_err <= 1e-10
    assert single
    assert report.passed


def test_criterion_9_fault_injection(acceptance):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")

    def verify(*extra):
        return subprocess.run(
            [sys.executable, "-m", "vnchain", "verify", *extra],
            capture_output=True,
            text=True,
            env=env,
        )

    clean = verify()
    corrupted = verify("--corrupt=phase")
    corrupted_tree = json.loads(verify("--corrupt=phase", "--format", "json").stdout)
    failed_suites = [s["name"] for s in corrupted_tree["suites"] if not s["passed"]]
    passed = clean.returncode == 0 and corrupted.returncode == 2 and failed_suites
    acceptance(
        9,
        "fault injection flips verify to failure; unmodified verify exits 0",
        passed,
        f"clean exit {clean.returncode}, corrupt exit {corrupted.returncode}, "
        f"failing: {','.join(failed_suites)}",
    )
    assert clean.returncode == 0
    assert corrupted.returncode == 2
    assert failed_suites
