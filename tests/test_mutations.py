"""Fault injection: every fault below must make ``verify`` fail.

Each fault is monkeypatched into the library for one ``run_suites`` call;
the package has no hook for it.  ``FAULT_TABLE`` records which suites each
fault fails at ``trials=10, seed=0``; a suite that starts or stops catching
a fault changes the table, which is the point of keeping it.
"""

import types

import numpy as np
import pytest

from vnchain import chains, hilbert, observables, premeasurement, scenarios, suites
from vnchain.errors import UndefinedConditionalError
from vnchain.suites import run_suites

ISOMETRY_SUITES = {
    "premeasurement.equivalence_triangle",
    "premeasurement.ideal_definitions",
    "chains.two_link_resummation",
    "chains.born_weights",
}

# fault -> suites it fails (run_suites(trials=10, seed=0))
FAULT_TABLE = {
    "isometry_conjugated": ISOMETRY_SUITES | {"chains.decoherence_split"},
    "isometry_columns_reversed": ISOMETRY_SUITES,
    "isometry_column0_sign": ISOMETRY_SUITES,
    "dressing_term_dropped": {
        "premeasurement.equivalence_triangle",
        "premeasurement.pointer_completeness",
        "premeasurement.identity_dressing",
    },
    "eigenbasis_column_scaled": {
        "premeasurement.equivalence_triangle",
        "premeasurement.ideal_definitions",
        "premeasurement.pointer_completeness",
        "premeasurement.identity_dressing",
        "chains.two_link_resummation",
        "chains.decoherence_split",
        "chains.born_weights",
        "chains.absoluteness",
    },
    "conditional_factor_scaled": {
        "chains.born_weights",
        "chains.conditional_equivalences",
        "chains.redecomposition_invariance",
        "chains.monte_carlo_binomial",
    },
    "eigenblocks_swapped": {"observables.spectral_reconstruction"},
    "projector_block_complemented": {"chains.relative_state_forms"},
    "partial_trace_vector_conjugated": {
        "hilbert.partial_trace_psd",
        "premeasurement.ideal_definitions",
        "chains.decoherence_split",
        "chains.conditional_equivalences",
        "chains.absoluteness",
    },
    "partial_trace_matrix_transposed": {
        "hilbert.partial_trace_commutativity",
        "hilbert.partial_trace_psd",
        "chains.relative_state_forms",
        "chains.conditional_equivalences",
        "chains.tripartite_consistency",
    },
    "apply_local_operator_conjugated": {
        "premeasurement.equivalence_triangle",
        "chains.two_link_resummation",
        "chains.relative_state_forms",
        "chains.born_weights",
    },
    "mc_thresholds_reversed": {"chains.monte_carlo_binomial"},
    "psp_bra_conjugated": {"chains.relative_state_forms", "hilbert.expansion_resummation"},
    "expansion_coefficients_permuted": {
        "chains.relative_state_forms",
        "hilbert.expansion_resummation",
        "hilbert.psp_matches_expansion",
    },
}

# Suites that no fault above fails yet.  The ratchet test keeps this set and
# the table's union a partition of ``SUITES``, so the set can only shrink.
UNCOVERED_SUITES = {"hilbert.partial_trace_trace_one"}


def _reverse_columns(v):
    return v[..., ::-1]


def _flip_column0(v):
    v = np.array(v)
    v[..., 0] *= -1.0
    return v


# Faults in the closed-form isometry of ``build_ideal``, its only einsum;
# the einsum output has the object input (the column of V) as last axis.
ISOMETRY_FAULTS = {
    "isometry_conjugated": np.conj,
    "isometry_columns_reversed": _reverse_columns,
    "isometry_column0_sign": _flip_column0,
}


def _numpy_with_faulty_einsum(fault):
    faulty = types.SimpleNamespace(**vars(np))
    faulty.einsum = lambda *args, **kwargs: fault(np.einsum(*args, **kwargs))
    return faulty


def _coefficients_reversed(expand_in_basis):
    """Pairs (n, c_n) of an expansion relabelled (n, c_{N-1-n})."""

    def reversed_(*args):
        pairs = expand_in_basis(*args)
        return [(n, c) for (n, _), (_, c) in zip(pairs, reversed(pairs))]

    return reversed_


# Faults in a hilbert kernel, patched into every module that binds it.
KERNEL_FAULTS = {
    "partial_trace_vector_conjugated": (
        "partial_trace_vector",
        lambda f: lambda *args: np.conj(f(*args)),
    ),
    "partial_trace_matrix_transposed": ("partial_trace_matrix", lambda f: lambda *args: f(*args).T),
    "apply_local_operator_conjugated": (
        "apply_local",
        lambda f: lambda op, *args: f(np.conj(op), *args),
    ),
    "psp_bra_conjugated": (
        "partial_scalar_product",
        lambda f: lambda bra, *args: f(np.conj(bra), *args),
    ),
    "expansion_coefficients_permuted": ("expand_in_basis", _coefficients_reversed),
}
MODULES = (hilbert, observables, premeasurement, chains, suites, scenarios)


def _swap_first_blocks(from_eigenbasis):
    def swapped(subsystem, eigenvalues, blocks, complement=None):
        blocks = list(blocks)
        blocks[:2] = blocks[1::-1]
        return from_eigenbasis(subsystem, eigenvalues, blocks, complement)

    return swapped


def _complement_block(original):
    def complement(q, what):
        q = original(q, what)  # the same check; then the block of I - Q Q^dag
        return np.linalg.qr(q, mode="complete")[0][:, q.shape[1] :]

    return complement


def _inject(monkeypatch, fault: str) -> None:
    if fault in KERNEL_FAULTS:
        name, make = KERNEL_FAULTS[fault]
        original = getattr(hilbert, name)
        for module in MODULES:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, make(original))
    elif fault == "eigenblocks_swapped":
        # observable_from_matrix pairs its first two eigenvalues with each
        # other's blocks; the other observable builders are left alone.
        original = observables.SpectralObservable.from_eigenbasis
        monkeypatch.setattr(
            observables,
            "SpectralObservable",
            types.SimpleNamespace(from_eigenbasis=_swap_first_blocks(original)),
        )
    elif fault == "projector_block_complemented":
        # every event or dressing range a caller gives is carried as the block
        # of its complement; the observable constructor's check is left alone
        faulty = _complement_block(observables._orthonormal_block)
        for module in (chains, premeasurement):
            monkeypatch.setattr(module, "_orthonormal_block", faulty)
    elif fault in ISOMETRY_FAULTS:
        monkeypatch.setattr(
            premeasurement, "np", _numpy_with_faulty_einsum(ISOMETRY_FAULTS[fault])
        )
    elif fault == "dressing_term_dropped":
        original = premeasurement._dress
        monkeypatch.setattr(
            premeasurement, "_dress", lambda terms, *args: original(terms[1:], *args)
        )
    elif fault == "eigenbasis_column_scaled":
        original = premeasurement.random_unitary

        def scaled(*args):
            u = np.array(original(*args))
            u[:, 0] *= 1 + 1e-6
            return u

        monkeypatch.setattr(premeasurement, "random_unitary", scaled)
    elif fault == "mc_thresholds_reversed":
        # the Monte Carlo count compares member k's coins against the
        # occurrence probability of member K-1-k
        original = chains._mc_counts
        monkeypatch.setattr(
            chains, "_mc_counts", lambda w, probs, *args: original(w, probs[::-1], *args)
        )
    elif fault == "conditional_factor_scaled":
        original = chains._condition_vector

        def scaled(*args):
            w, m = original(*args)
            return w, None if m is None else 1.1 * m

        monkeypatch.setattr(chains, "_condition_vector", scaled)
    else:
        raise AssertionError(f"unknown fault {fault!r}")


def _failing(results) -> set[str]:
    return {r.name for r in results if not r.passed}


def test_clean_run_passes():
    assert _failing(run_suites(trials=10, seed=0)) == set()


@pytest.mark.parametrize("fault", sorted(FAULT_TABLE))
def test_fault_fails_its_suites(monkeypatch, fault):
    _inject(monkeypatch, fault)
    results = run_suites(trials=10, seed=0)
    assert _failing(results) == FAULT_TABLE[fault]


def test_every_suite_is_covered_or_listed_uncovered():
    covered = set().union(*FAULT_TABLE.values())
    assert not covered & UNCOVERED_SUITES
    assert covered | UNCOVERED_SUITES == {suite.name for suite in suites.SUITES}


def test_eigenblocks_fault_reaches_only_observable_from_matrix(monkeypatch):
    h = np.diag([0.0, 1.0, 2.0])
    clean = observables.observable_from_matrix(h, "A")
    pm = premeasurement.random_ideal("A", "B", 3, 4, np.random.default_rng(3))
    _inject(monkeypatch, "eigenblocks_swapped")
    broken = observables.observable_from_matrix(h, "A")
    assert broken.eigenvalues == clean.eigenvalues
    np.testing.assert_array_equal(broken.branches[0].basis, clean.branches[1].basis)
    np.testing.assert_array_equal(broken.branches[1].basis, clean.branches[0].basis)
    again = premeasurement.random_ideal("A", "B", 3, 4, np.random.default_rng(3))
    for name in ("measured", "pointer"):
        pairs = zip(getattr(again, name).branches, getattr(pm, name).branches, strict=True)
        for b, c in pairs:
            np.testing.assert_array_equal(b.basis, c.basis)


def test_isometry_faults_reach_the_isometry(monkeypatch):
    """Each isometry fault changes V and nothing else of the premeasurement."""
    clean = premeasurement.random_ideal("A", "B", 3, 4, np.random.default_rng(3))
    for fault in ISOMETRY_FAULTS:
        with monkeypatch.context() as m:
            _inject(m, fault)
            broken = premeasurement.random_ideal("A", "B", 3, 4, np.random.default_rng(3))
        assert np.linalg.norm(broken.isometry - clean.isometry) > 0.1
        assert broken.index_map == clean.index_map
        np.testing.assert_array_equal(broken.ready_state.amplitudes, clean.ready_state.amplitudes)
        for name in ("measured", "pointer"):
            pairs = zip(getattr(broken, name).branches, getattr(clean, name).branches, strict=True)
            for b, c in pairs:
                assert b.eigenvalue == c.eigenvalue
                np.testing.assert_array_equal(b.projector, c.projector)


def test_conditioning_fault_raises_instead_of_skipping(monkeypatch):
    """A conditioning fault that raises fails its suite; only a zero-probability
    event (``UndefinedConditionalError``) skips a case."""
    _inject(monkeypatch, "conditional_factor_scaled")
    rows = {r.name: r for r in run_suites(trials=10, seed=0)}
    for name in FAULT_TABLE["conditional_factor_scaled"]:
        assert rows[name].max_residual == float("inf")
        assert rows[name].note.startswith("raised ValueError: trace 1.21")


def test_non_orthonormal_eigenbasis_is_rejected_not_used(monkeypatch):
    """An eigenbasis off orthonormality by 1e-6 is refused when the observable
    is built, so every suite it reaches fails by raising."""
    _inject(monkeypatch, "eigenbasis_column_scaled")
    rows = {r.name: r for r in run_suites(trials=10, seed=0)}
    for name in FAULT_TABLE["eigenbasis_column_scaled"]:
        assert rows[name].max_residual == float("inf")
        assert rows[name].note.startswith("raised NotAProjectorError: eigenbasis is not orthonormal")


def test_suite_that_skips_every_case_fails(monkeypatch):
    def undefined(*args, **kwargs):
        raise UndefinedConditionalError("event has probability 0.0")

    monkeypatch.setattr(suites, "tripartite_conditional_consistency", undefined)
    rows = {r.name: r for r in run_suites(trials=10, seed=0)}
    row = rows["chains.tripartite_consistency"]
    assert (row.cases, row.passed) == (0, False)
    assert row.note == "ran no cases: every case was skipped"
    assert all(r.passed for name, r in rows.items() if name != row.name)
