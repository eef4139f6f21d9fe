"""Fault injection: every fault below must make ``verify`` fail.

Each fault is monkeypatched into the library for one ``run_suites`` call;
the package has no hook for it.  ``FAULT_TABLE`` records which suites each
fault fails at ``trials=10, seed=0``; a suite that starts or stops catching
a fault changes the table, which is the point of keeping it.
"""

import types

import numpy as np
import pytest

from vnchain import chains, premeasurement, suites
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
}


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


def _inject(monkeypatch, fault: str) -> None:
    if fault in ISOMETRY_FAULTS:
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
