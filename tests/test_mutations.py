"""Fault injection: every fault below must make ``verify`` fail.

Each fault is monkeypatched into the library for one ``run_suites`` call;
the package has no hook for it.  ``FAULT_TABLE`` records which suites each
fault fails at ``trials=10, seed=0``; a suite that starts or stops catching
a fault changes the table, which is the point of keeping it.
"""

import json
import math
import types

import numpy as np
import pytest

from vnchain import chains, hilbert, observables, premeasurement, scenarios, suites
from vnchain.branches import BranchDecomposition
from vnchain.errors import UndefinedConditionalError
from vnchain.hilbert import StateVector
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
    "eigenvalues_swapped": {"observables.spectral_reconstruction"},
    "complement_acts_as_given": {"chains.born_weights", "chains.absoluteness"},
    "extend_chain_axes_swapped": {"chains.two_link_resummation", "chains.decoherence_split"},
    "branch_weight_dropped": {"chains.born_weights"},
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
    "partial_trace_matrix_nan": {
        "hilbert.partial_trace_commutativity",
        "hilbert.partial_trace_trace_one",
        "hilbert.partial_trace_psd",
        "chains.relative_state_forms",
        "chains.conditional_equivalences",
        "chains.tripartite_consistency",
    },
    "partial_trace_matrix_first_term": {
        "hilbert.partial_trace_commutativity",
        "hilbert.partial_trace_trace_one",
        "hilbert.partial_trace_psd",
        "chains.relative_state_forms",
        "chains.conditional_equivalences",
        "chains.tripartite_consistency",
    },
    "apply_local_operator_conjugated": {
        "premeasurement.ideal_definitions",
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


def _reverse_columns(v):
    return v[..., ::-1]


def _flip_column0(v):
    v = np.array(v)
    v[..., 0] *= -1.0
    return v


def _conjugated(factor):
    """The factor of conj(V): every part conjugated."""

    def conj(part):
        return None if part is None else np.conj(part)

    thin, adjoint, idle = factor
    return conj(thin), conj(adjoint), None if idle is None else tuple(map(conj, idle))


def _on_inputs(fault):
    """``fault`` applied to the object input, the last axis, of each part of
    a factor that reads it: V when folded, else G^dag and the idle term's
    W_c (the identity when None), so that V becomes ``fault(V)``."""

    def faulty(factor):
        thin, adjoint, idle = factor
        if adjoint is None:
            return fault(thin), None, None
        if idle is not None:
            w_c, c_c = idle
            idle = fault(np.eye(adjoint.shape[1], dtype=complex) if w_c is None else w_c), c_c
        return thin, fault(adjoint), idle

    return faulty


# Faults in the factor through which the link kernel applies V, made on the
# first use of ``Premeasurement.factor`` on either side of its rule; each
# makes the kernel apply the faulty V, whose object input (the column of V)
# is the last axis.
ISOMETRY_FAULTS = {
    "isometry_conjugated": _conjugated,
    "isometry_columns_reversed": _on_inputs(_reverse_columns),
    "isometry_column0_sign": _on_inputs(_flip_column0),
}


def _faulty_factor(factor, fault):
    return lambda pm: fault(factor(pm))


def _first_term_dropped(replace):
    """``build_exact``'s ``dataclasses.replace`` with the object operator of
    the first dressed term zeroed: V loses that term."""

    def dropped(pm, operators, pointer_states):
        (u, branch), *rest = operators
        return replace(pm, operators=((0 * u, branch), *rest), pointer_states=pointer_states)

    return dropped


def _coefficients_reversed(expand_in_basis):
    """Pairs (n, c_n) of an expansion relabelled (n, c_{N-1-n})."""

    def reversed_(*args):
        pairs = expand_in_basis(*args)
        return [(n, c) for (n, _), (_, c) in zip(pairs, reversed(pairs))]

    return reversed_


def _first_traced_term(partial_trace_matrix):
    """The partial trace with each traced sum cut to its first term: the
    traced axes are read at index 0 instead of summed over, which moves the
    trace of the reduced matrix."""

    def first_term(matrix, dims, keep):
        dims = tuple(dims)
        index = tuple(slice(None) if i % len(dims) in keep else 0 for i in range(2 * len(dims)))
        kept = math.prod(dims[i] for i in keep)
        return np.asarray(matrix).reshape(dims + dims)[index].reshape(kept, kept)

    return first_term


def _first_entry_nan(partial_trace_matrix):
    """The partial trace with entry [0, 0] of its result NaN: a residual
    formed from it is NaN, which must fail its check, not pass it."""

    def poisoned(*args):
        out = np.array(partial_trace_matrix(*args))
        out[0, 0] = np.nan
        return out

    return poisoned


# Faults in a hilbert kernel, patched into every module that binds it.
KERNEL_FAULTS = {
    "partial_trace_vector_conjugated": (
        "partial_trace_vector",
        lambda f: lambda *args: np.conj(f(*args)),
    ),
    "partial_trace_matrix_transposed": ("partial_trace_matrix", lambda f: lambda *args: f(*args).T),
    "partial_trace_matrix_first_term": ("partial_trace_matrix", _first_traced_term),
    "partial_trace_matrix_nan": ("partial_trace_matrix", _first_entry_nan),
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


def _swap_first_eigenvalues(from_eigenbasis):
    def swapped(subsystem, eigenvalues, blocks, complement=None):
        eigenvalues = list(eigenvalues)
        eigenvalues[:2] = eigenvalues[1::-1]
        return from_eigenbasis(subsystem, eigenvalues, blocks, complement)

    return swapped


def _complement_as_given(branch, values, dims, axis):
    """G (G^dag x), the projection onto the given columns, where the idle
    complement branch applies x - G (G^dag x)."""
    g = branch.given
    coeffs = hilbert.apply_local(g.conj().T, values, dims, axis)
    back = hilbert.apply_local(g, coeffs, hilbert._resized(dims, axis, g.shape[1]), axis)
    return back.reshape(np.shape(values))


def _axes_swapped(extend_chain):
    """The extended state with its last two subsystem axes swapped: the new
    instrument lands one place early (on the object's place when the object
    is last)."""

    def swapped(*args, **kwargs):
        out = extend_chain(*args, **kwargs)
        tensor = out.amplitudes.reshape(out.layout.dims)
        return StateVector(out.layout, np.swapaxes(tensor, -1, -2).reshape(-1))

    return swapped


def _first_weight_dropped(branch_decomposition):
    """The decomposition without its first kept branch, whose weight is booked
    as dropped, so that the weights still sum to 1."""

    def dropped(*args):
        bd = branch_decomposition(*args)
        first = bd.branches[0]
        return BranchDecomposition(
            bd.pointer_subsystem, bd.branches[1:], bd.dropped_weight + first.weight
        )

    return dropped


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
    elif fault == "eigenvalues_swapped":
        # observable_from_matrix pairs its first two blocks with each other's
        # eigenvalues, which leaves them out of ascending order
        original = observables.SpectralObservable.from_eigenbasis
        monkeypatch.setattr(
            observables,
            "SpectralObservable",
            types.SimpleNamespace(from_eigenbasis=_swap_first_eigenvalues(original)),
        )
    elif fault == "complement_acts_as_given":
        # every idle complement branch acts as the given columns, G (G^dag x)
        monkeypatch.setattr(observables.ComplementBranch, "factor", _complement_as_given)
        monkeypatch.setattr(
            observables.ComplementBranch,
            "project",
            lambda branch, v: branch.given @ (branch.given.conj().T @ v),
        )
    elif fault == "extend_chain_axes_swapped":
        original = chains.extend_chain
        for module in MODULES:
            if getattr(module, "extend_chain", None) is original:
                monkeypatch.setattr(module, "extend_chain", _axes_swapped(original))
    elif fault == "branch_weight_dropped":
        original = premeasurement.branch_decomposition
        for module in MODULES:
            if getattr(module, "branch_decomposition", None) is original:
                monkeypatch.setattr(module, "branch_decomposition", _first_weight_dropped(original))
    elif fault == "projector_block_complemented":
        # every event a caller gives is carried as the block of its
        # complement; the observable constructor's check is left alone
        faulty = _complement_block(observables._orthonormal_block)
        monkeypatch.setattr(chains, "_orthonormal_block", faulty)
    elif fault in ISOMETRY_FAULTS:
        original = premeasurement._factor
        monkeypatch.setattr(
            premeasurement, "_factor", _faulty_factor(original, ISOMETRY_FAULTS[fault])
        )
    elif fault == "dressing_term_dropped":
        monkeypatch.setattr(premeasurement, "replace", _first_term_dropped(premeasurement.replace))
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


def test_every_suite_is_covered():
    """Every suite fails under some fault of the table."""
    assert set().union(*FAULT_TABLE.values()) == {suite.name for suite in suites.SUITES}


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
            np.testing.assert_array_equal(b.projector, c.projector)


def test_isometry_faults_reach_the_isometry(monkeypatch):
    """Each isometry fault changes V and nothing else of the premeasurement."""
    clean = premeasurement.random_ideal("A", "B", 3, 4, np.random.default_rng(3))
    clean_isometry = clean.isometry  # formed before any fault is injected
    for fault in ISOMETRY_FAULTS:
        with monkeypatch.context() as m:
            _inject(m, fault)
            broken = premeasurement.random_ideal("A", "B", 3, 4, np.random.default_rng(3))
            assert np.linalg.norm(broken.isometry - clean_isometry) > 0.1  # factor made on use
        assert broken.isometry_bound == clean.isometry_bound
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


def test_a_nan_residual_fails_its_suite(monkeypatch):
    """The NaN fault makes the two partial-trace identities' residuals NaN
    (reported as NaN, not as the largest finite residual); the other suites
    it fails refuse the NaN state by raising."""
    _inject(monkeypatch, "partial_trace_matrix_nan")
    rows = {r.name: r for r in run_suites(trials=10, seed=0)}
    for name in ("hilbert.partial_trace_commutativity", "hilbert.partial_trace_trace_one"):
        assert (rows[name].cases, rows[name].passed, rows[name].note) == (10, False, "")
        assert math.isnan(rows[name].max_residual)


def test_a_nan_residual_prints_as_nan_and_null(monkeypatch, capsys):
    from vnchain.cli import main

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    _inject(monkeypatch, "partial_trace_matrix_nan")
    assert main(["verify", "--trials", "10", "--format", "json"]) == 2
    tree = json.loads(capsys.readouterr().out, parse_constant=reject)
    row = tree["suites"][0]
    assert row["name"] == "hilbert.partial_trace_commutativity"
    assert (row["cases"], row["max_residual"], row["passed"]) == (10, None, False)
    assert main(["verify", "--trials", "10"]) == 2
    line = capsys.readouterr().out.splitlines()[0]
    assert "cases=10    max_residual=nan  tol=1.0e-10  FAIL" in line


def _nan_first_entry(linked):
    """The link kernel with the first amplitude of its result NaN."""

    def poisoned(*args):
        out = np.array(linked(*args))
        out.reshape(-1)[0] = np.nan
        return out

    return poisoned


@pytest.mark.parametrize("kind", ["ideal", "exact"])
def test_a_nan_link_fails_every_condition(monkeypatch, kind):
    """One NaN amplitude out of each call of the link kernel makes all three
    condition residuals NaN, and every condition fails."""
    rng = np.random.default_rng(5)
    pm = (premeasurement.random_ideal if kind == "ideal" else premeasurement.random_exact)(
        "A", "B", 3, 4, rng
    )
    assert all(rep.passed for rep in premeasurement.check_conditions(pm, trials=4, seed=1))
    monkeypatch.setattr(premeasurement, "_linked", _nan_first_entry(premeasurement._linked))
    reports = premeasurement.check_conditions(pm, trials=4, seed=1)
    assert [rep.condition for rep in reports] == [
        "calibration",
        "probability_reproduction",
        "dynamical",
    ]
    for rep in reports:
        assert math.isnan(rep.max_residual) and not rep.passed, rep


def test_worst_keeps_a_nan_wherever_it_stands():
    assert hilbert._worst([]) == 0.0
    assert hilbert._worst([1e-3, math.inf, 2.0]) == math.inf
    for values in ([math.nan, 1.0], [1.0, math.nan], [0.0, math.inf, math.nan]):
        assert not math.isnan(max(0.0, *values))  # the builtin fold drops it
        assert math.isnan(hilbert._worst(values))
    # otherwise max(0.0, *values) to the bit: the first of equal values is kept
    first, second = np.float64(0.5), 0.5
    assert hilbert._worst([first, second]) is first
    assert str(hilbert._worst([-0.0, -1.0])) == "0.0"


def test_a_nan_monte_carlo_ratio_is_a_failed_repetition():
    assert suites._failed_fraction([(0.5,), (math.nan,), (1.0,), (1.5,)]) == 0.5
