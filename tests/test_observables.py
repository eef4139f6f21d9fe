import ast
import dataclasses
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from vnchain import (
    PAULI_X,
    PAULI_Z,
    DecompositionOfIdentity,
    DensityOperator,
    DimensionMismatchError,
    InvalidDecompositionError,
    NonOrthonormalBasisError,
    NotAProjectorError,
    SpectralBranch,
    SpectralObservable,
    StateVector,
    SubsystemBasis,
    build_ideal,
    layout,
    observable_from_matrix,
    random_density,
    random_exact,
    random_ideal,
    random_state,
    random_unitary,
)
from vnchain import chains, cli, observables

from oracles import (
    brute_eigenbasis_projectors,
    check_dense_spectral_family,
    is_projector,
    projector_onto,
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


E2 = np.eye(2, dtype=complex)


def _observable(columns, eigenvalues, ranks, subsystem="A"):
    """The constructor on the columns of ``columns`` (a (d, m) array)."""
    return SpectralObservable(SubsystemBasis(subsystem, np.asarray(columns).T), eigenvalues, ranks)


class TestSpectralObservableInvariants:
    def test_zero_projector_rejected(self):
        with pytest.raises(NotAProjectorError, match="rank 0"):
            SpectralObservable.from_eigenbasis("A", [0.0, 1.0], [np.zeros((2, 0)), E2])
        with pytest.raises(NotAProjectorError, match="branch 0 block is empty: rank 0"):
            _observable(E2, (0.0, 1.0), (0, 2))

    def test_eigenvalue_separation_enforced(self):
        with pytest.raises(ValueError):
            SpectralObservable.from_eigenbasis("A", [0.0, 1e-12], [E2[:, :1], E2[:, 1:]])
        with pytest.raises(ValueError, match="not ascending"):
            _observable(E2, (1.0, 0.0), (1, 1))

    def test_incomplete_family_rejected(self):
        with pytest.raises(NotAProjectorError, match="do not sum to the identity"):
            SpectralObservable.from_eigenbasis("A", [1.0], [E2[:, :1]])
        with pytest.raises(NotAProjectorError, match="do not sum to the identity"):
            _observable(E2[:, :1], (1.0,), (1,))

    @pytest.mark.parametrize(
        "blocks,error",
        [
            ((E2[:, :1], np.eye(3)[:, 1:]), DimensionMismatchError),  # row counts differ
            ((E2[:, 0], E2[:, 1:]), DimensionMismatchError),  # a 1-D block
            ((E2[:, :1], E2[:, :1]), NotAProjectorError),  # the same column twice
        ],
    )
    def test_bad_blocks_rejected(self, blocks, error):
        with pytest.raises(error) as info:
            SpectralObservable.from_eigenbasis("A", range(len(blocks)), blocks)
        if error is NotAProjectorError:  # the basis's error, wrapped
            assert str(info.value).startswith("eigenbasis is not orthonormal: orthonormality")
            assert type(info.value.__cause__) is NonOrthonormalBasisError

    @pytest.mark.parametrize(
        "eigenvalues,ranks,message",
        [
            ((0.0, 1.0), (2,), "2 eigenvalues for 1 ranks"),
            ((), (), "at least one branch"),
            ((0.0,), (None,), "at least one block"),
            ((-2.0, -1.0, 0.0), (None, None, 1), "more than one complement"),
            ((0.0, 1.0), (1, 2), r"ranks \(1, 2\) do not split the 2 given columns"),
            ((-1.0, 0.0), (None, 2), "branch 0 complement is empty: rank 0"),
        ],
    )
    def test_eigenvalues_and_ranks_must_fit_the_columns(self, eigenvalues, ranks, message):
        with pytest.raises((DimensionMismatchError, NotAProjectorError), match=message):
            _observable(E2, eigenvalues, ranks)

    def test_branches_are_views_of_the_columns(self):
        """Each block is the next r_k columns of G, and the complement holds
        G itself: every branch shares the columns' rows, read-only."""
        u = random_unitary(5, np.random.default_rng(5))
        obs = _observable(u[:, :3], (-1.0, 0.0, 1.0), (2, None, 1))
        assert obs.eigenvalues == (-1.0, 0.0, 1.0) and obs.ranks == (2, None, 1)
        assert [b.rank for b in obs.branches] == [2, 2, 1]
        first, idle, last = obs.branches
        np.testing.assert_array_equal(first.basis, u[:, :2])
        np.testing.assert_array_equal(last.basis, u[:, 2:3])
        np.testing.assert_array_equal(idle.given, u[:, :3])
        for arr in (first.basis, idle.given, last.basis, obs.basis):
            assert np.shares_memory(arr, obs.columns.rows) and not arr.flags.writeable
        assert obs.gram_residual == obs.columns.gram_residual
        assert (obs.subsystem, obs.dim) == ("A", 5)

    def test_constructor_and_from_eigenbasis_agree(self):
        u = random_unitary(4, np.random.default_rng(6))
        blocks = [u[:, :1], u[:, 1:3], u[:, 3:]]
        direct = _observable(u, (0, 1, 2), (1, 2, 1))
        made = SpectralObservable.from_eigenbasis("A", [0.0, 1.0, 2.0], blocks)
        for a, b, q in zip(direct.branches, made.branches, blocks, strict=True):
            assert (a.index, a.eigenvalue) == (b.index, b.eigenvalue)
            np.testing.assert_array_equal(a.basis, q)
            np.testing.assert_array_equal(b.basis, q)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_eigenvalue_rejected(self, bad):
        with pytest.raises(ValueError, match="not all finite"):
            _observable(np.eye(2), (bad,), (2,))

    def test_projector_formed_on_each_read(self):
        q = random_unitary(3, np.random.default_rng(4))[:, :2]
        branch = SpectralBranch(0, 0.0, q)
        first = branch.projector
        assert first is not branch.projector
        assert not first.flags.writeable
        assert not branch.basis.flags.writeable
        assert branch.rank == 2
        np.testing.assert_allclose(first, q @ q.conj().T, rtol=0, atol=1e-15)
        q[0, 0] = 5.0  # the branch copied a writeable block
        assert branch.basis[0, 0] != 5.0

    def test_non_finite_projector_rejected(self):
        with pytest.raises(ValueError, match="NaN or infinite"):
            SpectralBranch(0, 0.0, np.diag([np.nan, 1.0]))
        with pytest.raises(ValueError, match="NaN or infinite"):
            DecompositionOfIdentity.from_blocks("A", (np.array([[np.nan], [1.0]]), E2[:, 1:]))


class TestCheckDecomposition:
    """``DecompositionOfIdentity.from_blocks`` is the one check of a family of
    blocks a caller gives."""

    def test_canonical_qubit_passes(self):
        blocks = (E2[:, :1], E2[:, 1:])
        d = DecompositionOfIdentity.from_blocks("B", blocks)
        assert (d.subsystem, d.dim, d.observable.eigenvalues) == ("B", 2, (0.0, 1.0))
        for p, q in zip(d.projectors, blocks, strict=True):
            np.testing.assert_allclose(p, projector_onto(q), rtol=0, atol=1e-15)

    def test_duplicated_projector_fails(self):
        q = E2[:, :1]
        with pytest.raises(InvalidDecompositionError, match="not orthonormal"):
            DecompositionOfIdentity.from_blocks("B", (q, q))

    def test_conjugation_preserves_validity(self):
        """The blocks U Q_k of the conjugated projectors U P_k U^dag pass."""
        e = np.eye(4)
        for _ in range(10):
            u = random_unitary(4, RNG)
            blocks = (u @ e[:, :1], u @ e[:, 1:3], u @ e[:, 3:])
            d = DecompositionOfIdentity.from_blocks("B", blocks)
            assert [b.rank for b in d.observable.branches] == [1, 2, 1]
            for got, q in zip(d.projectors, blocks, strict=True):
                np.testing.assert_allclose(got, projector_onto(q), rtol=0, atol=1e-12)

    def test_spectral_observable_decomposition_passes(self):
        h = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
        obs = observable_from_matrix((h + h.conj().T) / 2, "A")
        check_dense_spectral_family(list(zip(obs.eigenvalues, obs.decomposition().projectors)))
        dec = DecompositionOfIdentity.from_blocks("A", [b.basis for b in obs.branches])
        for got, want in zip(dec.projectors, obs.decomposition().projectors, strict=True):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "projectors,error,message",
        [
            ((np.zeros((2, 0)), E2), InvalidDecompositionError, "rank 0"),
            ((E2[:, :1],), InvalidDecompositionError, "do not sum to the identity"),
            (
                (E2[:, :1], np.array([[1.0], [1.0]]) / np.sqrt(2)),
                InvalidDecompositionError,
                "not orthonormal",
            ),
            ((E2, np.eye(3)), DimensionMismatchError, "row count"),
            ((), DimensionMismatchError, "at least one branch"),
        ],
    )
    def test_bad_families_rejected(self, projectors, error, message):
        with pytest.raises(error, match=message):
            DecompositionOfIdentity.from_blocks("B", projectors)


def _blocks(u, sizes):
    bounds = np.cumsum([0, *sizes])
    return [u[:, a:b] for a, b in zip(bounds, bounds[1:])]


# (dimension, column count of each block, complement eigenvalue)
EIGENBASIS_CASES = [
    (1, [1], None),
    (2, [1, 1], None),
    (2, [2], None),
    (3, [1, 2], None),
    (4, [2, 2], None),
    (4, [1, 1, 1, 1], None),
    (5, [3, 1, 1], None),
    (6, [1, 2, 3], None),
    (6, [6], None),
    (5, [1, 2], 0.5),  # complement placed between the blocks
    (2, [1], -1.0),  # pointer states with an idle complement
    (3, [1, 1], -1.0),
    (4, [1, 1], -1.0),
    (5, [1, 1, 1], -1.0),
    (6, [1], -1.0),
    (6, [1] * 5, -1.0),
]


class TestFromEigenbasis:
    @pytest.mark.parametrize("d,sizes,complement", EIGENBASIS_CASES)
    def test_agrees_with_dense_oracle(self, d, sizes, complement):
        blocks = _blocks(random_unitary(d, np.random.default_rng(10 * d + len(sizes))), sizes)
        eigs = [float(k) for k in range(len(sizes))]
        obs = SpectralObservable.from_eigenbasis("A", eigs, blocks, complement=complement)
        pairs = brute_eigenbasis_projectors(eigs, blocks, complement)
        check_dense_spectral_family(pairs)  # the same projectors pass every dense check
        assert obs.eigenvalues == tuple(e for e, _ in pairs)
        for k, (branch, (_, proj)) in enumerate(zip(obs.branches, pairs, strict=True)):
            assert branch.index == k
            np.testing.assert_allclose(branch.projector, proj, rtol=0, atol=1e-12)
        # ``basis`` holds the given blocks side by side; a complement adds no columns
        m = sum(sizes)
        assert obs.basis.shape == (d, m)
        np.testing.assert_allclose(obs.basis.conj().T @ obs.basis, np.eye(m), rtol=0, atol=1e-14)
        total = sum(branch.projector for branch in obs.branches)
        np.testing.assert_allclose(total, np.eye(d), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n,d", [(1, 1), (2, 2), (3, 3), (1, 4), (2, 5), (3, 6)])
    def test_pointer_from_states_agrees_with_dense_oracle(self, n, d):
        rng = np.random.default_rng(100 * n + d)
        u = random_unitary(d, rng)
        states = SubsystemBasis("B", tuple(u[:, k] for k in range(n)))
        ready = StateVector(layout(("B", d)), u[:, 0])
        measured = observable_from_matrix(np.diag(np.arange(n, dtype=float)), "A")
        pm = build_ideal(measured, states, ready)
        complement = -1.0 if n < d else None
        pairs = brute_eigenbasis_projectors(
            range(n), [u[:, k : k + 1] for k in range(n)], complement
        )
        check_dense_spectral_family(pairs)  # the oracle projectors pass every dense check
        assert pm.pointer.eigenvalues == tuple(e for e, _ in pairs)
        for branch, (_, proj) in zip(pm.pointer.branches, pairs, strict=True):
            np.testing.assert_allclose(branch.projector, proj, rtol=0, atol=1e-12)
        offset = 1 if complement is not None else 0
        assert pm.mapping == {k: k + offset for k in range(n)}


def _rejection_cases():
    u = random_unitary(3, np.random.default_rng(5))
    scaled = u.copy()
    scaled[:, 0] *= 1 + 1e-6
    with_nan = u.copy()
    with_nan[1, 1] = np.nan
    e = np.eye(2, dtype=complex)
    diagonal = np.array([[1.0], [1.0]]) / np.sqrt(2)
    # name: (eigenvalues, blocks, complement, error both constructors raise)
    return {
        "scaled_column": ([0, 1], [scaled[:, :1], scaled[:, 1:]], None, NotAProjectorError),
        "overlapping_blocks": ([0, 1], [u[:, :2], u[:, 1:]], None, NotAProjectorError),
        "empty_block": ([0, 1, 2], [u[:, :1], u[:, 1:1], u[:, 1:]], None, NotAProjectorError),
        "incomplete_without_complement": ([0, 1], [u[:, :1], u[:, 1:2]], None, NotAProjectorError),
        "empty_complement": ([0, 1], [u[:, :1], u[:, 1:]], -1.0, NotAProjectorError),
        "nan_entry": ([0, 1], [with_nan[:, :1], with_nan[:, 1:]], None, ValueError),
        "more_branches_than_dimensions": (
            [0, 1, 2],
            [e[:, :1], e[:, 1:], diagonal],
            None,
            DimensionMismatchError,
        ),
    }


REJECTIONS = _rejection_cases()


class TestEigenbasisRejections:
    """Each bad eigenbasis fails ``from_eigenbasis`` with the error class that
    the dense checks of the oracle raise for the projectors it spans."""

    @pytest.mark.parametrize("name", sorted(REJECTIONS))
    def test_same_error_as_dense(self, name):
        eigs, blocks, complement, error = REJECTIONS[name]
        with pytest.raises(error):
            SpectralObservable.from_eigenbasis("A", eigs, blocks, complement=complement)
        with pytest.raises(error):
            check_dense_spectral_family(brute_eigenbasis_projectors(eigs, blocks, complement))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_eigenvalue_rejected(self, bad):
        with pytest.raises(ValueError, match="not all finite"):
            SpectralObservable.from_eigenbasis("A", [0.0, bad], [np.eye(2)[:, :1], np.eye(2)[:, 1:]])


VALUE_TYPES = {
    "StateVector": lambda: StateVector(layout(("A", 2)), [1.0, 0.0]),
    "DensityOperator": lambda: DensityOperator(layout(("A", 2)), np.eye(2)[:, :1]),
    "SubsystemBasis": lambda: SubsystemBasis("A", (np.array([1.0, 0.0]), np.array([0.0, 1.0]))),
    "SpectralBranch": lambda: SpectralBranch(0, 0.0, np.eye(2)),
    "SpectralObservable": lambda: observable_from_matrix(PAULI_Z, "A"),
    "DecompositionOfIdentity": lambda: DecompositionOfIdentity.from_blocks("A", (np.eye(2),)),
}


@pytest.mark.parametrize("name", sorted(VALUE_TYPES))
def test_array_values_compare_and_hash_by_identity(name):
    a, b = VALUE_TYPES[name](), VALUE_TYPES[name]()
    assert a == a
    assert (a == b) is False
    assert a != b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2


def _count_eigh(monkeypatch) -> dict[str, int]:
    """Counts calls of ``np.linalg.eigh`` anywhere in the package."""
    counts = {"eigh": 0}
    original = np.linalg.eigh

    def counting(*args, **kwargs):
        counts["eigh"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return counts


def _count_reads(monkeypatch) -> dict[str, int]:
    """Counts calls of ``np.linalg.eigh`` and reads of
    ``SpectralBranch.projector``."""
    counts = _count_eigh(monkeypatch)
    counts["projector"] = 0
    projector = SpectralBranch.projector.fget

    def read(branch):
        counts["projector"] += 1
        return projector(branch)

    monkeypatch.setattr(SpectralBranch, "projector", property(read))
    return counts


def _copy_chain_document(n_qubits: int, analyses=("branches",)) -> dict:
    stages = [
        {
            "object": f"q{i}",
            "instrument": f"q{i + 1}",
            "measured": {"diag": [0, 1]} if i == 0 else "previous-pointer",
            "pointer_states": ["basis:0", "basis:1"],
            "ready": "basis:0",
            "kind": "ideal",
        }
        for i in range(n_qubits - 1)
    ]
    return {
        "name": "copy-chain",
        "subsystems": [[f"q{i}", 2] for i in range(n_qubits)],
        "initial": {"subsystem": "q0", "state": [[0.6, 0.0], [0.8, 0.0]]},
        "stages": stages,
        "analyses": list(analyses),
    }


class TestNoDenseProjectorChecks:
    """Every observable, event and dressing range is checked through its
    blocks by one Gram product; ``eigh`` runs only where
    ``observable_from_matrix`` diagonalizes a matrix, and a scenario's
    ``diag`` observable takes its exact spectral form without it."""

    def test_constructors(self, monkeypatch):
        counts = _count_eigh(monkeypatch)
        rng = np.random.default_rng(9)
        h = rng.standard_normal((5, 5))
        observable_from_matrix(h + h.T, "A")
        measured = observable_from_matrix(np.diag([0.0, 1.0]), "A")
        assert counts["eigh"] == 2
        eye = np.eye(64, dtype=complex)
        states = SubsystemBasis("B", (eye[:, 0], eye[:, 1]))
        build_ideal(measured, states, StateVector(layout(("B", 64)), eye[:, 2]))
        for da, db in [(2, 2), (3, 5), (4, 4)]:
            random_ideal("A", "B", da, db, rng)
            random_exact("A", "B", da, db, rng)
        assert counts["eigh"] == 2

    def test_copy_chain_run(self, monkeypatch, tmp_path, capsys):
        """No ``eigh``: the first link's measured ``diag`` is in its eigenbasis."""
        path = tmp_path / "copy.json"
        path.write_text(json.dumps(_copy_chain_document(6)))
        counts = _count_eigh(monkeypatch)
        assert cli.main(["run", str(path)]) == 0
        assert "result: PASS" in capsys.readouterr().out
        assert counts["eigh"] == 0

    def test_copy_chain_branch_analyses_use_blocks_only(self, monkeypatch, tmp_path, capsys):
        """Branches, improper mixture and world branches apply every pointer
        branch through its eigenbasis block: no projector is formed and none
        is diagonalized."""
        analyses = ("branches", "improper_mixture", "world_branches")
        path = tmp_path / "copy.json"
        path.write_text(json.dumps(_copy_chain_document(6, analyses)))
        counts = _count_reads(monkeypatch)
        assert cli.main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "result: PASS" in out and out.count("dropped") == 3
        assert counts == {"projector": 0, "eigh": 0}

    def test_given_projectors_are_still_checked(self, monkeypatch):
        counts = _count_reads(monkeypatch)
        psi = StateVector(layout(("A", 2), ("B", 2)), np.array([1.0, 0, 0, 1.0]) / np.sqrt(2))
        dec = DecompositionOfIdentity.from_blocks("B", (E2[:, :1], E2[:, 1:]))
        chains.improper_mixture(psi, dec)
        with pytest.raises(InvalidDecompositionError):
            DecompositionOfIdentity.from_blocks("B", (E2, E2))
        assert counts == {"projector": 0, "eigh": 0}

    def test_tripartite_checks_its_event_once(self, monkeypatch):
        counts = _count_eigh(monkeypatch)
        counts["blocks"] = 0
        check = chains._orthonormal_block

        def counting(*args):
            counts["blocks"] += 1
            return check(*args)

        monkeypatch.setattr(chains, "_orthonormal_block", counting)
        rng = np.random.default_rng(12)
        rho = random_density(layout(("A", 2), ("B", 2), ("C", 2)), rng)
        event = random_unitary(2, rng)[:, :1]
        for n in (1, 2, 3):
            chains.tripartite_conditional_consistency(rho, event, "B", "C")
            # one eigh per route: each factors its dense result once
            assert counts == {"eigh": 2 * n, "blocks": n}
        with pytest.raises(NotAProjectorError):
            chains.tripartite_conditional_consistency(rho, np.diag([0.5, 0.5]), "B", "C")
        assert counts == {"eigh": 6, "blocks": 4}


def callers(source: str, callee: str = "eigh") -> list[str]:
    """The enclosing function of every reference to ``callee`` in ``source``
    (a call, or an alias that a later call goes through), as
    ``"<function> at line <n>"``; ``<module>`` outside any function."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            name = child.attr if isinstance(child, ast.Attribute) else getattr(child, "id", None)
            if name == callee:
                found.append(f"{scope} at line {child.lineno}")
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


def package_callers(callee: str) -> dict[str, list[str]]:
    """``callers`` of ``callee`` in each module of ``src/vnchain``."""
    return {
        path.name: callers(path.read_text(), callee)
        for path in sorted(Path(observables.__file__).parent.glob("*.py"))
    }


class TestEighGuard:
    """Within ``src/vnchain``, ``eigh`` is called only in
    ``hilbert._hermitian_spectrum``, the one boundary of a caller's
    Hermitian matrix."""

    def test_only_the_hermitian_boundary_calls_eigh(self):
        calls = package_callers("eigh")
        offenders = [
            f"{module}: {call}"
            for module, found in calls.items()
            for call in found
            if not (module == "hilbert.py" and call.startswith("_hermitian_spectrum "))
        ]
        assert offenders == []
        assert len(calls["hilbert.py"]) == 1

    def test_eigh_callers_finds_every_spelling(self):
        source = (
            "import numpy as np\n"
            "from numpy.linalg import eigh\n"
            "w = np.linalg.eigh(np.eye(2))\n"
            "def f(p):\n"
            "    def g():\n"
            "        return eigh(p)\n"
            "    return np.linalg.eigvalsh(p), g\n"
            "class C:\n"
            "    def m(self, p):\n"
            "        return scipy.linalg.eigh(p)\n"
        )
        assert callers(source) == ["<module> at line 3", "g at line 6", "m at line 10"]


class TestFromMatrixGuard:
    """Within ``src/vnchain``, only the plain and tripartite conditioning
    routes, which contract an event against the dense rho, factor a dense
    matrix with ``DensityOperator.from_matrix``."""

    ALLOWED = {"conditional_state", "tripartite_conditional_consistency"}

    def test_only_the_dense_conditioning_routes_call_from_matrix(self):
        calls = package_callers("from_matrix")
        offenders = [
            f"{module}: {call}"
            for module, found in calls.items()
            for call in found
            if not (module == "chains.py" and call.split(" at ")[0] in self.ALLOWED)
        ]
        assert offenders == []
        assert sorted(call.split(" at ")[0] for call in calls["chains.py"]) == sorted(self.ALLOWED)

    def test_guard_sees_calls_and_aliases(self):
        source = (
            "def relabeled(self, m):\n"
            "    return DensityOperator.from_matrix(self.layout, m)\n"
            "def conditional_state(rho):\n"
            "    make = DensityOperator.from_matrix\n"
            "    return cls.from_matrix(lay, rho)\n"
        )
        assert callers(source, "from_matrix") == [
            "relabeled at line 2",
            "conditional_state at line 4",
            "conditional_state at line 5",
        ]


class TestObservableDecomposition:
    """A decomposition of the identity is a checked observable; its
    projectors are read from the observable's blocks."""

    def test_records_its_observable_and_forms_projectors_on_read(self):
        obs = observable_from_matrix(PAULI_X, "A")
        dec = obs.decomposition()
        assert dec.observable is obs and list(vars(dec)) == ["observable"]
        assert dec.dim == 2 and dec.subsystem == "A"
        first = dec.projectors
        assert first is not dec.projectors
        for p, b in zip(first, obs.branches, strict=True):
            assert not p.flags.writeable
            np.testing.assert_array_equal(p, b.projector)
        check_dense_spectral_family(list(zip(obs.eigenvalues, first)))

    def test_given_projectors_are_factored_by_their_blocks(self):
        rng = np.random.default_rng(8)
        u = random_unitary(3, rng)
        blocks = (u[:, [0, 2]], u[:, 1:2])
        dec = DecompositionOfIdentity.from_blocks("A", blocks)
        branches = dec.observable.branches
        assert [b.basis.shape for b in branches] == [(3, 2), (3, 1)]
        for b, p, q in zip(branches, dec.projectors, blocks, strict=True):
            np.testing.assert_array_equal(b.basis, q)
            np.testing.assert_allclose(p, projector_onto(q), rtol=0, atol=1e-14)

    def test_checked_mark_is_not_settable(self):
        """The observable is the only field: a decomposition cannot be made
        from bare projectors, nor be given another observable afterwards."""
        obs = observable_from_matrix(PAULI_Z, "A")
        with pytest.raises(TypeError):
            DecompositionOfIdentity("A", (np.eye(2),))
        with pytest.raises(TypeError):
            DecompositionOfIdentity(obs, projectors=(np.eye(2),))
        dec = obs.decomposition()
        with pytest.raises(dataclasses.FrozenInstanceError):
            dec.observable = observable_from_matrix(PAULI_X, "A")
        with pytest.raises(AttributeError):
            dec.projectors = (np.eye(2),)
        assert dataclasses.replace(dec).observable is obs

    def test_missing_attributes_stay_attribute_errors(self):
        dec = observable_from_matrix(PAULI_Z, "A").decomposition()
        with pytest.raises(AttributeError, match="no attribute 'no_such_attribute'"):
            dec.no_such_attribute


def _range_noise(q, rng, scale):
    """Q H for a Hermitian (r, r) H with ||H|| = scale / 2: noise that keeps
    the range of Q, so that the Gram residual ||(I + H)^2 - I|| of Q + Q H and
    the idempotency residual of its projector are both ``scale`` to first
    order."""
    r = q.shape[1]
    a = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    h = a + a.conj().T
    return q @ h * (scale / (2 * np.linalg.norm(h)))


class TestProjectorBlock:
    """``_orthonormal_block`` against the dense oracle ``is_projector`` of the
    projector Q Q^dag of its block."""

    @pytest.mark.parametrize("d,r", [(d, r) for d in range(2, 7) for r in range(1, d + 1)])
    @pytest.mark.parametrize(
        "kind,factor,accepted", [("hermitian", 0.5, True), ("hermitian", 2.0, False)]
    )
    def test_agrees_with_dense_oracle(self, d, r, kind, factor, accepted):
        rng = np.random.default_rng(40 * d + r)
        q = random_unitary(d, rng)[:, :r]
        noisy = q + _range_noise(q, rng, factor * observables.DEFAULT.orth * d)
        assert is_projector(projector_onto(q))
        assert is_projector(projector_onto(noisy)) is accepted
        if accepted:
            np.testing.assert_array_equal(observables._orthonormal_block(noisy, "event"), noisy)
        else:
            with pytest.raises(NotAProjectorError, match="event is not orthonormal"):
                observables._orthonormal_block(noisy, "event")

    @pytest.mark.parametrize(
        "p,error",
        [
            (np.ones((2, 3)), NotAProjectorError),
            (np.ones(4), NotAProjectorError),
            (np.diag([0.5, 0.5]), NotAProjectorError),
            (np.diag([np.nan, 1.0]), ValueError),
        ],
    )
    def test_rejects_what_the_oracle_rejects(self, p, error):
        """Blocks with more columns than rows, 1-D, non-orthonormal, NaN."""
        assert p.ndim != 2 or not is_projector(p @ p.conj().T)
        with pytest.raises(error):
            observables._orthonormal_block(p, "event")


def _entry_points():
    """Each public function that takes an event, called with a given event
    on the 3-dimensional subsystem B."""
    rng = np.random.default_rng(14)
    lay = layout(("A", 2), ("B", 3), ("C", 2))
    rho = random_density(lay, rng)
    pure = layout(("A", 2), ("B", 3))
    ens = chains.WeightedEnsemble(tuple((0.5, random_state(pure, rng)) for _ in range(2)))
    return {
        "conditional_state": lambda e: chains.conditional_state(rho, e, "B"),
        "conditional_state_sandwich": lambda e: chains.conditional_state(
            rho, e, "B", form="sandwich"
        ),
        "tripartite_conditional_consistency": lambda e: (
            chains.tripartite_conditional_consistency(rho, e, "B", "C")
        ),
        "ensemble_update": lambda e: chains.ensemble_update(ens, e, "B"),
        "monte_carlo_update": lambda e: chains.monte_carlo_update(ens, e, "B", 100, seed=0),
    }


ENTRY_POINTS = sorted(_entry_points())


class TestDenseEventRejected:
    """A dense projector P != I given where an event's block is due fails the
    block check, since ||P^dag P - I|| = sqrt(d - rank P) >= 1; it is never
    read as a block."""

    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_dense_projector_raises(self, name, rank):
        q = random_unitary(3, np.random.default_rng(rank))[:, :rank]
        call = _entry_points()[name]
        call(q)  # its block is accepted
        with pytest.raises(NotAProjectorError, match="event is not orthonormal"):
            call(projector_onto(q))


class TestNonFiniteEventRejected:
    """A block with a NaN or infinite entry is refused as such before its Gram
    product is formed, so no floating-point warning comes first."""

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0, np.nan)], ids=repr)
    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_typed_error_and_no_warning(self, name, bad):
        q = np.array(random_unitary(3, np.random.default_rng(5))[:, :1])
        q[1, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotAProjectorError) as info:
                _entry_points()[name](q)
        assert type(info.value) is NotAProjectorError
        assert str(info.value) == "event has NaN or infinite entries"

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=repr)
    def test_block_check_itself(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotAProjectorError, match="^event has NaN or infinite entries$"):
                observables._orthonormal_block(np.array([[1], [bad]]), "event")
