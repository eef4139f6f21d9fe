"""The check kernels ``_fro`` and ``_gram_residual``, and the constructors
built on them.

Both kernels must equal the numpy expressions they replace bit for bit, so
that no check, report or residual moves; an ast guard keeps every
default-order norm and every Gram residual in the package on them.  Each
constructor's scalar check is also its finiteness check, and a second ast
guard keeps the ``np.isfinite`` scan off the success path.
"""

import ast
import cProfile
import contextlib
import dataclasses
import io
import json
import pstats
import warnings
from pathlib import Path

import numpy as np
import pytest

from vnchain import (
    DecompositionOfIdentity,
    DegenerateLayoutError,
    DensityOperator,
    DimensionMismatchError,
    DressingError,
    LayoutConflictError,
    NonOrthonormalBasisError,
    NotAProjectorError,
    SpectralObservable,
    StateVector,
    SubsystemBasis,
    SubsystemLayout,
    WeightedEnsemble,
    basis_state,
    build_exact,
    build_ideal,
    layout,
    observable_from_matrix,
    random_state,
    random_unitary,
    redecompose,
)
from vnchain import premeasurement
from vnchain.hilbert import _fro, _gram_residual, _hermitian_spectrum
from vnchain.premeasurement import random_observable
from vnchain.tolerances import DEFAULT

SRC = Path(__file__).resolve().parent.parent / "src" / "vnchain"


def _variants(rng, rows, cols, complex_):
    """The same kind of matrix in C order, transposed (F order), strided
    (every other row and column of a larger one) and as one column."""
    def draw(shape):
        a = rng.standard_normal(shape)
        return a + 1j * rng.standard_normal(shape) if complex_ else a

    yield "C", draw((rows, cols))
    yield "transposed", draw((cols, rows)).T
    yield "strided", draw((2 * rows, 2 * cols))[::2, ::2]
    yield "one-column", draw((rows, 1))


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("rows,cols", [(1, 1), (2, 2), (3, 5), (6, 4), (17, 9)])
def test_fro_equals_numpy_norm_bit_for_bit(rows, cols, complex_):
    rng = np.random.default_rng([rows, cols, complex_])
    for kind, a in _variants(rng, rows, cols, complex_):
        for x in (a, a[:, 0], 1e150 * a, 1e-170 * a):
            got, want = _fro(x), np.linalg.norm(x)
            assert type(got) is float, kind
            assert got == want, (kind, got, want)


def test_fro_of_other_inputs():
    assert _fro([3, 4]) == 5.0  # integers are read as floats, as numpy does
    assert _fro(np.zeros((0, 3))) == 0.0
    assert _fro(np.array(-2.0)) == 2.0
    assert np.isnan(_fro([1.0, np.nan]))
    assert _fro([1.0, np.inf]) == np.inf


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("rows,cols", [(1, 1), (2, 2), (4, 3), (6, 6), (9, 2), (24, 24)])
def test_gram_residual_equals_the_eye_form_bit_for_bit(rows, cols, complex_):
    rng = np.random.default_rng([rows, cols, complex_, 1])
    for kind, a in _variants(rng, rows, cols, complex_):
        k = a.shape[1]
        q = np.linalg.qr(a)[0] if a.shape[0] >= k else a  # near-orthonormal and not
        for m in (a, q):
            want = np.linalg.norm(m.conj().T @ m - np.eye(k))
            assert _gram_residual(m) == want, kind


def test_gram_residual_leaves_its_input_alone():
    q = random_unitary(4, np.random.default_rng(3))[:, :2]
    before = q.copy()
    assert _gram_residual(q) < 1e-14
    np.testing.assert_array_equal(q, before)


# --- the guard -----------------------------------------------------------------


def _is_np_call(node, *path):
    """``np.<path>(...)``, e.g. ``_is_np_call(node, "linalg", "norm")``."""
    if not isinstance(node, ast.Call):
        return False
    f, names = node.func, []
    while isinstance(f, ast.Attribute):
        names.append(f.attr)
        f = f.value
    return isinstance(f, ast.Name) and f.id == "np" and tuple(reversed(names)) == path


def _subtracts_eye(node) -> bool:
    return any(
        isinstance(n, ast.BinOp) and isinstance(n.op, ast.Sub) and _is_np_call(n.right, "eye")
        for n in ast.walk(node)
    )


def check_norm_offenders(source: str, module: str) -> list[str]:
    """Calls that bypass the kernels: ``np.linalg.norm`` of an expression
    that subtracts ``np.eye(...)`` (a Gram residual, which is
    ``_gram_residual``), and a default-order ``np.linalg.norm(x)`` (which is
    ``_fro``).  A norm with an order or an axis is neither."""
    offenders = []
    for node in ast.walk(ast.parse(source)):
        if not _is_np_call(node, "linalg", "norm"):
            continue
        where = f"{module}:{node.lineno}"
        if any(_subtracts_eye(a) for a in node.args):
            offenders.append((node.lineno, f"norm of X - eye at {where}"))
        elif len(node.args) == 1 and not node.keywords:
            offenders.append((node.lineno, f"default-order norm at {where}"))
    return [what for _, what in sorted(offenders)]


def test_check_norms_go_through_the_kernels():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        offenders += check_norm_offenders(path.read_text(), path.name)
    assert offenders == []


def test_guard_flags_both_forms():
    source = (
        "def f(m, x, k):\n"
        "    a = np.linalg.norm(m.conj().T @ m - np.eye(k))\n"
        "    b = float(np.linalg.norm(x))\n"
        "    c = np.linalg.norm(x, axis=1)\n"
        "    d = np.linalg.norm(x, 'nuc')\n"
        "    e = np.linalg.norm(m - np.eye(k, dtype=complex), 'nuc')\n"
        "    return np.eye(k) - m\n"
    )
    assert check_norm_offenders(source, "m.py") == [
        "norm of X - eye at m.py:2",
        "default-order norm at m.py:3",
        "norm of X - eye at m.py:6",
    ]


# --- constructors on the kernels ----------------------------------------------


class TestSubsystemBasis:
    def test_vectors_are_rows_of_one_frozen_array(self):
        q = random_unitary(3, np.random.default_rng(5))
        source = [q[:, 0], q[:, 2]]
        basis = SubsystemBasis("B", tuple(source))
        assert basis.rows.shape == (2, 3)
        assert basis.rows.dtype == complex
        assert not basis.rows.flags.writeable
        assert basis.dim == 3 and not basis.is_complete
        for k, v in enumerate(basis.vectors):
            assert v.base is basis.rows
            assert not v.flags.writeable
            np.testing.assert_array_equal(v, source[k])
        first = q[0, 0]
        source[0][0] = 7.0  # the caller's arrays are copied
        assert basis.vectors[0][0] == first != 7.0

    def test_lists_are_accepted(self):
        basis = SubsystemBasis("A", ([1, 0], [0, 1j]))
        assert basis.is_complete
        assert basis.vectors[1][1] == 1j

    def test_zero_d_vector_is_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError, match="inconsistent shapes"):
            SubsystemBasis("A", (np.array(1.0),))
        with pytest.raises(DimensionMismatchError, match="inconsistent shapes"):
            SubsystemBasis("A", (np.array([1.0, 0.0]), np.array(1.0)))

    @pytest.mark.parametrize(
        "vectors",
        [
            (np.array([1.0, 0.0]), np.array([0.0, 1.0, 0.0])),
            (np.eye(2),),
            (np.array([1.0, 0.0]), np.eye(2)),
        ],
    )
    def test_inconsistent_shapes_rejected(self, vectors):
        with pytest.raises(DimensionMismatchError, match="inconsistent shapes"):
            SubsystemBasis("A", vectors)

    def test_other_faults_keep_their_errors(self):
        with pytest.raises(NonOrthonormalBasisError, match="at least one vector"):
            SubsystemBasis("A", ())
        with pytest.raises(NonOrthonormalBasisError, match="3 vectors cannot be orthonormal"):
            SubsystemBasis("A", tuple(np.eye(2)) + (np.array([1.0, 1.0]) / 2,))
        with pytest.raises(ValueError, match="NaN or infinite"):
            SubsystemBasis("A", (np.array([np.nan, 0.0]),))
        with pytest.raises(NonOrthonormalBasisError, match="orthonormality residual 2.000e-06"):
            SubsystemBasis("A", (np.array([1.0 + 1e-6, 0.0]), np.array([0.0, 1.0])))


class TestSubsystemLayout:
    def test_derived_fields(self):
        lay = SubsystemLayout((("A", 2), (np.str_("B"), np.int64(3)), ("C", 4)))
        assert lay.subsystems == (("A", 2), ("B", 3), ("C", 4))
        assert lay.labels == ("A", "B", "C")
        assert lay.dims == (2, 3, 4)
        assert lay.dim == 24
        assert all(type(x) is int for x in lay.dims)
        assert all(type(x) is str for x in lay.labels)

    def test_faults(self):
        with pytest.raises(DegenerateLayoutError):
            SubsystemLayout(())
        with pytest.raises(LayoutConflictError, match="duplicate subsystem labels"):
            SubsystemLayout((("A", 2), ("B", 2), ("A", 2)))
        with pytest.raises(DimensionMismatchError):
            SubsystemLayout((("A", 2), ("B", 0)))
        with pytest.raises(ValueError):  # an entry that is not a (label, dim) pair
            SubsystemLayout((("A", 2), ("B", 3, 4)))


# --- finiteness: each scalar check is also the finiteness check ----------------

QUBIT = layout(("A", 2))
NON_FINITE = [np.nan, np.inf, -np.inf, complex(0, np.nan)]
NAN_MESSAGE = "array has NaN or infinite entries"


def _with(values, index, entry) -> np.ndarray:
    """A complex copy of ``values`` with ``entry`` at ``index``."""
    out = np.array(values, dtype=complex)
    out[index] = entry
    return out


def _read_only(values) -> np.ndarray:
    out = np.array(values, dtype=complex)
    out.setflags(write=False)
    return out


def _qubit_pm():
    measured = observable_from_matrix(np.diag([0.0, 1.0]), "A")
    pointer_states = SubsystemBasis("B", tuple(np.eye(2)))
    return build_ideal(measured, pointer_states, basis_state(layout(("B", 2)), 0))


def _ensemble():
    rng = np.random.default_rng(4)
    lay = layout(("A", 2), ("B", 2))
    return WeightedEnsemble(((0.5, random_state(lay, rng)), (0.5, random_state(lay, rng))))


E2 = np.eye(2)

# name: (value built with ``bad`` in one entry, error type, message)
NON_FINITE_CASES = {
    "normalized state": (
        lambda bad: StateVector(QUBIT, _with([1, 0], 1, bad)),
        ValueError,
        NAN_MESSAGE,
    ),
    "unnormalized state": (
        lambda bad: StateVector(QUBIT, _with([1, 0], 1, bad), normalized=False),
        ValueError,
        NAN_MESSAGE,
    ),
    "density factor": (
        lambda bad: DensityOperator(QUBIT, _with(E2[:, :1], (1, 0), bad)),
        ValueError,
        NAN_MESSAGE,
    ),
    "subsystem basis": (
        lambda bad: SubsystemBasis("A", tuple(_with(E2, (0, 1), bad))),
        ValueError,
        NAN_MESSAGE,
    ),
    "isometry": (
        lambda bad: dataclasses.replace(
            _qubit_pm(), isometry=_with(_qubit_pm().isometry, (3, 0), bad)
        ),
        ValueError,
        NAN_MESSAGE,
    ),
    "read-only eigenbasis block": (
        lambda bad: SpectralObservable.from_eigenbasis(
            "A", [0, 1], [_read_only(_with(E2[:, :1], (1, 0), bad)), _read_only(E2[:, 1:])]
        ),
        ValueError,
        NAN_MESSAGE,
    ),
    "read-only eigenbasis block with complement": (
        lambda bad: SpectralObservable.from_eigenbasis(
            "A", [0], [_read_only(_with(E2[:, :1], (1, 0), bad))], complement=1.0
        ),
        ValueError,
        NAN_MESSAGE,
    ),
    "writeable eigenbasis block": (
        lambda bad: SpectralObservable.from_eigenbasis(
            "A", [0, 1], [_with(E2[:, :1], (1, 0), bad), E2[:, 1:]]
        ),
        ValueError,
        NAN_MESSAGE,
    ),
    "read-only decomposition block": (
        lambda bad: DecompositionOfIdentity.from_blocks(
            "A", (_read_only(_with(E2[:, :1], (1, 0), bad)), _read_only(E2[:, 1:]))
        ),
        ValueError,
        NAN_MESSAGE,
    ),
    "object dressing": (
        lambda bad: build_exact(_qubit_pm(), [(E2, E2), (_with(E2, (0, 1), bad), E2)]),
        DressingError,
        "object dressing 1 has NaN or infinite entries",
    ),
    "instrument dressing": (
        lambda bad: build_exact(_qubit_pm(), [(E2, E2), (E2, _with(E2, (0, 0), bad))]),
        DressingError,
        "instrument dressing 1 has NaN or infinite entries",
    ),
    "mixing matrix": (
        lambda bad: redecompose(_ensemble(), _with(np.eye(3), (2, 0), bad)),
        ValueError,
        "mixing matrix has NaN or infinite entries",
    ),
}


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
@pytest.mark.parametrize("name", sorted(NON_FINITE_CASES))
def test_non_finite_entry_is_refused_by_name(name, bad):
    """The error and message a non-finite entry gets, with no floating-point
    warning on the way (the warning filter turns one into a failure)."""
    build, error, message = NON_FINITE_CASES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as info:
            build(bad)
    assert type(info.value) is error
    assert str(info.value) == message


def _scaled(values, index, scale) -> np.ndarray:
    out = np.array(values, dtype=complex)
    out[index] *= scale
    return out


def _isometry_scaled(residual):
    """The qubit premeasurement with one isometry column scaled so that its
    Gram residual is ``residual``."""
    pm = _qubit_pm()
    return dataclasses.replace(
        pm, isometry=_scaled(pm.isometry, (slice(None), 0), np.sqrt(1 + residual))
    )


# name: (value whose checked scalar is ``residual`` off, bound, error, message start)
BOUND_CASES = {
    "norm": (
        lambda r: StateVector(QUBIT, [1 + r, 0]),
        DEFAULT.norm,
        ValueError,
        "state flagged normalized",
    ),
    "trace": (
        lambda r: DensityOperator(QUBIT, [[np.sqrt(1 + r)], [0]]),
        DEFAULT.norm,
        ValueError,
        "trace ",
    ),
    "basis Gram": (
        lambda r: SubsystemBasis("A", tuple(_scaled(E2, 0, np.sqrt(1 + r)))),
        DEFAULT.orth * 2,
        NonOrthonormalBasisError,
        "orthonormality residual",
    ),
    "eigenbasis Gram": (
        lambda r: SpectralObservable.from_eigenbasis(
            "A", [0, 1], [_scaled(E2[:, :1], 0, np.sqrt(1 + r)), E2[:, 1:]]
        ),
        DEFAULT.orth * 2,
        NotAProjectorError,
        "eigenbasis is not orthonormal",
    ),
    "isometry": (
        _isometry_scaled,
        DEFAULT.unitary * 4,
        ValueError,
        "matrix is not an isometry",
    ),
}


@pytest.mark.parametrize("name", sorted(BOUND_CASES))
def test_finite_inputs_meet_the_same_bounds(name):
    """0.9x of a bound passes and 1.1x fails, with the finite-input message:
    writing the comparison NaN-safe moves no bound."""
    build, bound, error, start = BOUND_CASES[name]
    build(0.9 * bound)
    with pytest.raises(error) as info:
        build(1.1 * bound)
    assert type(info.value) is error
    assert str(info.value).startswith(start)


HUGE = np.array([[1e200, 1e200], [1e200, -1e200]])  # finite; its Gram product is not

# name: (value built on HUGE, error type, message)
OVERFLOW_CASES = {
    "subsystem basis": (
        lambda: SubsystemBasis("A", tuple(HUGE)),
        NonOrthonormalBasisError,
        "orthonormality residual nan",
    ),
    "isometry": (
        lambda: dataclasses.replace(_qubit_pm(), isometry=np.vstack([HUGE, np.zeros((2, 2))])),
        ValueError,
        "matrix is not an isometry: residual nan",
    ),
    "mixing matrix": (
        lambda: redecompose(_ensemble(), HUGE),
        ValueError,
        "mixing matrix must be unitary",
    ),
}


@pytest.mark.parametrize("name", sorted(OVERFLOW_CASES))
def test_gram_residual_that_overflows_to_nan_is_refused(name):
    """Finite entries whose Gram product overflows give a NaN residual (inf
    - inf), which the NaN-safe comparison refuses; ``residual > bound``
    passed it."""
    build, error, message = OVERFLOW_CASES[name]
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


class TestEigenbasisBlocks:
    """``from_eigenbasis`` copies a block only when ``SpectralBranch`` would."""

    def test_read_only_complex_block_is_adopted(self):
        blocks = [_read_only(E2[:, :1]), _read_only(E2[:, 1:])]
        obs = SpectralObservable.from_eigenbasis("A", [0, 1], blocks)
        for branch, block in zip(obs.branches, blocks, strict=True):
            assert branch.basis is block

    @pytest.mark.parametrize("kind", ["writeable complex", "read-only real"])
    def test_other_blocks_are_copied(self, kind):
        blocks = [np.array(E2[:, :1], dtype=complex), np.array(E2[:, 1:], dtype=complex)]
        if kind == "read-only real":
            blocks = [b.real.copy() for b in blocks]
            for b in blocks:
                b.setflags(write=False)
        obs = SpectralObservable.from_eigenbasis("A", [0, 1], blocks)
        for branch, block in zip(obs.branches, blocks, strict=True):
            assert not np.shares_memory(branch.basis, block)
            assert branch.basis.dtype == complex and not branch.basis.flags.writeable
            np.testing.assert_array_equal(branch.basis, block)

    def test_pointer_shares_the_rows_of_its_basis(self):
        pm = _qubit_pm()
        pointer_states = SubsystemBasis("B", tuple(np.eye(3)[:2]))
        pm = build_ideal(pm.measured, pointer_states, basis_state(layout(("B", 3)), 0))
        for k in range(2):
            branch = pm.pointer.branches[pm.mapping[k]]
            assert np.shares_memory(branch.basis, pointer_states.rows)


class TestHermitianSpectrum:
    def test_symmetrization_keeps_the_bits_of_the_plain_form(self):
        rng = np.random.default_rng(12)
        for d in (1, 2, 3, 5):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h = a + a.conj().T + 1e-12 * a  # Hermitian within DEFAULT.herm, not exactly
            _, got, got_vecs = _hermitian_spectrum(h)
            want, want_vecs = np.linalg.eigh((h + h.conj().T) / 2)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(got_vecs, want_vecs)

    def test_huge_finite_entries_give_finite_branches(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            merged = observable_from_matrix(np.diag([1e308, 1e308]), "A")
            split = observable_from_matrix(np.diag([1e308, -1e308]), "A")
        assert merged.eigenvalues == (1e308,) and merged.branches[0].rank == 2
        assert split.eigenvalues == (-1e308, 1e308)


# --- the guard on the finiteness scan --------------------------------------------

SCAN_HOLDERS = {"_frozen_array", "_refuse_non_finite"}


def check_scan_offenders(source: str, module: str) -> list[str]:
    """``np.isfinite`` calls outside ``_frozen_array`` (the paths no scalar
    check covers) and ``_refuse_non_finite`` (the failure path of a check)."""
    offenders = []

    def visit(node, holder):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if _is_np_call(child, "isfinite") and holder not in SCAN_HOLDERS:
                offenders.append(f"np.isfinite in {holder or 'module'} at {module}:{child.lineno}")
            visit(child, holder)

    visit(ast.parse(source), None)
    return offenders


def test_finiteness_scans_stay_off_the_success_path():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        offenders += check_scan_offenders(path.read_text(), path.name)
    assert offenders == []


def test_scan_guard_flags_other_holders():
    source = (
        "def _frozen_array(v):\n"
        "    return np.isfinite(v).all()\n"
        "def _refuse_non_finite(a):\n"
        "    return np.isfinite(a).all()\n"
        "class C:\n"
        "    def __post_init__(self):\n"
        "        if not np.isfinite(self.m).all():\n"
        "            raise ValueError\n"
        "ok = math.isfinite(1.0)\n"
        "bad = np.isfinite(x)\n"
    )
    assert check_scan_offenders(source, "m.py") == [
        "np.isfinite in __post_init__ at m.py:7",
        "np.isfinite in module at m.py:10",
    ]


def _copy_chain(links: int) -> dict:
    """A copy chain of ``links`` ideal qubit links, each reading the
    previous pointer."""
    labels = [f"q{i}" for i in range(links + 1)]
    stages = [
        {
            "object": labels[i],
            "instrument": labels[i + 1],
            "measured": {"diag": [0, 1]} if i == 0 else "previous-pointer",
            "pointer_states": ["basis:0", "basis:1"],
            "ready": "basis:0",
            "kind": "ideal",
        }
        for i in range(links)
    ]
    return {
        "name": "copy-chain",
        "subsystems": [[label, 2] for label in labels],
        "initial": {"subsystem": labels[0], "state": "plus"},
        "stages": stages,
        "analyses": ["branches"],
    }


def _calls_in_one_run(tmp_path, links: int, function: str) -> int:
    """Calls of the package function named ``function`` in one warm
    ``vnchain run`` of a copy chain of ``links`` links."""
    from vnchain.cli import main

    path = tmp_path / f"chain{links}.json"
    path.write_text(json.dumps(_copy_chain(links)))
    argv = ["run", str(path), "--format", "json"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0  # warm
        profile = cProfile.Profile()
        profile.enable()
        code = main(argv)
        profile.disable()
    assert code == 0
    stats = pstats.Stats(profile).stats
    return sum(v[1] for (_, _, name), v in stats.items() if name == function)


def test_chain_links_pay_no_finiteness_scan(tmp_path):
    """A link's states, bases, observables and isometry are covered by their
    own checks: the scans of a run are those of the one observable given as
    a matrix (its copy and its two eigenvector groups), however long the
    chain."""
    scans = [_calls_in_one_run(tmp_path, links, "_refuse_non_finite") for links in (2, 6)]
    assert scans == [3, 3]


def test_chain_links_check_two_grams_each(tmp_path):
    """An ideal link Gram-checks its pointer basis and its isometry, and
    nothing else: its complete pointer adopts the basis's check.  The one
    more Gram product of a run is that of the observable given as a matrix."""
    grams = [_calls_in_one_run(tmp_path, links, "_gram_residual") for links in (2, 6, 10)]
    assert grams == [2 * 2 + 1, 2 * 6 + 1, 2 * 10 + 1]


# --- the pointer of a complete basis adopts its Gram check ---------------------


def _complete_bases():
    """The standard basis and a Haar basis at d = 2..6."""
    for d in range(2, 7):
        yield f"standard-{d}", SubsystemBasis("B", tuple(np.eye(d)))
        q = random_unitary(d, np.random.default_rng(d))
        yield f"haar-{d}", SubsystemBasis("B", tuple(q.T))


COMPLETE_BASES = dict(_complete_bases())


@pytest.mark.parametrize("name", sorted(COMPLETE_BASES))
def test_adopted_pointer_equals_the_constructor_route(name):
    """The adopted pointer has the eigenvalues, blocks and side-by-side basis
    that ``from_eigenbasis`` gives the same rows, and ``build_ideal`` makes
    the same index map and isometry with either."""
    basis = COMPLETE_BASES[name]
    d = basis.dim
    adopted = SpectralObservable._adopt_basis(basis)
    built = SpectralObservable.from_eigenbasis(
        "B", [float(k) for k in range(d)], [v[:, None] for v in basis.vectors]
    )
    assert adopted.subsystem == built.subsystem
    assert adopted.eigenvalues == built.eigenvalues
    for a, b in zip(adopted.branches, built.branches, strict=True):
        assert a.index == b.index
        np.testing.assert_array_equal(a.basis, b.basis)
    np.testing.assert_array_equal(adopted.basis, built.basis)
    assert np.shares_memory(adopted.basis, basis.rows) and not adopted.basis.flags.writeable

    measured = random_observable(3, min(3, d), "A", np.random.default_rng(d))
    pointer_states = SubsystemBasis("B", basis.vectors[: measured.branch_count])
    ready = basis_state(layout(("B", d)), 0)
    if pointer_states.is_complete:
        pm = build_ideal(measured, pointer_states, ready)
        ref = build_ideal(measured, pointer_states, ready, pointer=built)
        assert pm.pointer.eigenvalues == adopted.eigenvalues
        assert pm.index_map == ref.index_map == tuple((k, k) for k in range(d))
        np.testing.assert_array_equal(pm.isometry, ref.isometry)
    # an adopted pointer read by the next link gives the V a built one gives
    pstates = SubsystemBasis("C", tuple(np.eye(d)))
    ready = basis_state(layout(("C", d)), 0)
    np.testing.assert_array_equal(
        build_ideal(adopted, pstates, ready).isometry, build_ideal(built, pstates, ready).isometry
    )


def test_incomplete_basis_keeps_the_full_check():
    basis = SubsystemBasis("B", tuple(np.eye(3)[:2]))
    with pytest.raises(NotAProjectorError, match="do not sum to the identity"):
        SpectralObservable._adopt_basis(basis)
    measured = observable_from_matrix(np.diag([0.0, 1.0]), "A")
    pm = build_ideal(measured, basis, basis_state(layout(("B", 3)), 0))
    assert pm.pointer.eigenvalues == (-1.0, 0.0, 1.0)
    assert pm.index_map == ((0, 1), (1, 2))


def test_adoption_applies_the_observable_criterion():
    """A residual at the basis's bound passes ``SubsystemBasis`` but fails the
    observable's (1 + eps) eps criterion, which the adoption applies to it."""
    basis = SubsystemBasis("B", tuple(np.eye(2)))
    eps = DEFAULT.orth * 2
    object.__setattr__(basis, "gram_residual", eps)
    with pytest.raises(NotAProjectorError, match="eigenbasis is not orthonormal") as info:
        SpectralObservable._adopt_basis(basis)
    assert type(info.value) is NotAProjectorError
    object.__setattr__(basis, "gram_residual", 0.9 * eps)
    SpectralObservable._adopt_basis(basis)


@pytest.mark.parametrize("scale", [1.1, 2.0])
def test_non_orthonormal_complete_basis_is_refused(scale):
    """A complete pointer basis off orthonormality is refused by the basis
    itself (``NonOrthonormalBasisError``), as before the adoption."""
    measured = observable_from_matrix(np.diag([0.0, 1.0]), "A")
    rows = _scaled(E2, 0, np.sqrt(1 + scale * DEFAULT.orth * 2))
    with pytest.raises(NonOrthonormalBasisError) as info:
        build_ideal(measured, SubsystemBasis("B", tuple(rows)), basis_state(layout(("B", 2)), 0))
    assert type(info.value) is NonOrthonormalBasisError


ADOPTION_CALLERS = {("premeasurement.py", "_pointer_from_states")}


def adoption_callers(source: str, module: str) -> set[tuple[str, str]]:
    """(module, enclosing function) of every call of ``_adopt_basis``."""
    found = set()

    def visit(node, holder):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name == "_adopt_basis":
                    found.add((module, holder or "module"))
            visit(child, holder)

    visit(ast.parse(source), None)
    return found


def test_only_the_pointer_of_a_basis_is_adopted():
    """The route past the observable constructor has one caller."""
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        callers |= adoption_callers(path.read_text(), path.name)
    assert callers == ADOPTION_CALLERS


def test_adoption_guard_finds_every_form():
    source = (
        "def f(b):\n"
        "    return SpectralObservable._adopt_basis(b)\n"
        "class C:\n"
        "    def g(self, b):\n"
        "        return _adopt_basis(b)\n"
        "x = obs._adopt_basis\n"
    )
    assert adoption_callers(source, "m.py") == {("m.py", "f"), ("m.py", "g")}


class TestIsometryOwnership:
    """``Premeasurement`` adopts a read-only complex V and copies any other."""

    def test_built_isometry_is_handed_over(self, monkeypatch):
        made = []
        original = premeasurement._checked_isometry

        def recording(m, shape):
            made.append(m)
            return original(m, shape)

        monkeypatch.setattr(premeasurement, "_checked_isometry", recording)
        pm = _qubit_pm()
        assert pm.isometry is made[-1]
        exact = build_exact(pm, [(E2, E2), (E2, E2)])
        assert exact.isometry is made[-1]
        for v in (pm.isometry, exact.isometry):
            assert not v.flags.writeable

    @pytest.mark.parametrize("kind", ["read-only complex", "writeable complex", "read-only real"])
    def test_given_isometry(self, kind):
        pm = _qubit_pm()
        v = np.array(pm.isometry.real if kind == "read-only real" else pm.isometry)
        if kind != "writeable complex":
            v.setflags(write=False)
        got = dataclasses.replace(pm, isometry=v).isometry
        assert (got is v) is (kind == "read-only complex")
        assert got.dtype == complex and not got.flags.writeable
        np.testing.assert_array_equal(got, v)
