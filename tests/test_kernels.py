"""The check kernels ``_fro`` and ``_gram_residual``, and the constructors
built on them.

Both kernels must equal the numpy expressions they replace bit for bit, so
that no check, report or residual moves; an ast guard keeps every
default-order norm and every Gram residual in the package on them.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from vnchain import (
    DegenerateLayoutError,
    DimensionMismatchError,
    LayoutConflictError,
    NonOrthonormalBasisError,
    SubsystemBasis,
    SubsystemLayout,
    random_unitary,
)
from vnchain.hilbert import _fro, _gram_residual

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
