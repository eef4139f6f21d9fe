"""The library modules read every tolerance from ``vnchain.tolerances.DEFAULT``.

No function or dataclass there takes a tolerance, and no threshold is a bare
literal: each is a named, documented ``Tolerances`` field.
"""

import ast
from pathlib import Path

LIBRARY = Path(__file__).resolve().parent.parent / "src" / "vnchain"
MODULES = ("hilbert.py", "observables.py", "premeasurement.py", "chains.py", "branches.py")
KNOBS = {"tol", "atol", "merge_tol"}


def tolerance_offenders(source: str, module: str) -> list[str]:
    """Parameters and class fields named like a tolerance, and float literals
    in (0, 1e-3), each as ``"<what> <name> at <module>:<line>"``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.arg) and node.arg in KNOBS:
            found.append((node.lineno, node.col_offset, f"parameter {node.arg}"))
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.target.id in KNOBS
                ):
                    found.append((stmt.lineno, stmt.col_offset, f"field {stmt.target.id}"))
        elif isinstance(node, ast.Constant) and type(node.value) is float:
            if 0.0 < node.value < 1e-3:
                found.append((node.lineno, node.col_offset, f"literal {node.value!r}"))
    return [f"{what} at {module}:{line}" for line, _, what in sorted(found)]


def test_library_reads_tolerances_from_default_only():
    offenders = []
    for module in MODULES:
        offenders += tolerance_offenders((LIBRARY / module).read_text(), module)
    assert offenders == []


def test_tolerance_offenders_flags_knobs_and_literals():
    source = (
        "@dataclass(frozen=True)\n"
        "class State:\n"
        "    tol: InitVar[Tolerances] = DEFAULT\n"
        "    norm: float = 1.0\n"
        "def check(x, tol=DEFAULT, *, atol: float = 1e-8):\n"
        "    return abs(x) < 1e-150 or abs(x - 0.5) < 1e-3\n"
        "def merge(h, merge_tol):\n"
        "    return -2e-4 < h < DEFAULT.weight and h > 1 and 1e-9j\n"
    )
    assert tolerance_offenders(source, "m.py") == [
        "field tol at m.py:3",
        "parameter tol at m.py:5",
        "parameter atol at m.py:5",
        "literal 1e-08 at m.py:5",
        "literal 1e-150 at m.py:6",
        "parameter merge_tol at m.py:7",
        "literal 0.0002 at m.py:8",
    ]


def test_tolerance_offenders_passes_clean_code():
    source = (
        "class Basis:\n"
        "    vectors: tuple\n"
        "    def check(self, tolerance_report):\n"
        "        return self.norm > DEFAULT.completion and 0.5 < 1.0 and 2**10\n"
        "def call(x):\n"
        "    return np.allclose(x, 0, atol=DEFAULT.norm)\n"
    )
    assert tolerance_offenders(source, "m.py") == []
