"""Every narrative script under ``demos/`` runs to completion, and so does
every ``python`` block of the README, whose literal comments hold."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import vnchain

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr


def _literal_comments(block: str) -> list[tuple[str, object]]:
    """The (expression, value) pairs of a block's one-line expressions whose
    trailing comment is a Python literal, such as ``x.weights  # (0.5, 0.5)``."""
    pairs = []
    for line in block.splitlines():
        code, sep, comment = line.partition("#")
        if not sep or not code.strip():
            continue
        try:
            value = ast.literal_eval(comment.strip())
            ast.parse(code.strip(), mode="eval")
        except (SyntaxError, ValueError):
            continue
        pairs.append((code.strip(), value))
    return pairs


def test_readme_blocks_found():
    assert Path(vnchain.__file__).resolve().parent == ROOT / "src" / "vnchain"
    assert README_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS, ids=lambda b: b.splitlines()[0])
def test_readme_block_runs_and_its_literal_comments_hold(block):
    """Each block runs as written, and each line commented with a literal
    gives exactly that value, so a comment cannot drift from the code."""
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    for code, value in _literal_comments(block):
        assert eval(code, namespace) == value, code


def test_readme_tour_gives_its_branch_weights():
    """The tour's weights are |1/sqrt(2)|^2 in floating point, as printed."""
    tour = next(b for b in README_BLOCKS if "branch_decomposition(" in b)
    commented = dict(_literal_comments(tour))
    assert commented["branch_decomposition(final, pm.pointer).weights"] == (
        0.4999999999999999,
        0.4999999999999999,
    )


def _read_names(source: str) -> set[str]:
    """The identifiers a module reads: every loaded name and every attribute.
    A ``def`` or ``class`` statement and an import bind a name but read none."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_export_has_a_reader():
    """Each name ``vnchain/__init__.py`` imports is read by package code
    beyond its own definition, by a README ``python`` block or by a demo."""
    package = ROOT / "src" / "vnchain"
    init = ast.parse((package / "__init__.py").read_text())
    exports = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    sources = [p.read_text() for p in package.glob("*.py") if p.name != "__init__.py"]
    sources += [p.read_text() for p in DEMOS] + README_BLOCKS
    read = set().union(*map(_read_names, sources))
    assert sorted(exports - read) == []
