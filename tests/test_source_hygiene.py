"""Every name a package module imports is used in that module.

An import whose statement carries ``# noqa: F401`` is exempt: those keep a
function bound in a module that does not call it, so that the benchmark in
perfbench/ can rebind it there. A name listed in ``__all__`` counts as used.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vicspeech"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any("# noqa: F401" in lines[i - 1]
                   for i in range(node.lineno, node.end_lineno + 1)):
                continue
            for alias in node.names:  # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = ("from typing import Optional, Sequence\n"
              "from os import sep  # noqa: F401\n"
              "import numpy as np\n"
              "__all__ = ['f']\n"
              "def f(x: Sequence) -> None:\n"
              "    return np.asarray(x)\n")
    assert _unused_imports(source) == ["line 1: Optional"]
