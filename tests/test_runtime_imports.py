"""numpy is the only runtime dependency of the pmrsim package."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pmrsim"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "pmrsim"}


def _imported_roots(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_sources_import_only_stdlib_numpy_and_pmrsim():
    files = sorted(SRC.glob("*.py"))
    assert files
    foreign = [
        f"{path.name}:{lineno}: {root}"
        for path in files
        for lineno, root in _imported_roots(ast.parse(path.read_text(), str(path)))
        if root not in ALLOWED
    ]
    assert not foreign, "imports outside stdlib, numpy and pmrsim:\n" + "\n".join(foreign)
