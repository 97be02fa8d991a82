"""Static checks over the library source."""

import ast
import re
from pathlib import Path

import polarlens

SRC = Path(__file__).resolve().parent.parent / "src" / "polarlens"


def test_library_reads_no_environment():
    # every setting is an argument or a constant, never a hidden variable
    readers = [
        f"{path.name}:{k}"
        for path in sorted(SRC.glob("*.py"))
        for k, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(r"environ|getenv", line)
    ]
    assert SRC.is_dir() and not readers, readers


def test_exports_are_listed_once_and_resolve():
    names = polarlens.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(polarlens, n)] == []
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(n for n in imported if not n.startswith("_") and n not in names) == []
