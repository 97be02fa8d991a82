"""Static checks over the library source.

``python tests/test_source.py`` prints the size of ``src/``: its lines, as
``wc -l`` counts them, and its lines of code, without docstrings, comments
and blank lines, as :func:`code_lines` counts them.
"""

import ast
import io
import re
import sys
import tokenize
from pathlib import Path

import polarlens

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "polarlens"


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


def _declared_dependencies() -> set[str]:
    # [project] dependencies, read without tomllib (Python 3.11+ only)
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[)", text, re.M | re.S).group(1)
    listing = re.search(r"^dependencies = \[(.*?)\]", project, re.M | re.S).group(1)
    names = re.findall(r'"([A-Za-z0-9_.-]+)', listing)
    return {name.lower().replace("-", "_") for name in names}


def test_third_party_imports_match_declared_dependencies():
    imported = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) == _declared_dependencies()


def test_oracle_imports_no_fast_path():
    # the brute force checks transform.py's kernels, so it may share only
    # the data types and the order dispatch with them
    tree = ast.parse((SRC / "bruteforce.py").read_text(encoding="utf-8"))
    relative = {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    }
    assert relative, "bruteforce.py imports nothing from the package"
    assert {module for module, _ in relative} <= {"distributions", "entropy"}, relative
    assert {name for module, name in relative if module == "entropy"} <= {"Order", "as_order"}


#: (module, attribute) pairs that perfbench/tracing.py's Tracer.install
#: replaces with timed wrappers; a rename would break traced runs only.
TRACED = [
    ("transform", "child_entropies"),
    ("transform", "transform_pair"),
    ("transform", "canonicalize_orientation"),
    *[(m, "conditional_renyi") for m in ("entropy", "transform", "experiments", "cli")],
    *[(m, "log2_power_sum") for m in ("entropy", "transform")],
    ("cli", "brute_force_profile"),
    ("cli", "perturbation_sweep"),
    ("cli", "extreme_example_sweep"),
    ("cli", "render_tables"),
]


def test_traced_attributes_resolve():
    import importlib

    missing = [
        f"{module}.{attr}"
        for module, attr in TRACED
        if not callable(getattr(importlib.import_module(f"polarlens.{module}"), attr, None))
    ]
    assert missing == []


def code_lines(source: str) -> int:
    """Lines of ``source`` that hold code, by ``tokenize``.

    A docstring is a string that stands alone as a statement; its lines,
    comments and blank lines do not count.  A token that spans lines
    counts each of them.
    """
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    layout = (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)
    ends = (tokenize.NEWLINE, tokenize.ENDMARKER)
    lines, prev = set(), tokenize.NEWLINE
    for tok, after in zip(tokens, tokens[1:] + tokens[-1:]):
        if tok.type in (tokenize.COMMENT, tokenize.NL):
            continue
        alone = tok.type == tokenize.STRING and prev in layout and after.type in ends
        prev = tok.type
        if not alone and tok.type not in layout + ends:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def test_code_lines_skips_docstrings_comments_and_blanks():
    source = '''"""Module docstring,
over two lines."""

# a comment
X = """a string that is a value,
not a docstring"""


def f(a,
      b):  # two lines of one statement
    """Docstring."""
    "a bare string statement"
    return (a
            + b)
'''
    # X's two lines, f's two, and the return's two
    assert code_lines(source) == 6
    assert code_lines("") == 0


if __name__ == "__main__":
    files = sorted((ROOT / "src").rglob("*.py"))
    texts = [path.read_text(encoding="utf-8") for path in files]
    print(f"src/: {sum(t.count(chr(10)) for t in texts)} lines by wc -l, "
          f"{sum(code_lines(t) for t in texts)} lines of code by tokenize")
