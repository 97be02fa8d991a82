"""Golden outputs: the exact bytes of a fixed set of commands.

Each case runs ``polarlens`` in-process and compares its stdout, and for
``verify`` also its ``--out`` CSV, with the files under ``tests/golden/``;
the input files some cases read are under ``tests/data/``.
A change that moves these bytes on purpose rewrites the files with
``python tests/test_golden.py`` and says so in its change record; that
command prints, for each file it rewrites, how many numeric cells moved
and the largest absolute move, in total and for each order.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

import pytest

from polarlens.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "golden"
DATA = Path(__file__).resolve().parent / "data"

CASES = {
    "polarize-bsc0.2-n7": ["polarize", "--channel", "bsc:0.2", "--n", "7",
                           "--alpha", "0,0.1,0.5,1,2,10,100,inf"],
    "polarize-bsc0.11-n5-sort-shannon": ["polarize", "--channel", "bsc:0.11", "--n", "5",
                                         "--sort-shannon"],
    "polarize-bsc0.2-n5": ["polarize", "--channel", "bsc:0.2", "--n", "5",
                           "--alpha", "0.3,1,2.5,100"],
    "entropy-bec0.35": ["entropy", "--channel", "bec:0.35"],
    "example-extreme": ["example-extreme"],
    **{
        f"verify-{suite}": ["verify", "--suite", suite, "--trials", "20", "--seed", "5"]
        for suite in ("chain", "lemma1", "martingale", "minkowski")
    },
    "verify-oracle": ["verify", "--suite", "oracle", "--trials", "2", "--seed", "5"],
    "perturb-readme-spec": ["perturb", "--spec", str(DATA / "readme-spec.json"),
                            "--halvings", "3"],
    "polarize-four-atoms-n3": ["polarize", "--channel", f"file:{DATA / 'four-atoms.json'}",
                               "--n", "3", "--alpha", "0.5,1,2"],
    "polarize-bec0.35-prior0.3-n4": ["polarize", "--channel", "bec:0.35", "--prior0", "0.3",
                                     "--n", "4", "--alpha", "0,0.5,1,inf"],
}


def produce(name: str, workdir: Path) -> dict[str, bytes]:
    """Run one case; map each golden file name to the bytes it should hold."""
    argv = list(CASES[name])
    out_file = workdir / f"{name}.csv"
    if argv[0] == "verify":
        argv += ["--out", str(out_file)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == EXIT_OK
    files = {f"{name}.txt": stdout.getvalue().encode()}
    if argv[0] == "verify":
        files[out_file.name] = out_file.read_bytes()
    return files


@pytest.mark.parametrize("name", list(CASES))
def test_output_matches_golden(name, tmp_path):
    for file_name, got in produce(name, tmp_path).items():
        assert got == (GOLDEN / file_name).read_bytes(), file_name


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def moved_cells(old: bytes, new: bytes) -> str:
    """How the cells of ``new`` differ from those of ``old``.

    Cells are the runs between commas, brackets, colons, equals signs and
    whitespace.  Numeric cells are compared by value, the others as text.
    The first line totals the moved numeric cells; one more line per order
    follows, counting the cells of the table rows with that ``alpha`` (rows
    of tables without an alpha column count under "-").
    """
    split = re.compile(r"[\s,\[\]{}:=]+")
    before, after = old.decode().splitlines(), new.decode().splitlines()
    if len(before) != len(after):
        return f"{len(before)} -> {len(after)} lines"
    orders, text, column = {}, 0, None
    for line_a, line_b in zip(before, after):
        fields = line_b.split(",")
        if not line_b or line_b.startswith("#"):
            column = None
        elif "alpha" in fields:
            column = fields.index("alpha")
        order = fields[column] if column is not None and len(fields) > column else "-"
        cells_a, cells_b = split.split(line_a), split.split(line_b)
        if len(cells_a) != len(cells_b):
            text += 1
            continue
        for a, b in zip(cells_a, cells_b):
            x, y = _number(a), _number(b)
            if x is None or y is None:
                text += a != b
            elif a != b:
                moved, largest = orders.get(order, (0, 0.0))
                orders[order] = (moved + 1, max(largest, abs(x - y)))
    total = sum(m for m, _ in orders.values())
    largest = max((v for _, v in orders.values()), default=0.0)
    lines = [f"{total} numeric cells moved, largest move {largest:.3g}"]
    lines[0] += f", {text} other cells changed" if text else ""
    lines += [f"  alpha {k}: {m} moved, largest {v:.3g}" for k, (m, v) in orders.items()]
    return "\n".join(lines)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            for file_name, data in produce(case, Path(tmp)).items():
                path = GOLDEN / file_name
                old = path.read_bytes() if path.exists() else None
                if old == data:
                    continue
                path.write_bytes(data)
                print(f"{file_name}: " + ("new file" if old is None else moved_cells(old, data)))
