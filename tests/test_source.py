"""Static checks over the library source."""

import re
from pathlib import Path

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
