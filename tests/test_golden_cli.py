"""Byte-identity gate: every CLI call in golden_cli.json keeps its output.

Each case is an argv for ``centra.cli.main``; a case with an ``input``
gets ``--input`` pointing at that entry of ``inputs`` written to a file.
The digest is the sha256 of the exit status and stdout.  Re-record after
an intended output change with ``PYTHONPATH=src python
tests/test_golden_cli.py``.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from centra.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")
DATA = json.loads(GOLDEN.read_text(encoding="utf-8"))


def _digest(case, tmp_dir):
    argv = list(case["argv"])
    if "input" in case:
        path = Path(tmp_dir) / case["input"]
        path.write_text(DATA["inputs"][case["input"]], encoding="utf-8")
        argv += ["--input", str(path)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return hashlib.sha256(f"{rc}\n{out.getvalue()}".encode()).hexdigest()


@pytest.mark.parametrize("case", DATA["cases"],
                         ids=lambda c: " ".join(c["argv"][:5]))
def test_golden_cli(case, tmp_path):
    assert _digest(case, tmp_path) == case["digest"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case in DATA["cases"]:
            case["digest"] = _digest(case, tmp)
    GOLDEN.write_text(json.dumps(DATA, indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
