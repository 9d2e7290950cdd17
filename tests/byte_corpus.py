"""The byte contract of the command line: every case of ``corpus/cases.txt``
run in-process, and its exit code, stdout, stderr and output files.

Each stream and file is kept as a SHA-256, and also as text when it is
shorter than ``TEXT_LIMIT`` characters, so that a failure can show a diff.
Help text is formatted at 80 columns, and any warning is an error.

Regenerate ``corpus/expected.json`` after a change that moves bytes on
purpose, and list the moved cases in CHANGES.md:

    PYTHONPATH=src python tests/byte_corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import shlex
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np

from densecoding.cli import main

CORPUS = Path(__file__).resolve().parent / "corpus"
INPUTS = CORPUS / "inputs"
EXPECTED = CORPUS / "expected.json"
TEXT_LIMIT = 4096


def cases() -> dict[str, str]:
    """Case name -> its argument line, in file order."""
    lines = (CORPUS / "cases.txt").read_text(encoding="utf-8").splitlines()
    pairs = [line.split(":", 1) for line in lines if line and not line.startswith("#")]
    return {name: args.strip() for name, args in pairs}


def _record(text: str) -> dict:
    record = {"sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}
    if len(text) < TEXT_LIMIT:
        record["text"] = text
    return record


def run(args: str) -> dict:
    """Exit code, stdout, stderr and output files of one case, with the input
    and output directories written back as {in} and {out}."""
    with tempfile.TemporaryDirectory() as out_dir:
        places = {"{in}": str(INPUTS), "{out}": out_dir}
        argv = shlex.split(args)
        for placeholder, path in places.items():
            argv = [arg.replace(placeholder, path) for arg in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with (mock.patch.dict(os.environ, {"COLUMNS": "80"}), warnings.catch_warnings(),
              contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr)):
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code

        def placed(text: str) -> str:
            for placeholder, path in places.items():
                text = text.replace(path, placeholder)
            return text

        outs = {path.name: _record(path.read_text(encoding="utf-8"))
                for path in sorted(Path(out_dir).iterdir())}
    return {"exit": code, "stdout": _record(placed(stdout.getvalue())),
            "stderr": _record(placed(stderr.getvalue())), "out": outs}


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def regenerate() -> None:
    expected = {**versions(), "cases": {name: run(args) for name, args in cases().items()}}
    EXPECTED.write_text(json.dumps(expected, indent=1, ensure_ascii=False) + "\n",
                        encoding="utf-8")
    print(f"wrote {len(expected['cases'])} cases to {EXPECTED}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
