#!/usr/bin/env python3
"""Rewrite the golden payloads under tests/golden/.

Payloads must stay byte-identical across changes, so run this only for a
deliberate, declared format change, and say in CHANGES.md which files
changed and why.  The script deletes tests/golden/ and reruns every
applicable subcommand on every gallery entry's dumped config.

Usage:
    PYTHONPATH=src python3 scripts/regen_goldens.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from golden_cases import GOLDEN_DIR, cases, run_case  # noqa: E402


def main() -> int:
    if GOLDEN_DIR.exists():
        shutil.rmtree(GOLDEN_DIR)
    codes = {}
    for name, label in cases():
        with tempfile.TemporaryDirectory() as tmp:
            code, payload = run_case(name, label, Path(tmp))
        target = GOLDEN_DIR / name / label
        target.mkdir(parents=True)
        for file_name, data in payload.items():
            (target / file_name).write_bytes(data)
        codes[f"{name}/{label}"] = code
        print(f"{name}/{label}: exit {code}, {len(payload)} files")
    (GOLDEN_DIR / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
