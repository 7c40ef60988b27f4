"""Byte-for-byte comparison of every CLI payload against tests/golden/."""

import json

import pytest

from golden_cases import GOLDEN_DIR, cases, run_case

EXIT_CODES = json.loads((GOLDEN_DIR / "exit_codes.json").read_text())


def test_golden_cases_cover_every_applicable_run():
    assert sorted(EXIT_CODES) == sorted(f"{n}/{lab}" for n, lab in cases())


@pytest.mark.parametrize("name,label", cases())
def test_payload_bytes_match_golden(name, label, tmp_path):
    code, payload = run_case(name, label, tmp_path)
    golden = GOLDEN_DIR / name / label
    assert code == EXIT_CODES[f"{name}/{label}"]
    assert sorted(payload) == sorted(p.name for p in golden.iterdir())
    for file_name, data in payload.items():
        assert data == (golden / file_name).read_bytes(), file_name
