"""Byte-for-byte comparison of every CLI payload against tests/golden/."""

import json

import pytest

from convexcyclic import operators
from convexcyclic.gallery import build_entry
from golden_cases import GOLDEN_DIR, cases, run_case

EXIT_CODES = json.loads((GOLDEN_DIR / "exit_codes.json").read_text())


def test_golden_cases_cover_every_applicable_run():
    assert sorted(EXIT_CODES) == sorted(f"{n}/{lab}" for n, lab in cases())


def _assert_matches_golden(name, label, tmp_path):
    code, payload = run_case(name, label, tmp_path)
    golden = GOLDEN_DIR / name / label
    assert code == EXIT_CODES[f"{name}/{label}"]
    assert sorted(payload) == sorted(p.name for p in golden.iterdir())
    for file_name, data in payload.items():
        assert data == (golden / file_name).read_bytes(), file_name


@pytest.mark.parametrize("name,label", cases())
def test_payload_bytes_match_golden(name, label, tmp_path):
    _assert_matches_golden(name, label, tmp_path)


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("name,label", cases())
def test_payload_bytes_match_golden_at_small_blocks(name, label, rows, tmp_path, monkeypatch):
    # Engine blocks of 1 or 3 rows split every walk into row slices and
    # member blocks; the payloads keep their bytes.
    monkeypatch.setattr(operators, "BLOCK_BYTES", rows * build_entry(name).dim * 16)
    _assert_matches_golden(name, label, tmp_path)
