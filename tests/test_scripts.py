"""The scripts under scripts/: exit codes and the families they define."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from convexcyclic import Monomials
from convexcyclic.operators import TermTable, term_table

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture(scope="module")
def power_orbit():
    spec = importlib.util.spec_from_file_location(
        "power_orbit_experiment", SCRIPTS / "power_orbit_experiment.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_a_failed_build_prints_one_line_and_exits_2(power_orbit, capsys):
    # lemma_5_1_constant_widths admits no index at builder step 3.
    assert power_orbit.main(["--entry", "lemma_5_1_constant_widths"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: building the cyclic vector of lemma_5_1_constant_widths "
                          "failed: no admissible index at step 3")


@pytest.mark.parametrize("entry", ["direct_sum", "lemma_5_2", "lemma_5_2_narrow_gap"])
def test_an_entry_without_a_criterion_instance_exits_2(power_orbit, capsys, entry):
    assert power_orbit.main(["--entry", entry, "--powers", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: entry {entry!r} carries no criterion instance\n"


def test_inflated_family_is_read_through_its_members(power_orbit, capsys):
    family = power_orbit.InflatedFamily(Monomials(3), 2)
    table = term_table(family)
    want = TermTable.of(family.members())
    assert np.array_equal(table.powers, want.powers)
    assert np.array_equal(table.powers, [2, 4, 6])
    assert power_orbit.main(["--entry", "example_5_4", "--powers", "1", "2"]) == 0
    out, _ = capsys.readouterr()
    assert "     2  DenseAtScale" in out
