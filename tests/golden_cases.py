"""The golden payload cases: every applicable CLI subcommand run on the
``gallery dump`` config of every gallery entry.

``tests/golden/<entry>/<subcommand>/`` holds the payload files of one run
(everything the run writes except ``meta.json``, which carries a
timestamp); ``tests/golden/exit_codes.json`` holds the exit codes.
``tests/test_golden.py`` compares fresh runs byte for byte, and
``scripts/regen_goldens.py`` rewrites the files after a declared format
change.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

from convexcyclic import cli
from convexcyclic.config import config_to_dict, dumps_config, entry_to_config
from convexcyclic.gallery import REGISTRY, build_entry

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: (subcommand label, CLI arguments, config block the subcommand needs)
SUBCOMMANDS = (
    ("criterion_I", ["criterion", "--which", "I"], "criterion"),
    ("criterion_II", ["criterion", "--which", "II"], "criterion"),
    ("build", ["build"], "build"),
    ("screen", ["screen"], None),
    ("density", ["density"], "density"),
    ("transitivity", ["transitivity"], "transitivity"),
)


def cases() -> list:
    """(entry, subcommand label) for every applicable pair, sorted."""
    out = []
    for name in sorted(REGISTRY):
        blocks = config_to_dict(entry_to_config(build_entry(name)))
        for label, _, needs in SUBCOMMANDS:
            if needs is None or needs in blocks:
                out.append((name, label))
    return out


def run_case(name: str, label: str, workdir: Path):
    """Run one case in-process; returns (exit code, {file name: bytes})."""
    args = next(a for lab, a, _ in SUBCOMMANDS if lab == label)
    config = workdir / "config.json"
    config.write_text(dumps_config(entry_to_config(build_entry(name))))
    out = workdir / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(args + ["--config", str(config), "--out", str(out)])
    payload = {p.name: p.read_bytes() for p in sorted(out.iterdir())
               if p.name != "meta.json"}
    return code, payload
