"""Fuzz of the CLI exit-code contract: one node of a working config replaced.

The base config is the ``gallery dump example_5_4`` document, on which all
five subcommands run.  One key or list index, leaf or container, gets a
value from a small set of pathological JSON values; a drawn subcommand then
runs in process.  Whatever the value, the run must end in exit 0, 1 or 2
with no exception escaping ``main``, and a second run must write the same
payload bytes.  The one large finite value, 10**15, must be rejected
before anything of that size is allocated.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from convexcyclic.cli import main
from convexcyclic.config import dumps_config, entry_to_config
from convexcyclic.gallery import build_entry

BASE = json.loads(dumps_config(entry_to_config(build_entry("example_5_4"))))
VALUES = [None, True, "x", [], {}, 5, -1, 0, 0.5, 2.7, 10 ** 15, math.nan, math.inf,
          -math.inf]
COMMANDS = [["density"], ["criterion", "--which", "I"], ["criterion", "--which", "II"],
            ["transitivity"], ["build"], ["screen"]]


def _paths(node, path=()):
    """Every key or list index below ``node``, containers and leaves alike."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


PATHS = list(_paths(BASE))


def _replaced(path, value) -> dict:
    data = json.loads(json.dumps(BASE))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


def _run(config: Path, command, out: Path):
    """Exit code and payload files (everything but meta.json) of one run."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(command + ["--config", str(config), "--out", str(out)])
    files = {p.relative_to(out).as_posix(): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file() and p.name != "meta.json"}
    return code, files


@given(st.sampled_from(PATHS), st.sampled_from(VALUES), st.sampled_from(COMMANDS))
@settings(max_examples=200, deadline=None)
def test_cli_fuzz_exit_contract(path, value, command):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = tmp / "config.json"
        config.write_text(json.dumps(_replaced(path, value)))
        first = _run(config, command, tmp / "a")
        assert first[0] in (0, 1, 2)
        assert _run(config, command, tmp / "b") == first
