"""Workload inputs and passes.

Each workload makes its inputs from the seed (set-up), runs one timed pass
over them, and turns a pass's result into plain JSON for the correctness
gate.  The package is imported by the caller before this module, so the
import is timed on its own.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from pathlib import Path

import numpy as np

from convexcyclic import cli, dynamics, gallery
from convexcyclic.config import dumps_config, entry_to_config
from convexcyclic.operators import BackwardShift, Monomials, Scale
from convexcyclic.spaces import ParityZero, TruncVector, materialize_subspace

WORKLOADS = ("gallery", "deep_orbit", "criterion_cli")

#: "full" is what the benchmark measures; "tiny" keeps the self-tests fast.
SIZES = {
    "full": {
        "gallery": {"entries": tuple(sorted(gallery.REGISTRY))},
        "deep_orbit": {"dim": 2048, "max_degree": 400, "targets": 16},
        # The defaults of entry_lemma_5_1, i.e. `gallery dump lemma_5_1`.
        "criterion_cli": {"k_count": 4, "dim": 512,
                          "codes": {"I": 1, "II": 0, "build": 0, "screen": 0}},
    },
    "tiny": {
        "gallery": {"entries": ("direct_sum", "example_5_2", "lemma_5_2_narrow_gap")},
        "deep_orbit": {"dim": 128, "max_degree": 24, "targets": 4},
        # Horizon 3 stops the power norms at 2^3 < 10, so the screen fails.
        "criterion_cli": {"k_count": 3, "dim": 128,
                          "codes": {"I": 1, "II": 0, "build": 0, "screen": 1}},
    },
}

#: Criterion I on the lemma_5_1 config: decay and recovery hold, the
#: interval span is not invariant.
CRITERION_I_CONDS = [True, True, False]

CLI_COMMANDS = (
    ("I", ["criterion", "--which", "I"]),
    ("II", ["criterion", "--which", "II"]),
    ("build", ["build"]),
    ("screen", ["screen"]),
)


# ---------------------------------------------------------------------------
# gallery: verify_entry on every registry entry
# ---------------------------------------------------------------------------


def prepare_gallery(seed: int, params: dict, workdir: Path) -> dict:
    entries = []
    for name in params["entries"]:
        entry = gallery.build_entry(name)
        entry.seed = seed
        entries.append(entry)
    return {"entries": entries}


def pass_gallery(state: dict, pass_dir: Path):
    problems = {}
    seconds = {}
    for entry in state["entries"]:
        start = time.perf_counter()
        problems[entry.name] = gallery.verify_entry(entry)
        seconds[entry.name] = time.perf_counter() - start
    return {"problems": problems, "seconds": seconds}


def output_gallery(state: dict, raw, pass_dir: Path) -> dict:
    return {"problems": raw["problems"]}


# ---------------------------------------------------------------------------
# deep_orbit: density_score of one long monomial orbit
# ---------------------------------------------------------------------------


def prepare_deep_orbit(seed: int, params: dict, workdir: Path = None) -> dict:
    """T = 2B on the even-zero span, a candidate whose orbit stays finite
    and normal through the top degree, and unit targets inside the span."""
    dim = params["dim"]
    rng = np.random.default_rng(seed)
    odd = np.arange(1, dim, 2)
    coords = np.zeros(dim)
    # 2^d c_{j+d} = r 2^{(3d - j)/4}: no overflow at degree 400, and no
    # subnormal coordinate, so every degree step costs the same.
    coords[odd] = rng.uniform(0.5, 1.5, odd.size) * 2.0 ** (-odd / 4.0)
    targets = []
    low_odd = odd[: min(32, odd.size)]
    for _ in range(params["targets"]):
        y = np.zeros(dim)
        support = rng.choice(low_odd, size=min(4, low_odd.size), replace=False)
        y[support] = rng.standard_normal(support.size)
        targets.append(TruncVector(y / np.linalg.norm(y)))
    return {
        "op": Scale(2.0, BackwardShift()),
        "candidate": TruncVector(coords),
        "subspace": materialize_subspace(ParityZero("even"), dim),
        "family": Monomials(params["max_degree"]),
        "targets": targets,
        "epsilon": 1e-2,
    }


def pass_deep_orbit(state: dict, pass_dir: Path):
    return dynamics.density_score(state["op"], state["candidate"], state["subspace"],
                                  state["family"], state["targets"], state["epsilon"])


def output_deep_orbit(state: dict, raw, pass_dir: Path) -> dict:
    return {"best": [[s.best_distance, s.witness_index] for s in raw.per_target]}


# ---------------------------------------------------------------------------
# criterion_cli: in-process CLI runs on the lemma_5_1 config
# ---------------------------------------------------------------------------


def prepare_criterion_cli(seed: int, params: dict, workdir: Path) -> dict:
    cfg = entry_to_config(gallery.entry_lemma_5_1(k_count=params["k_count"],
                                                  dim=params["dim"]))
    cfg.seed = seed
    path = workdir / "config.json"
    path.write_text(dumps_config(cfg))
    return {"config": str(path)}


def pass_criterion_cli(state: dict, pass_dir: Path):
    codes = {}
    for label, args in CLI_COMMANDS:
        out = pass_dir / label
        with contextlib.redirect_stdout(io.StringIO()):
            codes[label] = cli.main(args + ["--config", state["config"], "--out", str(out)])
    return codes


def _payload_digest(out: Path) -> str:
    """sha256 over every payload file's name and bytes; meta.json holds a
    timestamp and is left out."""
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.name != "meta.json":
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def output_criterion_cli(state: dict, raw, pass_dir: Path) -> dict:
    result = {}
    for label, _ in CLI_COMMANDS:
        out = pass_dir / label
        entry = {"code": raw[label], "digest": _payload_digest(out)}
        if label == "I":
            verdict = json.loads((out / "verdict.json").read_text())
            entry["conds"] = [verdict[c]["passed"] for c in ("cond1", "cond2", "cond3")]
        result[label] = entry
    return result


PREPARE = {"gallery": prepare_gallery, "deep_orbit": prepare_deep_orbit,
           "criterion_cli": prepare_criterion_cli}
PASS = {"gallery": pass_gallery, "deep_orbit": pass_deep_orbit,
        "criterion_cli": pass_criterion_cli}
OUTPUT = {"gallery": output_gallery, "deep_orbit": output_deep_orbit,
          "criterion_cli": output_criterion_cli}

