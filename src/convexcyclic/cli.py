"""Experiment runner: every checker and the gallery behind subcommands.

Exit-code contract: 0 means the property held at this scale, 1 means it
failed at this scale, 2 means the run itself was invalid (bad config,
missing recovery rule, dimension too small, an orbit that overflows
floating point, a builder result that fails its own post-verification).
Report payloads are deterministic for a fixed config and seed; wall-clock
metadata is segregated into ``meta.json`` so payload files are
byte-reproducible.

The argument parser is built once per process, on the first ``main``
call, and every later call reuses it; an in-process loop over commands
pays for it once.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .config import (MAX_DEGREE, BuildBlock, ExperimentConfig, _count,
                     _positive, dumps_config, entry_to_config, family_to_dict,
                     load_config, vector_to_dict)
from .criteria import build_cyclic_vector, check_criterion_I, check_criterion_II
from .dynamics import (Verdict, default_density_targets, density_score,
                       transitivity_search)
from .errors import ConfigError, ConvexCyclicError, ScheduleInfeasible
from .gallery import REGISTRY, build_entry, verify_all
from .operators import screen_necessary_conditions
from .spaces import materialize_subspace

EXIT_HELD = 0
EXIT_FAILED = 1
EXIT_INVALID = 2


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_meta(out: Path, command: str) -> None:
    _write_json(out / "meta.json", {
        "command": command,
        "package_version": __version__,
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    })


def _finish(out: Path, lines: list, held: bool) -> int:
    """Write ``summary.txt``, print its lines and return the exit code."""
    text = "\n".join(lines)
    (out / "summary.txt").write_text(text + "\n")
    print(text)
    return EXIT_HELD if held else EXIT_FAILED


def _write_csv(path: Path, header: list, rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_records(out: Path, records: list, summary: dict) -> None:
    """``records.jsonl``: one line per record, then the summary record."""
    with (out / "records.jsonl").open("w") as fh:
        for rec in records + [{"record": "summary", **summary}]:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _prepare_out(arg: Optional[str], command: str) -> Path:
    out = Path(arg) if arg else Path("runs") / command
    out.mkdir(parents=True, exist_ok=True)
    return out


def _poly_payload(P) -> dict:
    return {"coefficients": list(P.coeffs), "degree": P.degree,
            "degree_profile": list(P.degree_profile())}


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    # Overrides obey the same ranges the config parser enforces.
    if getattr(args, "seed", None) is not None:
        cfg.seed = _count(args.seed, "--seed", least=0)
    if getattr(args, "horizon", None) is not None:
        cfg.horizon = _count(args.horizon, "--horizon", most=MAX_DEGREE)
    if getattr(args, "epsilon", None) is not None:
        cfg.tolerances.epsilon = _positive(args.epsilon, "--epsilon")
    return cfg


def _build(cfg: ExperimentConfig, block: BuildBlock):
    """The builder on the config's criterion instance, with its tolerances."""
    inst = cfg.criterion_instance()
    if not inst.Y:
        raise ConfigError("config.criterion.Y: the builder needs at least one target")
    return build_cyclic_vector(inst, block.j_max, block.c, k_step=block.k_step)


def _subspace(cfg: ExperimentConfig, command: str):
    """The config's subspace at its dim, for the orbit diagnostics."""
    if cfg.subspace is None or cfg.family is None:
        raise ConfigError(f"{command} runs need 'subspace' and 'family' blocks")
    if getattr(cfg, command) is None:
        raise ConfigError(f"{command} runs need a '{command}' block")
    m = materialize_subspace(cfg.subspace, cfg.dim)
    if len(m) == 0:
        raise ConfigError(f"config.subspace spans nothing at config.dim {cfg.dim}")
    return m


def run_density(cfg: ExperimentConfig, out: Path) -> int:
    m = _subspace(cfg, "density")
    if cfg.density.candidate == "build":
        candidate = _build(cfg, cfg.build).x
    else:
        candidate = cfg.density.candidate
    if cfg.density.targets == "default":
        targets = default_density_targets(m, count=cfg.density.target_count,
                                          seed=cfg.seed,
                                          radius=cfg.density.target_radius,
                                          p=cfg.p, complex_field=cfg.complex_field)
    else:
        targets = list(cfg.density.targets)
    report = density_score(cfg.operator, candidate, m, cfg.family, targets,
                           epsilon=cfg.tolerances.epsilon,
                           membership_rtol=cfg.tolerances.membership)

    records = [{"target_id": i, "best_distance": score.best_distance,
                "witness_index": score.witness_index,
                "witness": None if score.witness is None else _poly_payload(score.witness)}
               for i, score in enumerate(report.per_target)]
    payload = {
        "kind": "density_report",
        "verdict": report.verdict.value,
        "epsilon": report.epsilon,
        "family": family_to_dict(cfg.family),
        "orbit_size": report.orbit_size,
        "admissible_orbit_size": report.admissible_orbit_size,
        "per_target": records,
    }
    _write_json(out / "report.json", payload)
    _write_records(out, records, {
        "verdict": report.verdict.value, "epsilon": report.epsilon,
        "worst_distance": max(r["best_distance"] for r in records)})
    _write_csv(out / "table.csv",
               ["target_id", "best_distance", "witness_degree_profile"],
               ([rec["target_id"], repr(rec["best_distance"]),
                 "" if rec["witness"] is None else
                 ";".join(str(d) for d in rec["witness"]["degree_profile"])]
                for rec in records))
    lines = [f"density verdict: {report.verdict.value} at epsilon {report.epsilon}",
             f"targets: {len(records)}, orbit {report.orbit_size} "
             f"({report.admissible_orbit_size} inside the subspace)"]
    return _finish(out, lines, report.verdict == Verdict.DENSE_AT_SCALE)


def run_criterion(cfg: ExperimentConfig, which: str, out: Path) -> int:
    inst = cfg.criterion_instance()
    horizon = cfg.horizon if cfg.horizon is not None else len(inst.polys)
    if horizon > len(inst.polys):
        raise ConfigError(f"config.horizon {horizon} exceeds the "
                          f"{len(inst.polys)} criterion polys")
    check = check_criterion_I if which == "I" else check_criterion_II
    verdict = check(inst, horizon, cfg.tolerances.convergence)
    payload = {
        "kind": "criterion_verdict",
        "which": verdict.which,
        "horizon": verdict.horizon,
        "tolerance": cfg.tolerances.convergence,
        "cond1": asdict(verdict.cond1),
        "cond2": {"passed": verdict.cond2.passed,
                  "worst_tail_norm": verdict.cond2.worst_tail_norm,
                  "worst_recovery_error": verdict.cond2.worst_recovery_error},
        "cond3": {"passed": verdict.cond3.passed,
                  "details": [asdict(d) for d in verdict.cond3.details]},
        "all_passed": verdict.all_passed,
    }
    _write_json(out / "verdict.json", payload)
    _write_csv(out / "decay.csv", ["target_id", "k", "recovery_norm", "recovery_error"],
               ([y_index, k, repr(nk), repr(ek)]
                for y_index, (norms, errors) in enumerate(verdict.cond2.decay)
                for k, (nk, ek) in enumerate(zip(norms, errors), start=1)))
    lines = [f"criterion {which} at horizon {horizon}, "
             f"tol {cfg.tolerances.convergence}:",
             f"  condition 1: {'pass' if verdict.cond1.passed else 'FAIL'} "
             f"(worst tail {verdict.cond1.worst_tail_norm:.3e})",
             f"  condition 2: {'pass' if verdict.cond2.passed else 'FAIL'} "
             f"(worst tail {verdict.cond2.worst_tail_norm:.3e}, "
             f"worst recovery {verdict.cond2.worst_recovery_error:.3e})",
             f"  condition 3: {'pass' if verdict.cond3.passed else 'FAIL'}"]
    d = next((d for d in verdict.cond3.details if not d.passed), None)
    if d is not None:
        lines.append(f"    first violation at k={d.k}: residual "
                     f"{d.max_residual:.3e}, source {d.source_index}, "
                     f"landing index {d.landing_index}")
    return _finish(out, lines, verdict.all_passed)


def run_transitivity(cfg: ExperimentConfig, out: Path) -> int:
    m = _subspace(cfg, "transitivity")
    report = transitivity_search(cfg.operator, m, list(cfg.transitivity.pairs),
                                 cfg.family,
                                 samples_per_ball=cfg.transitivity.samples_per_ball,
                                 seed=cfg.seed,
                                 membership_rtol=cfg.tolerances.membership)
    records = [{"pair_id": i, "found": res.found, "witness_index": res.witness_index,
                "witness": None if res.witness is None else _poly_payload(res.witness),
                "invariance_residual": res.invariance_residual}
               for i, res in enumerate(report.per_pair)]
    payload = {"kind": "transitivity_report",
               "all_found": report.all_found(),
               "samples_per_ball": report.samples_per_ball,
               "seed": report.seed,
               "per_pair": records}
    _write_json(out / "report.json", payload)
    _write_records(out, records, {"all_found": report.all_found()})
    found = sum(1 for r in report.per_pair if r.found)
    lines = [f"transitivity: {found}/{len(records)} pairs found witnesses"]
    return _finish(out, lines, report.all_found())


def run_build(cfg: ExperimentConfig, out: Path) -> int:
    if cfg.build is None:
        raise ConfigError("build runs need a 'build' block")
    try:
        result = _build(cfg, cfg.build)
    except ScheduleInfeasible as err:
        payload = {"kind": "build_result", "feasible": False,
                   "failed_step": err.step, "required": err.required,
                   "best_bound": err.best_bound, "best_k": err.best_k}
        _write_json(out / "trace.json", payload)
        lines = [f"builder infeasible at step {err.step}: required "
                 f"< {err.required:.3e}, best achieved {err.best_bound:.3e}"]
        return _finish(out, lines, False)
    steps = [asdict(s) for s in result.steps]
    _write_json(out / "vector.json", vector_to_dict(result.x))
    _write_json(out / "trace.json", {"kind": "build_result", "feasible": True,
                                     "steps": steps})
    columns = ["xi", "four_term_bound", "post_limit", "post_error"]
    _write_csv(out / "trace.csv", ["j", "k"] + columns,
               ([s["j"], s["k"]] + [repr(s[c]) for c in columns] for s in steps))
    lines = [f"builder succeeded: {len(steps)} steps, indices "
             f"{[s['k'] for s in steps]}"]
    return _finish(out, lines, True)


def run_screen(cfg: ExperimentConfig, out: Path) -> int:
    horizon = cfg.horizon if cfg.horizon is not None else 10
    report = screen_necessary_conditions(cfg.operator, cfg.dim, horizon)
    payload = {"kind": "screen_report",
               "norm_estimate": report.norm_estimate,
               "norm_exceeds_one": report.norm_exceeds_one,
               "power_norms": list(report.power_norms),
               "growth_threshold": report.growth_threshold,
               "growth_attained": report.growth_attained,
               "passed": report.passed}
    _write_json(out / "report.json", payload)
    lines = [f"screen: norm {report.norm_estimate:.6g} "
             f"({'>' if report.norm_exceeds_one else '<='} 1), growth "
             f"{'attained' if report.growth_attained else 'NOT attained'} "
             f"within horizon {horizon}",
             f"screen {'passed' if report.passed else 'failed'} "
             "(necessary conditions only; passing proves nothing)"]
    return _finish(out, lines, report.passed)


def run_gallery(args) -> int:
    if args.gallery_command == "list":
        for name in sorted(REGISTRY):
            print(name)
        return EXIT_HELD
    if args.gallery_command == "dump":
        try:
            entry = build_entry(args.name)
        except KeyError as err:
            print(err.args[0], file=sys.stderr)
            return EXIT_INVALID
        text = dumps_config(entry_to_config(entry))
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
        return EXIT_HELD
    if args.gallery_command == "verify-all":
        # An unusable --out fails before the verification, not after it.
        out = _prepare_out(args.out, "gallery") if args.out else None
        started = time.monotonic()
        results = verify_all()
        failures = 0
        for name, problems in results.items():
            if problems:
                failures += 1
                print(f"entry {name}: MISMATCH")
                for p in problems:
                    print(f"  - {p}")
            else:
                print(f"entry {name}: ok")
        elapsed = time.monotonic() - started
        print(f"verified {len(results)} entries in {elapsed:.1f}s, "
              f"{failures} mismatching")
        if out:
            _write_json(out / "verify.json", results)
        return EXIT_HELD if failures == 0 else EXIT_FAILED
    raise AssertionError("unreachable gallery command")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of a process: built on first use, then reused, as
    ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="convexcyclic",
        description="Finite-truncation diagnostics for subspace convex-cyclic "
                    "operator dynamics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed=False, horizon=False, epsilon=False):
        # Only the overrides the subcommand reads are accepted.
        p.add_argument("--config", required=True, help="experiment config path")
        p.add_argument("--out", default=None, help="output directory")
        if seed:
            p.add_argument("--seed", type=int, default=None)
        if horizon:
            p.add_argument("--horizon", type=int, default=None)
        if epsilon:
            p.add_argument("--epsilon", type=float, default=None)

    add_common(sub.add_parser("density", help="orbit-density diagnostic"),
               seed=True, epsilon=True)
    crit = sub.add_parser("criterion", help="criterion condition checks")
    add_common(crit, horizon=True)
    crit.add_argument("--which", choices=["I", "II"], required=True)
    add_common(sub.add_parser("transitivity", help="ball-pair witness search"), seed=True)
    add_common(sub.add_parser("build", help="construct a cyclic-vector candidate"))
    add_common(sub.add_parser("screen", help="necessary-condition screen"), horizon=True)

    gal = sub.add_parser("gallery", help="named example instances")
    gal_sub = gal.add_subparsers(dest="gallery_command", required=True)
    gal_sub.add_parser("list")
    dump = gal_sub.add_parser("dump")
    dump.add_argument("name")
    dump.add_argument("--out", default=None)
    verify = gal_sub.add_parser("verify-all")
    verify.add_argument("--out", default=None)
    return parser


# Orbits and distances check finiteness themselves and report overflow as
# NumericalOverflow; numpy's overflow warnings would only repeat it on stderr.
@np.errstate(over="ignore")
def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gallery":
            return run_gallery(args)
        cfg = _apply_overrides(load_config(args.config), args)
        out = _prepare_out(args.out, args.command)
        _write_meta(out, args.command)
        if args.command == "density":
            return run_density(cfg, out)
        if args.command == "criterion":
            return run_criterion(cfg, args.which, out)
        if args.command == "transitivity":
            return run_transitivity(cfg, out)
        if args.command == "build":
            return run_build(cfg, out)
        if args.command == "screen":
            return run_screen(cfg, out)
    except ScheduleInfeasible as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return EXIT_FAILED
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_INVALID
    except ConvexCyclicError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as err:
        # Reads fail as ConfigError above, so this is an unusable --out.
        print(f"error: cannot write the output: {err}", file=sys.stderr)
        return EXIT_INVALID
    raise AssertionError("unreachable command")


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
