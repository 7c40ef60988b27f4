"""Benchmark of the convexcyclic package.

    python3 perfbench/run.py --workload gallery --seed 0 --seconds 40 --trace 0

Runs fresh single-threaded interpreters (worker.py) one after another
until ``--seconds`` is used up, at least two of them.  Each one imports
the package from ``src/``, makes the workload's inputs from the seed and
times a cold pass and warm passes.  The outputs of every pass are checked
here, outside the timed region.  The last line on stdout is the result:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  The line before it holds the labels of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
THREAD_PINS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                       "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}
MIN_WORKERS = 2
#: Each worker runs warm passes for at least this long, one at least.
MIN_WARM_S = 2.0
#: A run that has not finished by then has hung: its worker is killed.
RUN_TIMEOUT_S = 170

os.environ.update(THREAD_PINS)
sys.path.insert(0, str(ROOT / "src"))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("gallery", "deep_orbit", "criterion_cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's self-tests")
    return parser.parse_args(argv)


def run_worker(job: dict, timeout: float) -> dict:
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, str(Path(__file__).with_name("worker.py")),
                           json.dumps(job)],
                          capture_output=True, text=True, timeout=timeout,
                          env=dict(os.environ, PYTHONHASHSEED="0"))
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - spawned
    report["duration_s"] = time.monotonic() - spawned
    return report


def run_workers(args, tmp: Path) -> list:
    """Workers one after another until ``args.seconds`` is used up.  When
    two more workers, each as long as the one before, would not fit, the
    next one is the last: it runs warm passes until the deadline."""
    reports = []
    started = time.monotonic()
    deadline = started + args.seconds
    estimate = None
    while True:
        index = len(reports)
        last = (index + 1 >= MIN_WORKERS and estimate is not None
                and time.monotonic() + 2 * estimate > deadline)
        workdir = tmp / f"worker{index}"
        workdir.mkdir()
        reports.append(run_worker({
            "root": str(ROOT), "workload": args.workload, "seed": args.seed,
            "size": args.size, "trace": args.trace, "min_warm_s": MIN_WARM_S,
            "fill_until": deadline if last else None, "workdir": str(workdir),
            "spans_path": str(OUT / "spans" / f"{args.workload}-seed{args.seed}-"
                                               f"worker{index}.json"),
        }, timeout=RUN_TIMEOUT_S - (time.monotonic() - started)))
        if last:
            return reports
        estimate = reports[-1]["duration_s"]


def end_to_end(reports: list) -> dict:
    cold = [p["seconds"] for r in reports for p in r["passes"] if p["label"] == "cold"]
    warm = [p["seconds"] for r in reports for p in r["passes"] if p["label"] == "warm"]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "cold_pass_s": statistics.median(cold),
        "warm_pass_s": statistics.median(warm),
        "peak_rss_mib": statistics.median(r["maxrss_kib"] for r in reports) / 1024,
    }


def per_layer(reports: list, error_rate: float, entries) -> dict:
    """Medians over the workers' traced passes, the gallery entries' times
    from the untraced warm passes, and the tracing overhead."""
    layers = [r["layers"] for r in reports]
    out = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    warm = [p for r in reports for p in r["passes"] if p["label"] == "warm"]
    traced = [p["seconds"] for r in reports for p in r["passes"] if p["label"] == "traced"]
    out["trace.overhead_s"] = (statistics.median(traced)
                               - statistics.median(p["seconds"] for p in warm))
    for entry in entries:
        seconds = [p["entry_seconds"][entry] for p in warm
                   if p["entry_seconds"] and entry in p["entry_seconds"]]
        out[f"gallery.verify_entry.{entry}.s"] = statistics.median(seconds) if seconds else 0.0
    out["setup.import_s"] = statistics.median(r["import_s"] for r in reports)
    out["error_rate"] = error_rate
    return out


def with_units(values: dict, kind: str) -> dict:
    """Attach the units BENCHMARK.json declares; the names must match it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json {kind}: "
                           f"{sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def labels(args) -> dict:
    git = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git = proc.stdout.strip() or None
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / "convexcyclic").glob("*.py")))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"), "thread_pins": THREAD_PINS,
        "git_commit": git, "src_lines": src_lines,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "convexcyclic" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import gate
    import workloads

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        reports = run_workers(args, tmp)
    finally:
        shutil.rmtree(tmp)
    params = workloads.SIZES[args.size][args.workload]
    attempted, failed, problems = gate.check(args.workload, args.seed, params,
                                             [p["output"] for r in reports
                                              for p in r["passes"]])
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        entries = workloads.SIZES["full"]["gallery"]["entries"]
        metrics = with_units(per_layer(reports, failed / attempted, entries), "per_layer")
    else:
        metrics = with_units(end_to_end(reports), "end_to_end")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    run_labels = labels(args)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"labels": run_labels, "result": result,
                    "workers": [{k: r[k] for k in ("setup_s", "import_s", "maxrss_kib",
                                                  "duration_s")}
                                | {"passes": [[p["label"], p["seconds"]]
                                              for p in r["passes"]]}
                                for r in reports]}, indent=1))
    print(json.dumps({"labels": run_labels}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
