"""One fresh interpreter of a benchmark run.

Started by run.py with a JSON job on the command line.  It imports the
package from the checkout's ``src/``, makes the workload's inputs from the
seed, and runs a cold pass, then warm passes for at least ``min_warm_s``
seconds of wall time; the last worker of a run goes on until the next
pass would end after ``fill_until``.  When tracing, one more pass runs
with the tracer installed.  The last line on stdout is a JSON report; the
correctness gate runs in the parent on the outputs it carries.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path


def main(job: dict) -> dict:
    root = Path(job["root"])
    sys.path.insert(0, str(root / "src"))
    start = time.perf_counter()
    import convexcyclic
    import_s = time.perf_counter() - start
    if not Path(convexcyclic.__file__).resolve().is_relative_to(root / "src"):
        raise RuntimeError(f"imported convexcyclic from {convexcyclic.__file__}")

    import tracing
    import workloads

    workdir = Path(job["workdir"])
    name = job["workload"]
    params = workloads.SIZES[job["size"]][name]
    state = workloads.PREPARE[name](job["seed"], params, workdir)
    run_pass, output = workloads.PASS[name], workloads.OUTPUT[name]

    passes = []

    def timed_pass(label: str) -> None:
        pass_dir = workdir / f"pass{len(passes)}"
        gc.collect()
        begin = time.perf_counter()
        raw = run_pass(state, pass_dir)
        seconds = time.perf_counter() - begin
        passes.append({"label": label, "seconds": seconds,
                       "output": output(state, raw, pass_dir),
                       "entry_seconds": raw["seconds"] if name == "gallery" else None})

    ready = time.monotonic()
    timed_pass("cold")
    warm_start = time.monotonic()
    while True:
        pass_start = time.monotonic()
        timed_pass("warm")
        now = time.monotonic()
        if now - warm_start >= job["min_warm_s"] and (
                job["fill_until"] is None or now + (now - pass_start) > job["fill_until"]):
            break

    layers = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            timed_pass("traced")
        finally:
            tracer.uninstall()
        layers = tracing.layer_metrics(tracer)
        tracer.write_spans(Path(job["spans_path"]))

    return {
        "ready": ready,
        "import_s": import_s,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "passes": passes,
        "layers": layers,
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
