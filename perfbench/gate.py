"""Correctness gate: one check per experiment of every pass, run outside
the timed region on the outputs the workers report.

- gallery: each entry's ``verify_entry`` returns no problems.
- deep_orbit: each target's best distance and witness index agree with an
  orbit built from ``to_dense`` matrix-vector products, never ``apply``.
- criterion_cli: each command's exit code is the expected one, criterion I
  fails only its third condition, and the payload files are byte-identical
  across passes.
"""

from __future__ import annotations

import numpy as np

#: Relative agreement the dense oracle must reach on best distances.
ORACLE_RTOL = 1e-12


def check(workload: str, seed: int, params: dict, outputs: list):
    """(attempted, failed, problem messages) over the outputs of all passes."""
    return CHECKS[workload](seed, params, outputs)


def check_gallery(seed: int, params: dict, outputs: list):
    attempted, problems = 0, []
    for n, out in enumerate(outputs):
        for entry, found in out["problems"].items():
            attempted += 1
            if found:
                problems.append(f"pass {n}: {entry}: {'; '.join(found)}")
    return attempted, len(problems), problems


def dense_oracle(seed: int, params: dict) -> list:
    """[best distance, witness index] per target from dense matvecs."""
    from convexcyclic.operators import to_dense
    from workloads import prepare_deep_orbit

    inputs = prepare_deep_orbit(seed, params)
    dim = params["dim"]
    matrix = to_dense(inputs["op"], dim)
    outside = ~inputs["subspace"].mask()
    orbit = [np.array(inputs["candidate"].coords)]
    for _ in range(params["max_degree"]):
        orbit.append(matrix @ orbit[-1])
    admissible = [d for d, w in enumerate(orbit)
                  if np.linalg.norm(w[outside]) <= 1e-9 * max(1.0, np.linalg.norm(w))]
    best = []
    for target in inputs["targets"]:
        distances = [np.linalg.norm(orbit[d] - target.coords) for d in admissible]
        low = min(distances)
        first = next(i for i, dist in enumerate(distances) if dist <= low + 1e-12)
        best.append([float(distances[first]), admissible[first]])
    return best


def check_deep_orbit(seed: int, params: dict, outputs: list):
    oracle = dense_oracle(seed, params)
    attempted, problems = 0, []
    for n, out in enumerate(outputs):
        for t, ((dist, witness), (want, want_witness)) in enumerate(zip(out["best"], oracle)):
            attempted += 1
            if witness != want_witness or not abs(dist - want) <= ORACLE_RTOL * abs(want):
                problems.append(f"pass {n}: target {t}: got ({dist!r}, {witness}), "
                                f"dense oracle ({want!r}, {want_witness})")
        if len(out["best"]) != len(oracle):
            attempted += 1
            problems.append(f"pass {n}: {len(out['best'])} targets, expected {len(oracle)}")
    return attempted, len(problems), problems


def check_criterion_cli(seed: int, params: dict, outputs: list):
    from workloads import CRITERION_I_CONDS

    attempted, problems = 0, []
    reference = outputs[0] if outputs else {}
    for n, out in enumerate(outputs):
        for label, code in params["codes"].items():
            attempted += 1
            got = out[label]
            if got["code"] != code:
                problems.append(f"pass {n}: {label} exited {got['code']}, expected {code}")
            elif label == "I" and got["conds"] != CRITERION_I_CONDS:
                problems.append(f"pass {n}: criterion I conditions {got['conds']}")
            elif got["digest"] != reference[label]["digest"]:
                problems.append(f"pass {n}: {label} payload differs from pass 0")
    return attempted, len(problems), problems


CHECKS = {"gallery": check_gallery, "deep_orbit": check_deep_orbit,
          "criterion_cli": check_criterion_cli}
