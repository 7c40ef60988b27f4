#!/usr/bin/env python3
"""Exploratory template: do operator powers stay subspace convex-cyclic?

For a gallery entry with a criterion instance, this script compares the
orbit-density diagnostic of T with that of T^m for m = 2, 3, ...  The
trick: a convex polynomial evaluated at T^m is again a convex polynomial
of T with its degrees inflated by m, so no new operator machinery is
needed, only a degree-inflated family.

This is an experiment template, not a result: the reported coverage
numbers are finite-scale observations with no claim attached either way.

Usage:
    python3 scripts/power_orbit_experiment.py --entry example_5_4 \
        --powers 1 2 3 4 --epsilon 1e-2 [--csv out.csv]
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass

from convexcyclic import (ConvexCyclicError, ConvexPolynomial,
                          build_cyclic_vector, density_score,
                          materialize_subspace)
from convexcyclic.gallery import REGISTRY, build_entry


def inflate(P: ConvexPolynomial, m: int) -> ConvexPolynomial:
    """The coefficients of z -> P(z^m): degree i moves to degree m*i."""
    coeffs = [0.0] * (m * P.degree + 1)
    for i, a in enumerate(P.coeffs):
        coeffs[m * i] = a
    return ConvexPolynomial(tuple(coeffs))


@dataclass(frozen=True)
class InflatedFamily:
    """A finite family with every member's degrees multiplied by m."""

    base: object
    m: int

    def members(self):
        return tuple(inflate(P, self.m) for P in self.base.members())


def run(entry_name: str, powers, epsilon: float):
    entry = build_entry(entry_name)
    if entry.instance is None:
        raise SystemExit(f"entry {entry_name!r} carries no criterion instance")
    inst = entry.instance
    candidate = build_cyclic_vector(inst, max(entry.j_max, 2), entry.c).x
    m_set = materialize_subspace(entry.subspace, entry.dim)
    targets = list(inst.Y)
    rows = []
    for m in powers:
        family = entry.family if m == 1 else InflatedFamily(entry.family, m)
        try:
            report = density_score(entry.op, candidate, m_set, family,
                                   targets, epsilon=epsilon)
        except ConvexCyclicError as err:  # degree inflation can outgrow the truncation
            rows.append((m, "error", str(err)))
            continue
        worst = max(report.best_distances())
        rows.append((m, report.verdict.value, f"{worst:.3e}"))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--entry", default="example_5_4",
                        choices=sorted(REGISTRY))
    parser.add_argument("--powers", type=int, nargs="+", default=[1, 2, 3, 4])
    parser.add_argument("--epsilon", type=float, default=1e-2)
    parser.add_argument("--csv", default=None, help="optional csv output path")
    args = parser.parse_args(argv)

    rows = run(args.entry, args.powers, args.epsilon)
    print(f"entry {args.entry}, epsilon {args.epsilon}")
    print(f"{'power':>6}  {'verdict':<20}  worst_distance")
    for m, verdict, worst in rows:
        print(f"{m:>6}  {verdict:<20}  {worst}")
    print("observations only; nothing here is claimed beyond this scale")
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["power", "verdict", "worst_distance"])
            writer.writerows(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
