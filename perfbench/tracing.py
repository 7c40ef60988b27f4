"""Tracing from outside the package: wrappers around its public functions.

The tracer replaces a function wherever a ``convexcyclic`` module binds it
(``from .operators import eval_poly`` makes a second binding in each
importing module), so calls through every binding are seen.  Each wrapped
call counts, and its self time is its duration minus the time spent in
wrapped callees.  Span boundaries (the diagnostics and ``eval_poly``) also
record (name, start, end, parent span) in memory; hot boundaries
(``apply``, vector construction, norms, distances) record only counts and
time, because they run hundreds of thousands of times per pass.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

#: (metric prefix, module, attribute, kind).  "span" records spans,
#: "hot" only counts and self time, "outermost" is a hot boundary whose
#: recursive calls (apply on Scale and DirectSum) count once, "tally"
#: counts calls by enclosing span without timing them.
BOUNDARIES = (
    ("operators.apply", "convexcyclic.operators", "apply", "outermost"),
    ("operators.eval_poly", "convexcyclic.operators", "eval_poly", "span"),
    ("spaces.vector", "convexcyclic.spaces", "TruncVector.__post_init__", "hot"),
    ("spaces.norm", "convexcyclic.spaces", "norm", "hot"),
    ("spaces.distance", "convexcyclic.spaces", "distance_to_subspace", "hot"),
    ("dynamics.sample_ball", "convexcyclic.dynamics", "sample_ball", "span"),
    ("dynamics.transitivity_search", "convexcyclic.dynamics", "transitivity_search", "span"),
    ("dynamics.invariance_check", "convexcyclic.dynamics", "invariance_check", "span"),
    ("dynamics.density_score", "convexcyclic.dynamics", "density_score", "span"),
    ("criteria.check_criterion_I", "convexcyclic.criteria", "check_criterion_I", "span"),
    ("criteria.check_criterion_II", "convexcyclic.criteria", "check_criterion_II", "span"),
    ("criteria.build_cyclic_vector", "convexcyclic.criteria", "build_cyclic_vector", "span"),
    ("criteria.recovery_vector", "convexcyclic.criteria",
     "CriterionInstance.recovery_vector", "tally"),
    ("gallery.verify_entry", "convexcyclic.gallery", "verify_entry", "span"),
    ("config.load_config", "convexcyclic.config", "load_config", "span"),
    ("cli.main", "convexcyclic.cli", "main", "span"),
)


class Tracer:
    """Counts, self times and spans of wrapped calls, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.counts: dict = {}
        self.self_s: dict = {}
        #: (name, name of the innermost enclosing span) -> calls
        self.under: dict = {}
        #: filled by result hooks: pairs found, orbit sizes, builder steps
        self.totals: dict = {}
        #: (name, start, end, parent span index or -1), in start order
        self.spans: list = []
        # Open frames: [start, time in wrapped callees, enclosing span
        # index, enclosing span name].
        self._stack: list = []
        self._patches: list = []

    def wrap(self, name, fn, *, span=False, outermost=False,
             on_result=None, on_error=None):
        """A wrapper of ``fn`` that records calls under ``name``."""
        clock, stack, spans = self.clock, self._stack, self.spans
        counts, self_s, under = self.counts, self.self_s, self.under
        counts.setdefault(name, 0)
        self_s.setdefault(name, 0.0)
        active = [0]

        def wrapper(*args, **kwargs):
            if outermost and active[0]:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            enclosing = (parent[2], parent[3]) if parent else (-1, None)
            if span:
                key = (name, enclosing[1])
                under[key] = under.get(key, 0) + 1
                index = len(spans)
                spans.append(None)
                frame = [0.0, 0.0, index, name]
            else:
                frame = [0.0, 0.0, enclosing[0], enclosing[1]]
            stack.append(frame)
            active[0] += 1
            start = frame[0] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                end = clock()
                active[0] -= 1
                stack.pop()
                elapsed = end - start
                self_s[name] += elapsed - frame[1]
                counts[name] += 1
                if parent is not None:
                    parent[1] += elapsed
                if span:
                    spans[index] = (name, start, end, enclosing[0])
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def tally(self, name, fn):
        """A wrapper that only counts calls by their enclosing span."""
        stack, under = self._stack, self.under

        def wrapper(*args, **kwargs):
            key = (name, stack[-1][3] if stack else None)
            under[key] = under.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def add(self, key: str, amount) -> None:
        self.totals[key] = self.totals.get(key, 0) + amount

    def patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def rebind(self, original, wrapper) -> None:
        """Replace ``original`` in every loaded convexcyclic module."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or mod_name.split(".")[0] != "convexcyclic":
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patch(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_spans(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        rows = [[ids[n], start, end, parent] for n, start, end, parent in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"columns": ["name", "start", "end", "parent"],
                                    "names": names, "spans": rows}))


def install(tracer: Tracer) -> None:
    """Wrap every boundary in BOUNDARIES, with the hooks the derived
    per-layer ratios need."""
    from convexcyclic.errors import ScheduleInfeasible

    def pairs_found(report):
        tracer.add("pairs_found", sum(r.found for r in report.per_pair))

    def orbit_sizes(report):
        tracer.add("admissible", report.admissible_orbit_size)
        tracer.add("orbit", report.orbit_size)

    def build_steps(result):
        tracer.add("build_steps", len(result.steps))

    def build_failed(exc):
        if isinstance(exc, ScheduleInfeasible):
            tracer.add("build_steps", exc.step)

    hooks = {
        "dynamics.transitivity_search": {"on_result": pairs_found},
        "dynamics.density_score": {"on_result": orbit_sizes},
        "criteria.build_cyclic_vector": {"on_result": build_steps,
                                         "on_error": build_failed},
    }
    for name, mod_name, attr, kind in BOUNDARIES:
        module = importlib.import_module(mod_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(module, cls_name)
            original = getattr(owner, method)
        else:
            owner, method = None, attr
            original = getattr(module, attr)
        if kind == "tally":
            wrapper = tracer.tally(name, original)
        else:
            wrapper = tracer.wrap(name, original, span=kind == "span",
                                  outermost=kind == "outermost",
                                  **hooks.get(name, {}))
        if owner is not None:
            tracer.patch(owner, method, wrapper)
        else:
            tracer.rebind(original, wrapper)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers of one traced pass."""
    c, s, u, t = tracer.counts, tracer.self_s, tracer.under, tracer.totals
    images = c["operators.eval_poly"]
    searched = u.get(("operators.eval_poly", "dynamics.transitivity_search"), 0)
    steps = t.get("build_steps", 0)
    candidates = u.get(("criteria.recovery_vector", "criteria.build_cyclic_vector"), 0)
    orbit = t.get("orbit", 0)
    metrics = {}
    for name in ("operators.apply", "operators.eval_poly", "spaces.vector",
                 "spaces.distance", "spaces.norm", "dynamics.sample_ball",
                 "dynamics.invariance_check", "cli.main"):
        metrics[name + ".count"] = c[name]
    for name in ("operators.apply", "operators.eval_poly", "spaces.vector",
                 "spaces.distance", "spaces.norm", "dynamics.sample_ball",
                 "dynamics.transitivity_search", "dynamics.invariance_check",
                 "dynamics.density_score", "criteria.check_criterion_I",
                 "criteria.check_criterion_II", "criteria.build_cyclic_vector",
                 "config.load_config", "cli.main"):
        metrics[name + ".self_s"] = s[name]
    metrics["operators.applies_per_image"] = c["operators.apply"] / images if images else 0.0
    metrics["dynamics.transitivity.hit_ratio"] = (
        t.get("pairs_found", 0) / searched if searched else 0.0)
    metrics["dynamics.density.admissible_ratio"] = t.get("admissible", 0) / orbit if orbit else 0.0
    metrics["criteria.build.candidates_per_step"] = candidates / steps if steps else 0.0
    return metrics
