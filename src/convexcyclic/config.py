"""Experiment config format: strict JSON serialization for every domain object.

One human-readable JSON document describes a full experiment: scalar
field, truncation size, operator, subspace, polynomial family, tolerances
and per-command blocks.  Parsing is strict: unknown fields are errors, so
a typo in a tolerance name cannot silently change a run.  The criterion
block is parsed into the ``CriterionInstance`` it describes, on the
config's operator, subspace, dim and membership tolerance, so a block
that fails the instance's checks fails every command.  Every object
the CLI emits re-parses to an identical in-memory experiment, and payloads
are deterministic (sorted keys, no timestamps), so identical configs and
seeds produce byte-identical reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .criteria import (CriterionInstance, ExplicitRecovery, ShiftRecovery)
from .dynamics import BallPair
from .errors import ConfigError, DimensionMismatch
from .operators import (BackwardShift, ConvexPolynomial, Dense, DirectSum,
                        ForwardShift, Identity, Monomials, OperatorSpec,
                        Scale, apply)
from .spaces import (DirectSumFactor, IndexSet, IntervalFamily, ParityZero,
                     RecursiveSpan, SubspaceSpec, TruncVector)

CONFIG_VERSION = 1

#: Caps on the config sizes that allocate, checked when a config is parsed
#: so that an oversized value exits 2 instead of exhausting memory.  A
#: vector has at most MAX_DIM coordinates; polynomial degrees and the
#: horizon are at most MAX_DEGREE; a family, a ball's samples, a default
#: target list and every config list of vectors, polys or pairs have at
#: most MAX_MEMBERS members.  A list or count that makes one vector per
#: entry (two per transitivity pair) also holds at most MAX_COORDINATES
#: coordinates: at dim 65,536, 64 vectors.
MAX_DIM = 1 << 16
MAX_DEGREE = 1 << 12
MAX_MEMBERS = 1 << 12
MAX_COORDINATES = 1 << 22


def _check_keys(data: dict, allowed, context: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{context}: expected an object, got {data!r}")
    unknown = set(data) - set(allowed)
    if unknown:
        raise ConfigError(f"{context}: unknown field(s) {sorted(unknown)}")


def _req(data: dict, key: str, context: str):
    if key not in data:
        raise ConfigError(f"{context}: missing field {key!r}")
    return data[key]


def _list(data: dict, key: str, context: str, most: float = math.inf) -> list:
    """A required config field that must be a JSON array of at most
    ``most`` entries."""
    return _capped(_req(data, key, context), f"{context}.{key}", most)


def _capped(value, context: str, most: float) -> list:
    """A config value that must be a JSON array of at most ``most`` entries
    (a list that allocates per entry is capped when it is parsed)."""
    if not isinstance(value, list):
        raise ConfigError(f"{context}: expected a list, got {value!r}")
    if len(value) > most:
        raise ConfigError(f"{context}: expected at most {most} entries, got {len(value)}")
    return value


def _real(value, context: str) -> float:
    """A config number: a JSON integer or float, never a boolean or string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as err:
        raise ConfigError(f"{context}: expected a number in float range") from err


def _count(value, context: str, least: int = 1, most: float = math.inf) -> int:
    """A config integer in [least, most].  Integral floats such as 2.0 are
    accepted; 2.7, infinities, booleans and strings are not."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ConfigError(f"{context}: expected an integer, got {value!r}")
    n = int(value)
    if n < least:
        raise ConfigError(f"{context} must be >= {least}, got {n}")
    if n > most:
        raise ConfigError(f"{context} must be <= {most}, got {n}")
    return n


def _counts(data: dict, key: str, context: str) -> tuple:
    """A required list of config integers >= 0."""
    return tuple(_count(i, f"{context}.{key}", least=0) for i in _list(data, key, context))


def _positive(value, context: str) -> float:
    """A config real that must be finite and greater than 0."""
    x = _real(value, context)
    if not (math.isfinite(x) and x > 0):
        raise ConfigError(f"{context} must be finite and > 0, got {x!r}")
    return x


# ---------------------------------------------------------------------------
# Scalars and vectors
# ---------------------------------------------------------------------------


def scalar_to_json(x):
    x = complex(x)
    if x.imag == 0:
        return float(x.real)
    return [float(x.real), float(x.imag)]


def scalar_from_json(obj, context: str):
    if isinstance(obj, list) and len(obj) == 2:
        return complex(_real(obj[0], context), _real(obj[1], context))
    if isinstance(obj, list):
        raise ConfigError(f"{context}: expected a number or [re, im] pair")
    return _real(obj, context)


def vector_to_dict(v: TruncVector) -> dict:
    entries = []
    for i in np.flatnonzero(v.coords):
        c = v.coords[i]
        if np.iscomplexobj(v.coords):
            entries.append([int(i), float(c.real), float(c.imag)])
        else:
            entries.append([int(i), float(c)])
    return {"dim": v.dim, "entries": entries}


def vector_from_dict(data: dict, context: str, p: float = 2.0,
                     complex_field: bool = False) -> TruncVector:
    _check_keys(data, {"dim", "entries"}, context)
    dim = _count(_req(data, "dim", context), f"{context}.dim", most=MAX_DIM)
    entries = _list(data, "entries", context)
    coords = np.zeros(dim, dtype=np.complex128 if complex_field else np.float64)
    seen = set()
    for entry in entries:
        if isinstance(entry, list) and len(entry) == 2:
            i, val = entry
            value = _real(val, context)
        elif isinstance(entry, list) and len(entry) == 3:
            i, re, im = entry
            value = complex(_real(re, context), _real(im, context))
            if not complex_field:
                if value.imag != 0:
                    raise ConfigError(f"{context}: complex entry in a real experiment")
                value = value.real
        else:
            raise ConfigError(f"{context}: vector entries are [index, value] "
                              "or [index, re, im]")
        i = _count(i, f"{context}: entry index", least=0)
        if i >= dim:
            raise ConfigError(f"{context}: entry index {i} outside [0, {dim})")
        if i in seen:
            raise ConfigError(f"{context}: entry index {i} repeated")
        seen.add(i)
        coords[i] = value
    try:
        return TruncVector(coords, p=p)
    except ValueError as err:
        raise ConfigError(f"{context}: {err}") from err


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


def _weight_to_json(weight):
    if not isinstance(weight, tuple):
        return scalar_to_json(weight)
    out = [scalar_to_json(w) for w in weight]
    if len(out) == 2 and not isinstance(out[0], list):
        # Two plain numbers read back as one complex scalar.
        out[0] = [out[0], 0.0]
    return out


def _weight_from_json(obj, context):
    if isinstance(obj, list) and obj and isinstance(obj[0], list):
        return tuple(scalar_from_json(w, context) for w in obj)
    if isinstance(obj, list) and len(obj) == 2 and isinstance(obj[0], (int, float)):
        # Ambiguous two-element list reads as one complex scalar.
        return scalar_from_json(obj, context)
    if isinstance(obj, list):
        return tuple(scalar_from_json(w, context) for w in obj)
    return scalar_from_json(obj, context)


def op_to_dict(op: OperatorSpec) -> dict:
    if isinstance(op, BackwardShift):
        return {"kind": "backward_shift", "weight": _weight_to_json(op.weight)}
    if isinstance(op, ForwardShift):
        return {"kind": "forward_shift", "weight": _weight_to_json(op.weight)}
    if isinstance(op, Scale):
        return {"kind": "scale", "factor": scalar_to_json(op.factor),
                "inner": op_to_dict(op.inner)}
    if isinstance(op, DirectSum):
        return {"kind": "direct_sum", "left": op_to_dict(op.left),
                "right": op_to_dict(op.right), "split": op.split}
    if isinstance(op, Dense):
        if np.iscomplexobj(op.matrix):
            rows = [[[float(c.real), float(c.imag)] for c in row]
                    for row in op.matrix]
        else:
            rows = [[float(c) for c in row] for row in op.matrix]
        return {"kind": "dense", "matrix": rows}
    if isinstance(op, Identity):
        return {"kind": "identity"}
    raise ConfigError(f"cannot serialize operator {type(op).__name__}")


def op_from_dict(data: dict, context: str = "operator") -> OperatorSpec:
    if not isinstance(data, dict):
        raise ConfigError(f"{context}: expected an operator object")
    kind = _req(data, "kind", context)
    if kind == "backward_shift":
        _check_keys(data, {"kind", "weight"}, context)
        return BackwardShift(_weight_from_json(data.get("weight", 1.0), context))
    if kind == "forward_shift":
        _check_keys(data, {"kind", "weight"}, context)
        return ForwardShift(_weight_from_json(data.get("weight", 1.0), context))
    if kind == "scale":
        _check_keys(data, {"kind", "factor", "inner"}, context)
        return Scale(scalar_from_json(_req(data, "factor", context), context),
                     op_from_dict(_req(data, "inner", context), context + ".inner"))
    if kind == "direct_sum":
        _check_keys(data, {"kind", "left", "right", "split"}, context)
        return DirectSum(op_from_dict(_req(data, "left", context), context + ".left"),
                         op_from_dict(_req(data, "right", context), context + ".right"),
                         split=_count(_req(data, "split", context), f"{context}.split"))
    if kind == "dense":
        _check_keys(data, {"kind", "matrix"}, context)
        rows = _list(data, "matrix", context)
        if not all(isinstance(row, list) for row in rows):
            raise ConfigError(f"{context}.matrix: expected a list of rows")
        parsed = [[scalar_from_json(c, context) for c in row] for row in rows]
        return Dense(np.asarray(parsed))
    if kind == "identity":
        _check_keys(data, {"kind"}, context)
        return Identity()
    raise ConfigError(f"{context}: unknown operator kind {kind!r}")


# ---------------------------------------------------------------------------
# Subspaces
# ---------------------------------------------------------------------------


def subspace_to_dict(spec: SubspaceSpec) -> dict:
    if isinstance(spec, IndexSet):
        return {"kind": "index_set", "indices": list(spec.indices)}
    if isinstance(spec, IntervalFamily):
        return {"kind": "interval_family", "starts": list(spec.starts),
                "ends": list(spec.ends)}
    if isinstance(spec, ParityZero):
        return {"kind": "parity_zero", "parity": spec.parity}
    if isinstance(spec, RecursiveSpan):
        return {"kind": "recursive_span", "offsets": list(spec.n_seq),
                "depth": spec.depth}
    if isinstance(spec, DirectSumFactor):
        out = {"kind": "direct_sum_factor", "position": spec.position,
               "split": spec.split}
        if spec.inner is not None:
            out["inner"] = subspace_to_dict(spec.inner)
        return out
    raise ConfigError(f"cannot serialize subspace {type(spec).__name__}")


def subspace_from_dict(data: dict, context: str = "subspace") -> SubspaceSpec:
    if not isinstance(data, dict):
        raise ConfigError(f"{context}: expected a subspace object")
    kind = _req(data, "kind", context)
    try:
        if kind == "index_set":
            _check_keys(data, {"kind", "indices"}, context)
            return IndexSet(_counts(data, "indices", context))
        if kind == "interval_family":
            _check_keys(data, {"kind", "starts", "ends"}, context)
            return IntervalFamily(_counts(data, "starts", context),
                                  _counts(data, "ends", context))
        if kind == "parity_zero":
            _check_keys(data, {"kind", "parity"}, context)
            return ParityZero(str(_req(data, "parity", context)))
        if kind == "recursive_span":
            # "shift_weight" is accepted and ignored: configs written before
            # it was removed still load.
            _check_keys(data, {"kind", "offsets", "depth", "shift_weight"}, context)
            return RecursiveSpan(_counts(data, "offsets", context),
                                 depth=_count(_req(data, "depth", context),
                                              f"{context}.depth", least=0))
        if kind == "direct_sum_factor":
            _check_keys(data, {"kind", "position", "split", "inner"}, context)
            inner = data.get("inner")
            return DirectSumFactor(
                position=_count(_req(data, "position", context), f"{context}.position",
                                least=0),
                split=_count(_req(data, "split", context), f"{context}.split"),
                inner=None if inner is None else subspace_from_dict(inner, context + ".inner"))
    except ValueError as err:
        raise ConfigError(f"{context}: {err}") from err
    raise ConfigError(f"{context}: unknown subspace kind {kind!r}")


# ---------------------------------------------------------------------------
# Polynomial families and explicit sequences
# ---------------------------------------------------------------------------


def family_to_dict(family: Monomials) -> dict:
    if isinstance(family, Monomials):
        return {"kind": "monomials", "max_degree": family.max_degree}
    raise ConfigError(f"cannot serialize family {type(family).__name__}")


def family_from_dict(data: dict, context: str = "family") -> Monomials:
    if not isinstance(data, dict):
        raise ConfigError(f"{context}: expected a family object")
    kind = _req(data, "kind", context)
    if kind != "monomials":
        raise ConfigError(f"{context}: unknown family kind {kind!r}")
    _check_keys(data, {"kind", "max_degree"}, context)
    return Monomials(_count(_req(data, "max_degree", context), f"{context}.max_degree",
                           0, MAX_MEMBERS - 1))


def polys_to_dict(polys: Sequence[ConvexPolynomial]) -> dict:
    degrees = []
    for P in polys:
        profile = P.degree_profile()
        if len(profile) == 1 and P.coeffs[profile[0]] == 1.0:
            degrees.append(profile[0])
        else:
            degrees = None
            break
    if degrees is not None:
        return {"kind": "monomials_at", "degrees": degrees}
    return {"kind": "explicit",
            "coefficients": [list(P.coeffs) for P in polys]}


def polys_from_dict(data: dict, context: str = "polys") -> Tuple[ConvexPolynomial, ...]:
    if not isinstance(data, dict):
        raise ConfigError(f"{context}: expected a polynomial-sequence object")
    kind = _req(data, "kind", context)
    try:
        if kind == "monomials_at":
            _check_keys(data, {"kind", "degrees"}, context)
            return tuple(
                ConvexPolynomial.monomial(_count(d, f"{context}.degrees[{i}]", 0, MAX_DEGREE))
                for i, d in enumerate(_list(data, "degrees", context, MAX_MEMBERS)))
        if kind == "explicit":
            _check_keys(data, {"kind", "coefficients"}, context)
            rows = [_capped(row, f"{context}.coefficients[{i}]", MAX_DEGREE + 1)
                    for i, row in enumerate(_list(data, "coefficients", context, MAX_MEMBERS))]
            return tuple(ConvexPolynomial(tuple(_real(c, context) for c in row))
                         for row in rows)
    except ValueError as err:
        raise ConfigError(f"{context}: {err}") from err
    raise ConfigError(f"{context}: unknown polynomial-sequence kind {kind!r}")


def recovery_to_dict(rule) -> Optional[dict]:
    if rule is None:
        return None
    if isinstance(rule, ShiftRecovery):
        return {"kind": "shift", "scale": scalar_to_json(rule.scale)}
    if isinstance(rule, ExplicitRecovery):
        return {"kind": "explicit",
                "vectors": [None if v is None else vector_to_dict(v)
                            for v in rule.vectors]}
    raise ConfigError(f"cannot serialize recovery rule {type(rule).__name__}")


def recovery_from_dict(data, context: str, vec, most: int):
    """The recovery rule of ``data``; ``vec(obj, context)`` parses a vector,
    of which an explicit rule lists at most ``most``."""
    if data is None:
        return None
    if not isinstance(data, dict):
        raise ConfigError(f"{context}: expected a recovery object or null")
    kind = _req(data, "kind", context)
    if kind == "shift":
        _check_keys(data, {"kind", "scale"}, context)
        scale = scalar_from_json(_req(data, "scale", context), f"{context}.scale")
        try:
            return ShiftRecovery(scale)
        except ValueError as err:
            raise ConfigError(f"{context}.scale: {err}") from err
    if kind == "explicit":
        _check_keys(data, {"kind", "vectors"}, context)
        vectors = tuple(
            None if v is None else vec(v, f"{context}.vectors[{i}]")
            for i, v in enumerate(_list(data, "vectors", context, most)))
        return ExplicitRecovery(vectors)
    raise ConfigError(f"{context}: unknown recovery kind {kind!r}")


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------


@dataclass
class Tolerances:
    membership: float = 1e-9
    convergence: float = 1e-6
    epsilon: float = 1e-2


@dataclass
class DensityBlock:
    candidate: Union[TruncVector, str]
    targets: Union[Tuple[TruncVector, ...], str] = "default"
    target_count: int = 32
    target_radius: float = 1.0


@dataclass
class TransitivityBlock:
    pairs: Tuple[BallPair, ...]
    samples_per_ball: int = 8


@dataclass
class BuildBlock:
    j_max: int
    c: float = 1.0
    k_step: int = 64


@dataclass
class ExperimentConfig:
    dim: int
    operator: OperatorSpec
    scalar_field: str = "real"
    p: float = 2.0
    seed: int = 0
    horizon: Optional[int] = None
    tolerances: Tolerances = field(default_factory=Tolerances)
    subspace: Optional[SubspaceSpec] = None
    family: Optional[Monomials] = None
    label: Optional[str] = None
    density: Optional[DensityBlock] = None
    #: The validated instance of the criterion block.
    criterion: Optional[CriterionInstance] = None
    transitivity: Optional[TransitivityBlock] = None
    build: Optional[BuildBlock] = None

    @property
    def complex_field(self) -> bool:
        return self.scalar_field == "complex"


_TOP_KEYS = {"version", "scalar_field", "dim", "p", "seed", "horizon",
             "tolerances", "operator", "subspace", "family", "label",
             "density", "criterion", "transitivity", "build"}


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config: expected a JSON object at top level")
    _check_keys(data, _TOP_KEYS, "config")
    version = _count(data.get("version", CONFIG_VERSION), "config.version")
    if version != CONFIG_VERSION:
        raise ConfigError(f"config: unsupported version {version}")
    scalar_field = data.get("scalar_field", "real")
    if scalar_field not in ("real", "complex"):
        raise ConfigError("config: scalar_field must be 'real' or 'complex'")
    complex_field = scalar_field == "complex"
    dim = _count(_req(data, "dim", "config"), "config.dim", most=MAX_DIM)
    p = _positive(data.get("p", 2.0), "config.p")
    if p < 1:
        raise ConfigError(f"config.p must be >= 1, got {p!r}")
    seed = _count(data.get("seed", 0), "config.seed", least=0)
    horizon = data.get("horizon")
    horizon = None if horizon is None else _count(horizon, "config.horizon",
                                                  most=MAX_DEGREE)
    tol_data = data.get("tolerances", {})
    _check_keys(tol_data, {"membership", "convergence", "epsilon"},
                "config.tolerances")
    tolerances = Tolerances(
        membership=_positive(tol_data.get("membership", 1e-9),
                             "config.tolerances.membership"),
        convergence=_positive(tol_data.get("convergence", 1e-6),
                              "config.tolerances.convergence"),
        epsilon=_positive(tol_data.get("epsilon", 1e-2),
                          "config.tolerances.epsilon"),
    )
    try:
        operator = op_from_dict(_req(data, "operator", "config"))
        # The engine's first-step checks: weights, splits and sizes fit dim.
        apply(operator, TruncVector.zeros(dim))
    except (DimensionMismatch, ValueError) as err:
        raise ConfigError(f"config.operator: {err}") from err
    subspace = None
    if data.get("subspace") is not None:
        subspace = subspace_from_dict(data["subspace"])
    family = None
    if data.get("family") is not None:
        family = family_from_dict(data["family"], "config.family")
    label = data.get("label")
    if not (label is None or isinstance(label, str)):
        raise ConfigError(f"config.label: expected a string, got {label!r}")

    # The most entries of a list or count that makes one vector per entry.
    most_vectors = min(MAX_MEMBERS, MAX_COORDINATES // dim)

    def _vec(obj, context):
        v = vector_from_dict(obj, context, p, complex_field)
        if v.dim != dim:
            raise ConfigError(f"{context}.dim must equal config.dim {dim}, got {v.dim}")
        return v

    density = None
    if data.get("density") is not None:
        block = data["density"]
        _check_keys(block, {"candidate", "targets", "target_count",
                            "target_radius"}, "config.density")
        cand = _req(block, "candidate", "config.density")
        candidate = cand if cand == "build" else _vec(cand, "config.density.candidate")
        targets_obj = block.get("targets", "default")
        if targets_obj == "default":
            targets = "default"
        else:
            targets = tuple(_vec(t, f"config.density.targets[{i}]")
                            for i, t in enumerate(_list(block, "targets", "config.density",
                                                        most_vectors)))
            if not targets:
                raise ConfigError("config.density.targets: expected at least one target")
        density = DensityBlock(
            candidate=candidate,
            targets=targets,
            target_count=_count(block.get("target_count", 32),
                                "config.density.target_count", most=most_vectors),
            target_radius=_positive(block.get("target_radius", 1.0),
                                    "config.density.target_radius"),
        )
    criterion = None
    if data.get("criterion") is not None:
        block = data["criterion"]
        _check_keys(block, {"X", "Y", "polys", "recovery"}, "config.criterion")
        X = tuple(_vec(v, f"config.criterion.X[{i}]")
                  for i, v in enumerate(_list(block, "X", "config.criterion", most_vectors)))
        Y = tuple(_vec(v, f"config.criterion.Y[{i}]")
                  for i, v in enumerate(_list(block, "Y", "config.criterion", most_vectors)))
        polys = polys_from_dict(_req(block, "polys", "config.criterion"),
                                "config.criterion.polys")
        recovery = recovery_from_dict(block.get("recovery"), "config.criterion.recovery",
                                      _vec, most_vectors)
        if subspace is None:
            raise ConfigError("config.criterion: needs a 'subspace' block")
        try:
            criterion = CriterionInstance(
                op=operator, subspace=subspace, dim=dim, X=X, Y=Y, polys=polys,
                recovery=recovery, membership_rtol=tolerances.membership)
        except ValueError as err:
            raise ConfigError(f"config.criterion: {err}") from err
    transitivity = None
    if data.get("transitivity") is not None:
        block = data["transitivity"]
        _check_keys(block, {"pairs", "samples_per_ball"}, "config.transitivity")
        pairs = []
        for i, pair in enumerate(_list(block, "pairs", "config.transitivity",
                                       min(MAX_MEMBERS, MAX_COORDINATES // (2 * dim)))):
            context = f"config.transitivity.pairs[{i}]"
            _check_keys(pair, {"u_center", "v_center", "radius"}, context)
            pairs.append(BallPair(
                u_center=_vec(_req(pair, "u_center", context), f"{context}.u_center"),
                v_center=_vec(_req(pair, "v_center", context), f"{context}.v_center"),
                radius=_positive(_req(pair, "radius", context), f"{context}.radius"),
            ))
        transitivity = TransitivityBlock(
            pairs=tuple(pairs),
            samples_per_ball=_count(block.get("samples_per_ball", 8),
                                    "config.transitivity.samples_per_ball",
                                    most=most_vectors),
        )
    build = None
    if data.get("build") is not None:
        block = data["build"]
        _check_keys(block, {"j_max", "c", "k_step"}, "config.build")
        build = BuildBlock(
            j_max=_count(_req(block, "j_max", "config.build"),
                         "config.build.j_max"),
            c=_positive(block.get("c", 1.0), "config.build.c"),
            k_step=_count(block.get("k_step", 64), "config.build.k_step"),
        )
    if density is not None and density.candidate == "build" and build is None:
        raise ConfigError("config.density.candidate: 'build' needs a 'build' block")
    return ExperimentConfig(
        dim=dim, operator=operator, scalar_field=scalar_field,
        p=p, seed=seed, horizon=horizon, tolerances=tolerances,
        subspace=subspace, family=family,
        label=label,
        density=density, criterion=criterion, transitivity=transitivity,
        build=build,
    )


def config_to_dict(cfg: ExperimentConfig) -> dict:
    out: dict = {
        "version": CONFIG_VERSION,
        "scalar_field": cfg.scalar_field,
        "dim": cfg.dim,
        "p": cfg.p,
        "seed": cfg.seed,
        "tolerances": {
            "membership": cfg.tolerances.membership,
            "convergence": cfg.tolerances.convergence,
            "epsilon": cfg.tolerances.epsilon,
        },
        "operator": op_to_dict(cfg.operator),
    }
    if cfg.horizon is not None:
        out["horizon"] = cfg.horizon
    if cfg.subspace is not None:
        out["subspace"] = subspace_to_dict(cfg.subspace)
    if cfg.family is not None:
        out["family"] = family_to_dict(cfg.family)
    if cfg.label is not None:
        out["label"] = cfg.label
    if cfg.density is not None:
        block: dict = {"candidate": ("build" if cfg.density.candidate == "build"
                                     else vector_to_dict(cfg.density.candidate))}
        if cfg.density.targets == "default":
            block["targets"] = "default"
            block["target_count"] = cfg.density.target_count
            block["target_radius"] = cfg.density.target_radius
        else:
            block["targets"] = [vector_to_dict(t) for t in cfg.density.targets]
        out["density"] = block
    if cfg.criterion is not None:
        out["criterion"] = {
            "X": [vector_to_dict(v) for v in cfg.criterion.X],
            "Y": [vector_to_dict(v) for v in cfg.criterion.Y],
            "polys": polys_to_dict(cfg.criterion.polys),
            "recovery": recovery_to_dict(cfg.criterion.recovery),
        }
    if cfg.transitivity is not None:
        out["transitivity"] = {
            "pairs": [{"u_center": vector_to_dict(p_.u_center),
                       "v_center": vector_to_dict(p_.v_center),
                       "radius": p_.radius} for p_ in cfg.transitivity.pairs],
            "samples_per_ball": cfg.transitivity.samples_per_ball,
        }
    if cfg.build is not None:
        out["build"] = {"j_max": cfg.build.j_max, "c": cfg.build.c,
                        "k_step": cfg.build.k_step}
    return out


def dumps_config(cfg: ExperimentConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n"


def loads_config(text: str) -> ExperimentConfig:
    try:
        return config_from_dict(json.loads(text))
    except json.JSONDecodeError as err:
        raise ConfigError(f"config: invalid JSON ({err})") from err
    except RecursionError as err:
        raise ConfigError("config: nested too deeply to parse") from err


def load_config(path) -> ExperimentConfig:
    from pathlib import Path
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"config: cannot read {path}: {err}") from err
    return loads_config(text)


# ---------------------------------------------------------------------------
# Gallery entries as configs
# ---------------------------------------------------------------------------


def entry_to_config(entry) -> ExperimentConfig:
    """Runnable config equivalent of a gallery entry."""
    inst = entry.instance
    complex_field = any(np.iscomplexobj(v.coords)
                        for v in (inst.Y if inst is not None else ()))
    build = None
    density = None
    if inst is not None:
        if entry.j_max > 0:
            build = BuildBlock(j_max=entry.j_max, c=entry.c)
        if entry.expected.density is not None:
            density = DensityBlock(candidate="build", targets=inst.Y)
    if entry.notes.get("candidate") is not None:
        split = entry.notes["split"]
        density = DensityBlock(
            candidate=entry.notes["candidate"],
            targets=tuple(TruncVector.basis(j, entry.dim)
                          for j in range(min(split, 4))))
    transitivity = None
    if entry.pairs:
        transitivity = TransitivityBlock(pairs=entry.pairs,
                                         samples_per_ball=entry.samples_per_ball)
    return ExperimentConfig(
        dim=entry.dim,
        operator=entry.op,
        scalar_field="complex" if complex_field else "real",
        seed=entry.seed,
        horizon=entry.horizon if entry.horizon > 0 else None,
        tolerances=Tolerances(convergence=entry.tol, epsilon=entry.epsilon),
        subspace=entry.subspace,
        family=entry.family,
        label=entry.name,
        density=density,
        criterion=inst,
        transitivity=transitivity,
        build=build,
    )
