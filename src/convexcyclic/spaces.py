"""Finite truncations of sequence-space vectors and basis-aligned subspaces.

Vectors live in the first ``dim`` coordinates of an l^p sequence space.
Subspaces are always spans of canonical basis subsets, described
symbolically and materialized to an explicit index set at a chosen
truncation.  All values are immutable after construction and every
operation is a pure function, so everything here is safe to share
between threads; the one exception is ``target_distances``, which
patches a caller's writable block and restores it before it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DimensionMismatch, DimensionTooSmall, NumericalOverflow

#: Default relative tolerance for membership tests: a vector counts as
#: inside a subspace when its residual is below rtol * max(1, ||v||).
MEMBERSHIP_RTOL = 1e-9


def _coerce_coords(coords) -> np.ndarray:
    arr = np.asarray(coords)
    if arr.ndim != 1:
        raise ValueError(f"coordinates must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("a truncated vector needs at least one coordinate")
    if np.iscomplexobj(arr):
        arr = arr.astype(np.complex128)
    else:
        arr = arr.astype(np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("coordinates must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class TruncVector:
    """A vector in the first ``dim`` coordinates of l^p.

    Coordinates are real or complex; the scalar field is whatever the
    array dtype says, chosen once per experiment.  ``p`` is the norm
    exponent, 1 <= p < infinity.
    """

    coords: np.ndarray
    p: float = 2.0

    def __post_init__(self):
        arr = _coerce_coords(self.coords)
        p = float(self.p)
        if not (p >= 1.0 and math.isfinite(p)):
            raise ValueError(f"norm exponent must satisfy 1 <= p < inf, got {self.p}")
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)
        object.__setattr__(self, "p", p)

    @property
    def dim(self) -> int:
        return int(self.coords.size)

    @cached_property
    def support_window(self) -> tuple:
        """``(a, b)``: the coordinates outside [a, b) vanish; (0, 0) for 0."""
        nonzero = self.coords.nonzero()[0]
        return (int(nonzero[0]), int(nonzero[-1]) + 1) if nonzero.size else (0, 0)

    @classmethod
    def zeros(cls, dim: int, p: float = 2.0, complex_field: bool = False) -> "TruncVector":
        dtype = np.complex128 if complex_field else np.float64
        return cls(np.zeros(dim, dtype=dtype), p=p)

    @classmethod
    def basis(cls, index: int, dim: int, p: float = 2.0,
              complex_field: bool = False) -> "TruncVector":
        if not 0 <= index < dim:
            raise ValueError(f"basis index {index} outside [0, {dim})")
        dtype = np.complex128 if complex_field else np.float64
        arr = np.zeros(dim, dtype=dtype)
        arr[index] = 1.0
        return cls(arr, p=p)

    def with_coords(self, coords) -> "TruncVector":
        return TruncVector(coords, p=self.p)

    def __add__(self, other: "TruncVector") -> "TruncVector":
        check_target(self.dim, self.p, other)
        return TruncVector(self.coords + other.coords, p=self.p)

    def __sub__(self, other: "TruncVector") -> "TruncVector":
        check_target(self.dim, self.p, other)
        return TruncVector(self.coords - other.coords, p=self.p)

    def __mul__(self, scalar) -> "TruncVector":
        return TruncVector(self.coords * scalar, p=self.p)

    __rmul__ = __mul__

    def __neg__(self) -> "TruncVector":
        return TruncVector(-self.coords, p=self.p)

    def __repr__(self):
        nonzero = np.flatnonzero(np.abs(self.coords) > 0)
        if nonzero.size > 6:
            body = f"{nonzero.size} nonzero entries"
        else:
            body = ", ".join(f"[{i}]={self.coords[i]:.6g}" for i in nonzero) or "zero"
        return f"TruncVector(dim={self.dim}, p={self.p}, {body})"


def norm(v: TruncVector) -> float:
    """The l^p norm (sum |c_i|^p)^(1/p) of the truncation."""
    return float(row_norms(v.coords[None], v.p)[0])


def row_norms(rows: np.ndarray, p: float) -> np.ndarray:
    """The l^p norm of every row of a raw block (rows x dim).

    A row is measured from its real parts, so a real row has the same bits
    however it is stored, and the same bits in any block: at p = 2 as
    sqrt(sum part . part) over the row, or over contiguous copies of its
    real and imaginary parts, every row's dot product taken by one batched
    ``matmul`` of (1 x dim) by (dim x 1), which runs numpy's dot (the loop
    of ``x.dot(x)``) row by row; at other p as numpy's sum of |c_i|^p, one
    row at a time, because the batched sum rounds differently.  A finite
    row whose plain sum overflows (p = 2: entries above about 1.3e154) is
    measured again as s * ||c / s|| (``_measure``, the scaling of LAPACK's
    dnrm2), so its norm is inf only when the norm exceeds the float range.
    """
    return _measure(rows, p)[0]


def _measure(rows: np.ndarray, p: float) -> tuple:
    """``(norms, big, s, n)``: ``norms`` as ``row_norms`` gives them, and
    the finite rows ``big`` whose plain norm overflows, measured again in
    units of s, each row's largest absolute real part, as n = ||c / s||
    (then ``norms[big]`` is s * n).  Each real part is divided by s, as
    complex division (a multiplication by 1/s) would not, so a real row
    keeps its bits.  numpy's overflow warnings stay silent."""
    with np.errstate(over="ignore"):
        if p != 2:
            norms = np.array([np.linalg.norm(row, ord=p) for row in rows], dtype=np.float64)
        elif rows.dtype.kind == "c":
            norms = np.sqrt(_dots(rows.real) + _dots(rows.imag))
        else:
            norms = np.sqrt(_dots(rows))
        big = np.flatnonzero(np.isinf(norms))
        if not big.size:
            return norms, big, None, None
        big = big[np.isfinite(rows[big]).all(axis=1)]
        parts = np.ascontiguousarray(rows[big]).view(np.float64)
        s = np.abs(parts).max(axis=1)
        n = _measure((parts / s[:, None]).view(rows.dtype), p)[0]
        norms[big] = s * n
    return norms, big, s, n


def _dots(parts: np.ndarray) -> np.ndarray:
    """x . x for every row x of a real block, by numpy's dot on contiguous rows."""
    parts = np.ascontiguousarray(parts)
    return np.matmul(parts[:, None, :], parts[:, :, None]).reshape(len(parts))


def off_span_norms(rows: np.ndarray, mask: np.ndarray, p: float) -> np.ndarray:
    """The l^p norm of every raw row's coordinates outside ``mask``."""
    return row_norms(np.where(mask, 0.0, rows), p)


def off_span_argmax(coords: np.ndarray, mask: np.ndarray) -> Optional[int]:
    """Index of one raw row's largest coordinate outside ``mask``, or None
    when the row vanishes there."""
    off = np.where(mask, 0.0, np.abs(coords))
    if not np.any(off > 0):
        return None
    return int(np.argmax(off))


# ---------------------------------------------------------------------------
# Subspace specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndexSet:
    """Span of an explicit set of basis indices."""

    indices: tuple

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if any(i < 0 for i in idx):
            raise ValueError("basis indices must be nonnegative")
        if len(set(idx)) != len(idx):
            raise ValueError("basis indices must be distinct")
        object.__setattr__(self, "indices", tuple(sorted(idx)))


@dataclass(frozen=True)
class IntervalFamily:
    """Span of e_j for j in the union of inclusive intervals [n_k, m_k].

    The interval endpoints must interleave: n_k < m_k < n_{k+1}.
    """

    starts: tuple
    ends: tuple

    def __post_init__(self):
        starts = tuple(int(n) for n in self.starts)
        ends = tuple(int(m) for m in self.ends)
        if len(starts) != len(ends) or not starts:
            raise ValueError("starts and ends must be equal-length and nonempty")
        if starts[0] < 0:
            raise ValueError("interval starts must be nonnegative")
        for k, (n, m) in enumerate(zip(starts, ends)):
            if not n < m:
                raise ValueError(f"interval {k}: need start < end, got [{n}, {m}]")
            if k + 1 < len(starts) and not m < starts[k + 1]:
                raise ValueError(f"interval {k}: end {m} must be below next start {starts[k+1]}")
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "ends", ends)


@dataclass(frozen=True)
class ParityZero:
    """Vectors whose entries at every index of the given parity vanish.

    ``parity="even"`` keeps support on odd indices, and vice versa.
    """

    parity: str

    def __post_init__(self):
        if self.parity not in ("even", "odd"):
            raise ValueError(f"parity must be 'even' or 'odd', got {self.parity!r}")


@dataclass(frozen=True)
class RecursiveSpan:
    """Nested span built by repeatedly forward-shifting the previous stage.

    Stage 0 is span{e_0}; stage k+1 adjoins the stage-k set shifted up by
    n_{k+1}.  The offsets must grow fast enough that the shifted copies
    never collide: n_{k+1} > 2 * (n_0 + ... + n_k).
    """

    n_seq: tuple
    depth: int

    def __post_init__(self):
        seq = tuple(int(n) for n in self.n_seq)
        if not seq or seq[0] != 0:
            raise ValueError("offset sequence must start with 0")
        running = 0
        for k in range(len(seq) - 1):
            running += seq[k]
            if not seq[k + 1] > 2 * running:
                raise ValueError(
                    f"offset {seq[k+1]} at position {k+1} must exceed twice the "
                    f"running sum {running}"
                )
        if not 0 <= self.depth <= len(seq) - 1:
            raise ValueError(f"depth {self.depth} outside [0, {len(seq) - 1}]")
        object.__setattr__(self, "n_seq", seq)
        object.__setattr__(self, "depth", int(self.depth))

    def stage_indices(self, depth: int) -> tuple:
        """Basis indices of the stage-``depth`` span."""
        indices = {0}
        for k in range(1, depth + 1):
            indices |= {self.n_seq[k] + j for j in indices}
        return tuple(sorted(indices))


@dataclass(frozen=True)
class DirectSumFactor:
    """One block of a two-block direct sum, optionally restricted further.

    ``split`` is the first index of the right block; ``position`` selects
    the left (0) or right (1) block.  ``inner`` is an optional subspace
    spec interpreted inside the chosen block.
    """

    position: int
    split: int
    inner: Optional["SubspaceSpec"] = None

    def __post_init__(self):
        if self.position not in (0, 1):
            raise ValueError("position must be 0 (left block) or 1 (right block)")
        if self.split <= 0:
            raise ValueError("split must be positive")


SubspaceSpec = Union[IndexSet, IntervalFamily, ParityZero, RecursiveSpan, DirectSumFactor]


@dataclass(frozen=True)
class BasisIndexSet:
    """A subspace materialized at a truncation: sorted basis indices."""

    indices: tuple
    dim: int

    def __post_init__(self):
        idx = tuple(sorted(int(i) for i in self.indices))
        if len(set(idx)) != len(idx):
            raise ValueError("materialized indices must be distinct")
        if idx and not (0 <= idx[0] and idx[-1] < self.dim):
            raise ValueError(f"indices must lie in [0, {self.dim})")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "dim", int(self.dim))

    def __len__(self) -> int:
        return len(self.indices)

    def mask(self) -> np.ndarray:
        m = np.zeros(self.dim, dtype=bool)
        if self.indices:
            m[list(self.indices)] = True
        return m


def materialize_subspace(spec: SubspaceSpec, dim: int) -> BasisIndexSet:
    """Resolve a symbolic subspace to the basis indices it spans at ``dim``.

    Raises DimensionTooSmall when the spec references an index >= dim.
    """
    if dim <= 0:
        raise ValueError("dimension must be positive")
    if isinstance(spec, IndexSet):
        if spec.indices and spec.indices[-1] >= dim:
            raise DimensionTooSmall(
                f"index {spec.indices[-1]} does not fit in dimension {dim}")
        return BasisIndexSet(spec.indices, dim)
    if isinstance(spec, IntervalFamily):
        if spec.ends[-1] >= dim:
            raise DimensionTooSmall(
                f"interval end {spec.ends[-1]} does not fit in dimension {dim}")
        indices = []
        for n, m in zip(spec.starts, spec.ends):
            indices.extend(range(n, m + 1))
        return BasisIndexSet(tuple(indices), dim)
    if isinstance(spec, ParityZero):
        start = 1 if spec.parity == "even" else 0
        return BasisIndexSet(tuple(range(start, dim, 2)), dim)
    if isinstance(spec, RecursiveSpan):
        # The stage's largest index is the sum of its offsets; checking it
        # first keeps a deep stage (2^depth indices) from being built at all.
        top = sum(spec.n_seq[1: spec.depth + 1])
        if top >= dim:
            raise DimensionTooSmall(
                f"stage-{spec.depth} index {top} does not fit in dimension {dim}")
        return BasisIndexSet(spec.stage_indices(spec.depth), dim)
    if isinstance(spec, DirectSumFactor):
        if spec.split >= dim:
            raise DimensionTooSmall(f"split {spec.split} does not fit in dimension {dim}")
        lo, hi = (0, spec.split) if spec.position == 0 else (spec.split, dim)
        if spec.inner is None:
            return BasisIndexSet(tuple(range(lo, hi)), dim)
        inner = materialize_subspace(spec.inner, hi - lo)
        return BasisIndexSet(tuple(lo + i for i in inner.indices), dim)
    raise TypeError(f"unknown subspace spec {type(spec).__name__}")


def distance_to_subspace(v: TruncVector, m: BasisIndexSet) -> float:
    """Norm of v's coordinates outside the subspace's index set: its distance
    to the coordinate-aligned span for every p, zero iff v lies in the span."""
    if v.dim != m.dim:
        raise DimensionMismatch(f"vector dim {v.dim} != subspace dim {m.dim}")
    return float(off_span_norms(v.coords[None], m.mask(), v.p)[0])


def row_distance(row: np.ndarray, p: float, y: TruncVector) -> float:
    """``norm(w - y)`` for a raw row w of exponent ``p``, with the checks
    ``TruncVector`` subtraction makes: same dim, same p, finite result.
    A difference that overflows raises NumericalOverflow (a ValueError)."""
    dist = row_distances(row[None], p, y)[0]
    if math.isnan(dist):
        raise distance_overflow()
    return float(dist)


def distance_overflow() -> NumericalOverflow:
    """The error ``row_distance`` raises for a difference that overflows."""
    return NumericalOverflow(None, "the distance ||w - y||")


def row_distances(rows: np.ndarray, p: float, y: TruncVector) -> np.ndarray:
    """``row_distance`` of every row of a raw block to y, with its checks;
    NaN marks a row whose difference overflows, where ``row_distance``
    raises.  The one-target case of ``target_distances``."""
    return target_distances(rows, p, (y,))[0]


def check_target(dim: int, p: float, y: TruncVector):
    """Raise what ``TruncVector`` arithmetic raises for a row of length
    ``dim`` and exponent ``p`` with y: DimensionMismatch or ValueError."""
    if dim != y.dim:
        raise DimensionMismatch(f"dims differ: {dim} vs {y.dim}")
    if p != y.p:
        raise ValueError(f"norm exponents differ: {p} vs {y.p}")


def target_distances(rows: np.ndarray, p: float,
                     targets: Sequence[TruncVector]) -> np.ndarray:
    """``row_distances`` of a raw block to every target (targets x rows),
    with the checks of ``check_target``, first failing target first.

    ``rows - y`` differs from ``rows`` only on y's ``support_window``
    [a, b), found once per vector: outside it w - 0.0 is w, and a signed
    zero of either side changes no norm.  So for each target the window
    of the block is overwritten with ``rows[:, a:b] - y[a:b]``, the whole
    block is measured by ``row_norms`` with the bits of the full
    difference, and the window is restored from a saved copy.  The block
    is patched in place unless a target's field promotes it or it is
    read-only, in which case one promoted copy is patched instead; either
    way the caller's bytes are as they were when this returns.
    """
    for y in targets:
        check_target(rows.shape[1], p, y)
    dtype = np.result_type(rows, *(y.coords for y in targets))
    if dtype != rows.dtype or not rows.flags.writeable:
        rows = rows.astype(dtype)
    dists = np.empty((len(targets), len(rows)))
    for t, y in enumerate(targets):
        a, b = y.support_window
        window = rows[:, a:b]
        saved = window.copy()
        try:
            with np.errstate(over="ignore"):
                np.subtract(window, y.coords[a:b], out=window)
            dists[t] = row_norms(rows, p)
            if not np.isfinite(dists[t]).all():
                inf = np.flatnonzero(~np.isfinite(dists[t]))
                dists[t, inf[~np.isfinite(rows[inf]).all(axis=1)]] = np.nan
        finally:
            window[...] = saved
    return dists


def membership_tolerance(v: TruncVector, rtol: float = MEMBERSHIP_RTOL) -> float:
    """Scale-invariant zero threshold: rtol * max(1, ||v||)."""
    return float(row_tolerances(v.coords[None], v.p, rtol)[0])


def row_tolerances(rows: np.ndarray, p: float, rtol: float) -> np.ndarray:
    """``membership_tolerance`` of every row of a raw block.

    A finite row whose norm exceeds the float range reads its measure in
    units of s from ``_measure``: its tolerance is rtol * ||c / s|| * s,
    which is finite wherever it fits, where rtol * ||c|| would be inf and
    pass every residual.
    """
    norms, big, s, n = _measure(rows, p)
    result = rtol * np.fmax(1.0, norms)
    if big.size:
        over = np.isinf(norms[big])
        with np.errstate(over="ignore"):
            result[big[over]] = rtol * n[over] * s[over]
    return result


def outside_span(rows: np.ndarray, mask: np.ndarray, p: float,
                 rtol: float) -> tuple:
    """``(residuals, outside)`` of a raw block: every row's
    ``off_span_norms`` residual, and whether it exceeds the row's
    ``row_tolerances`` tolerance.  Every tolerance is at least rtol, so
    the tolerances are measured only on the rows whose residual exceeds
    rtol; a NaN residual is never outside."""
    residuals = off_span_norms(rows, mask, p)
    outside = residuals > rtol
    near = np.flatnonzero(outside)
    if near.size:
        outside[near] = residuals[near] > row_tolerances(rows[near], p, rtol)
    return residuals, outside
