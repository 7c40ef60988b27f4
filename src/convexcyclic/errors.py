"""Exception hierarchy shared across the package."""

from __future__ import annotations


class ConvexCyclicError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionMismatch(ConvexCyclicError):
    """Two objects that must share an ambient dimension do not."""


class DimensionTooSmall(ConvexCyclicError):
    """A subspace or instance references an index beyond the truncation."""


class TruncationOverflow(ConvexCyclicError):
    """A forward shift would push nonzero mass beyond the truncation edge.

    Backward shifts are truncation-exact, so only forward shifts raise this.
    """


class NumericalOverflow(ConvexCyclicError, ValueError):
    """An orbit point or a distance stopped being finite in floating point.

    ``degree`` is the degree d of the first power T^d x that was not
    finite, or the degree of the polynomial whose sum of finite terms
    overflowed; it is None when ``what`` overflowed outside an orbit.
    It is also a ValueError, the error non-finite coordinates raise
    everywhere else.
    """

    def __init__(self, degree: int | None, what: str = "the orbit"):
        self.degree = degree
        at = "" if degree is None else f" at degree {degree}"
        super().__init__(f"coordinates must be finite: {what} overflowed{at}")


class TargetOutsideSubspace(ConvexCyclicError):
    """A density target does not lie in the span of the chosen subspace."""


class BallCenterOutsideSubspace(ConvexCyclicError):
    """A transitivity ball center does not lie in the subspace span."""


class RecoveryRuleMissing(ConvexCyclicError):
    """A criterion check needs a recovery vector the instance cannot produce."""


class ScheduleInfeasible(ConvexCyclicError):
    """The cyclic-vector builder found no admissible index at some step.

    Carries the failing step, the best bound achieved during the search and
    the bound that was required, so infeasibility is reported rather than
    silently relaxed.
    """

    def __init__(self, step: int, required: float, best_bound: float,
                 best_k: int | None = None):
        self.step = step
        self.required = required
        self.best_bound = best_bound
        self.best_k = best_k
        super().__init__(
            f"no admissible index at step {step}: required bound < {required:.3e}, "
            f"best achieved {best_bound:.3e}"
            + (f" at k={best_k}" if best_k is not None else "")
        )


class BuildVerificationFailed(ConvexCyclicError):
    """The built vector missed a step's error limit on re-evaluation.

    Each selected summand passed its four-term bound, so this is a
    failure of the builder's own invariant, not a property that failed
    at this scale.  Carries the step, the measured error and the limit.
    """

    def __init__(self, step: int, error: float, limit: float):
        self.step = step
        self.error = error
        self.limit = limit
        super().__init__(
            f"builder post-verification failed at step {step}: "
            f"error {error:.3e} exceeds limit {limit:.3e}")


class LambdaTooSmall(ConvexCyclicError):
    """A scaled-shift instance requires |lambda| > 1."""


class ConfigError(ConvexCyclicError):
    """An experiment config failed to parse or validate."""
