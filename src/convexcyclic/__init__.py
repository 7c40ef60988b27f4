"""Desk-scale numerical laboratory for subspace convex-cyclic operator
dynamics on truncated sequence spaces."""

__version__ = "0.1.0"

from .errors import (BallCenterOutsideSubspace, BuildVerificationFailed,
                     ConfigError, ConvexCyclicError, DimensionMismatch,
                     DimensionTooSmall, LambdaTooSmall, NumericalOverflow,
                     RecoveryRuleMissing, ScheduleInfeasible,
                     TargetOutsideSubspace, TruncationOverflow)
from .spaces import (BasisIndexSet, DirectSumFactor, IndexSet, IntervalFamily,
                     ParityZero, RecursiveSpan, SubspaceSpec, TruncVector,
                     distance_to_subspace, materialize_subspace,
                     membership_tolerance, norm)
from .operators import (BackwardShift, ConvexPolynomial, Dense, DirectSum,
                        ForwardShift, Identity, Monomials, OperatorSpec,
                        Scale, ScreenReport, apply, eval_poly, images,
                        screen_necessary_conditions, to_dense)
from .dynamics import (BallPair, DensityReport, InvarianceResult, PairResult,
                       TargetScore, TransitivityReport, Verdict,
                       default_density_targets, density_score,
                       invariance_check, sample_ball, transitivity_search)
from .criteria import (BuildResult, BuildStep, CriterionInstance,
                       CriterionVerdict, ExplicitRecovery, ShiftRecovery,
                       build_cyclic_vector, check_criterion_I,
                       check_criterion_II, xi_schedule)
from .gallery import (REGISTRY, ExpectedVerdicts, GalleryEntry, build_entry,
                      entry_direct_sum, entry_example_5_2, entry_example_5_4,
                      entry_lemma_5_1, entry_lemma_5_2, entry_prop_4_8,
                      verify_all, verify_entry)
from .config import (ExperimentConfig, dumps_config, entry_to_config,
                     load_config, loads_config)
