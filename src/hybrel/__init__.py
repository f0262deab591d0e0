"""Hybrid aleatory/epistemic structural reliability toolkit.

Computes the chance-measure reliability of limit states mixing Gaussian
random inputs with interval-bounded uncertain inputs, via a polar-feature
dimension reduction around a single-loop design-point search, with a
Monte Carlo baseline and a small benchmark registry.
"""

from .benchmarks import (
    BenchmarkCase,
    CASE_KEYS,
    CRANK_STRESS_SCALE,
    RunReport,
    TUBE_STRESS_SCALE,
    case_cantilever_tube,
    case_crank_slider,
    case_linear,
    get_case,
    load_problem,
    run_case,
)
from .chance import (
    BeliefRoot,
    MonotonicityProfile,
    belief_at_limit_state,
    belief_sup_grid,
    chance_distribution,
    chance_exceedance,
    detect_profile,
)
from .config import RunSettings, load_config, thread_cap
from .distributions import (
    LinearUncertain,
    Normal,
    chi_cdf,
    chi_pdf,
    chi_square_cdf,
    chi_square_pdf,
    chi_square_ppf,
    cos_angle_cdf,
    cos_angle_pdf,
    linear_unc_cdf,
    linear_unc_inv,
    normal_cdf,
    normal_inv_cdf,
    normal_pdf,
    shifted_chi_cdf,
    shifted_chi_pdf,
)
from .errors import (
    AccuracyError,
    AmbiguousRootError,
    DegenerateGradientError,
    HybrelError,
    InvalidGeometryError,
    InvalidParameterError,
    NonFiniteResponseError,
    UndefinedAngleError,
    UnsupportedDimensionError,
)
from .integrator import (
    ReliabilityInterval,
    ShiftSchedule,
    reliability_at_shift,
    reliability_at_shifts,
    reliability_interval,
)
from .mcs import MCSEstimate, estimate_failure
from .model import (
    HybridProblem,
    RandomVariable,
    StandardizedProblem,
    UncertainVariable,
    degenerate_random,
    degenerate_uncertain,
    fd_gradient,
    reliability_reference,
    standardize,
)
from .polar import PolarFeatures, ReducedLSF, polar_features, reduce_to_polar
from .solver import (
    DesignPoint,
    IterationRecord,
    SolverSettings,
    find_design_point,
    pa_step,
    ua_step,
)

__version__ = "0.1.0"
