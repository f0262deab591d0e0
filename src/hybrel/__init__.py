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
    MonotonicityProfile,
    belief_sup_grid,
    chance_distribution,
    chance_exceedance,
    degenerate_random,
    detect_profile,
    reliability_reference,
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
    normal_cdf,
    shifted_chi_cdf,
    shifted_chi_pdf,
)
from .errors import (
    AccuracyError,
    AmbiguousRootError,
    DegenerateGradientError,
    DivergedDesignPointError,
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
    reliability_interval,
)
from .mcs import MCSEstimate, estimate_failure
from .model import (
    HybridProblem,
    RandomVariable,
    StandardizedProblem,
    UncertainVariable,
    fd_gradient,
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
