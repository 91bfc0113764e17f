"""gradest: gradient estimation from noisy function values.

Seven derivative-free gradient estimators (finite differences, linear
interpolation, Gaussian and sphere smoothing), the closed-form error and
sample-size guarantees that go with them under bounded noise, and a
line-search DFO driver plus experiment harness built on top.
"""
from .core import (NoiseModel, NoisyOracle, ObjectiveFunction, get_problem,
                   make_linear, make_powell_singular, make_quadratic,
                   make_rosenbrock, make_sincos, make_standard_problems,
                   make_trigonometric)
from .sampling import (DirectionSet, RngStream, monte_carlo_moment,
                       orthonormal_directions)
from .estimators import (METHODS, EstimatorConfig, GradientEstimate,
                         SingularDirections, estimate, relative_error)
from .bounds import (BoundReport, condition_table, deterministic_error_bound,
                     error_floor, smoothing_bias_bound, variance_kappa)
from .optimizer import (CurvaturePair, IterationRecord, LineSearchConfig,
                        NotDescent, OptimizationTrace, StepFailure,
                        armijo_search, lbfgs_direction, run_dfo)
from .experiments import (ExperimentSpec, ProfileData, SolverSpec,
                          parse_solver, run_bound_validation,
                          run_optimizer_benchmark, run_relative_error_sweep,
                          run_theta_distribution)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "ObjectiveFunction", "NoiseModel", "NoisyOracle",
    "make_sincos", "make_linear", "make_quadratic", "make_rosenbrock",
    "make_powell_singular", "make_trigonometric", "make_standard_problems",
    "get_problem",
    # sampling
    "RngStream", "DirectionSet", "orthonormal_directions", "monte_carlo_moment",
    # estimators
    "METHODS", "GradientEstimate", "EstimatorConfig", "SingularDirections",
    "estimate", "relative_error",
    # bounds
    "BoundReport", "deterministic_error_bound", "smoothing_bias_bound",
    "variance_kappa", "condition_table", "error_floor",
    # optimizer
    "LineSearchConfig", "IterationRecord", "OptimizationTrace", "NotDescent",
    "StepFailure", "CurvaturePair", "armijo_search", "lbfgs_direction", "run_dfo",
    # experiments
    "ExperimentSpec", "SolverSpec", "ProfileData", "parse_solver",
    "run_relative_error_sweep", "run_theta_distribution",
    "run_bound_validation", "run_optimizer_benchmark",
]
