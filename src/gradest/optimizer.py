"""DFO driver consuming any of the gradient estimators.

The loop is plain descent: estimate g(x_k), build a direction (steepest
descent or L-BFGS two-loop), step, record. The step is either an Armijo
backtracking search or a fixed step size, the benchmark baseline. Under
bounded noise the Armijo test is relaxed by 2 eps_f so that backtracking
cannot loop forever once true decrease drops below the noise floor.

Budget accounting is exact: every oracle call made on behalf of a run is
visible in the trace's cumulative evaluation column.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import Array, NoisyOracle
from .estimators import EstimatorConfig, estimate

# curvature pairs with s'y below this relative threshold are skipped
CURVATURE_GUARD = 1e-10
# Armijo backtracking: the sufficient-decrease constant, the first trial step, the
# factor that shrinks it, and the shrinks before a StepFailure (MAX_BACKTRACKS + 1 probes)
C1 = 0.2
ALPHA0 = 1.0
BACKTRACK = 0.3
MAX_BACKTRACKS = 30
# curvature pairs kept by L-BFGS
MEMORY = 10

TRACE_COLUMNS = ("iter", "f", "grad_est_norm", "true_grad_norm", "alpha",
                 "evals", "backtracks")

__all__ = [
    "NotDescent",
    "StepFailure",
    "LineSearchConfig",
    "IterationRecord",
    "OptimizationTrace",
    "CurvaturePair",
    "armijo_search",
    "lbfgs_direction",
    "run_dfo",
]


class NotDescent(ValueError):
    """Raised when the proposed direction has nonnegative slope g'd."""


class StepFailure(RuntimeError):
    """Raised when backtracking exhausts MAX_BACKTRACKS without acceptance."""


@dataclass(frozen=True)
class LineSearchConfig:
    """Step rule and outer-loop controls.

    step None means Armijo backtracking from ALPHA0; a positive finite step
    means one probe at x + step * d, always accepted, and takes the
    steepest_descent direction only. max_iters is a nonnegative count;
    eval_budget None means no budget. grad_norm_stop None means relative,
    1e-6 * ||g(x0)||. direction is "lbfgs" or "sd" (stored as
    "steepest_descent"), in any case and with surrounding blanks. The Armijo
    rule (C1, the 2 eps_f relaxation, ALPHA0, BACKTRACK, MAX_BACKTRACKS) and
    the L-BFGS MEMORY are fixed: see armijo_search and the module constants.
    """

    # read by the Armijo recheck in perfbench/workloads.py; ROADMAP item 1 deletes them
    c1 = C1
    noise_relaxation = None
    direction: str = "lbfgs"
    max_iters: int = 1000
    eval_budget: int | None = None
    grad_norm_stop: float | None = None
    step: float | None = None

    def __post_init__(self) -> None:
        direction = self.direction.strip().lower()
        direction = "steepest_descent" if direction == "sd" else direction
        if direction not in ("steepest_descent", "lbfgs"):
            raise ValueError(f"direction must be lbfgs or sd, got {self.direction!r}")
        object.__setattr__(self, "direction", direction)
        if self.eval_budget is not None and self.eval_budget < 1:
            raise ValueError("budget must be positive")
        if self.max_iters is None or self.max_iters < 0:
            raise ValueError(f"max_iters must be nonnegative, got {self.max_iters}")
        if self.grad_norm_stop is not None and not 0.0 <= self.grad_norm_stop < math.inf:
            raise ValueError(f"grad_norm_stop must be finite and nonnegative, "
                             f"got {self.grad_norm_stop}")
        if self.step is not None and not 0.0 < self.step < math.inf:
            raise ValueError(f"fixed step alpha must be positive and finite, got {self.step!r}")
        if self.step is not None and self.direction == "lbfgs":
            raise ValueError("the fixed step takes direction sd (steepest_descent), not lbfgs")


@dataclass(frozen=True, slots=True)
class IterationRecord:
    """One completed iteration of run_dfo.

    grad_est_norm and slope belong to the estimate that drove the step
    (computed at the departure point); x, f, and true_grad_norm describe the
    accepted arrival point. Rows with alpha = 0 are in-place: a rejected
    step (backtracks = MAX_BACKTRACKS + 1), the terminal gradient-norm stop,
    the terminal non-finite estimate, or the one row of a run stopped before
    its first estimate (grad_est_norm nan).
    """

    iteration: int
    x: Array
    f: float
    grad_est_norm: float
    true_grad_norm: float
    alpha: float
    evals_cumulative: int
    backtracks: int
    slope: float


@dataclass
class OptimizationTrace:
    records: list[IterationRecord] = field(default_factory=list)
    termination: str = "running"

    @property
    def evals_used(self) -> int:
        return self.records[-1].evals_cumulative

    def to_csv(self, fh) -> None:
        """Write the trace to the open text file fh with the stable column
        set, one row per record."""
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for r in self.records:
            fh.write(f"{r.iteration},{r.f:.17g},{r.grad_est_norm:.17g},"
                     f"{r.true_grad_norm:.17g},{r.alpha:.17g},"
                     f"{r.evals_cumulative},{r.backtracks}\n")


def armijo_search(oracle: NoisyOracle, x: Array, d: Array, g: Array,
                  f_x: float, alpha0: float = ALPHA0):
    """Backtracking search: largest alpha in {alpha0 * BACKTRACK^k} with

        f(x + alpha d) <= f_x + C1 * alpha * g'd + 2 * eps_f,

    eps_f being the oracle's noise level (0 without noise). A probe whose f
    is NaN fails the comparison, so it counts as a rejected probe and the
    search backtracks from it like any other.

    Returns (alpha, x_new, f_new, backtracks). Raises NotDescent when
    g'd is not negative (NaN included) and StepFailure when MAX_BACKTRACKS
    is exhausted.
    """
    slope = float(g.dot(d))
    if not slope < 0.0:
        raise NotDescent(f"g'd = {slope:.3e} is not a descent slope")
    relax = 2.0 * oracle.noise.level
    alpha = alpha0
    for k in range(MAX_BACKTRACKS + 1):
        x_new = x + alpha * d
        f_new = oracle(x_new)
        if f_new <= f_x + C1 * alpha * slope + relax:
            return alpha, x_new, f_new, k
        alpha *= BACKTRACK
    raise StepFailure(f"no acceptable step within {MAX_BACKTRACKS} backtracks")


def _norm(v: Array) -> float:
    """||v|| of a 1-D float array: np.linalg.norm(v) bit for bit, as sqrt(v.v)."""
    return math.sqrt(v.dot(v))


class CurvaturePair(NamedTuple):
    """An L-BFGS pair (s, y) with its g-independent scalars: sy = s'y, yy = y'y,
    y_norm = ||y|| = sqrt(yy), and curved, the verdict s'y > CURVATURE_GUARD
    ||s|| ||y||. Build it with CurvaturePair.of(s, y), which computes them once."""

    s: Array
    y: Array
    sy: float
    yy: float
    y_norm: float
    curved: bool

    @classmethod
    def of(cls, s: Array, y: Array) -> "CurvaturePair":
        sy, yy = float(s.dot(y)), float(y.dot(y))
        y_norm = math.sqrt(yy)
        return cls(s, y, sy, yy, y_norm, sy > CURVATURE_GUARD * _norm(s) * y_norm)


def lbfgs_direction(history: list[CurvaturePair], g: Array) -> Array:
    """Two-loop recursion over the stored curvature pairs, oldest first.

    Pairs that are not curved (s'y <= CURVATURE_GUARD * ||s|| ||y||) are
    skipped, as are pairs whose ||y|| is below 1e-8 ||g||: estimated
    gradients carry difference-quotient rounding, and "curvature" at that
    scale is noise whose gamma = s'y / y'y would blow up the initial scaling
    (on an exactly linear objective it reaches 1e10). Empty usable history
    gives -g, and so does a result that is not a descent direction (g'd not
    negative, NaN included, the test armijo_search applies). The initial
    scaling comes from the newest usable pair.
    """
    g_scale = 1e-8 * _norm(g)
    usable = [p for p in history if p.curved and p.y_norm > g_scale]
    if not usable:
        return -g
    q = g.copy()
    alphas = []
    for s, y, sy, _, _, _ in reversed(usable):
        a = float(s.dot(q)) / sy
        alphas.append(a)
        q -= a * y
    q *= usable[-1].sy / usable[-1].yy   # the initial scaling gamma
    for (s, y, sy, _, _, _), a in zip(usable, reversed(alphas)):
        b = float(y.dot(q)) / sy
        q += (a - b) * s
    d = -q
    return d if g.dot(d) < 0.0 else -g


def _record(k: int, oracle: NoisyOracle, x: Array, f: float, g_norm: float,
            alpha: float, backtracks: int, slope: float) -> IterationRecord:
    """Iteration k's record at x: a copy of x, the true gradient norm there,
    and the oracle's evaluation count so far."""
    return IterationRecord(k, x.copy(), f, g_norm, _norm(oracle.objective.gradient_at(x)),
                           alpha, oracle.eval_count, backtracks, slope)


def run_dfo(oracle: NoisyOracle, estimator_cfg: EstimatorConfig,
            ls_cfg: LineSearchConfig, x0: Array,
            rng: np.random.Generator | None = None) -> OptimizationTrace:
    """Descent with the configured estimator, direction rule and step rule.

    Terminates on eval_budget (when set, tested before each estimate),
    max_iters, grad_norm_stop (tested on the estimate g, not the true
    gradient), nonfinite (a non-finite f(x0), which ends the run before its
    first estimate, or an estimate whose norm is not finite, from a NaN or
    infinite entry; recorded in place), three consecutive StepFailures of
    armijo_search, null_step, or, for the fixed step only, divergence (a
    non-finite arrival, or five increases in f in a row).
    null_step ends a deterministic run (noise and estimator both draw
    nothing: NoiseModel.deterministic and EstimatorConfig.deterministic)
    after a step whose arrival is bitwise the departure x, whatever alpha0
    its search started from. The next iteration would see the same x, f, g,
    history (no pair is added while x stays put) and alpha0 (an accepted
    step restores ALPHA0) as the first search at x did, so from there the
    run would repeat its records since arriving at x until eval_budget or
    max_iters.
    rng feeds the estimator's direction draws; FFD and CFD need none, and
    the other methods raise ValueError without rng or a direction_source.
    On a StepFailure the gradient is re-estimated at the same point (fresh
    randomness) and the local alpha0 is halved; an accepted step restores
    ALPHA0. Every iteration appends a record, and a run stopped before its
    first estimate records x0 in place, so the final record's cumulative
    evaluation count equals the oracle counter exactly.
    """
    x = np.array(x0, dtype=float)
    trace = OptimizationTrace()
    f_x = oracle(x)
    if not math.isfinite(f_x):
        trace.records.append(_record(0, oracle, x, f_x, math.nan, 0.0, 0, 0.0))
        trace.termination = "nonfinite"
        return trace

    history: list[CurvaturePair] = []
    prev_x = prev_g = None
    stop_norm = ls_cfg.grad_norm_stop
    alpha0 = ALPHA0
    consecutive_failures = increases = 0
    deterministic = oracle.noise.deterministic and estimator_cfg.deterministic
    k = 0

    while True:
        if ls_cfg.eval_budget is not None and oracle.eval_count >= ls_cfg.eval_budget:
            trace.termination = "eval_budget"
            break
        if k >= ls_cfg.max_iters:
            trace.termination = "max_iters"
            break

        g = estimate(oracle, x, estimator_cfg, rng).g
        g_norm = _norm(g)
        if not math.isfinite(g_norm):
            trace.records.append(_record(k, oracle, x, f_x, g_norm, 0.0, 0, 0.0))
            trace.termination = "nonfinite"
            break
        if stop_norm is None:
            stop_norm = 1e-6 * g_norm

        if ls_cfg.direction == "lbfgs" and prev_g is not None and (x != prev_x).any():
            history.append(CurvaturePair.of(x - prev_x, g - prev_g))
            if len(history) > MEMORY:
                history.pop(0)
        prev_x, prev_g = x, g

        if g_norm <= stop_norm:
            trace.records.append(_record(k, oracle, x, f_x, g_norm, 0.0, 0, 0.0))
            trace.termination = "grad_norm_stop"
            break

        d = lbfgs_direction(history, g) if ls_cfg.direction == "lbfgs" else -g
        slope = float(g.dot(d))

        diverged = False
        if ls_cfg.step is None:
            try:
                alpha, x_new, f_new, backtracks = armijo_search(
                    oracle, x, d, g, f_x, alpha0)
            except StepFailure:
                consecutive_failures += 1
                trace.records.append(_record(k, oracle, x, f_x, g_norm, 0.0,
                                             MAX_BACKTRACKS + 1, slope))
                if consecutive_failures >= 3:
                    trace.termination = "step_failure"
                    break
                alpha0 /= 2.0
                k += 1
                continue
            consecutive_failures = 0
            alpha0 = ALPHA0
        else:
            alpha, backtracks = ls_cfg.step, 0
            x_new = x + alpha * d
            f_new = oracle(x_new)
            increases = increases + 1 if f_new > f_x else 0
            diverged = increases >= 5 or not (math.isfinite(f_new)
                                              and np.all(np.isfinite(x_new)))

        null_step = deterministic and x_new.tobytes() == x.tobytes()
        x, f_x = x_new, f_new
        trace.records.append(_record(k, oracle, x, f_x, g_norm, alpha, backtracks, slope))
        k += 1
        if diverged:
            trace.termination = "divergence"
            break
        if null_step:
            trace.termination = "null_step"
            break

    if not trace.records:
        trace.records.append(_record(0, oracle, x, f_x, math.nan, 0.0, 0, 0.0))
    return trace
