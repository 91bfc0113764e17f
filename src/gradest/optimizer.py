"""Line-search DFO driver consuming any of the gradient estimators.

The loop is plain descent: estimate g(x_k), build a direction (steepest
descent or L-BFGS two-loop), backtrack until the Armijo condition holds,
step. Under bounded noise the Armijo test is relaxed by 2 eps_f so that
backtracking cannot loop forever once true decrease drops below the noise
floor. A fixed-step variant serves as the benchmark baseline.

Budget accounting is exact: every oracle call made on behalf of a run is
visible in the trace's cumulative evaluation column.
"""
from __future__ import annotations

import dataclasses
import io
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import Array, NoisyOracle
from .estimators import EstimatorConfig, estimate

# curvature pairs with s'y below this relative threshold are skipped
CURVATURE_GUARD = 1e-10

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
    "fixed_step_dfo",
]


class NotDescent(ValueError):
    """Raised when the proposed direction has nonnegative slope g'd."""


class StepFailure(RuntimeError):
    """Raised when backtracking exhausts max_backtracks without acceptance."""


@dataclass(frozen=True)
class LineSearchConfig:
    """Line-search and outer-loop controls.

    noise_relaxation None means automatic: 2 * oracle noise level when the
    oracle is noisy, 0 otherwise. grad_norm_stop None means relative,
    1e-6 * ||g(x0)||. direction is "steepest_descent" or "lbfgs".
    """

    c1: float = 0.2
    backtrack: float = 0.3
    alpha0: float = 1.0
    max_backtracks: int = 30
    noise_relaxation: float | None = None
    direction: str = "lbfgs"
    memory: int = 10
    max_iters: int = 1000
    eval_budget: int | None = None
    grad_norm_stop: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.c1 < 1.0:
            raise ValueError("c1 must lie in (0, 1)")
        if not 0.0 < self.backtrack < 1.0:
            raise ValueError("backtrack must lie in (0, 1)")
        if not self.alpha0 > 0:
            raise ValueError("alpha0 must be positive")
        if self.max_backtracks < 0:
            raise ValueError("max_backtracks must be nonnegative")
        if self.direction not in ("steepest_descent", "lbfgs"):
            raise ValueError("direction must be steepest_descent or lbfgs")
        if self.memory < 1:
            raise ValueError("memory must be at least 1")


@dataclass(frozen=True)
class IterationRecord:
    """One completed iteration of run_dfo.

    grad_est_norm and slope belong to the estimate that drove the step
    (computed at the departure point); x, f, and true_grad_norm describe the
    accepted arrival point. Rows with alpha = 0 are in-place: a rejected
    step (backtracks = max_backtracks + 1), the terminal gradient-norm stop,
    or the terminal non-finite estimate. fixed_step_dfo rows instead
    describe the iterate before its step.
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
    def final_x(self) -> Array:
        return self.records[-1].x

    @property
    def evals_used(self) -> int:
        return self.records[-1].evals_cumulative if self.records else 0

    def column(self, name: str) -> np.ndarray:
        attr = {"iter": "iteration", "evals": "evals_cumulative"}.get(name, name)
        return np.asarray([getattr(r, attr) for r in self.records])

    def to_csv(self, path_or_file) -> None:
        """Write the trace with the stable column set, one row per record."""
        closing = isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__")
        fh = open(path_or_file, "w", newline="") if closing else path_or_file
        try:
            fh.write(",".join(TRACE_COLUMNS) + "\n")
            for r in self.records:
                fh.write(f"{r.iteration},{r.f:.17g},{r.grad_est_norm:.17g},"
                         f"{r.true_grad_norm:.17g},{r.alpha:.17g},"
                         f"{r.evals_cumulative},{r.backtracks}\n")
        finally:
            if closing:
                fh.close()

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


def armijo_search(oracle: NoisyOracle, x: Array, d: Array, g: Array,
                  f_x: float, cfg: LineSearchConfig):
    """Backtracking search: largest alpha in {alpha0 * backtrack^k} with

        f(x + alpha d) <= f_x + c1 * alpha * g'd + relaxation.

    Returns (alpha, x_new, f_new, backtracks). Raises NotDescent when
    g'd is not negative (NaN included) and StepFailure when max_backtracks
    is exhausted.
    """
    slope = float(np.dot(g, d))
    if not slope < 0.0:
        raise NotDescent(f"g'd = {slope:.3e} is not a descent slope")
    relax = cfg.noise_relaxation
    if relax is None:
        relax = 2.0 * oracle.noise.level
    alpha = cfg.alpha0
    for k in range(cfg.max_backtracks + 1):
        x_new = x + alpha * d
        f_new = oracle(x_new)
        if f_new <= f_x + cfg.c1 * alpha * slope + relax:
            return alpha, x_new, f_new, k
        alpha *= cfg.backtrack
    raise StepFailure(f"no acceptable step within {cfg.max_backtracks} backtracks")


class CurvaturePair(NamedTuple):
    """An L-BFGS pair (s, y) with its g-independent scalars: sy = s'y,
    y_norm = ||y||, and curved, the verdict s'y > CURVATURE_GUARD ||s|| ||y||.
    Build it with CurvaturePair.of(s, y), which computes them once."""

    s: Array
    y: Array
    sy: float
    y_norm: float
    curved: bool

    @classmethod
    def of(cls, s: Array, y: Array) -> "CurvaturePair":
        sy = np.dot(s, y)
        y_norm = np.linalg.norm(y)
        return cls(s, y, float(sy), float(y_norm),
                   bool(sy > CURVATURE_GUARD * np.linalg.norm(s) * y_norm))


def lbfgs_direction(history: list[CurvaturePair], g: Array) -> Array:
    """Two-loop recursion over the stored curvature pairs, oldest first.

    Pairs that are not curved (s'y <= CURVATURE_GUARD * ||s|| ||y||) are
    skipped, as are pairs whose ||y|| is below 1e-8 ||g||: estimated
    gradients carry difference-quotient rounding, and "curvature" at that
    scale is noise whose gamma = s'y / y'y would blow up the initial scaling
    (on an exactly linear objective it reaches 1e10). Empty usable history
    gives -g. The initial scaling comes from the newest usable pair.
    """
    g_scale = 1e-8 * float(np.linalg.norm(g))
    usable = [p for p in history if p.curved and p.y_norm > g_scale]
    if not usable:
        return -np.asarray(g, dtype=float)
    q = np.array(g, dtype=float)
    alphas = []
    for s, y, sy, _, _ in reversed(usable):
        a = np.dot(s, q) / sy
        alphas.append(a)
        q -= a * y
    newest = usable[-1]
    q *= newest.sy / float(np.dot(newest.y, newest.y))
    for (s, y, sy, _, _), a in zip(usable, reversed(alphas)):
        b = np.dot(y, q) / sy
        q += (a - b) * s
    d = -q
    if np.dot(g, d) >= 0.0:
        return -np.asarray(g, dtype=float)
    return d


def _true_grad_norm(oracle: NoisyOracle, x: Array) -> float:
    return float(np.linalg.norm(oracle.objective.gradient_at(x)))


def run_dfo(oracle: NoisyOracle, estimator_cfg: EstimatorConfig,
            ls_cfg: LineSearchConfig, x0: Array,
            rng: np.random.Generator | None = None) -> OptimizationTrace:
    """Line-search descent with the configured estimator and direction rule.

    Terminates on eval_budget, max_iters, grad_norm_stop (tested on the
    estimate g, not the true gradient), nonfinite (an estimate whose norm is
    not finite, from a NaN or infinite entry; recorded in place), or three
    consecutive StepFailures.
    rng feeds the estimator's direction draws; FFD and CFD need none, and
    the other methods raise ValueError without rng or a direction_source.
    On a StepFailure the gradient is re-estimated at the same point (fresh
    randomness) and the local alpha0 is halved; an accepted step restores it.
    Every iteration appends a record, so the final record's cumulative
    evaluation count equals the oracle counter exactly.
    """
    if ls_cfg.eval_budget is None and ls_cfg.max_iters is None:
        raise ValueError("need at least one of eval_budget, max_iters")
    x = np.array(x0, dtype=float)
    trace = OptimizationTrace()
    f_x = oracle(x)

    history: list[CurvaturePair] = []
    prev_x = prev_g = None
    stop_norm = ls_cfg.grad_norm_stop
    alpha0_local = ls_cfg.alpha0
    consecutive_failures = 0
    k = 0

    while True:
        if ls_cfg.eval_budget is not None and oracle.eval_count >= ls_cfg.eval_budget:
            trace.termination = "eval_budget"
            break
        if ls_cfg.max_iters is not None and k >= ls_cfg.max_iters:
            trace.termination = "max_iters"
            break

        g = estimate(oracle, x, estimator_cfg, rng).g
        g_norm = float(np.linalg.norm(g))
        if not math.isfinite(g_norm):
            trace.records.append(IterationRecord(
                k, x.copy(), f_x, g_norm, _true_grad_norm(oracle, x),
                0.0, oracle.eval_count, 0, 0.0))
            trace.termination = "nonfinite"
            break
        if stop_norm is None:
            stop_norm = 1e-6 * g_norm

        if ls_cfg.direction == "lbfgs" and prev_g is not None and np.any(x != prev_x):
            history.append(CurvaturePair.of(x - prev_x, g - prev_g))
            if len(history) > ls_cfg.memory:
                history.pop(0)
        prev_x, prev_g = x, g

        if g_norm <= stop_norm:
            trace.records.append(IterationRecord(
                k, x.copy(), f_x, g_norm, _true_grad_norm(oracle, x),
                0.0, oracle.eval_count, 0, 0.0))
            trace.termination = "grad_norm_stop"
            break

        if ls_cfg.direction == "lbfgs":
            d = lbfgs_direction(history, g)
        else:
            d = -g
        slope = float(np.dot(g, d))

        try:
            cfg_k = (ls_cfg if alpha0_local == ls_cfg.alpha0
                     else dataclasses.replace(ls_cfg, alpha0=alpha0_local))
            alpha, x_new, f_new, backtracks = armijo_search(oracle, x, d, g, f_x, cfg_k)
        except StepFailure:
            consecutive_failures += 1
            trace.records.append(IterationRecord(
                k, x.copy(), f_x, g_norm, _true_grad_norm(oracle, x),
                0.0, oracle.eval_count, ls_cfg.max_backtracks + 1, slope))
            if consecutive_failures >= 3:
                trace.termination = "step_failure"
                break
            alpha0_local = alpha0_local / 2.0
            k += 1
            continue

        consecutive_failures = 0
        alpha0_local = ls_cfg.alpha0
        x, f_x = x_new, f_new
        trace.records.append(IterationRecord(
            k, x.copy(), f_x, g_norm, _true_grad_norm(oracle, x),
            alpha, oracle.eval_count, backtracks, slope))
        k += 1

    return trace


def fixed_step_dfo(oracle: NoisyOracle, estimator_cfg: EstimatorConfig,
                   alpha: float, x0: Array, budget: int,
                   rng: np.random.Generator | None = None) -> OptimizationTrace:
    """Steepest descent with a constant step: x <- x - alpha * g.

    One extra oracle call per iteration records f(x_k). Terminates on the
    evaluation budget, or flags divergence after 5 consecutive increases in
    f or a nonfinite iterate. rng is used as in run_dfo.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if budget < 1:
        raise ValueError("budget must be positive")
    x = np.array(x0, dtype=float)
    trace = OptimizationTrace()
    f_prev = None
    increases = 0
    k = 0
    while True:
        if oracle.eval_count >= budget:
            trace.termination = "eval_budget"
            break
        f_x = oracle(x)
        if not np.isfinite(f_x) or not np.all(np.isfinite(x)):
            trace.records.append(IterationRecord(
                k, x.copy(), f_x, np.nan, _true_grad_norm(oracle, x),
                alpha, oracle.eval_count, 0, 0.0))
            trace.termination = "divergence"
            break
        g = estimate(oracle, x, estimator_cfg, rng).g
        g_norm = float(np.linalg.norm(g))
        trace.records.append(IterationRecord(
            k, x.copy(), f_x, g_norm, _true_grad_norm(oracle, x),
            alpha, oracle.eval_count, 0, -g_norm**2))
        increases = increases + 1 if (f_prev is not None and f_x > f_prev) else 0
        if increases >= 5:
            trace.termination = "divergence"
            break
        f_prev = f_x
        x = x - alpha * g
        k += 1
    return trace
