"""Experiment drivers: seeded, CSV-emitting reproductions of the empirical
protocols at desk scale.

Four experiments are provided:

  relative_error_sweep   theta per (problem, point, sigma, eps_f, method, trial)
  theta_distribution     distribution of theta for the linear objective vs N
  bound_validation       measured errors against every closed-form bound
  optimizer_benchmark    solver races summarized as performance/data profiles

Reproducibility contract: every random quantity is drawn from a substream
keyed by (seed, fixed tag, structural indices), so reruns with the same seed
produce byte-identical CSV text. Each experiment cell (one problem, point,
sigma, noise level and method) estimates all of its trials through the
batched estimator core: its directions come from one stream and its noise
from another, both read in trial order, and trials are evaluated in chunks
of at most _CHUNK_COORDS probe coordinates, so peak memory stays flat and
the output does not depend on the chunk size. Floats are rendered with
repr-faithful %.17g.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import bounds as bnd
from .core import NoiseModel, NoisyOracle, get_problem, make_linear, make_standard_problems
from .estimators import (CENTRAL, EstimatorConfig, estimate_trials,
                         trial_directions)
from .optimizer import LineSearchConfig, OptimizationTrace, fixed_step_dfo, run_dfo
from .sampling import RngStream

# Substream tags: one fixed integer per random role, so no two roles ever
# share a Philox key even when their structural indices coincide.
_TAG_NOISE = 90
_TAG_POINTS = 101
_TAG_SWEEP = 102
_TAG_THETA = 103
_TAG_BOUND = 104
_TAG_BENCH = 105
_TAG_REFERENCE = 106
_TAG_REDRAW = 107

# Probe coordinates (rows x n) per chunk of a cell's trials: bounds the
# working set of the batched estimates to a few MB at any trial count.
_CHUNK_COORDS = 1 << 16

EXPERIMENTS = ("relative_error_sweep", "theta_distribution",
               "bound_validation", "optimizer_benchmark")

SWEEP_METHODS = ("FFD", "CFD", "LI", "GSG", "cGSG", "BSG", "cBSG")

# machine-noise floor: deterministic-bound rows with smaller sigma are
# dominated by cancellation error and are excluded from pass/fail
ROUND_OFF_SIGMA = 1e-12

PERF_ALPHA_GRID = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0,
                   24.0, 32.0, 48.0, 64.0)

__all__ = [
    "EXPERIMENTS",
    "CsvTable",
    "ExperimentSpec",
    "SolverSpec",
    "ProfileData",
    "BenchmarkResult",
    "parse_solver",
    "bound_check_skips",
    "run_relative_error_sweep",
    "run_theta_distribution",
    "run_bound_validation",
    "run_optimizer_benchmark",
]


def _fmt(v) -> str:
    # floats first: they are most of every table
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")   # also "inf", "-inf", "nan"
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


@dataclass
class CsvTable:
    """In-memory CSV with deterministic text rendering."""

    header: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)

    def add(self, *row) -> None:
        if len(row) != len(self.header):
            raise ValueError(f"row has {len(row)} fields, header has {len(self.header)}")
        self.rows.append(row)

    def text(self) -> str:
        lines = [",".join(self.header)]
        lines.extend(",".join(_fmt(v) for v in row) for row in self.rows)
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.text())

    def column(self, name: str) -> list:
        i = self.header.index(name)
        return [row[i] for row in self.rows]


@dataclass(frozen=True)
class ExperimentSpec:
    """Grid and budget description for one experiment run.

    Unused fields are ignored by experiments that do not consume them; the
    JSON loader rejects unknown keys so config typos fail loudly.
    """

    experiment: str
    seed: int = 0
    trials: int | None = None
    out: str | None = None
    # shared grids
    problems: tuple[str, ...] = ()
    methods: tuple[str, ...] = SWEEP_METHODS
    sigmas: tuple[float, ...] = (0.01,)
    eps_fs: tuple[float, ...] = (0.0,)
    noise_kind: str = "uniform_iid"
    sample_factor: float = 4.0     # smoothing N = ceil(sample_factor * n)
    points_per_problem: int = 20
    # theta_distribution
    n: int = 32
    N_list: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
    # bound_validation
    theta: float = 0.5
    delta: float = 0.1
    # optimizer_benchmark
    solvers: tuple[str, ...] = ("ffd+lbfgs+ls", "gsg:n+sd+ls")
    budget_factor: int = 200
    taus: tuple[float, ...] = (1e-1, 1e-3, 1e-5)

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; choices: {EXPERIMENTS}")
        if self.trials is not None and self.trials < 1:
            raise ValueError("trials must be >= 1")
        for name in ("methods", "sigmas", "eps_fs", "N_list", "solvers", "taus"):
            if len(getattr(self, name)) == 0:
                raise ValueError(f"{name} must be nonempty")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown spec keys: {sorted(unknown)}")
        coerced = {}
        for f in fields(cls):
            if f.name not in data:
                continue
            v = data[f.name]
            coerced[f.name] = tuple(v) if isinstance(v, list) else v
        for name in ("seed", "trials", "points_per_problem", "n",
                     "budget_factor"):
            v = coerced.get(name)
            if v is not None and (isinstance(v, bool) or not isinstance(v, int)):
                raise ValueError(f"spec key {name!r} must be an integer, got {v!r}")
        for name in ("sample_factor", "theta", "delta"):
            v = coerced.get(name)
            if v is not None and (isinstance(v, bool)
                                  or not isinstance(v, (int, float))):
                raise ValueError(f"spec key {name!r} must be a number, got {v!r}")
        return cls(**coerced)

    @classmethod
    def from_json(cls, path) -> "ExperimentSpec":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def resolved_trials(self) -> int:
        if self.trials is not None:
            return self.trials
        defaults = {"relative_error_sweep": 100, "theta_distribution": 10_000,
                    "bound_validation": 1000, "optimizer_benchmark": 1}
        return defaults[self.experiment]

    def problem_list(self) -> list:
        if self.problems:
            return [get_problem(name)[0] for name in self.problems]
        return [p for _, p, _ in make_standard_problems()]


def _noise_model(kind: str, level: float, seed: int) -> NoiseModel:
    if level == 0.0:
        return NoiseModel()
    return NoiseModel(kind=kind, level=level, seed=seed)


def _make_oracle(objective, spec: ExperimentSpec, eps_f: float, *indices) -> NoisyOracle:
    noise = _noise_model(spec.noise_kind, eps_f, spec.seed)
    rng = None
    if noise.kind == "uniform_iid":
        rng = RngStream(spec.seed).generator(_TAG_NOISE, *indices)
    return NoisyOracle(objective, noise, rng=rng)


def _direction_streams(seed: int, method: str, n: int, *key):
    """(directions, redraw) for one cell: the generator its trials draw
    their directions from, in trial order, and for LI the redraw of
    singular frames from a substream of its own, so that a redraw never
    shifts the cell's direction stream. Both None for FFD/CFD."""
    if method in ("FFD", "CFD"):
        return None, None
    stream = RngStream(seed)
    rng = stream.generator(*key)
    if method != "LI":
        return rng, None
    spare = stream.generator(_TAG_REDRAW, *key)
    return rng, lambda count: trial_directions("LI", n, n, count, spare)


def _cell_estimates(oracle, x, method: str, sigma: float, N: int | None,
                    trials: int, streams):
    """Estimates of one cell's trials at x, in chunks of at most
    _CHUNK_COORDS probe coordinates: (G, qinv) with G of shape (trials, n)
    and qinv the per-trial ||Q^-1|| for LI (None otherwise)."""
    rng, redraw = streams
    n = x.size
    k = N if method in bnd.SMOOTHING else n
    rows = 2 * k if method in CENTRAL else k + 1
    per_chunk = max(1, _CHUNK_COORDS // (rows * n))
    G = np.empty((trials, n))
    qinv = np.empty(trials) if method == "LI" else None
    for start in range(0, trials, per_chunk):
        stop = min(trials, start + per_chunk)
        Q = trial_directions(method, n, k, stop - start, rng)
        G[start:stop], _, q = estimate_trials(oracle, x, method, sigma, Q,
                                              redraw=redraw)
        if qinv is not None:
            qinv[start:stop] = q
    return G, qinv


def _thetas(G, grad_true) -> np.ndarray:
    """Relative error of each row of G; nan where the gradient vanishes."""
    denom = np.linalg.norm(grad_true)
    if denom == 0.0:
        return np.full(len(G), np.nan)
    return np.linalg.norm(G - grad_true, axis=1) / denom


def _problem_points(problem, spec: ExperimentSpec, problem_idx: int) -> np.ndarray:
    """points_per_problem draws, uniform on the problem's box (x0 +- 1 when
    no box is declared)."""
    lo = problem.box_lo if problem.box_lo is not None else problem.x0 - 1.0
    hi = problem.box_hi if problem.box_hi is not None else problem.x0 + 1.0
    pts = np.empty((spec.points_per_problem, problem.n))
    for j in range(spec.points_per_problem):
        rng = RngStream(spec.seed).generator(_TAG_POINTS, problem_idx, j)
        pts[j] = rng.uniform(lo, hi)
    return pts


SWEEP_HEADER = ("problem", "n", "point", "method", "sigma", "eps_f", "N",
                "trial", "seed", "theta", "log10_theta")
SWEEP_SUMMARY_HEADER = ("problem", "n", "point", "method", "sigma", "eps_f",
                        "N", "trials", "seed", "mean_theta", "median_theta",
                        "var_theta", "success_rate")


def run_relative_error_sweep(spec: ExperimentSpec):
    """theta for each (problem, point, sigma, eps_f, method, trial) cell.

    Returns (rows, summary) CsvTables. Per-cell statistics are sample
    mean/median/variance (ddof=1) of theta plus the success rate theta < 1/2.
    Cells whose true gradient vanishes record theta = nan and are excluded
    from the summary statistics. Direction streams are keyed without eps_f,
    so cells that differ only in noise level see the same directions
    (common random numbers): their difference in theta is the noise's doing.
    """
    trials = spec.resolved_trials()
    rows = CsvTable(SWEEP_HEADER)
    summary = CsvTable(SWEEP_SUMMARY_HEADER)
    for p_idx, problem in enumerate(spec.problem_list()):
        n = problem.n
        N = max(1, math.ceil(spec.sample_factor * n))
        for pt_idx, x in enumerate(_problem_points(problem, spec, p_idx)):
            grad_true = problem.gradient_at(x)
            for s_idx, sigma in enumerate(spec.sigmas):
                for e_idx, eps_f in enumerate(spec.eps_fs):
                    for m_idx, method in enumerate(spec.methods):
                        oracle = _make_oracle(problem, spec, eps_f, p_idx, pt_idx,
                                              s_idx, e_idx, m_idx)
                        streams = _direction_streams(spec.seed, method, n, _TAG_SWEEP,
                                                     p_idx, pt_idx, s_idx, m_idx)
                        G, _ = _cell_estimates(oracle, x, method, sigma, N, trials,
                                               streams)
                        thetas = _thetas(G, grad_true)
                        cell = (problem.name, n, pt_idx, method, sigma, eps_f, N)
                        for t, theta in enumerate(thetas):
                            log10 = math.log10(theta) if theta > 0 else -math.inf
                            rows.add(*cell, t, spec.seed, theta, log10)
                        summary.add(*cell, trials, spec.seed, *_theta_stats(thetas))
    return rows, summary


def _theta_stats(thetas) -> tuple[float, float, float, float]:
    """(mean, median, variance ddof=1, success rate theta < 1/2) over the
    finite thetas; nan throughout when there are none."""
    ok = thetas[np.isfinite(thetas)]
    if not ok.size:
        return math.nan, math.nan, math.nan, math.nan
    var = float(np.var(ok, ddof=1)) if ok.size > 1 else 0.0
    return (float(np.mean(ok)), float(np.median(ok)), var,
            float(np.mean(ok < 0.5)))


THETA_HEADER = ("n", "N", "trials", "seed", "mean_theta", "median_theta",
                "var_theta", "success_rate")


def run_theta_distribution(spec: ExperimentSpec) -> CsvTable:
    """Distribution of theta for the linear objective phi(x) = e'x at x = e,
    GSG estimator, no noise, as a function of the sample size N.

    sigma is immaterial for a linear objective (the difference quotient is
    exact along every direction); it is fixed to 1.
    """
    n = spec.n
    problem = make_linear(np.ones(n))
    x = np.ones(n)
    grad_true = np.ones(n)
    trials = spec.resolved_trials()
    table = CsvTable(THETA_HEADER)
    for N in spec.N_list:
        streams = _direction_streams(spec.seed, "GSG", n, _TAG_THETA, N)
        G, _ = _cell_estimates(NoisyOracle(problem), x, "GSG", 1.0, N, trials, streams)
        table.add(n, N, trials, spec.seed, *_theta_stats(_thetas(G, grad_true)))
    return table


BOUND_DET_HEADER = ("kind", "problem", "n", "method", "sigma", "eps_f",
                    "trials", "seed", "max_error", "bound", "margin",
                    "round_off", "passed")
BOUND_PROB_HEADER = ("kind", "problem", "n", "method", "sigma", "N", "theta",
                     "delta", "interval", "eps_f", "trials", "seed",
                     "failures", "failure_rate", "passed")


def _bound_problems(spec: ExperimentSpec) -> list:
    return spec.problem_list() if spec.problems else [get_problem("sincos20")[0]]


def _missing_constant(problem, method: str) -> str | None:
    """Why method's bounds cannot be evaluated on problem, or None: CFD,
    cGSG and cBSG need the Hessian's Lipschitz constant M, the condition
    table of cGSG and cBSG needs M > 0, and that of GSG and BSG L > 0."""
    if method in ("GSG", "BSG") and not problem.lipschitz_gradient > 0:
        return ("the condition table needs L > 0, the problem has "
                f"L = {problem.lipschitz_gradient:g}")
    M = problem.lipschitz_hessian
    if M is None and method in ("CFD", "cGSG", "cBSG"):
        return "the problem declares no Hessian Lipschitz constant M"
    if M == 0 and method in ("cGSG", "cBSG"):
        return "the condition table needs M > 0, the problem has M = 0"
    return None


def bound_check_skips(spec: ExperimentSpec) -> list[tuple[str, str, str]]:
    """(problem, method, reason) for each pair of spec that
    run_bound_validation skips and writes no rows for."""
    return [(p.name, m, why) for p in _bound_problems(spec) for m in spec.methods
            if (why := _missing_constant(p, m)) is not None]


def run_bound_validation(spec: ExperimentSpec):
    """Measured estimator errors against the closed-form guarantees.

    Deterministic rows (FFD/CFD/LI): per (method, sigma, eps_f) cell the
    worst measured ||g - grad phi|| over points x noise draws, against the
    worst-case bound (per-draw bounds for LI, whose constant ||Q^-1|| varies
    with the drawn frame). Rows with sigma below ROUND_OFF_SIGMA are flagged
    and excluded from pass/fail.

    Probabilistic rows (GSG/cGSG/BSG/cBSG): sigma and N from condition_table
    at (theta, delta); empirical rate of norm-condition failures over the
    trials at the problem's x0, passing when rate <= delta + 0.05.

    Pairs listed by bound_check_skips get no rows.
    """
    problems = _bound_problems(spec)
    trials = spec.resolved_trials()
    det_methods = [m for m in spec.methods if m in bnd.DETERMINISTIC]
    smooth_methods = [m for m in spec.methods if m in bnd.SMOOTHING]
    det_draws = min(trials, 50)

    det = CsvTable(BOUND_DET_HEADER)
    prob = CsvTable(BOUND_PROB_HEADER)

    for p_idx, problem in enumerate(problems):
        n, L, M = problem.n, problem.lipschitz_gradient, problem.lipschitz_hessian
        points = _problem_points(problem, spec, p_idx)
        for m_idx, method in enumerate(det_methods):
            if _missing_constant(problem, method) is not None:
                continue
            for s_idx, sigma in enumerate(spec.sigmas):
                for e_idx, eps_f in enumerate(spec.eps_fs):
                    key = (p_idx, m_idx, s_idx, e_idx)
                    oracle = _make_oracle(problem, spec, eps_f, *key)
                    streams = _direction_streams(spec.seed, method, n, _TAG_BOUND, *key)
                    errs, bounds = [], []
                    for x in points:
                        G, qinv = _cell_estimates(oracle, x, method, sigma, None,
                                                  det_draws, streams)
                        errs.append(np.linalg.norm(G - problem.gradient_at(x), axis=1))
                        # LI's bound scales with each drawn frame's ||Q^-1||
                        qs = qinv if qinv is not None else [None] * det_draws
                        bounds.append([bnd.deterministic_error_bound(
                            method, n, L, M, sigma, eps_f, cond_qinv=q) for q in qs])
                    errs, bounds = np.concatenate(errs), np.concatenate(bounds)
                    min_margin = float(np.min(bounds - errs))
                    round_off = sigma < ROUND_OFF_SIGMA
                    det.add("deterministic", problem.name, n, method, sigma, eps_f,
                            spec.points_per_problem * det_draws, spec.seed,
                            float(np.max(errs)), float(np.max(bounds)), min_margin,
                            round_off, True if round_off else min_margin >= 0.0)

    for p_idx, problem in enumerate(problems):
        n, L, M = problem.n, problem.lipschitz_gradient, problem.lipschitz_hessian
        x0 = problem.x0 if problem.x0 is not None else np.zeros(n)
        grad_true = problem.gradient_at(x0)
        grad_norm = float(np.linalg.norm(grad_true))
        for m_idx, method in enumerate(smooth_methods):
            if _missing_constant(problem, method) is not None:
                continue
            for e_idx, eps_f in enumerate(spec.eps_fs):
                report = bnd.condition_table(method, n, spec.theta, spec.delta,
                                             L, M, eps_f, grad_norm)
                if report.interval != "nonempty":
                    # no admissible sigma at this (theta, delta, eps_f): nothing
                    # to check, so the row is excluded from pass/fail like
                    # round-off rows
                    prob.add("probabilistic", problem.name, n, method,
                             math.nan, report.n_min, spec.theta, spec.delta,
                             report.interval, eps_f, 0, spec.seed, 0, math.nan, True)
                    continue
                if report.sigma_lo > 0:
                    sigma = math.sqrt(report.sigma_lo * report.sigma_hi)
                else:
                    sigma = report.sigma_hi / 2.0
                key = (p_idx, m_idx, e_idx)
                oracle = _make_oracle(problem, spec, eps_f, *key)
                streams = _direction_streams(spec.seed, method, n, _TAG_BOUND, *key)
                G, _ = _cell_estimates(oracle, x0, method, sigma, report.n_min,
                                       trials, streams)
                failures = int(np.sum(_thetas(G, grad_true) > spec.theta))
                rate = failures / trials
                prob.add("probabilistic", problem.name, n, method, sigma,
                         report.n_min, spec.theta, spec.delta, report.interval, eps_f,
                         trials, spec.seed, failures, rate,
                         rate <= spec.delta + 0.05)
    return det, prob


@dataclass(frozen=True)
class SolverSpec:
    """Parsed solver string "<method>[:<N>][:<sigma>]+<direction>+<step>".

    method: any estimator name, case-insensitive. N: integer or a multiple
    of the dimension like "4n" (smoothing methods only; default 4n).
    sigma: any float token (default 1e-5). direction: "lbfgs" or "sd".
    step: "ls" (Armijo) or "fixed[:alpha]" (default alpha 0.01).
    """

    label: str
    method: str
    n_spec: str | None
    sigma: float
    direction: str
    step: str
    alpha: float

    def resolve_N(self, n: int) -> int | None:
        if self.method in ("FFD", "CFD", "LI"):
            return None
        s = self.n_spec if self.n_spec is not None else "4n"
        if s.endswith("n"):
            mult = s[:-1]
            return max(1, math.ceil(float(mult) * n if mult else n))
        return int(s)


_METHOD_ALIASES = {m.lower(): m for m in SWEEP_METHODS}


def parse_solver(text: str) -> SolverSpec:
    parts = text.strip().split("+")
    if len(parts) != 3:
        raise ValueError(f"solver spec {text!r} must look like method+direction+step")
    est_tokens = parts[0].split(":")
    method_key = est_tokens[0].lower()
    if method_key not in _METHOD_ALIASES:
        raise ValueError(f"unknown estimator {est_tokens[0]!r} in solver spec {text!r}")
    method = _METHOD_ALIASES[method_key]
    n_spec = None
    sigma = 1e-5
    for tok in est_tokens[1:]:
        if not tok:
            continue
        if tok.endswith("n") or tok.isdigit():
            n_spec = tok
        else:
            sigma = float(tok)
    direction = parts[1].lower()
    if direction == "sd":
        direction = "steepest_descent"
    if direction not in ("steepest_descent", "lbfgs"):
        raise ValueError(f"direction must be lbfgs or sd in solver spec {text!r}")
    step_tokens = parts[2].split(":")
    step = step_tokens[0].lower()
    if step not in ("ls", "fixed"):
        raise ValueError(f"step must be ls or fixed[:alpha] in solver spec {text!r}")
    alpha = float(step_tokens[1]) if len(step_tokens) > 1 else 0.01
    return SolverSpec(text.strip(), method, n_spec, sigma, direction, step, alpha)


@dataclass
class ProfileData:
    """Performance and data profile curves per (tau, solver).

    data_profiles[(tau, solver)][k] is the fraction of instances solved
    within k groups of (n+1) evaluations, k = 0..budget_factor.
    perf_profiles[(tau, solver)] is the fraction solved within ratio alpha
    of the best solver, on the fixed PERF_ALPHA_GRID.
    """

    taus: tuple[float, ...]
    solvers: tuple[str, ...]
    budget_factor: int
    data_profiles: dict
    perf_profiles: dict

    def data_profile_table(self) -> CsvTable:
        t = CsvTable(("tau", "solver", "budget_groups", "fraction_solved"))
        for tau in self.taus:
            for s in self.solvers:
                curve = self.data_profiles[(tau, s)]
                for k, v in enumerate(curve):
                    t.add(tau, s, k, float(v))
        return t

    def perf_profile_table(self) -> CsvTable:
        t = CsvTable(("tau", "solver", "alpha", "fraction_solved"))
        for tau in self.taus:
            for s in self.solvers:
                for a, v in zip(PERF_ALPHA_GRID, self.perf_profiles[(tau, s)]):
                    t.add(tau, s, float(a), float(v))
        return t


@dataclass
class BenchmarkResult:
    raw: CsvTable
    profiles: ProfileData


BENCH_HEADER = ("problem", "n", "solver", "tau", "trial", "seed", "budget",
                "evals_to_solve", "f0", "f_ref", "f_best", "termination",
                "iters", "evals_used")


def _run_solver(problem, solver: SolverSpec, spec: ExperimentSpec, budget: int,
                rng_indices) -> tuple[OptimizationTrace, np.ndarray, np.ndarray]:
    """One solver run; returns the trace and (cumulative evals, true phi)
    per iterate."""
    eps_f = spec.eps_fs[0]
    oracle = _make_oracle(problem, spec, eps_f, *rng_indices)
    rng = RngStream(spec.seed).generator(_TAG_BENCH, *rng_indices)
    cfg = EstimatorConfig(method=solver.method, sigma=solver.sigma,
                          N=solver.resolve_N(problem.n))
    x0 = problem.x0 if problem.x0 is not None else np.zeros(problem.n)
    if solver.step == "fixed":
        trace = fixed_step_dfo(oracle, cfg, solver.alpha, x0, budget, rng)
    else:
        ls = LineSearchConfig(direction=solver.direction, eval_budget=budget,
                              max_iters=10_000_000)
        trace = run_dfo(oracle, cfg, ls, x0, rng)
    if not trace.records:
        return trace, np.empty(0, dtype=int), np.empty(0)
    X = np.stack([r.x for r in trace.records])
    phi = problem.batch_value(X)
    evals = np.array([r.evals_cumulative for r in trace.records])
    return trace, evals, phi


def run_optimizer_benchmark(spec: ExperimentSpec) -> BenchmarkResult:
    """Race the configured solvers on the problem list.

    Convergence test at accuracy tau: phi(x0) - phi(x) >= (1 - tau)
    (phi(x0) - f_ref), where f_ref is the best phi value seen by any solver
    on that problem instance, including a high-budget reference run
    (4x the benchmark budget of the first solver). Profiles follow the
    standard performance/data profile construction; the budget axis counts
    groups of (n+1) evaluations.
    """
    if spec.problems:
        problems = [get_problem(name)[0] for name in spec.problems]
    else:
        # the linear objective is unbounded below; racing to its "minimum"
        # is meaningless
        problems = [p for _, p, _ in make_standard_problems() if p.name != "linear"]
    solvers = [parse_solver(s) for s in spec.solvers]
    trials = spec.resolved_trials()

    runs = {}
    refs = {}
    for p_idx, problem in enumerate(problems):
        budget = spec.budget_factor * (problem.n + 1)
        for t in range(trials):
            for s_idx, solver in enumerate(solvers):
                runs[(p_idx, s_idx, t)] = _run_solver(
                    problem, solver, spec, budget, (_TAG_BENCH, p_idx, s_idx, t))
            refs[(p_idx, t)] = _run_solver(
                problem, solvers[0], spec, 4 * budget, (_TAG_REFERENCE, p_idx, 10_000, t))

    raw = CsvTable(BENCH_HEADER)
    n_solvers = len(solvers)
    instances = [(p_idx, t) for p_idx in range(len(problems)) for t in range(trials)]
    # evals-to-solve per (tau, instance, solver); inf when not solved in budget
    t_solve = {}
    for tau in spec.taus:
        for p_idx, problem in enumerate(problems):
            budget = spec.budget_factor * (problem.n + 1)
            x0 = problem.x0 if problem.x0 is not None else np.zeros(problem.n)
            f0 = float(problem.value_at(x0))
            for t in range(trials):
                best = math.inf
                for s_idx in range(n_solvers):
                    _, _, phi = runs[(p_idx, s_idx, t)]
                    if phi.size:
                        best = min(best, float(np.min(phi)))
                _, _, ref_phi = refs[(p_idx, t)]
                if ref_phi.size:
                    best = min(best, float(np.min(ref_phi)))
                target = f0 - (1.0 - tau) * (f0 - best)
                for s_idx, solver in enumerate(solvers):
                    trace, evals, phi = runs[(p_idx, s_idx, t)]
                    hit = np.nonzero(phi <= target)[0] if phi.size else []
                    solved_at = float(evals[hit[0]]) if len(hit) else math.inf
                    t_solve[(tau, p_idx, t, s_idx)] = solved_at
                    raw.add(problem.name, problem.n, solver.label, tau, t,
                            spec.seed, budget, solved_at, f0, best,
                            float(np.min(phi)) if phi.size else math.nan,
                            trace.termination, len(trace.records), trace.evals_used)

    data_profiles = {}
    perf_profiles = {}
    denom = len(instances)
    for tau in spec.taus:
        for s_idx, solver in enumerate(solvers):
            curve = np.zeros(spec.budget_factor + 1)
            for p_idx, t in instances:
                ts = t_solve[(tau, p_idx, t, s_idx)]
                if math.isinf(ts):
                    continue
                k = math.ceil(ts / (problems[p_idx].n + 1))
                if k <= spec.budget_factor:
                    curve[k:] += 1.0
            data_profiles[(tau, solver.label)] = curve / denom
        for s_idx, solver in enumerate(solvers):
            frac = np.zeros(len(PERF_ALPHA_GRID))
            for p_idx, t in instances:
                ts = t_solve[(tau, p_idx, t, s_idx)]
                best = min(t_solve[(tau, p_idx, t, j)] for j in range(n_solvers))
                if math.isinf(ts) or math.isinf(best):
                    continue
                ratio = ts / best
                frac += (ratio <= np.asarray(PERF_ALPHA_GRID))
            perf_profiles[(tau, solver.label)] = frac / denom

    profiles = ProfileData(tuple(spec.taus), tuple(s.label for s in solvers),
                           spec.budget_factor, data_profiles, perf_profiles)
    return BenchmarkResult(raw, profiles)
