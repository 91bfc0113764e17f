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
sigma, noise level and method) estimates all of its trials in one
estimators.estimate_trials call with one EstimatorConfig: its directions
come from one Generator and its noise from another, both read in trial
order, and singular LI frames are redrawn from a third, so the output does
not depend on how the trials are chunked. A cell builds only the
Generators it reads: FFD and CFD cells no direction stream, and only LI
cells a redraw stream. In the sweep, the cells of one (problem, point,
sigma, method) group differ only in eps_f and make that call together:
they share one direction stream, one draw, one probe build and one phi
batch per chunk, while each cell keeps its own noise stream.

Every table's header declares each column's kind (Columns), and the table
renders through one %-template built from the kinds: strings as %s,
integers as %d, floats as repr-faithful %.17g, bools as true/false. A value
that does not fit its column (a float in an int column, a bool in a float
column, a non-string in a string column) or a row of the wrong length
raises rather than render another way.
"""
from __future__ import annotations

import contextvars
import json
import math
import os
import threading
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import chain
from operator import itemgetter

import numpy as np

from . import bounds as bnd
from .core import NoiseModel, NoisyOracle, get_problem, make_linear, make_standard_problems
from .estimators import (METHODS, EstimatorConfig, estimate_trials, method_name,
                         relative_error)
from .optimizer import LineSearchConfig, OptimizationTrace, run_dfo
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

EXPERIMENTS = ("relative_error_sweep", "theta_distribution",
               "bound_validation", "optimizer_benchmark")

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
    "make_oracle",
    "bound_check_skips",
    "run_relative_error_sweep",
    "run_theta_distribution",
    "run_bound_validation",
    "run_optimizer_benchmark",
]


# column kind -> (%-conversion, accepted value types). A value that does not
# fit its column raises rather than render another way: %d would truncate a
# float, %s would write a float as its repr, %.17g would write True as 1.
_KINDS = {
    str: ("%s", str),
    int: ("%d", (int, np.integer)),        # bool excluded by name below
    float: ("%.17g", (float, np.floating)),
    bool: ("%s", (bool, np.bool_)),        # written true / false
}


class Columns(tuple):
    """A CSV header: the column names, each declared with its kind, one of
    str, int, float or bool, as Columns(problem=str, n=int, sigma=float).
    Compares and indexes as the tuple of names; the kinds compile to one
    %-template per table."""

    def __new__(cls, **kinds):
        self = super().__new__(cls, kinds)
        self.kinds = tuple(kinds.values())
        self.template = ",".join(_KINDS[k][0] for k in self.kinds) + "\n"
        return self


@dataclass
class CsvTable:
    """In-memory CSV with deterministic text rendering: strings as they
    are, integers in decimal, floats as repr-faithful %.17g (inf, -inf and
    nan included), bools as true/false, each by its column's kind."""

    header: Columns
    rows: list[tuple] = field(default_factory=list)

    def add(self, *row) -> None:
        if len(row) != len(self.header):
            raise ValueError(f"row has {len(row)} fields, header has {len(self.header)}")
        self.rows.append(row)

    def _lines(self):
        """An iterator over the CSV lines, the header's first. Every row is
        checked before this returns: ValueError on a row of the wrong length,
        TypeError on a value that does not fit its column's kind."""
        header, rows = self.header, self.rows
        if set(map(len, rows)) - {len(header)}:
            raise ValueError(f"every row must have {len(header)} fields")
        for i, (name, kind) in enumerate(zip(header, header.kinds)):
            accepts = _KINDS[kind][1]
            for t in set(map(type, map(itemgetter(i), rows))):
                if not issubclass(t, accepts) or (t is bool and kind is int):
                    raise TypeError(f"column {name!r} holds {kind.__name__}, "
                                    f"got a {t.__name__}")
        if bool in header.kinds:   # the bound-check tables: a few rows each
            words = [k is bool for k in header.kinds]
            rows = (tuple(("true" if v else "false") if w else v
                          for v, w in zip(row, words)) for row in rows)
        return chain([",".join(header) + "\n"], map(header.template.__mod__, rows))

    def text(self) -> str:
        """The CSV text; raises as _lines does."""
        return "".join(self._lines())

    def write(self, path) -> None:
        """Writes the CSV text to path line by line, without holding all of
        it; raises as _lines does, before the file is opened."""
        lines = self._lines()
        with open(path, "w", newline="") as fh:
            fh.writelines(lines)

    def column(self, name: str) -> list:
        i = self.header.index(name)
        return [row[i] for row in self.rows]


# JSON type of each field annotation's scalar part: (name, check)
_JSON_TYPES = {
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "float": ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
}


@dataclass(frozen=True)
class ExperimentSpec:
    """Grid and budget description for one experiment run.

    Unused fields are ignored by experiments that do not consume them, but
    every field is range-checked, so a bad value fails before any work
    starts. The JSON loader rejects unknown keys and wrongly typed values so
    config typos fail loudly. Method names are matched ignoring case and
    stored in their METHODS spelling.
    """

    experiment: str
    seed: int = 0
    trials: int | None = None
    # shared grids
    problems: tuple[str, ...] | None = None   # None: the experiment's default set
    methods: tuple[str, ...] = METHODS
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
        for name in ("n", "points_per_problem", "budget_factor"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("problems", "methods", "sigmas", "eps_fs", "N_list", "solvers", "taus"):
            if getattr(self, name) is not None and len(getattr(self, name)) == 0:
                raise ValueError(f"{name} must be nonempty")
        object.__setattr__(self, "methods", tuple(method_name(m) for m in self.methods))
        # float columns take floats only: a JSON 1 or 0 becomes 1.0 or 0.0
        for name in ("sigmas", "eps_fs", "taus"):
            object.__setattr__(self, name, tuple(map(float, getattr(self, name))))
        if not all(0 < s < math.inf for s in self.sigmas):
            raise ValueError(f"sigmas must be positive and finite, got {self.sigmas}")
        if not all(0 <= e < math.inf for e in self.eps_fs):
            raise ValueError(f"eps_fs must be finite and nonnegative, got {self.eps_fs}")
        for level in self.eps_fs:   # the noise kind, by the noise model's own rule
            NoiseModel(self.noise_kind, level)
        if self.experiment == "optimizer_benchmark" and len(self.eps_fs) != 1:
            raise ValueError(f"optimizer_benchmark takes exactly one eps_fs level, "
                             f"got {self.eps_fs}")
        if not 0 < self.sample_factor < math.inf:
            raise ValueError(f"sample_factor must be positive and finite, "
                             f"got {self.sample_factor}")
        if min(self.N_list) < 1:
            raise ValueError(f"N_list entries must be >= 1, got {self.N_list}")
        if not all(0 < t < 1 for t in self.taus):
            raise ValueError(f"taus must lie in (0, 1), got {self.taus}")
        # a repeat would write rows that no column tells apart, or merge two
        # profile curves, which are keyed by (tau, solver label stripped)
        for name, keys in (("problems", self.problems or ()), ("methods", self.methods),
                           ("sigmas", self.sigmas), ("eps_fs", self.eps_fs),
                           ("solvers", [s.strip() for s in self.solvers]), ("taus", self.taus)):
            if len(set(keys)) < len(keys):
                raise ValueError(f"{name} must not repeat an entry, got {getattr(self, name)}")
        for name in ("theta", "delta"):
            if not 0 < getattr(self, name) < 1:
                raise ValueError(f"{name} must lie in (0, 1), got {getattr(self, name)}")

    @classmethod
    def from_dict(cls, data: dict, **overrides) -> "ExperimentSpec":
        """The spec that the JSON object data describes, with the keys of
        overrides replacing its own."""
        if not isinstance(data, dict):
            raise ValueError(f"a spec must be a JSON object, got {type(data).__name__}")
        data = {**data, **overrides}
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown spec keys: {sorted(unknown)}")
        # the annotations are the schema: "int | None", "float",
        # "tuple[str, ...]"; null only where the default is None
        for f in fields(cls):
            if f.name not in data:
                continue
            v, scalar = data[f.name], f.type.removesuffix(" | None")
            if v is None and f.default is None:
                continue
            if scalar.startswith("tuple["):
                kind, ok = _JSON_TYPES[scalar[len("tuple["):-len(", ...]")]]
                if not isinstance(v, (list, tuple)) or not all(map(ok, v)):
                    raise ValueError(f"spec key {f.name!r} must be a list with "
                                     f"{kind} in each entry, got {v!r}")
                data[f.name] = tuple(v)
            elif not _JSON_TYPES[scalar][1](v):
                raise ValueError(f"spec key {f.name!r} must be "
                                 f"{_JSON_TYPES[scalar][0]}, got {v!r}")
        return cls(**data)

    @classmethod
    def from_json(cls, path, **overrides) -> "ExperimentSpec":
        """The spec in the JSON file at path, updated as from_dict does."""
        with open(path) as fh:
            return cls.from_dict(json.load(fh), **overrides)

    def resolved_trials(self) -> int:
        if self.trials is not None:
            return self.trials
        defaults = {"relative_error_sweep": 100, "theta_distribution": 10_000,
                    "bound_validation": 1000, "optimizer_benchmark": 1}
        return defaults[self.experiment]

    def problem_list(self) -> list:
        """The named problems, else (problems None) the experiment's default
        set: sincos20 for bound validation, every standard problem but linear
        (unbounded below, so there is no minimum to race to) for the
        benchmark, and every standard problem otherwise."""
        if self.problems is not None:
            return [get_problem(name)[0] for name in self.problems]
        if self.experiment == "bound_validation":
            return [get_problem("sincos20")[0]]
        skip = "linear" if self.experiment == "optimizer_benchmark" else None
        return [p for _, p, _ in make_standard_problems() if p.name != skip]


def make_oracle(objective, kind: str, eps_f: float, seed: int, *key) -> NoisyOracle:
    """Oracle on objective: noise-free at eps_f == 0, else noise of the given
    kind and level, uniform_iid noise being drawn from
    RngStream(seed).generator(*key). The experiments key it by _TAG_NOISE
    and the cell's indices, the single-run commands by (1,)."""
    if eps_f == 0.0:
        return NoisyOracle(objective)
    noise = NoiseModel(kind=kind, level=eps_f, seed=seed)
    rng = RngStream(seed).generator(*key) if kind == "uniform_iid" else None
    return NoisyOracle(objective, noise, rng=rng)


def _cell_streams(seed: int, config: EstimatorConfig, *key):
    """One cell's direction Generator, keyed key, and the Generator its
    singular LI frames are redrawn from, keyed (_TAG_REDRAW, *key), as
    estimate_trials takes them: None for a stream the cell does not read,
    so FFD/CFD cells build neither and only LI cells build the second. A
    sweep group of cells that differ only in eps_f builds them once, since
    its key leaves eps_f out, and shares their draws."""
    gen = RngStream(seed).generator
    return (None if config.deterministic else gen(*key),
            gen(_TAG_REDRAW, *key) if config.method == "LI" else None)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_cells(fn, cells) -> list:
    """[fn(cell) for cell in cells], computed on the calling thread and one
    helper thread per further usable CPU (none for one CPU or one cell).
    numpy releases the GIL in its draws, ufuncs and BLAS calls, so cells that
    read only their own streams overlap and give the bytes of the serial loop.

    Each thread takes the next unstarted cell, in the given order; once a
    cell has raised, no thread starts another. The helpers are joined before
    this returns or raises, also when the calling thread is interrupted, and
    the first failing cell's exception, in the given order, is raised as the
    serial loop would raise it. Helpers run in a copy of the caller's context,
    so its np.errstate holds there too. The calling thread works instead of
    waiting on a pool: each pool thread would get a malloc arena of its own,
    which keeps the memory freed in it.
    """
    cells = list(cells)
    results, errors = [None] * len(cells), {}
    todo = list(range(len(cells)))[::-1]   # popped from the end: in cell order
    lock = threading.Lock()

    def take():
        with lock:
            return todo.pop() if todo else None

    def work():
        while (i := take()) is not None:
            try:
                results[i] = fn(cells[i])
            except BaseException as exc:   # re-raised below, after the join
                with lock:
                    errors[i] = exc
                    todo.clear()

    helpers = []
    try:
        for _ in range(min(_usable_cpus(), len(cells)) - 1):
            helper = threading.Thread(target=contextvars.copy_context().run, args=(work,))
            helper.start()
            helpers.append(helper)
        work()
    finally:
        with lock:
            todo.clear()   # an interrupted calling thread stops the helpers
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[min(errors)]
    return results


def _problem_points(problem, spec: ExperimentSpec, problem_idx: int) -> np.ndarray:
    """points_per_problem draws, uniform on the problem's box."""
    pts = np.empty((spec.points_per_problem, problem.n))
    for j in range(spec.points_per_problem):
        rng = RngStream(spec.seed).generator(_TAG_POINTS, problem_idx, j)
        pts[j] = rng.uniform(problem.box_lo, problem.box_hi)
    return pts


SWEEP_HEADER = Columns(problem=str, n=int, point=int, method=str, sigma=float,
                       eps_f=float, N=int, trial=int, seed=int, theta=float,
                       log10_theta=float)
SWEEP_SUMMARY_HEADER = Columns(problem=str, n=int, point=int, method=str,
                               sigma=float, eps_f=float, N=int, trials=int,
                               seed=int, mean_theta=float, median_theta=float,
                               var_theta=float, success_rate=float)


def run_relative_error_sweep(spec: ExperimentSpec):
    """theta for each (problem, point, sigma, eps_f, method, trial) cell.

    Returns (rows, summary) CsvTables. Per-cell statistics are sample
    mean/median/variance (ddof=1) of theta plus the success rate theta < 1/2.
    Cells whose true gradient vanishes record theta = nan and log10_theta =
    nan, as does any trial whose estimate is not finite; non-finite thetas
    are excluded from the summary statistics. The N column holds the number
    of directions probed: ceil(sample_factor n) for the smoothing methods,
    n for FFD, CFD and LI. Direction streams are keyed without eps_f, so
    cells that differ only in noise level see the same directions (common
    random numbers): their difference in theta is the noise's doing. Such a
    group of cells makes one estimate_trials call, which draws, probes and
    evaluates phi once for all its noise levels; each cell's oracle keeps
    its own noise stream, keyed (_TAG_NOISE, problem, point, sigma, eps_f,
    method). Rows are written in (problem, point, sigma, eps_f, method)
    order.
    """
    trials = spec.resolved_trials()
    rows = CsvTable(SWEEP_HEADER)
    cells, thetas = [], []   # per cell: its leading columns, its trials' theta
    for p_idx, problem in enumerate(spec.problem_list()):
        n = problem.n
        N = _ceil_multiple(spec.sample_factor, n)
        for pt_idx, x in enumerate(_problem_points(problem, spec, p_idx)):
            grad_true = problem.gradient_at(x)
            for s_idx, sigma in enumerate(spec.sigmas):
                groups = []   # per method: its N column, then each level's thetas
                for m_idx, method in enumerate(spec.methods):
                    oracles = [make_oracle(problem, spec.noise_kind, eps_f, spec.seed,
                                           _TAG_NOISE, p_idx, pt_idx, s_idx, e_idx, m_idx)
                               for e_idx, eps_f in enumerate(spec.eps_fs)]
                    config = EstimatorConfig(method, sigma,
                                             N if method in bnd.SMOOTHING else None)
                    streams = _cell_streams(spec.seed, config, _TAG_SWEEP, p_idx,
                                            pt_idx, s_idx, m_idx)
                    G = estimate_trials(oracles, x, config, trials, *streams)[0]
                    groups.append((method, config.N or n,
                                   [relative_error(g, grad_true) for g in G]))
                for e_idx, eps_f in enumerate(spec.eps_fs):
                    for method, N_col, levels in groups:
                        cell = (problem.name, n, pt_idx, method, sigma, eps_f, N_col)
                        cells.append(cell)
                        thetas.append(levels[e_idx])
                        # log10 0 is -inf, and a nan theta stays nan
                        rows.rows.extend([
                            (*cell, t, spec.seed, theta, math.log10(theta) if theta > 0
                             else -math.inf if theta == 0 else math.nan)
                            for t, theta in enumerate(thetas[-1].tolist())])
    summary = CsvTable(SWEEP_SUMMARY_HEADER)
    summary.rows.extend([(*cell, trials, spec.seed, *stats)
                         for cell, stats in zip(cells, _theta_stats(np.array(thetas)))])
    return rows, summary


def _theta_stats(thetas: np.ndarray) -> list[tuple[float, float, float, float]]:
    """(mean, median, variance ddof=1, success rate theta < 1/2) of each row
    of thetas, a (cells, trials) array, over the row's finite entries; nan
    throughout for a row with none, variance 0 for a row with one.

    Rows whose entries are all finite are reduced together along axis 1,
    which gives the same bits as reducing each row on its own; any other
    row is reduced on its own, over its finite entries.
    """
    finite = np.isfinite(thetas).all(axis=1)
    ok = thetas[finite]
    var = np.var(ok, axis=1, ddof=1) if thetas.shape[1] > 1 else np.zeros(len(ok))
    whole = zip(np.mean(ok, axis=1).tolist(), np.median(ok, axis=1).tolist(),
                var.tolist(), np.mean(ok < 0.5, axis=1).tolist())
    return [next(whole) if f else _finite_stats(row[np.isfinite(row)])
            for row, f in zip(thetas, finite.tolist())]


def _finite_stats(ok: np.ndarray) -> tuple[float, float, float, float]:
    """_theta_stats of the one row ok, whose entries are finite."""
    return _theta_stats(ok[None])[0] if ok.size else (math.nan,) * 4


THETA_HEADER = Columns(n=int, N=int, trials=int, seed=int, mean_theta=float,
                       median_theta=float, var_theta=float, success_rate=float)


def run_theta_distribution(spec: ExperimentSpec) -> CsvTable:
    """Distribution of theta for the linear objective phi(x) = e'x at x = e,
    GSG estimator, no noise, as a function of the sample size N.

    sigma is immaterial for a linear objective (the difference quotient is
    exact along every direction); it is fixed to 1. The cells, one per
    distinct N, run through _map_cells, the largest N first; each reads only
    its own direction stream, so the rows, written in N_list order, do not
    depend on the number of CPUs.
    """
    n = spec.n
    problem = make_linear(np.ones(n))
    x = np.ones(n)
    grad_true = np.ones(n)
    trials = spec.resolved_trials()

    def stats(N):
        config = EstimatorConfig("GSG", 1.0, N)
        G = estimate_trials((NoisyOracle(problem),), x, config, trials,
                            *_cell_streams(spec.seed, config, _TAG_THETA, N))[0][0]
        return _theta_stats(relative_error(G, grad_true)[None])[0]

    # a cell costs (N + 1) probe rows per trial: the longest start first
    order = sorted(set(spec.N_list), reverse=True)
    by_N = dict(zip(order, _map_cells(stats, order)))
    table = CsvTable(THETA_HEADER)
    for N in spec.N_list:
        table.add(n, N, trials, spec.seed, *by_N[N])
    return table


BOUND_DET_HEADER = Columns(kind=str, problem=str, n=int, method=str, sigma=float,
                           eps_f=float, trials=int, seed=int, max_error=float,
                           bound=float, margin=float, round_off=bool, passed=bool)
BOUND_PROB_HEADER = Columns(kind=str, problem=str, n=int, method=str, sigma=float,
                            N=int, theta=float, delta=float, interval=str,
                            eps_f=float, trials=int, seed=int, failures=int,
                            failure_rate=float, passed=bool)


def _missing_constant(problem, method: str) -> str | None:
    """Why method's bounds cannot be evaluated on problem, or None: each
    bound needs its constant K (L or M, from the bounds table), and the
    condition table of a smoothing method needs K > 0."""
    K = bnd._BOUNDS[method].K
    value = problem.lipschitz_gradient if K == "L" else problem.lipschitz_hessian
    if value is None:
        kind = "gradient" if K == "L" else "Hessian"
        return f"the problem declares no {kind} Lipschitz constant {K}"
    if method in bnd.SMOOTHING and not value > 0:
        return f"the condition table needs {K} > 0, the problem has {K} = {value:g}"
    return None


def bound_check_skips(spec: ExperimentSpec) -> list[tuple[str, str, str]]:
    """(problem, method, reason) for each pair of spec that
    run_bound_validation skips and writes no rows for."""
    return [(p.name, m, why) for p in spec.problem_list() for m in spec.methods
            if (why := _missing_constant(p, m)) is not None]


def run_bound_validation(spec: ExperimentSpec):
    """Measured estimator errors against the closed-form guarantees.

    Deterministic rows (FFD/CFD/LI): per (method, sigma, eps_f) cell the
    worst measured ||g - grad phi|| over points x noise draws, against the
    worst-case bound (per-draw bounds for LI, whose constant ||Q^-1|| varies
    with the drawn frame). The bound counts the rounding of each function
    value as noise: it is taken at eps_f + eps_mach max|phi|, the max over
    the row's points. Rows with sigma below ROUND_OFF_SIGMA are flagged and
    excluded from pass/fail.

    Probabilistic rows (GSG/cGSG/BSG/cBSG): sigma and N from condition_table
    at (theta, delta); empirical rate of norm-condition failures over the
    trials at the problem's x0, passing when rate <= delta + 0.05. A row
    whose interval is empty checks nothing and is excluded from pass/fail.

    Every row is one cell, laid out in row order (deterministic rows first)
    and run through one _map_cells call on as many threads as there are
    usable CPUs. Each cell reads only its own streams, so the tables do not
    depend on the CPU count, and the first raising cell in row order
    surfaces. All the layout work (points, rounding, skips, gradients at x0,
    condition_table) runs before any cell, so its errors surface first.

    Pairs listed by bound_check_skips get no rows.
    """
    trials = spec.resolved_trials()
    det_draws = min(trials, 50)

    def det_row(problem, points, rounding, method, sigma, eps_f, key):
        oracle = make_oracle(problem, spec.noise_kind, eps_f, spec.seed, _TAG_NOISE, *key)
        config = EstimatorConfig(method, sigma)
        streams = _cell_streams(spec.seed, config, _TAG_BOUND, *key)
        # one bound per cell: LI's is taken at ||Q^-1|| = 1 and scaled below
        # by each drawn frame's ||Q^-1||
        bound = bnd.deterministic_error_bound(
            method, problem.n, problem.lipschitz_gradient, problem.lipschitz_hessian,
            sigma, eps_f + rounding, cond_qinv=1.0 if method == "LI" else None)
        errs, qinvs = [], []
        for x in points:
            G, _, qinv = estimate_trials((oracle,), x, config, det_draws, *streams)
            errs.append(np.linalg.norm(G[0] - problem.gradient_at(x), axis=1))
            qinvs.append(qinv)
        errs = np.concatenate(errs)
        bounds = np.concatenate(qinvs) * bound if method == "LI" else bound
        min_margin = float(np.min(bounds - errs))
        round_off = sigma < ROUND_OFF_SIGMA
        return ("deterministic", problem.name, problem.n, method, sigma, eps_f,
                spec.points_per_problem * det_draws, spec.seed, float(np.max(errs)),
                float(np.max(bounds)), min_margin, round_off,
                True if round_off else min_margin >= 0.0)

    def prob_row(problem, grad_true, method, eps_f, report, key):
        lead = ("probabilistic", problem.name, problem.n, method)
        tail = (report.n_min, spec.theta, spec.delta, report.interval, eps_f)
        if report.interval != "nonempty":
            # no admissible sigma at this (theta, delta, eps_f): nothing to check
            return (*lead, math.nan, *tail, 0, spec.seed, 0, math.nan, True)
        sigma = (math.sqrt(report.sigma_lo * report.sigma_hi) if report.sigma_lo > 0
                 else report.sigma_hi / 2.0)
        config = EstimatorConfig(method, sigma, report.n_min)
        oracle = make_oracle(problem, spec.noise_kind, eps_f, spec.seed, _TAG_NOISE, *key)
        G = estimate_trials((oracle,), problem.x0, config, trials,
                            *_cell_streams(spec.seed, config, _TAG_BOUND, *key))[0][0]
        count = int(np.sum(relative_error(G, grad_true) > spec.theta))
        rate = count / trials
        return (*lead, sigma, *tail, trials, spec.seed, count, rate,
                rate <= spec.delta + 0.05)

    det_methods = [m for m in spec.methods if m in bnd.DETERMINISTIC]
    smooth_methods = [m for m in spec.methods if m in bnd.SMOOTHING]
    det_cells, prob_cells = [], []   # each row's function with its arguments
    for p_idx, problem in enumerate(spec.problem_list()):
        points = _problem_points(problem, spec, p_idx)
        rounding = np.finfo(float).eps * float(np.max(np.abs(problem.batch_value(points))))
        det_cells += [
            partial(det_row, problem, points, rounding, method, sigma, eps_f,
                    (p_idx, m_idx, s_idx, e_idx))
            for m_idx, method in enumerate(det_methods)
            if _missing_constant(problem, method) is None
            for s_idx, sigma in enumerate(spec.sigmas)
            for e_idx, eps_f in enumerate(spec.eps_fs)]
        grad_true = problem.gradient_at(problem.x0)
        grad_norm = float(np.linalg.norm(grad_true))
        prob_cells += [
            partial(prob_row, problem, grad_true, method, eps_f,
                    bnd.condition_table(method, problem.n, spec.theta, spec.delta,
                                        problem.lipschitz_gradient,
                                        problem.lipschitz_hessian, eps_f, grad_norm),
                    (p_idx, m_idx, e_idx))
            for m_idx, method in enumerate(smooth_methods)
            if _missing_constant(problem, method) is None
            for e_idx, eps_f in enumerate(spec.eps_fs)]
    rows = _map_cells(lambda row: row(), det_cells + prob_cells)
    return (CsvTable(BOUND_DET_HEADER, rows[:len(det_cells)]),
            CsvTable(BOUND_PROB_HEADER, rows[len(det_cells):]))


def _ceil_multiple(factor: float, n: int) -> int:
    """ceil(factor * n) directions; ValueError unless factor * n is positive and finite."""
    if not 0 < factor * n < math.inf:
        raise ValueError(f"N must be positive and finite, got {factor!r} * n")
    return math.ceil(factor * n)


@dataclass(frozen=True)
class SolverSpec:
    """Parsed solver string "<method>[:<N>][:<sigma>]+<direction>+<step>".

    method: any estimator name, case-insensitive. N: positive integer or
    multiple of the dimension like "4n" (smoothing methods only; default 4n).
    sigma: positive finite float (default 1e-5). direction: as
    LineSearchConfig reads it, "lbfgs" or "sd", stored by its full name.
    step: as LineSearchConfig stores it, None for "ls" (Armijo) or the alpha
    of "fixed[:alpha]" (default 0.01); the fixed step is steepest descent, so
    it rejects lbfgs. EstimatorConfig and LineSearchConfig check the fields.
    """

    label: str
    method: str
    n_spec: str | None
    sigma: float
    direction: str
    step: float | None

    def __post_init__(self) -> None:
        try:
            EstimatorConfig(self.method, self.sigma, self.resolve_N(1))
            direction = self.line_search().direction
        except ValueError as err:
            hint = ("; write sigma with a decimal point, as in ffd:1.0"
                    if self.n_spec is not None and self.method in bnd.DETERMINISTIC else "")
            raise ValueError(f"{err}{hint} in solver spec {self.label!r}") from None
        object.__setattr__(self, "direction", direction)

    def resolve_N(self, n: int) -> int | None:
        """N at dimension n: None for FFD, CFD and LI unless an N was given."""
        if self.n_spec is None:
            return None if self.method in bnd.DETERMINISTIC else _ceil_multiple(4, n)
        if self.n_spec.endswith("n"):
            return _ceil_multiple(float(self.n_spec[:-1] or 1), n)
        return int(self.n_spec)

    def run(self, oracle: NoisyOracle, x0: np.ndarray, budget: int, rng, *,
            max_iters: int, grad_norm_stop: float | None) -> OptimizationTrace:
        """One run of this solver from x0 within budget evaluations, rng
        feeding its direction draws."""
        try:
            cfg = EstimatorConfig(self.method, self.sigma, self.resolve_N(np.size(x0)))
        except ValueError as err:
            raise ValueError(f"{err} in solver spec {self.label!r}") from None
        ls = self.line_search(eval_budget=budget, max_iters=max_iters,
                              grad_norm_stop=grad_norm_stop)
        return run_dfo(oracle, cfg, ls, x0, rng)

    def line_search(self, **limits) -> LineSearchConfig:
        """This solver's step rule and direction, with the given loop limits."""
        return LineSearchConfig(direction=self.direction, step=self.step, **limits)


def parse_solver(text: str) -> SolverSpec:
    """The SolverSpec that text spells; ValueError naming text when it is malformed."""
    label = text.strip()
    try:
        parts = label.split("+")
        if len(parts) != 3:
            raise ValueError("must look like method+direction+step")
        name, *est_tokens = parts[0].split(":")
        method = method_name(name)
        given = {}
        for tok in filter(None, est_tokens):
            # "12", "n" and "4n" are N; any other token ("1e-4", "nan") is sigma
            is_N = tok.isdigit() or tok.endswith("n") and tok.lower().lstrip("+-") != "nan"
            key = "N" if is_N else "sigma"
            if key in given:
                raise ValueError(f"{key} is given twice, as {given[key]!r} and {tok!r}")
            given[key] = tok
        sigma = float(given.get("sigma", 1e-5))
        step, *alpha = parts[2].lower().split(":")
        if step not in ("ls", "fixed") or len(alpha) > (step == "fixed"):
            raise ValueError("step must be ls or fixed[:alpha]")
        step = None if step == "ls" else float(alpha[0]) if alpha else 0.01
    except ValueError as err:
        raise ValueError(f"{err} in solver spec {label!r}") from None
    return SolverSpec(label, method, given.get("N"), sigma, parts[1], step)


DATA_PROFILE_HEADER = Columns(tau=float, solver=str, budget_groups=int,
                              fraction_solved=float)
PERF_PROFILE_HEADER = Columns(tau=float, solver=str, alpha=float, fraction_solved=float)


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
    data_profiles: dict
    perf_profiles: dict

    def data_profile_table(self) -> CsvTable:
        t = CsvTable(DATA_PROFILE_HEADER)
        for tau in self.taus:
            for s in self.solvers:
                curve = self.data_profiles[(tau, s)]
                for k, v in enumerate(curve):
                    t.add(tau, s, k, float(v))
        return t

    def perf_profile_table(self) -> CsvTable:
        t = CsvTable(PERF_PROFILE_HEADER)
        for tau in self.taus:
            for s in self.solvers:
                for a, v in zip(PERF_ALPHA_GRID, self.perf_profiles[(tau, s)]):
                    t.add(tau, s, float(a), float(v))
        return t


@dataclass
class BenchmarkResult:
    raw: CsvTable
    profiles: ProfileData


BENCH_HEADER = Columns(problem=str, n=int, solver=str, tau=float, trial=int,
                       seed=int, budget=int, evals_to_solve=float, f0=float,
                       f_ref=float, f_best=float, termination=str, iters=int,
                       evals_used=int)


def _run_solver(problem, solver: SolverSpec, spec: ExperimentSpec, budget: int,
                rng_indices) -> tuple[OptimizationTrace, np.ndarray, np.ndarray]:
    """One solver run; returns the trace and (cumulative evals, true phi)
    per iterate."""
    oracle = make_oracle(problem, spec.noise_kind, spec.eps_fs[0], spec.seed,
                         _TAG_NOISE, *rng_indices)
    rng = RngStream(spec.seed).generator(_TAG_BENCH, *rng_indices)
    trace = solver.run(oracle, problem.x0, budget, rng, max_iters=10_000_000,
                       grad_norm_stop=None)
    X = np.stack([r.x for r in trace.records])
    phi = problem.batch_value(X)
    evals = np.array([r.evals_cumulative for r in trace.records])
    return trace, evals, phi


def run_optimizer_benchmark(spec: ExperimentSpec) -> BenchmarkResult:
    """Race the configured solvers on the problem list.

    Convergence test at accuracy tau: phi(x0) - phi(x) >= (1 - tau)
    (phi(x0) - f_ref), where f_ref is the best phi value seen by any solver
    on that problem instance, including a high-budget reference run
    (4x the benchmark budget of the first solver). A run solves the
    instance at its first iterate that passes the test within the budget
    (evals <= budget); a hit found later, by an iteration that started under
    the budget and ended past it, does not count. Profiles follow the
    standard performance/data profile construction; the budget axis counts
    groups of (n+1) evaluations.
    """
    problems = spec.problem_list()
    solvers = [parse_solver(s) for s in spec.solvers]
    trials = spec.resolved_trials()

    instances = []  # (problem, trial, budget, f0, f_ref, solver runs)
    for p_idx, problem in enumerate(problems):
        budget = spec.budget_factor * (problem.n + 1)
        f0 = float(problem.value_at(problem.x0))
        for t in range(trials):
            runs = [_run_solver(problem, solver, spec, budget, (_TAG_BENCH, p_idx, s_idx, t))
                    for s_idx, solver in enumerate(solvers)]
            ref = _run_solver(problem, solvers[0], spec, 4 * budget,
                              (_TAG_REFERENCE, p_idx, 10_000, t))
            # inf leads, so a NaN minimum (a diverged run) is never the best
            best = min(math.inf, *(float(np.min(phi)) for _, _, phi in runs + [ref]))
            instances.append((problem, t, budget, f0, best, runs))

    raw = CsvTable(BENCH_HEADER)
    # evals-to-solve per (tau, instance, solver); inf when not solved in budget
    t_solve = np.full((len(spec.taus), len(instances), len(solvers)), math.inf)
    for tau_idx, tau in enumerate(spec.taus):
        for i, (problem, t, budget, f0, best, runs) in enumerate(instances):
            target = f0 - (1.0 - tau) * (f0 - best)
            for s_idx, (solver, (trace, evals, phi)) in enumerate(zip(solvers, runs)):
                hit = np.nonzero((phi <= target) & (evals <= budget))[0]
                if len(hit):
                    t_solve[tau_idx, i, s_idx] = evals[hit[0]]
                raw.add(problem.name, problem.n, solver.label, tau, t, spec.seed, budget,
                        float(t_solve[tau_idx, i, s_idx]), f0, best, float(np.min(phi)),
                        trace.termination, len(trace.records), trace.evals_used)

    # exact counts over the instances, per (tau, solver): solved within k
    # groups of n+1 evaluations, and within ratio alpha of the best solver
    group = np.array([problem.n + 1 for problem, *_ in instances])
    solved_by = np.ceil(t_solve / group[:, None])[..., None] <= np.arange(spec.budget_factor + 1)
    ratio = np.divide(t_solve, t_solve.min(axis=2, keepdims=True),
                      out=np.full_like(t_solve, math.inf), where=np.isfinite(t_solve))
    within = ratio[..., None] <= np.asarray(PERF_ALPHA_GRID)
    keys = [(tau, solver.label) for tau in spec.taus for solver in solvers]
    data = solved_by.sum(axis=1).reshape(len(keys), -1) / len(instances)
    perf = within.sum(axis=1).reshape(len(keys), -1) / len(instances)
    profiles = ProfileData(tuple(spec.taus), tuple(s.label for s in solvers),
                           dict(zip(keys, data)), dict(zip(keys, perf)))
    return BenchmarkResult(raw, profiles)
