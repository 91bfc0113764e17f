"""Gradient estimators from noisy function values.

Seven methods, split in two families:

  deterministic  FFD, CFD       coordinate finite differences
                 LI             linear interpolation on a direction set
  smoothing      GSG, cGSG      Gaussian directions
                 BSG, cBSG      directions uniform on the unit sphere

All return a GradientEstimate with exact evaluation accounting: n+1 (FFD),
2n (CFD), n+1 (LI), N+1 (GSG/BSG, the base value f(x) is evaluated once and
reused), 2N (cGSG/cBSG). The one-point smoothing forms whose variance blows
up as sigma -> 0 exist only behind a pedagogical flag.

Every method runs through one core, estimate_trials, which estimates a
stack of T independent trials with a single oracle batch; the per-method
functions are its T = 1 calls, and the experiment drivers call it with
whole cells of trials.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NoisyOracle
from .sampling import (DirectionSet, RngStream, direction_stack,
                       gaussian_directions, interpolation_directions,
                       sphere_directions)

Array = np.ndarray

# Above this condition estimate the interpolation system is useless in 64-bit
# arithmetic; the caller must resample rather than trust the solve.
COND_LIMIT = 1e12

METHODS = ("FFD", "CFD", "LI", "GSG", "cGSG", "BSG", "cBSG")
# probe x +- sigma q (2k rows a trial) rather than x and x + sigma q (k + 1)
CENTRAL = ("CFD", "cGSG", "cBSG")

__all__ = [
    "METHODS",
    "GradientEstimate",
    "EstimatorConfig",
    "SingularDirections",
    "ZeroGradient",
    "estimate_trials",
    "trial_directions",
    "ffd",
    "cfd",
    "linear_interp",
    "gsg",
    "cgsg",
    "bsg",
    "cbsg",
    "one_point_gsg",
    "one_point_bsg",
    "relative_error",
    "estimate",
    "estimate_with_retry",
]


class SingularDirections(RuntimeError):
    """Interpolation direction matrix is singular or numerically unusable."""


class ZeroGradient(ValueError):
    """Relative error is undefined at a stationary point of phi."""


@dataclass(frozen=True)
class GradientEstimate:
    g: Array
    method: str
    sigma: float
    N: int
    evals_used: int
    cond_Q: float | None = None     # LI only: 2-norm condition number of Q
    qinv_norm: float | None = None  # LI only: ||Q^-1||_2, the bound constant


@dataclass(frozen=True)
class EstimatorConfig:
    """Method selection for drivers (optimizer, sweeps).

    N applies to the smoothing methods; direction_source is an optional fixed
    DirectionSet for LI (when absent, drivers draw fresh max-norm scaled
    Gaussian directions per estimate). seed keys randomized estimators when a
    driver does not supply its own substream.
    """

    method: str
    sigma: float
    N: int | None = None
    direction_source: DirectionSet | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choices: {METHODS}")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if self.N is not None and self.N < 1:
            raise ValueError("N must be at least 1")


def estimate_trials(oracle: NoisyOracle, x: Array, method: str, sigma: float,
                    Q: Array, *, one_point: bool = False, orthogonal: bool = False,
                    redraw=None):
    """The estimator core: T independent estimates at x, one per direction set.

    Q is a stack of T direction sets, shape (T, k, n): the coordinate axes
    for FFD/CFD, a square frame for LI, N smoothing directions otherwise.
    Every probe row goes to the oracle in a single eval_batch call, trial by
    trial, so bounded noise is consumed in trial order. Each trial's rows are
    contiguous: [x, x + sigma q_1, ..., x + sigma q_k] for the forward forms
    (FFD, LI, GSG, BSG), [x + sigma q_1, ..., x - sigma q_1, ...] for the
    central ones (CFD, cGSG, cBSG), and [x + sigma q_1, ...] alone for the
    one-point GSG/BSG forms, which difference against zero.

    The difference quotients d (T, k) are combined per method:

        FFD, CFD    g = d
        LI          g = Q^-1 d   (Q' d on orthogonal frames)
        GSG, cGSG   g = Q' d / N
        BSG, cBSG   g = Q' d * n / N

    LI frames are checked before any evaluation: unless orthogonal is set,
    the 2-norm condition number of each frame is computed, a frame above
    COND_LIMIT is replaced once by redraw(count), a (count, n, n) stack, when
    redraw is given, and a frame that is still singular raises
    SingularDirections.

    Returns (G, cond_Q, qinv_norm): G has shape (T, n); cond_Q and qinv_norm
    are per-trial arrays for LI and None for the other methods.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choices: {METHODS}")
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    x = np.asarray(x, dtype=float)
    T, k, n = Q.shape
    if n != x.size:
        raise ValueError(f"directions have dimension {n}, point has {x.size}")
    cond = qinv = None
    if method == "LI":
        if orthogonal:
            cond = qinv = np.ones(T)
        else:
            Q, cond, qinv = _checked_frames(Q, redraw)

    step = sigma * Q
    central = method in CENTRAL
    if one_point:
        P = x + step
    elif central:
        P = np.empty((T, 2 * k, n))
        np.add(x, step, out=P[:, :k])
        np.subtract(x, step, out=P[:, k:])
    else:
        P = np.empty((T, k + 1, n))
        P[:, 0] = x
        np.add(x, step, out=P[:, 1:])
    F = oracle.eval_batch(P.reshape(-1, n)).reshape(T, -1)
    if one_point:
        d = F / sigma
    elif central:
        d = (F[:, :k] - F[:, k:]) / (2 * sigma)
    else:
        d = (F[:, 1:] - F[:, :1]) / sigma

    if method in ("FFD", "CFD"):
        return d, cond, qinv
    if method == "LI" and not orthogonal:
        return np.linalg.solve(Q, d[:, :, None])[:, :, 0], cond, qinv
    G = np.matmul(d[:, None, :], Q)[:, 0, :]
    if method in ("GSG", "cGSG"):
        G = G / k
    elif method in ("BSG", "cBSG"):
        G = G * (n / k)
    return G, cond, qinv


def _checked_frames(Q: Array, redraw):
    """(Q, cond, qinv) for a stack of square frames; singular frames are
    redrawn once when redraw is given, else SingularDirections."""

    def condition(svals):
        smallest = svals[:, -1]
        cond = np.divide(svals[:, 0], smallest, out=np.full(len(svals), np.inf),
                         where=smallest > 0)
        return cond, ~(cond <= COND_LIMIT)

    svals = np.linalg.svd(Q, compute_uv=False)
    cond, bad = condition(svals)
    if bad.any() and redraw is not None:
        Q = np.array(Q)
        Q[bad] = redraw(int(bad.sum()))
        svals[bad] = np.linalg.svd(Q[bad], compute_uv=False)
        cond, bad = condition(svals)
    if bad.any():
        raise SingularDirections(
            f"direction set condition number {cond[bad][0]:.3e} exceeds {COND_LIMIT:.0e}")
    return Q, cond, 1.0 / svals[:, -1]


def trial_directions(method: str, n: int, N: int | None, T: int,
                     rng: np.random.Generator | None) -> Array:
    """Direction stack (T, k, n) for T trials of method: the coordinate axes
    for FFD/CFD, else fresh draws from rng in trial order (scaled-Gaussian
    frames for LI, Gaussian rows for GSG/cGSG, sphere rows for BSG/cBSG)."""
    if method in ("FFD", "CFD"):
        return np.broadcast_to(np.eye(n), (T, n, n))
    if method == "LI":
        return direction_stack("general_interp", n, n, T, rng)
    scheme = "sphere" if method in ("BSG", "cBSG") else "gaussian"
    return direction_stack(scheme, n, N, T, rng)


def _single(oracle: NoisyOracle, x: Array, method: str, sigma: float, Q: Array,
            **options) -> GradientEstimate:
    """One estimate: the core at T = 1, with its evaluations counted."""
    before = oracle.eval_count
    G, cond, qinv = estimate_trials(oracle, x, method, sigma, Q[None], **options)
    return GradientEstimate(
        G[0], method, float(sigma), Q.shape[0], oracle.eval_count - before,
        cond_Q=None if cond is None else float(cond[0]),
        qinv_norm=None if qinv is None else float(qinv[0]))


def ffd(oracle: NoisyOracle, x: Array, sigma: float) -> GradientEstimate:
    """Forward differences along the coordinate axes.

    [g]_i = (f(x + sigma e_i) - f(x)) / sigma; n+1 evaluations.
    """
    return _single(oracle, x, "FFD", sigma, np.eye(np.size(x)))


def cfd(oracle: NoisyOracle, x: Array, sigma: float) -> GradientEstimate:
    """Central differences along the coordinate axes.

    [g]_i = (f(x + sigma e_i) - f(x - sigma e_i)) / (2 sigma); 2n evaluations,
    f(x) itself is never used.
    """
    return _single(oracle, x, "CFD", sigma, np.eye(np.size(x)))


def linear_interp(oracle: NoisyOracle, x: Array, directions: DirectionSet,
                  sigma: float) -> GradientEstimate:
    """Interpolation gradient: solve sigma Q g = F for the sample set
    {x + sigma u_i} with F_i = f(x + sigma u_i) - f(x).

    Orthonormal (and coordinate) schemes use the O(n^2) transpose path
    g = Q'F / sigma; general sets go through a pivoted LU solve. The exact
    2-norm condition number of Q is recorded; above COND_LIMIT the system is
    rejected with SingularDirections and the caller decides whether to
    resample (no resampling happens here, so the result is a deterministic
    function of the inputs).
    """
    n = np.size(x)
    if directions.Q.shape != (n, n):
        raise ValueError(f"direction matrix must be {n}x{n} for interpolation")
    return _single(oracle, x, "LI", sigma, directions.Q,
                   orthogonal=directions.scheme in ("coordinate", "orthonormal"))


def _smoothing(oracle, x, method, sigma, N, rng, directions, sampler) -> GradientEstimate:
    n = np.size(x)
    if directions is not None:
        if directions.Q.shape != (N, n):
            raise ValueError(f"direction matrix must be {N}x{n}")
        U = directions.Q
    elif rng is None:
        raise ValueError("either rng or directions must be supplied")
    else:
        U = sampler(n, N, rng).Q
    return _single(oracle, x, method, sigma, U)


def gsg(oracle: NoisyOracle, x: Array, sigma: float, N: int,
        rng: np.random.Generator | None = None, *,
        directions: DirectionSet | None = None) -> GradientEstimate:
    """Gaussian smoothed gradient.

    g = (1/N) sum_i [(f(x + sigma u_i) - f(x)) / sigma] u_i, u_i ~ N(0, I).
    N+1 evaluations: f(x) is evaluated once and its (single) noise
    realization is shared by all N difference quotients. Unbiased for the
    gradient of the Gaussian-smoothed phi.
    """
    return _smoothing(oracle, x, "GSG", sigma, N, rng, directions, gaussian_directions)


def cgsg(oracle: NoisyOracle, x: Array, sigma: float, N: int,
         rng: np.random.Generator | None = None, *,
         directions: DirectionSet | None = None) -> GradientEstimate:
    """Central Gaussian smoothed gradient; 2N evaluations.

    The antithetic pair f(x + sigma u), f(x - sigma u) draws independent
    noise on each side.
    """
    return _smoothing(oracle, x, "cGSG", sigma, N, rng, directions, gaussian_directions)


def bsg(oracle: NoisyOracle, x: Array, sigma: float, N: int,
        rng: np.random.Generator | None = None, *,
        directions: DirectionSet | None = None) -> GradientEstimate:
    """Sphere smoothed gradient: Gaussian form with u_i uniform on the unit
    sphere and the estimator scaled by n. N+1 evaluations."""
    return _smoothing(oracle, x, "BSG", sigma, N, rng, directions, sphere_directions)


def cbsg(oracle: NoisyOracle, x: Array, sigma: float, N: int,
         rng: np.random.Generator | None = None, *,
         directions: DirectionSet | None = None) -> GradientEstimate:
    """Central sphere smoothed gradient; 2N evaluations."""
    return _smoothing(oracle, x, "cBSG", sigma, N, rng, directions, sphere_directions)


def _require_pedagogical(pedagogical: bool) -> None:
    if not pedagogical:
        raise ValueError("one-point forms are pedagogical only; "
                         "pass pedagogical=True to acknowledge the sigma->0 variance blow-up")


def one_point_gsg(oracle: NoisyOracle, x: Array, sigma: float, N: int,
                  rng: np.random.Generator, *, pedagogical: bool = False) -> GradientEstimate:
    """One-point Gaussian form g = (1/(N sigma)) sum f(x + sigma u_i) u_i.

    Not part of the supported API: its variance contains an f(x)^2/sigma^2
    term and explodes as sigma -> 0. Kept only to demonstrate that blow-up;
    call with pedagogical=True to acknowledge.
    """
    _require_pedagogical(pedagogical)
    U = gaussian_directions(np.size(x), N, rng).Q
    return _single(oracle, x, "GSG", sigma, U, one_point=True)


def one_point_bsg(oracle: NoisyOracle, x: Array, sigma: float, N: int,
                  rng: np.random.Generator, *, pedagogical: bool = False) -> GradientEstimate:
    """One-point sphere form g = (n/(N sigma)) sum f(x + sigma u_i) u_i.

    Same caveat as one_point_gsg.
    """
    _require_pedagogical(pedagogical)
    U = sphere_directions(np.size(x), N, rng).Q
    return _single(oracle, x, "BSG", sigma, U, one_point=True)


def relative_error(g, grad_true: Array) -> float:
    """theta = ||g - grad phi(x)|| / ||grad phi(x)|| in the Euclidean norm."""
    gvec = np.asarray(getattr(g, "g", g), dtype=float)
    grad_true = np.asarray(grad_true, dtype=float)
    denom = np.linalg.norm(grad_true)
    if denom == 0.0:
        raise ZeroGradient("relative error undefined: true gradient is zero")
    return float(np.linalg.norm(gvec - grad_true) / denom)


def estimate(oracle: NoisyOracle, x: Array, config: EstimatorConfig,
             rng: np.random.Generator | None = None) -> GradientEstimate:
    """Run the configured estimator at x.

    Randomized methods draw from rng when given, else from the config seed.
    LI without a direction_source raises; drivers that want fresh random
    interpolation frames draw them explicitly (see optimizer.run_dfo).
    """
    method = config.method
    if method == "FFD":
        return ffd(oracle, x, config.sigma)
    if method == "CFD":
        return cfd(oracle, x, config.sigma)
    if method == "LI":
        if config.direction_source is None:
            raise ValueError("LI estimate requires a direction_source")
        return linear_interp(oracle, x, config.direction_source, config.sigma)
    if config.N is None:
        raise ValueError(f"{method} requires N")
    if rng is None:
        rng = RngStream(config.seed).generator()
    fn = {"GSG": gsg, "cGSG": cgsg, "BSG": bsg, "cBSG": cbsg}[method]
    return fn(oracle, x, config.sigma, config.N, rng)


def estimate_with_retry(oracle: NoisyOracle, x: Array, config: EstimatorConfig,
                        rng: np.random.Generator | None = None) -> GradientEstimate:
    """estimate() with the LI direction policy the drivers use.

    LI without a fixed direction_source draws a fresh scaled-Gaussian frame
    per call and retries once when the draw is numerically singular; the
    second singular draw propagates. Fixed frames are never resampled.
    """
    if config.method != "LI" or config.direction_source is not None:
        return estimate(oracle, x, config, rng)
    if rng is None:
        rng = RngStream(config.seed).generator()
    n = np.size(x)

    def frame() -> Array:
        return interpolation_directions(n, rng).Q

    return _single(oracle, x, "LI", config.sigma, frame(),
                   redraw=lambda count: frame()[None])
