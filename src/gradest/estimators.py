"""Gradient estimators from noisy function values.

Seven methods, split in two families:

  deterministic  FFD, CFD       coordinate finite differences
                 LI             linear interpolation on a direction set
  smoothing      GSG, cGSG      Gaussian directions
                 BSG, cBSG      directions uniform on the unit sphere

Evaluation accounting is exact: n+1 (FFD), 2n (CFD), n+1 (LI), N+1
(GSG/BSG, the base value f(x) is evaluated once and reused), 2N (cGSG/cBSG).

Every method runs through one core, estimate_trials, which estimates a
stack of T independent trials with a single oracle batch. estimate is its
T = 1 call and the one entry point for a single GradientEstimate; the
experiment drivers call the core with whole cells of trials, drawn by
trial_directions. LI solves Q g = d on every frame, drawn or fixed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NoisyOracle
from .sampling import DirectionSet, unit_rows

Array = np.ndarray

# Above this condition estimate the interpolation system is useless in 64-bit
# arithmetic; the caller must resample rather than trust the solve.
COND_LIMIT = 1e12

METHODS = ("FFD", "CFD", "LI", "GSG", "cGSG", "BSG", "cBSG")
# probe x +- sigma q (2k rows a trial) rather than x and x + sigma q (k + 1)
CENTRAL = ("CFD", "cGSG", "cBSG")

__all__ = [
    "METHODS",
    "method_name",
    "GradientEstimate",
    "EstimatorConfig",
    "SingularDirections",
    "ZeroGradient",
    "estimate_trials",
    "trial_directions",
    "relative_error",
    "estimate",
]


def method_name(text: str) -> str:
    """The METHODS entry that text names, ignoring case and surrounding
    blanks; ValueError listing the choices when there is none."""
    key = text.strip().lower()
    for method in METHODS:
        if method.lower() == key:
            return method
    raise ValueError(f"unknown estimator {text!r}; choices: {', '.join(METHODS)}")


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
    """Method selection for estimate and the optimizer drivers.

    N applies to the smoothing methods. direction_source is an optional
    fixed DirectionSet for LI (n x n) or a smoothing method (N x n); when it
    is absent, estimate draws fresh directions from the rng it is given.
    """

    method: str
    sigma: float
    N: int | None = None
    direction_source: DirectionSet | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choices: {METHODS}")
        if not 0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma!r}")
        if self.N is not None and self.N < 1:
            raise ValueError("N must be at least 1")
        if self.direction_source is not None and self.method in ("FFD", "CFD"):
            raise ValueError(f"{self.method} uses the coordinate axes; "
                             "direction_source does not apply")


def estimate_trials(oracle: NoisyOracle, x: Array, method: str, sigma: float,
                    Q: Array, *, redraw=None):
    """The estimator core: T independent estimates at x, one per direction set.

    Q is a stack of T direction sets, shape (T, k, n): the coordinate axes
    for FFD/CFD, a square frame for LI, N smoothing directions otherwise.
    Every probe row goes to the oracle in a single eval_batch call, trial by
    trial, so bounded noise is consumed in trial order. Each trial's rows are
    contiguous: [x, x + sigma q_1, ..., x + sigma q_k] for the forward forms
    (FFD, LI, GSG, BSG) and [x + sigma q_1, ..., x - sigma q_1, ...] for the
    central ones (CFD, cGSG, cBSG).

    The difference quotients d (T, k) are combined per method:

        FFD, CFD    g = d
        LI          g = Q^-1 d
        GSG, cGSG   g = Q' d / N
        BSG, cBSG   g = Q' d * n / N

    LI frames are checked before any evaluation: the 2-norm condition
    number of each frame is computed, a frame above COND_LIMIT is replaced
    once by redraw(count), a (count, n, n) stack, when redraw is given, and
    a frame that is still singular raises SingularDirections.

    Returns (G, cond_Q, qinv_norm): G has shape (T, n); cond_Q and qinv_norm
    are per-trial arrays for LI and None for the other methods.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choices: {METHODS}")
    if not 0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma!r}")
    x = np.asarray(x, dtype=float)
    T, k, n = Q.shape
    if n != x.size:
        raise ValueError(f"directions have dimension {n}, point has {x.size}")
    cond = qinv = None
    if method == "LI":
        Q, cond, qinv = _checked_frames(Q, redraw)

    step = sigma * Q
    central = method in CENTRAL
    if central:
        P = np.empty((T, 2 * k, n))
        np.add(x, step, out=P[:, :k])
        np.subtract(x, step, out=P[:, k:])
    else:
        P = np.empty((T, k + 1, n))
        P[:, 0] = x
        np.add(x, step, out=P[:, 1:])
    F = oracle.eval_batch(P.reshape(-1, n)).reshape(T, -1)
    if central:
        d = (F[:, :k] - F[:, k:]) / (2 * sigma)
    else:
        d = (F[:, 1:] - F[:, :1]) / sigma

    if method in ("FFD", "CFD"):
        return d, cond, qinv
    if method == "LI":
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
    for FFD/CFD, else draws from rng in trial order: square Gaussian frames
    scaled so each one's longest row has norm 1 for LI (N is ignored), N
    Gaussian rows for GSG/cGSG, N rows uniform on the sphere for BSG/cBSG."""
    if method in ("FFD", "CFD"):
        return np.eye(n)[None].repeat(T, axis=0)
    k = n if method == "LI" else N
    if n < 1 or k < 1:
        raise ValueError("n and N must be positive")
    Q = rng.standard_normal((T, k, n))
    if method in ("BSG", "cBSG"):
        return unit_rows(Q, rng)
    if method != "LI":
        return Q
    scale = np.max(np.linalg.norm(Q, axis=-1), axis=-1)
    while np.any(scale == 0.0):  # pragma: no cover - probability zero
        bad = scale == 0.0
        Q[bad] = rng.standard_normal((int(bad.sum()), n, n))
        scale = np.max(np.linalg.norm(Q, axis=-1), axis=-1)
    return Q / scale[:, None, None]


def estimate(oracle: NoisyOracle, x: Array, config: EstimatorConfig,
             rng: np.random.Generator | None = None) -> GradientEstimate:
    """One gradient estimate at x: estimate_trials at T = 1, with its
    evaluations counted.

    Directions come from config.direction_source when it is set; a fixed
    set is never redrawn, and a fixed LI frame goes through the same
    condition check and solve as a drawn one. Otherwise FFD/CFD use the
    coordinate axes and the other methods draw one direction set from rng
    (trial_directions); a fresh LI frame that is numerically singular is
    redrawn once from the same rng, and a second singular draw raises
    SingularDirections. A method that must draw raises ValueError when rng
    is None.
    """
    method, n = config.method, np.size(x)
    N = n if method in ("FFD", "CFD", "LI") else config.N
    if N is None:
        raise ValueError(f"{method} requires N")
    fixed = config.direction_source
    if fixed is not None:
        if fixed.Q.shape != (N, n):
            raise ValueError(f"direction matrix must be {N}x{n}, got {fixed.Q.shape}")
        Q, redraw = fixed.Q[None], None
    elif rng is None and method not in ("FFD", "CFD"):
        raise ValueError(f"{method} draws its directions: pass rng or set a direction_source")
    else:
        Q = trial_directions(method, n, N, 1, rng)
        redraw = lambda count: trial_directions(method, n, N, count, rng)
    before = oracle.eval_count
    G, cond, qinv = estimate_trials(oracle, x, method, config.sigma, Q,
                                    redraw=redraw)
    return GradientEstimate(
        G[0], method, float(config.sigma), N, oracle.eval_count - before,
        cond_Q=None if cond is None else float(cond[0]),
        qinv_norm=None if qinv is None else float(qinv[0]))


def relative_error(g, grad_true: Array) -> float:
    """theta = ||g - grad phi(x)|| / ||grad phi(x)|| in the Euclidean norm."""
    gvec = np.asarray(getattr(g, "g", g), dtype=float)
    grad_true = np.asarray(grad_true, dtype=float)
    denom = np.linalg.norm(grad_true)
    if denom == 0.0:
        raise ZeroGradient("relative error undefined: true gradient is zero")
    return float(np.linalg.norm(gvec - grad_true) / denom)


