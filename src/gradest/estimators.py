"""Gradient estimators from noisy function values.

Seven methods, split in two families:

  deterministic  FFD, CFD       coordinate finite differences
                 LI             linear interpolation on a direction set
  smoothing      GSG, cGSG      Gaussian directions
                 BSG, cBSG      directions uniform on the unit sphere

Evaluation accounting is exact: n+1 (FFD), 2n (CFD), n+1 (LI), N+1
(GSG/BSG, the base value f(x) is evaluated once and reused), 2N (cGSG/cBSG).

Every estimate runs through one loop, estimate_trials(oracle, x, config,
trials, rng, redraw): an EstimatorConfig names the method, sigma, N and an
optional fixed direction set, and is the one place they are checked, so
config.N or n is the direction count everywhere; rng and redraw are plain
Generators. A chunk of trials at a time, the loop draws their directions
(trial_directions) or takes the fixed set, checks and redraws the LI
frames, and makes one oracle batch. estimate is its one-trial call; the
experiment drivers pass whole cells of trials. LI solves Q g = d on every
frame, drawn or fixed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import DETERMINISTIC, SMOOTHING
from .core import NoisyOracle
from .sampling import DirectionSet, unit_rows

Array = np.ndarray

# Above this condition estimate the interpolation system is useless in 64-bit
# arithmetic; the caller must resample rather than trust the solve.
COND_LIMIT = 1e12

METHODS = DETERMINISTIC + SMOOTHING
# probe x +- sigma q (2k rows a trial) rather than x and x + sigma q (k + 1)
CENTRAL = ("CFD", "cGSG", "cBSG")
# use the coordinate axes and draw nothing
AXES = ("FFD", "CFD")

# Probe coordinates (rows x n) per chunk of trials: bounds the working set of
# estimate_trials to a few MB at any trial count.
_CHUNK_COORDS = 1 << 16

__all__ = [
    "METHODS",
    "method_name",
    "GradientEstimate",
    "EstimatorConfig",
    "SingularDirections",
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


@dataclass(frozen=True, slots=True)
class GradientEstimate:
    g: Array
    evals_used: int
    cond_Q: float | None = None     # LI only: 2-norm condition number of Q
    qinv_norm: float | None = None  # LI only: ||Q^-1||_2, the bound constant


@dataclass(frozen=True)
class EstimatorConfig:
    """Method selection for estimate, estimate_trials and the drivers, and
    the one place the method, sigma and N are checked.

    The smoothing methods require N; FFD, CFD and LI probe n directions
    and reject an N, so config.N or n is the direction count.
    direction_source is an optional fixed DirectionSet for LI (n x n) or a
    smoothing method (N x n); when it is absent, fresh directions are drawn
    from the Generator passed along.
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
        if self.N is not None and self.method in DETERMINISTIC:
            raise ValueError(f"N applies to the smoothing methods only, got N = {self.N} "
                             f"for {self.method}")
        if self.N is None and self.method not in DETERMINISTIC:
            raise ValueError(f"{self.method} requires N")
        if self.N is not None and (isinstance(self.N, bool)
                                   or not isinstance(self.N, (int, np.integer))):
            raise ValueError(f"N must be an integer, got {self.N!r}")
        if self.N is not None and self.N < 1:
            raise ValueError(f"N must be positive, got {self.N}")
        if self.direction_source is not None and self.method in AXES:
            raise ValueError(f"{self.method} uses the coordinate axes; "
                             "direction_source does not apply")

    @property
    def deterministic(self) -> bool:
        """True when estimate draws no directions: FFD, CFD or a fixed set."""
        return self.method in AXES or self.direction_source is not None


def estimate_trials(oracle: NoisyOracle, x: Array, config: EstimatorConfig,
                    trials: int, rng: np.random.Generator | None = None,
                    redraw: np.random.Generator | None = None):
    """trials independent estimates at x by config's method, sigma and N, a
    chunk of at most _CHUNK_COORDS probe coordinates at a time; the output
    does not depend on the chunk.

    Every trial uses config.direction_source when it is set (N x n, or n x n
    for LI), and a fixed set is never redrawn. Otherwise each chunk's
    directions are drawn from rng in trial order (FFD/CFD draw none), and a
    drawn LI frame above COND_LIMIT is redrawn once from redraw when it is
    given. FFD, CFD and LI probe n directions, the smoothing methods N.

    Returns (G, cond_Q, qinv_norm): G has shape (trials, n); cond_Q and
    qinv_norm are per-trial arrays for LI and None for the other methods.
    """
    method, sigma, fixed = config.method, config.sigma, config.direction_source
    x = np.asarray(x, dtype=float)
    n = x.size
    k = config.N or n
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if fixed is not None and fixed.Q.shape != (k, n):
        raise ValueError(f"direction matrix must be {k}x{n}, got {fixed.Q.shape}")
    again = None
    if redraw is not None and fixed is None and method == "LI":
        again = lambda count: trial_directions("LI", n, n, count, redraw)
    per_chunk = max(1, _CHUNK_COORDS // ((2 * k if method in CENTRAL else k + 1) * n))
    parts = []
    for start in range(0, trials, per_chunk):
        count = min(per_chunk, trials - start)
        if fixed is not None:
            Q = fixed.Q[None].repeat(count, axis=0)
        else:
            Q = trial_directions(method, n, k, count, rng)
        parts.append(_stack_estimates(oracle, x, method, sigma, Q, redraw=again))
    if len(parts) == 1:   # every estimate call: no copy
        return parts[0]
    return tuple(None if p[0] is None else np.concatenate(p) for p in zip(*parts))


def _stack_estimates(oracle: NoisyOracle, x: Array, method: str, sigma: float,
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

    Returns (G, cond_Q, qinv_norm) as estimate_trials does.
    """
    T, k, n = Q.shape
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

    if method in AXES:
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
    if method in AXES:   # the identity stack, built without np.eye's copies
        Q = np.zeros((T, n, n))
        Q.reshape(T, -1)[:, ::n + 1] = 1.0
        return Q
    k = n if method == "LI" else N
    if n < 1 or k < 1:
        raise ValueError("n and N must be positive")
    if rng is None:
        raise ValueError(f"{method} draws its directions: pass rng or a direction_source")
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
    """One gradient estimate at x: estimate_trials at one trial, with its
    evaluations counted. Directions come from config.direction_source when
    it is set, and a fixed set is never redrawn. Otherwise a method that
    draws reads rng, which a singular LI frame is also redrawn from once,
    and raises ValueError when rng is None.
    """
    before = oracle.eval_count
    G, cond, qinv = estimate_trials(oracle, x, config, 1, rng, rng)
    return GradientEstimate(
        G[0], oracle.eval_count - before,
        cond_Q=None if cond is None else float(cond[0]),
        qinv_norm=None if qinv is None else float(qinv[0]))


def relative_error(g, grad_true: Array):
    """theta = ||g - grad phi(x)|| / ||grad phi(x)|| in the Euclidean norm: a
    float for one estimate (a GradientEstimate or a vector), an array for a
    stack of them (rows); nan where grad phi(x) vanishes."""
    g = np.asarray(getattr(g, "g", g), dtype=float)
    theta = np.linalg.norm(g - grad_true, axis=-1) / (np.linalg.norm(grad_true) or np.nan)
    return theta if theta.ndim else float(theta)


