"""Closed-form error guarantees for the gradient estimators.

Everything a caller needs to pick sigma and N before spending evaluations:

  deterministic_error_bound   worst-case ||g - grad phi|| for FFD/CFD/LI
  smoothing_bias_bound        ||grad F - grad phi|| for the smoothing methods
  variance_kappa              scalar kappa with Var(g) <= kappa I
  chebyshev_sample_size       N so that ||g - grad F|| <= r w.p. 1 - delta
  bernstein_sample_size       sphere analogue with log(1/delta) dependence
  condition_table             sigma interval, N, and gradient-norm threshold
                              guaranteeing ||g - grad phi|| <= theta ||grad phi||
  ffd_exact_sigma_interval    exact quadratic-root sigma interval for FFD

Conventions: all norms Euclidean; N_min outputs are ceilings of the real
expressions; an interval is empty when the gradient norm sits below the
method's threshold, at which point no sigma can rescue the estimate.
"""
from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass

DETERMINISTIC = ("FFD", "CFD", "LI")
SMOOTHING = ("GSG", "cGSG", "BSG", "cBSG")


# One row per method for its bias bound c (a(n) K sigma^p / a_div + b(n) eps_f
# / sigma): K names the constant (L or M), and c = ||Q^-1|| for LI, else 1.
# lam(n) is the share of the error budget theta ||grad phi|| given to the bias
# (1 for FFD, CFD and LI); the smoothing methods leave the rest to sampling
# noise, fixed per method to keep the sample sizes reproducible.
_Bound = namedtuple("_Bound", "K p a a_div b lam")
_BOUNDS = {
    "FFD": _Bound("L", 1, math.sqrt, 2.0, lambda n: 2.0 * math.sqrt(n), lambda n: 1.0),
    "CFD": _Bound("M", 2, math.sqrt, 6.0, math.sqrt, lambda n: 1.0),
    "LI": _Bound("L", 1, math.sqrt, 2.0, lambda n: 2.0 * math.sqrt(n), lambda n: 1.0),
    "GSG": _Bound("L", 1, math.sqrt, 1.0, math.sqrt, lambda n: 1.0 / (3.0 * math.sqrt(n))),
    "cGSG": _Bound("M", 2, float, 1.0, math.sqrt, lambda n: 1.0 / (6.0 * math.sqrt(n))),
    "BSG": _Bound("L", 1, lambda n: 1.0, 1.0, float, lambda n: 1.0 / (2.0 * math.sqrt(n))),
    "cBSG": _Bound("M", 2, lambda n: 1.0, 1.0, float, lambda n: 1.0 / (2.0 * math.sqrt(n))),
}

# The methods each public bound covers, and its message for any other method
_ANY = (tuple(_BOUNDS), "unknown method {!r}")
_DET = (DETERMINISTIC, f"method must be one of {DETERMINISTIC}")
_SMOOTH = (SMOOTHING, f"method must be one of {SMOOTHING}")
_CHEB = (("GSG", "cGSG"), "chebyshev_sample_size covers GSG and cGSG")
_BERN = (("BSG", "cBSG"), "bernstein_sample_size covers BSG and cBSG")

__all__ = [
    "DETERMINISTIC",
    "SMOOTHING",
    "BoundReport",
    "deterministic_error_bound",
    "smoothing_bias_bound",
    "variance_kappa",
    "chebyshev_sample_size",
    "bernstein_sample_size",
    "condition_table",
    "ffd_exact_sigma_interval",
    "error_floor",
]


@dataclass(frozen=True)
class BoundReport:
    """Evaluated condition-table row.

    interval is "nonempty", "empty", or "unknown" (grad_norm not supplied).
    sigma_hi is None in the empty and unknown cases; sigma_lo, n_min, rho and
    grad_norm_min never need grad_norm and are always filled.
    """

    method: str
    n: int
    theta: float
    delta: float | None
    sigma_lo: float | None
    sigma_hi: float | None
    interval: str
    n_min: int
    rho: float
    grad_norm_min: float
    lambda_used: float | None

    def to_dict(self) -> dict:
        """The row as JSON values: the sigma fields read "empty" or "unknown"
        where the interval says so, and a non-finite float (grad_norm_min at
        theta = 0) is None, written as null."""
        def enc(v, tag):
            if self.interval == "empty":
                return "empty"
            if v is None:
                return tag
            return v

        row = {
            "method": self.method,
            "n": self.n,
            "theta": self.theta,
            "delta": self.delta,
            "sigma_lo": enc(self.sigma_lo, "unknown"),
            "sigma_hi": enc(self.sigma_hi, "unknown"),
            "interval": self.interval,
            "N_min": self.n_min,
            "rho": self.rho,
            "grad_norm_min": self.grad_norm_min,
            "lambda_used": self.lambda_used,
        }
        return {k: None if isinstance(v, float) and not math.isfinite(v) else v
                for k, v in row.items()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False)


def _constants(method: str, family, n: int, L, M, cond_qinv=None, *, eps_f=0.0,
               sigma=None, grad_norm=None, theta=None, positive: bool = False):
    """method's table row, its checked constant K and its factor c; the one
    check of each input the public bounds share, skipping optional ones left
    None. family is the caller's (methods, message); positive asks for K > 0."""
    methods, wrong = family
    if method not in methods:
        raise ValueError(wrong.format(method))
    if n < 1:
        raise ValueError(f"n must be positive, got {n!r}")
    if sigma is not None and not 0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma!r}")
    if not 0 <= eps_f < math.inf:
        raise ValueError(f"eps_f must be nonnegative and finite, got {eps_f!r}")
    for name, v in (("L", L), ("M", M), ("cond_qinv", cond_qinv)):
        if v is not None and not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")
    if grad_norm is not None and not 0 <= grad_norm < math.inf:
        raise ValueError(f"grad_norm must be nonnegative and finite, got {grad_norm!r}")
    if theta is not None and not 0.0 <= theta < 1.0:
        raise ValueError("theta must lie in [0, 1)")
    row = _BOUNDS[method]
    K, c = L if row.K == "L" else M, cond_qinv if method == "LI" else 1.0
    for name, v, pos in ((row.K, K, positive), ("cond_qinv", c, True)):
        if v is None:
            raise ValueError(f"{method} requires {name}")
        if v < 0:
            raise ValueError(f"{name} must be nonnegative")
        if pos and v == 0:
            raise ValueError(f"{method} requires {name} > 0")
    return row, float(K), float(c)


def _curvature(row, n: int, K: float, sigma: float) -> float:
    return row.a(n) * K * sigma**row.p / row.a_div


def _root(x: float, k: int) -> float:
    return math.sqrt(x) if k == 2 else x ** (1.0 / k)


def _tail(delta, r=None) -> None:
    """The one check of the tail-bound inputs: delta in (0, 1), a finite r > 0."""
    if delta is None or not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    if r is not None and not 0 < r < math.inf:
        raise ValueError(f"r must be positive and finite, got {r!r}")


def _bias(method, family, n, L, M, sigma, eps_f, cond_qinv=None) -> float:
    row, K, c = _constants(method, family, n, L, M, cond_qinv, eps_f=eps_f, sigma=sigma)
    return c * (_curvature(row, n, K, sigma) + row.b(n) * eps_f / sigma)


def _sigma_lo(row, n: int, K: float, eps_f: float) -> float:
    """The sigma at which the bound's two terms are equal."""
    return _root(row.a_div * eps_f / (row.a(n) / row.b(n) * K), row.p + 1)


def _rho(row, n: int, K: float, c: float, lo: float) -> float:
    """The error floor: twice the bound's curvature term at sigma_lo, over lambda."""
    return 2.0 * c * _curvature(row, n, K, lo) / row.lam(n)


def deterministic_error_bound(method: str, n: int, L: float | None,
                              M: float | None, sigma: float, eps_f: float = 0.0,
                              cond_qinv: float | None = None) -> float:
    """Worst-case ||g - grad phi(x)|| for the deterministic estimators.

    FFD: sqrt(n) L sigma / 2 + 2 sqrt(n) eps_f / sigma
    CFD: sqrt(n) M sigma^2 / 6 + sqrt(n) eps_f / sigma
    LI:  ||Q^-1|| * (sqrt(n) L sigma / 2 + 2 sqrt(n) eps_f / sigma)

    The bounds hold for every noise realization with |eps| <= eps_f.
    """
    return _bias(method, _DET, n, L, M, sigma, eps_f, cond_qinv)


def smoothing_bias_bound(method: str, n: int, L: float | None, M: float | None,
                         sigma: float, eps_f: float = 0.0) -> float:
    """Cap on ||grad F(x) - grad phi(x)|| for the smoothed objective F.

    GSG: sqrt(n) L sigma + sqrt(n) eps_f / sigma
    cGSG: n M sigma^2 + sqrt(n) eps_f / sigma
    BSG: L sigma + n eps_f / sigma
    cBSG: M sigma^2 + n eps_f / sigma
    """
    return _bias(method, _SMOOTH, n, L, M, sigma, eps_f)


def variance_kappa(method: str, n: int, N: int, L: float | None, M: float | None,
                   sigma: float, eps_f: float, grad_norm: float) -> float:
    """Scalar kappa such that Var(g(x)) <= kappa(x) I, the per-method
    worst-case second-moment cap for the smoothing estimators."""
    return _variance(method, _SMOOTH, n, N, L, M, sigma, eps_f, grad_norm)


def _variance(method, family, n, N, L, M, sigma, eps_f, grad_norm) -> float:
    K = _constants(method, family, n, L, M, eps_f=eps_f, sigma=sigma,
                   grad_norm=grad_norm)[1]   # L for GSG/BSG, M for cGSG/cBSG
    if N < 1:
        raise ValueError("N must be at least 1")
    g2 = grad_norm**2
    if method == "GSG":
        core = (3.0 * g2 + (n + 2) * (n + 4) * K**2 * sigma**2 / 4.0
                + 4.0 * eps_f**2 / sigma**2 + 2.0 * (n + 2) * K * eps_f)
    elif method == "cGSG":
        core = (3.0 * g2 + (n + 2) * (n + 4) * (n + 8) * K**2 * sigma**4 / 36.0
                + eps_f**2 / sigma**2
                + (n + 1) * (n + 3) * K * sigma * eps_f / (6.0 * math.sqrt(n)))
    elif method == "BSG":
        core = (3.0 * n / (n + 2) * g2 + n * K**2 * sigma**2 / 4.0
                + 4.0 * n * eps_f**2 / sigma**2 + 2.0 * n * K * eps_f)
    else:
        core = (3.0 * n / (n + 2) * g2 + n * K**2 * sigma**4 / 36.0
                + n * eps_f**2 / sigma**2 + n * K * sigma * eps_f / 3.0)
    return core / N


def chebyshev_sample_size(method: str, n: int, delta: float, r: float,
                          L: float | None, M: float | None, sigma: float,
                          eps_f: float, grad_norm: float) -> int:
    """Smallest N with P(||g - grad F|| > r) <= delta by the Chebyshev route.

    The tail bound is P <= kappa n / r^2 with kappa = (Gaussian variance
    numerator)/N, so N_min = ceil(n * numerator / (delta r^2)).
    """
    _tail(delta, r)
    numerator = _variance(method, _CHEB, n, 1, L, M, sigma, eps_f, grad_norm)
    return math.ceil(n * numerator / (delta * r**2))


def bernstein_sample_size(method: str, n: int, delta: float, r: float,
                          L: float | None, M: float | None, sigma: float,
                          eps_f: float, grad_norm: float) -> int:
    """Smallest N with P(||g - grad F|| > r) <= delta by matrix Bernstein.

    BSG:  [2n^2/r^2 (||grad||^2/n + L^2 s^2/4 + 4 e^2/s^2 + 2 L e)
           + 2n/(3r) (2||grad|| + L s + 4 e/s)] log((n+1)/delta)
    cBSG: [2n^2/r^2 (||grad||^2/n + M^2 s^4/36 + e^2/s^2 + M s e/3)
           + 2n/(3r) (2||grad|| + M s^2/3 + 2 e/s)] log((n+1)/delta)
    """
    _tail(delta, r)
    g, K = grad_norm, _constants(method, _BERN, n, L, M, eps_f=eps_f, sigma=sigma,
                                 grad_norm=grad_norm)[1]   # L for BSG, M for cBSG
    if method == "BSG":
        var_term = g**2 / n + K**2 * sigma**2 / 4.0 + 4.0 * eps_f**2 / sigma**2 + 2.0 * K * eps_f
        range_term = 2.0 * g + K * sigma + 4.0 * eps_f / sigma
    else:
        var_term = g**2 / n + K**2 * sigma**4 / 36.0 + eps_f**2 / sigma**2 + K * sigma * eps_f / 3.0
        range_term = 2.0 * g + K * sigma**2 / 3.0 + 2.0 * eps_f / sigma
    total = (2.0 * n**2 / r**2 * var_term + 2.0 * n / (3.0 * r) * range_term)
    return math.ceil(total * math.log((n + 1) / delta))


def error_floor(method: str, n: int, L: float | None, M: float | None,
                eps_f: float, *, cond_qinv: float | None = None) -> float:
    """Smallest guaranteed error rho achievable given the noise level: twice
    the bound's curvature term at sigma_lo, over the method's lambda. The
    condition table's gradient-norm threshold is rho / theta."""
    row, K, c = _constants(method, _ANY, n, L, M, cond_qinv, eps_f=eps_f, positive=True)
    return _rho(row, n, K, c, _sigma_lo(row, n, K, eps_f))


def _smoothing_n_min(method: str, n: int, theta: float, delta: float) -> int:
    """Norm-condition sample sizes with the per-method lambda split.

    GSG / cGSG (Chebyshev route):
        3n/(delta theta^2) * n/(sqrt(n)-1)^2 + (n+20)/(16 delta)   [GSG]
        3n/(delta theta^2) * n/(sqrt(n)-1)^2 + (n+30)/(144 delta)  [cGSG]
    BSG / cBSG (Bernstein route):
        [2n/theta^2 * n/(sqrt(n)-1)^2 + 4n/(3 theta) * sqrt(n)/(sqrt(n)-1)
         + c_method] * log((n+1)/delta)
    with c_BSG = (3n + 8 sqrt(n) + 104)/24 and c_cBSG = (n + 8 sqrt(n) + 192)/72.
    """
    if n < 2:
        raise ValueError("smoothing sample-size expressions require n >= 2")
    if theta <= 0:
        raise ValueError("theta must be positive for a sample-size bound")
    rn = math.sqrt(n)
    shrink = n / (rn - 1.0) ** 2
    if method == "GSG":
        return math.ceil(3.0 * n / (delta * theta**2) * shrink + (n + 20) / (16.0 * delta))
    if method == "cGSG":
        return math.ceil(3.0 * n / (delta * theta**2) * shrink + (n + 30) / (144.0 * delta))
    log_term = math.log((n + 1) / delta)
    mid = 4.0 * n / (3.0 * theta) * rn / (rn - 1.0)
    if method == "BSG":
        tail = (3.0 * n + 8.0 * rn + 104.0) / 24.0
    else:
        tail = (n + 8.0 * rn + 192.0) / 72.0
    return math.ceil((2.0 * n / theta**2 * shrink + mid + tail) * log_term)


def condition_table(method: str, n: int, theta: float, delta: float | None = None,
                    L: float | None = None, M: float | None = None,
                    eps_f: float = 0.0, grad_norm: float | None = None,
                    cond_qinv: float | None = None) -> BoundReport:
    """Conditions on sigma, N and ||grad phi(x)|| that guarantee the norm
    condition ||g - grad phi|| <= theta ||grad phi||.

    Deterministic methods get their closed-form sigma interval and N_min = n.
    Smoothing methods get the guarantee-level sample sizes (probability
    1 - delta) with the fixed lambda split recorded in lambda_used; these are
    the tail-bound sample sizes evaluated at the split, not a numerical
    optimum over lambda. grad_norm=None means the local gradient norm is
    unknown: sigma_hi and the interval verdict are then reported as unknown,
    everything else is still computed.
    """
    row, K, c = _constants(method, _ANY, n, L, M, cond_qinv, eps_f=eps_f,
                           grad_norm=grad_norm, theta=theta, positive=True)
    if method in SMOOTHING:
        _tail(delta)
        n_min = _smoothing_n_min(method, n, theta, delta)
    else:
        n_min, delta = n, None

    lam = row.lam(n)
    lo = _sigma_lo(row, n, K, eps_f)
    rho = _rho(row, n, K, c, lo)
    grad_norm_min = math.inf if theta == 0 else rho / theta
    interval, hi = "unknown", None
    if grad_norm is not None:
        # sigma_hi: the curvature term uses up lam's share of theta ||grad phi||
        hi = _root(row.a_div / 2.0 * lam * theta * grad_norm / (c * row.a(n) * K), row.p)
        ok = grad_norm >= grad_norm_min and lo <= hi and hi > 0
        interval = "nonempty" if ok else "empty"

    return BoundReport(method=method, n=n, theta=theta, delta=delta,
                       sigma_lo=None if interval == "empty" else lo,
                       sigma_hi=hi if interval == "nonempty" else None,
                       interval=interval, n_min=n_min, rho=rho,
                       grad_norm_min=grad_norm_min,
                       lambda_used=lam if method in SMOOTHING else None)


def ffd_exact_sigma_interval(n: int, L: float, eps_f: float, theta: float,
                             grad_norm: float):
    """Exact sigma interval on which the FFD error bound meets the norm
    condition: the roots of sqrt(n) L sigma^2 / 2 - theta ||grad|| sigma
    + 2 sqrt(n) eps_f <= 0.

    Returns (sigma_lo, sigma_hi), or None when the discriminant is negative
    (no sigma works). With eps_f = 0 the interval is (0, 2 theta ||grad|| /
    (sqrt(n) L)), open at 0.
    """
    _constants("FFD", _ANY, n, L, None, eps_f=eps_f, grad_norm=grad_norm, theta=theta,
               positive=True)
    disc = theta**2 * grad_norm**2 - 4.0 * n * L * eps_f
    if disc < 0:
        return None
    root = math.sqrt(disc)
    rn = math.sqrt(n)
    return ((theta * grad_norm - root) / (rn * L),
            (theta * grad_norm + root) / (rn * L))
