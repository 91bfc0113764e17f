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
from dataclasses import dataclass

DETERMINISTIC = ("FFD", "CFD", "LI")
SMOOTHING = ("GSG", "cGSG", "BSG", "cBSG")

# lambda splits the error budget between smoothing bias and sampling noise;
# fixed per method to keep the sample sizes reproducible.
LAMBDAS = {
    "GSG": lambda n: 1.0 / (3.0 * math.sqrt(n)),
    "cGSG": lambda n: 1.0 / (6.0 * math.sqrt(n)),
    "BSG": lambda n: 1.0 / (2.0 * math.sqrt(n)),
    "cBSG": lambda n: 1.0 / (2.0 * math.sqrt(n)),
}

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
        def enc(v, tag):
            if self.interval == "empty":
                return "empty"
            if v is None:
                return tag
            return v

        return {
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _need(value, name: str, method: str) -> float:
    if value is None:
        raise ValueError(f"{method} requires {name}")
    v = float(value)
    if v < 0:
        raise ValueError(f"{name} must be nonnegative")
    return v


def _need_pos(value, name: str, method: str) -> float:
    v = _need(value, name, method)
    if v == 0:
        raise ValueError(f"{method} requires {name} > 0")
    return v


def deterministic_error_bound(method: str, n: int, L: float | None,
                              M: float | None, sigma: float, eps_f: float = 0.0,
                              cond_qinv: float | None = None) -> float:
    """Worst-case ||g - grad phi(x)|| for the deterministic estimators.

    FFD: sqrt(n) L sigma / 2 + 2 sqrt(n) eps_f / sigma
    CFD: sqrt(n) M sigma^2 / 6 + sqrt(n) eps_f / sigma
    LI:  ||Q^-1|| * (sqrt(n) L sigma / 2 + 2 sqrt(n) eps_f / sigma)

    The bounds hold for every noise realization with |eps| <= eps_f.
    """
    if method not in DETERMINISTIC:
        raise ValueError(f"method must be one of {DETERMINISTIC}")
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    rn = math.sqrt(n)
    if method == "CFD":
        Mv = _need(M, "M", method)
        return rn * Mv * sigma**2 / 6.0 + rn * eps_f / sigma
    Lv = _need(L, "L", method)
    base = rn * Lv * sigma / 2.0 + 2.0 * rn * eps_f / sigma
    if method == "LI":
        return _need_pos(cond_qinv, "cond_qinv", method) * base
    return base


def smoothing_bias_bound(method: str, n: int, L: float | None, M: float | None,
                         sigma: float, eps_f: float = 0.0) -> float:
    """Cap on ||grad F(x) - grad phi(x)|| for the smoothed objective F.

    GSG: sqrt(n) L sigma + sqrt(n) eps_f / sigma
    cGSG: n M sigma^2 + sqrt(n) eps_f / sigma
    BSG: L sigma + n eps_f / sigma
    cBSG: M sigma^2 + n eps_f / sigma
    """
    if method not in SMOOTHING:
        raise ValueError(f"method must be one of {SMOOTHING}")
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    rn = math.sqrt(n)
    if method == "GSG":
        return rn * _need(L, "L", method) * sigma + rn * eps_f / sigma
    if method == "cGSG":
        return n * _need(M, "M", method) * sigma**2 + rn * eps_f / sigma
    if method == "BSG":
        return _need(L, "L", method) * sigma + n * eps_f / sigma
    return _need(M, "M", method) * sigma**2 + n * eps_f / sigma


def variance_kappa(method: str, n: int, N: int, L: float | None, M: float | None,
                   sigma: float, eps_f: float, grad_norm: float) -> float:
    """Scalar kappa such that Var(g(x)) <= kappa(x) I, the per-method
    worst-case second-moment cap for the smoothing estimators."""
    if method not in SMOOTHING:
        raise ValueError(f"method must be one of {SMOOTHING}")
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    if N < 1:
        raise ValueError("N must be at least 1")
    g2 = grad_norm**2
    if method == "GSG":
        Lv = _need(L, "L", method)
        core = (3.0 * g2 + (n + 2) * (n + 4) * Lv**2 * sigma**2 / 4.0
                + 4.0 * eps_f**2 / sigma**2 + 2.0 * (n + 2) * Lv * eps_f)
    elif method == "cGSG":
        Mv = _need(M, "M", method)
        core = (3.0 * g2 + (n + 2) * (n + 4) * (n + 8) * Mv**2 * sigma**4 / 36.0
                + eps_f**2 / sigma**2
                + (n + 1) * (n + 3) * Mv * sigma * eps_f / (6.0 * math.sqrt(n)))
    elif method == "BSG":
        Lv = _need(L, "L", method)
        core = (3.0 * n / (n + 2) * g2 + n * Lv**2 * sigma**2 / 4.0
                + 4.0 * n * eps_f**2 / sigma**2 + 2.0 * n * Lv * eps_f)
    else:
        Mv = _need(M, "M", method)
        core = (3.0 * n / (n + 2) * g2 + n * Mv**2 * sigma**4 / 36.0
                + n * eps_f**2 / sigma**2 + n * Mv * sigma * eps_f / 3.0)
    return core / N


def chebyshev_sample_size(method: str, n: int, delta: float, r: float,
                          L: float | None, M: float | None, sigma: float,
                          eps_f: float, grad_norm: float) -> int:
    """Smallest N with P(||g - grad F|| > r) <= delta by the Chebyshev route.

    The tail bound is P <= kappa n / r^2 with kappa = (Gaussian variance
    numerator)/N, so N_min = ceil(n * numerator / (delta r^2)).
    """
    if method not in ("GSG", "cGSG"):
        raise ValueError("chebyshev_sample_size covers GSG and cGSG")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not r > 0:
        raise ValueError("r must be positive")
    numerator = variance_kappa(method, n, 1, L, M, sigma, eps_f, grad_norm)
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
    if method not in ("BSG", "cBSG"):
        raise ValueError("bernstein_sample_size covers BSG and cBSG")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not r > 0:
        raise ValueError("r must be positive")
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    g = grad_norm
    if method == "BSG":
        Lv = _need(L, "L", method)
        var_term = g**2 / n + Lv**2 * sigma**2 / 4.0 + 4.0 * eps_f**2 / sigma**2 + 2.0 * Lv * eps_f
        range_term = 2.0 * g + Lv * sigma + 4.0 * eps_f / sigma
    else:
        Mv = _need(M, "M", method)
        var_term = g**2 / n + Mv**2 * sigma**4 / 36.0 + eps_f**2 / sigma**2 + Mv * sigma * eps_f / 3.0
        range_term = 2.0 * g + Mv * sigma**2 / 3.0 + 2.0 * eps_f / sigma
    total = (2.0 * n**2 / r**2 * var_term + 2.0 * n / (3.0 * r) * range_term)
    return math.ceil(total * math.log((n + 1) / delta))


def error_floor(method: str, n: int, L: float | None, M: float | None,
                eps_f: float, theta: float = 1.0,
                cond_qinv: float | None = None) -> float:
    """Smallest guaranteed error rho achievable given the noise level.

    With theta < 1 supplied, this is the gradient-norm threshold expression
    rho / theta used by the norm-condition tables.
    """
    if theta <= 0:
        return math.inf
    if method == "FFD":
        return 2.0 * math.sqrt(n * _need_pos(L, "L", method) * eps_f) / theta
    if method == "CFD":
        Mv = _need_pos(M, "M", method)
        return (2.0 / 6.0 ** (1.0 / 3.0)) * math.sqrt(n) * (Mv * eps_f**2) ** (1.0 / 3.0) / theta
    if method == "LI":
        c = _need_pos(cond_qinv, "cond_qinv", method)
        return 2.0 * c * math.sqrt(n * _need_pos(L, "L", method) * eps_f) / theta
    if method == "GSG":
        return 6.0 * n * math.sqrt(_need_pos(L, "L", method) * eps_f) / theta
    if method == "cGSG":
        Mv = _need_pos(M, "M", method)
        return 12.0 * (n**3.5 * Mv * eps_f**2) ** (1.0 / 3.0) / theta
    if method == "BSG":
        return 4.0 * n * math.sqrt(_need_pos(L, "L", method) * eps_f) / theta
    if method == "cBSG":
        Mv = _need_pos(M, "M", method)
        return 4.0 * (n**3.5 * Mv * eps_f**2) ** (1.0 / 3.0) / theta
    raise ValueError(f"unknown method {method!r}")


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


def _sigma_interval(method: str, n: int, theta: float, L, M, eps_f,
                    grad_norm, cond_qinv):
    """(sigma_lo, sigma_hi) for the method's table row; sigma_hi None when
    grad_norm is unknown."""
    rn = math.sqrt(n)
    g = grad_norm
    if method == "FFD":
        Lv = _need_pos(L, "L", method)
        lo = 2.0 * math.sqrt(eps_f / Lv)
        hi = None if g is None else theta * g / (rn * Lv)
    elif method == "CFD":
        Mv = _need_pos(M, "M", method)
        lo = (6.0 * eps_f / Mv) ** (1.0 / 3.0)
        hi = None if g is None else math.sqrt(3.0 * theta * g / (rn * Mv))
    elif method == "LI":
        Lv = _need_pos(L, "L", method)
        c = _need_pos(cond_qinv, "cond_qinv", method)
        lo = 2.0 * math.sqrt(eps_f / Lv)
        hi = None if g is None else theta * g / (c * rn * Lv)
    elif method == "GSG":
        Lv = _need_pos(L, "L", method)
        lo = math.sqrt(eps_f / Lv)
        hi = None if g is None else theta * g / (6.0 * n * Lv)
    elif method == "cGSG":
        Mv = _need_pos(M, "M", method)
        lo = (eps_f / (rn * Mv)) ** (1.0 / 3.0)
        hi = None if g is None else math.sqrt(theta * g / (12.0 * n**1.5 * Mv))
    elif method == "BSG":
        Lv = _need_pos(L, "L", method)
        lo = math.sqrt(n * eps_f / Lv)
        hi = None if g is None else theta * g / (4.0 * rn * Lv)
    elif method == "cBSG":
        Mv = _need_pos(M, "M", method)
        lo = (n * eps_f / Mv) ** (1.0 / 3.0)
        hi = None if g is None else math.sqrt(theta * g / (4.0 * rn * Mv))
    else:
        raise ValueError(f"unknown method {method!r}")
    return lo, hi


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
    optimum over lambda. grad_norm=None means
    the local gradient norm is unknown: sigma_hi and the interval verdict are
    then reported as unknown, everything else is still computed.
    """
    if method not in DETERMINISTIC + SMOOTHING:
        raise ValueError(f"unknown method {method!r}")
    if not 0.0 <= theta < 1.0:
        raise ValueError("theta must lie in [0, 1)")
    if grad_norm is not None and not 0 <= grad_norm < math.inf:
        raise ValueError(f"grad_norm must be nonnegative and finite, got {grad_norm!r}")
    if not 0 <= eps_f < math.inf:
        raise ValueError(f"eps_f must be nonnegative and finite, got {eps_f!r}")
    for name, v in (("L", L), ("M", M), ("cond_qinv", cond_qinv)):
        if v is not None and not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")

    smoothing = method in SMOOTHING
    lam = None
    if smoothing:
        if delta is None or not 0.0 < delta < 1.0:
            raise ValueError(f"{method} requires delta in (0, 1)")
        n_min = _smoothing_n_min(method, n, theta, delta)
        lam = LAMBDAS[method](n)
    else:
        n_min = n
        delta = None

    rho = error_floor(method, n, L, M, eps_f, theta=1.0, cond_qinv=cond_qinv)
    grad_norm_min = math.inf if theta == 0 else rho / theta
    lo, hi = _sigma_interval(method, n, theta, L, M, eps_f, grad_norm, cond_qinv)

    if grad_norm is None:
        interval = "unknown"
    elif grad_norm >= grad_norm_min and hi is not None and lo <= hi and hi > 0:
        interval = "nonempty"
    else:
        interval = "empty"
        hi = None

    return BoundReport(method=method, n=n, theta=theta, delta=delta,
                       sigma_lo=lo if interval != "empty" else None,
                       sigma_hi=hi, interval=interval, n_min=n_min, rho=rho,
                       grad_norm_min=grad_norm_min, lambda_used=lam)


def ffd_exact_sigma_interval(n: int, L: float, eps_f: float, theta: float,
                             grad_norm: float):
    """Exact sigma interval on which the FFD error bound meets the norm
    condition: the roots of sqrt(n) L sigma^2 / 2 - theta ||grad|| sigma
    + 2 sqrt(n) eps_f <= 0.

    Returns (sigma_lo, sigma_hi), or None when the discriminant is negative
    (no sigma works). With eps_f = 0 the interval is (0, 2 theta ||grad|| /
    (sqrt(n) L)), open at 0.
    """
    if not L > 0:
        raise ValueError("L must be positive")
    if not 0.0 <= theta < 1.0:
        raise ValueError("theta must lie in [0, 1)")
    disc = theta**2 * grad_norm**2 - 4.0 * n * L * eps_f
    if disc < 0:
        return None
    root = math.sqrt(disc)
    rn = math.sqrt(n)
    return ((theta * grad_norm - root) / (rn * L),
            (theta * grad_norm + root) / (rn * L))
