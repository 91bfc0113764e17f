"""Closed-form error guarantees for the gradient estimators.

Everything a caller needs to pick sigma and N before spending evaluations:

  deterministic_error_bound   worst-case ||g - grad phi|| for FFD/CFD/LI
  smoothing_bias_bound        ||grad F - grad phi|| for the smoothing methods
  variance_kappa              scalar kappa with Var(g) <= kappa I
  condition_table             sigma interval, N, and gradient-norm threshold
                              guaranteeing ||g - grad phi|| <= theta ||grad phi||
  error_floor                 the smallest error rho the noise level allows

Conventions: all norms Euclidean; N_min outputs are ceilings of the real
expressions; an interval is empty when the gradient norm sits below the
method's threshold, at which point no sigma can rescue the estimate.
"""
from __future__ import annotations

import math
import sys
from collections import namedtuple
from dataclasses import asdict, dataclass

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

__all__ = [
    "DETERMINISTIC",
    "SMOOTHING",
    "BoundReport",
    "deterministic_error_bound",
    "smoothing_bias_bound",
    "variance_kappa",
    "condition_table",
    "error_floor",
]


@dataclass(frozen=True)
class BoundReport:
    """Evaluated condition-table row.

    interval is "nonempty", "empty", or "unknown" (grad_norm not supplied).
    sigma_hi is None unless the interval is nonempty; sigma_lo, n_min, rho and
    grad_norm_min never need grad_norm and are always filled (grad_norm_min is
    inf at theta = 0).
    """

    method: str
    n: int
    theta: float
    delta: float | None
    sigma_lo: float
    sigma_hi: float | None
    interval: str
    n_min: int
    rho: float
    grad_norm_min: float
    lambda_used: float | None

    def to_dict(self) -> dict:
        """The row's fields by name, n_min under its JSON key N_min."""
        return {"N_min" if k == "n_min" else k: v for k, v in asdict(self).items()}


def _constants(method: str, family, n: int, L, M, cond_qinv=None, *, eps_f=0.0,
               sigma=None, grad_norm=None, theta=None, positive: bool = False):
    """method's table row, its checked constant K, its factor c and the given
    inputs by name (for _in_range); the one check of each input the public
    bounds share, skipping optional ones left None. family is the caller's
    (methods, message); positive asks for K > 0."""
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
    given = dict(method=method, n=n, L=L, M=M, cond_qinv=cond_qinv, sigma=sigma,
                 eps_f=eps_f, grad_norm=grad_norm, theta=theta)
    given = {k: v for k, v in given.items() if v is not None}
    # an int n above the largest float, where float(n) and math.sqrt(n) raise
    _in_range(math.inf if n > sys.float_info.max else 0.0, "n", given)
    return row, float(K), float(c), given


def _in_range(x: float, what: str, given: dict, divisor: bool = False) -> float:
    """x when a float holds it (a result finite, a divisor nonzero); else the
    one error for every bound that overflows or underflows, naming the inputs."""
    if 0.0 < x if divisor else 0.0 <= x < math.inf:
        return x
    inputs = ", ".join(f"{k}={v}" for k, v in given.items())
    raise ValueError(f"{what} is out of float range at {inputs}")


def _pow(x: float, p: int) -> float:
    """x**p, or inf where float ** raises OverflowError (float * gives inf)."""
    try:
        return x**p
    except OverflowError:
        return math.inf


def _curvature(row, n: int, K: float, sigma: float) -> float:
    return row.a(n) * K * _pow(sigma, row.p) / row.a_div


def _root(x: float, k: int) -> float:
    return math.sqrt(x) if k == 2 else x ** (1.0 / k)


def _bias(method, family, n, L, M, sigma, eps_f, cond_qinv=None) -> float:
    row, K, c, given = _constants(method, family, n, L, M, cond_qinv, eps_f=eps_f,
                                  sigma=sigma)
    return _in_range(c * (_curvature(row, n, K, sigma) + row.b(n) * eps_f / sigma),
                     "bound", given)


def _sigma_lo(row, n: int, K: float, eps_f: float, given: dict) -> float:
    """The sigma at which the bound's two terms are equal."""
    slope = _in_range(row.a(n) / row.b(n) * K, "sigma_lo", given, divisor=True)
    return _in_range(_root(row.a_div * eps_f / slope, row.p + 1), "sigma_lo", given)


def _rho(row, n: int, K: float, c: float, lo: float, given: dict) -> float:
    """The error floor: twice the bound's curvature term at sigma_lo, over lambda."""
    return _in_range(2.0 * c * _curvature(row, n, K, lo) / row.lam(n), "rho", given)


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
    _, K, _, given = _constants(method, _SMOOTH, n, L, M, eps_f=eps_f, sigma=sigma,
                                grad_norm=grad_norm)   # K: L for GSG/BSG, M for cGSG/cBSG
    if N < 1:
        raise ValueError("N must be at least 1")
    n = float(n)   # a product of n in ints can exceed the largest float and raise
    g2, K2, e2 = _pow(grad_norm, 2), _pow(K, 2), _pow(eps_f, 2)
    s2 = _in_range(_pow(sigma, 2), "kappa", given, divisor=True)
    if method == "GSG":
        core = (3.0 * g2 + (n + 2) * (n + 4) * K2 * s2 / 4.0
                + 4.0 * e2 / s2 + 2.0 * (n + 2) * K * eps_f)
    elif method == "cGSG":
        core = (3.0 * g2 + (n + 2) * (n + 4) * (n + 8) * K2 * _pow(sigma, 4) / 36.0
                + e2 / s2
                + (n + 1) * (n + 3) * K * sigma * eps_f / (6.0 * math.sqrt(n)))
    elif method == "BSG":
        core = (3.0 * n / (n + 2) * g2 + n * K2 * s2 / 4.0
                + 4.0 * n * e2 / s2 + 2.0 * n * K * eps_f)
    else:
        core = (3.0 * n / (n + 2) * g2 + n * K2 * _pow(sigma, 4) / 36.0
                + n * e2 / s2 + n * K * sigma * eps_f / 3.0)
    return _in_range(core / N, "kappa", given)


def error_floor(method: str, n: int, L: float | None, M: float | None,
                eps_f: float, *, cond_qinv: float | None = None) -> float:
    """Smallest guaranteed error rho achievable given the noise level: twice
    the bound's curvature term at sigma_lo, over the method's lambda. The
    condition table's gradient-norm threshold is rho / theta."""
    row, K, c, given = _constants(method, _ANY, n, L, M, cond_qinv, eps_f=eps_f,
                                  positive=True)
    return _rho(row, n, K, c, _sigma_lo(row, n, K, eps_f, given), given)


def _smoothing_n_min(method: str, n: int, theta: float, delta: float, given: dict) -> int:
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
    # the smallest divisor: delta theta^2 for GSG and cGSG, theta^2 for BSG and cBSG
    div = _in_range((delta if method in ("GSG", "cGSG") else 1.0) * theta**2, "N_min",
                    given, divisor=True)
    if method == "GSG":
        real = 3.0 * n / div * shrink + (n + 20) / (16.0 * delta)
    elif method == "cGSG":
        real = 3.0 * n / div * shrink + (n + 30) / (144.0 * delta)
    else:
        mid = 4.0 * n / (3.0 * theta) * rn / (rn - 1.0)
        tail = ((3.0 * n + 8.0 * rn + 104.0) / 24.0 if method == "BSG"
                else (n + 8.0 * rn + 192.0) / 72.0)
        real = (2.0 * n / div * shrink + mid + tail) * math.log((n + 1) / delta)
    return math.ceil(_in_range(real, "N_min", given))


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
    unknown: the interval verdict is then "unknown" and sigma_hi None,
    everything else is still computed.
    """
    row, K, c, given = _constants(method, _ANY, n, L, M, cond_qinv, eps_f=eps_f,
                                  grad_norm=grad_norm, theta=theta, positive=True)
    if method in SMOOTHING:
        if delta is None or not 0.0 < delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
        n_min = _smoothing_n_min(method, n, theta, delta, given | {"delta": delta})
    else:
        n_min, delta = n, None

    lam = row.lam(n)
    lo = _sigma_lo(row, n, K, eps_f, given)
    rho = _rho(row, n, K, c, lo, given)
    grad_norm_min = math.inf if theta == 0 else _in_range(rho / theta, "grad_norm_min", given)
    interval, hi = "unknown", None
    if grad_norm is not None:
        # sigma_hi: the curvature term uses up lam's share of theta ||grad phi||
        slope = _in_range(c * row.a(n) * K, "sigma_hi", given, divisor=True)
        hi = _in_range(_root(row.a_div / 2.0 * lam * theta * grad_norm / slope, row.p),
                       "sigma_hi", given)
        ok = grad_norm >= grad_norm_min and lo <= hi and hi > 0
        interval = "nonempty" if ok else "empty"

    return BoundReport(method=method, n=n, theta=theta, delta=delta, sigma_lo=lo,
                       sigma_hi=hi if interval == "nonempty" else None,
                       interval=interval, n_min=n_min, rho=rho,
                       grad_norm_min=grad_norm_min,
                       lambda_used=lam if method in SMOOTHING else None)

