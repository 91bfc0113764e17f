"""Closed-form guarantees: bias bounds, variance caps, sample sizes, tables.

Expected numbers are frozen from independent hand/script evaluation of the
printed expressions before this module was written; they are asserted as
literals, not recomputed through the code under test.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_with_resample
from gradest.bounds import (
    DETERMINISTIC,
    SMOOTHING,
    condition_table,
    deterministic_error_bound,
    error_floor,
    smoothing_bias_bound,
    variance_kappa,
)
from gradest.core import NoiseModel, NoisyOracle, make_linear, make_quadratic
from gradest.estimators import EstimatorConfig, estimate
from gradest.sampling import RngStream


# ------------------------------------------------------------- point values

def test_deterministic_bound_examples():
    assert abs(deterministic_error_bound("FFD", 4, 2.0, None, 0.1) - 0.2) < 1e-15
    got = deterministic_error_bound("CFD", 9, None, 6.0, 0.1, eps_f=1e-3)
    assert abs(got - 0.06) < 1e-15
    li = deterministic_error_bound("LI", 4, 2.0, None, 0.1, cond_qinv=1.0)
    assert abs(li - 0.2) < 1e-15
    li3 = deterministic_error_bound("LI", 4, 2.0, None, 0.1, cond_qinv=3.0)
    assert abs(li3 - 0.6) < 1e-15


@settings(max_examples=400, deadline=None)
@given(n=st.integers(1, 1000), L=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
       sigma=st.floats(-14.0, 2.0).map(lambda e: 10.0 ** e),
       eps_f=st.one_of(st.just(0.0), st.floats(-16.0, -1.0).map(lambda e: 10.0 ** e)),
       q=st.floats(-1.0, 12.0).map(lambda e: 10.0 ** e))
def test_li_bound_is_its_unit_bound_scaled_bit_for_bit(n, L, sigma, eps_f, q):
    # bound-check takes LI's bound once per cell at ||Q^-1|| = 1 and scales
    # it by each drawn frame's ||Q^-1||; that must be the per-frame bound
    unit = deterministic_error_bound("LI", n, L, None, sigma, eps_f, cond_qinv=1.0)
    assert deterministic_error_bound("LI", n, L, None, sigma, eps_f, cond_qinv=q) \
        == q * unit
    assert deterministic_error_bound("LI", n, L, None, sigma, eps_f,
                                     cond_qinv=np.float64(q)) == np.float64(q) * unit


def test_smoothing_bias_examples():
    assert abs(smoothing_bias_bound("GSG", 4, 1.0, None, 0.1) - 0.2) < 1e-15
    got = smoothing_bias_bound("BSG", 4, 1.0, None, 0.1, eps_f=1e-4)
    assert abs(got - 0.104) < 1e-15
    assert abs(smoothing_bias_bound("cGSG", 9, None, 2.0, 0.1) - 0.18) < 1e-15
    assert abs(smoothing_bias_bound("cBSG", 9, None, 2.0, 0.1) - 0.02) < 1e-15


def test_variance_kappa_examples():
    # linear phi: only the gradient term survives
    assert abs(variance_kappa("GSG", 2, 1, 0.0, None, 0.5, 0.0, 2.0) - 12.0) < 1e-12
    got = variance_kappa("BSG", 2, 10, 0.0, None, 0.5, 0.0, 1.0)
    assert abs(got - 0.15) < 1e-15


def test_condition_table_ffd_example():
    rep = condition_table("FFD", 4, 0.5, L=2.0, eps_f=1e-4, grad_norm=10.0)
    assert rep.interval == "nonempty"
    assert abs(rep.sigma_lo - 2.0 * math.sqrt(5e-5)) < 1e-15
    assert abs(rep.sigma_hi - 1.25) < 1e-15
    assert abs(rep.grad_norm_min - 0.11313708498984762) < 1e-15
    assert rep.n_min == 4
    assert rep.delta is None and rep.lambda_used is None


def test_condition_table_gsg_n32_ceiling_value():
    # the real-valued expression is 5698.75...; its ceiling is 5699
    rep = condition_table("GSG", 32, 0.5, 0.1, L=2.0, eps_f=0.0, grad_norm=10.0)
    assert rep.n_min == 5699
    assert abs(rep.lambda_used - 1.0 / (3 * math.sqrt(32))) < 1e-15


# frozen guarantee sample sizes: (n, GSG, cGSG, BSG, cBSG) at theta=.5, delta=.1
GUARANTEE_N = [
    (4, 1935, 1923, 606, 596),
    (16, 3436, 3417, 1501, 1478),
    (64, 10084, 10038, 5692, 5624),
]


@pytest.mark.parametrize("n,n_gsg,n_cgsg,n_bsg,n_cbsg", GUARANTEE_N)
def test_smoothing_sample_size_table(n, n_gsg, n_cgsg, n_bsg, n_cbsg):
    kw = dict(L=1.0, M=1.0, eps_f=0.0, grad_norm=100.0)
    assert condition_table("GSG", n, 0.5, 0.1, **kw).n_min == n_gsg
    assert condition_table("cGSG", n, 0.5, 0.1, **kw).n_min == n_cgsg
    assert condition_table("BSG", n, 0.5, 0.1, **kw).n_min == n_bsg
    assert condition_table("cBSG", n, 0.5, 0.1, **kw).n_min == n_cbsg


def test_condition_table_bsg_full_report():
    rep = condition_table("BSG", 20, 0.5, 0.1, L=2.0, M=1.0, eps_f=1e-6,
                          grad_norm=math.sqrt(10))
    assert rep.interval == "nonempty"
    assert abs(rep.sigma_lo - 0.0031622776601683794) < 1e-17
    assert abs(rep.sigma_hi - 0.04419417382415922) < 1e-16
    assert abs(rep.grad_norm_min - 0.22627416997969522) < 1e-16
    assert abs(rep.rho - 0.11313708498984761) < 1e-16
    assert abs(rep.lambda_used - 0.11180339887498948) < 1e-16
    assert rep.n_min == 1832


def test_condition_table_lambda_values():
    n = 16
    kw = dict(L=1.0, M=1.0, eps_f=0.0, grad_norm=10.0)
    assert abs(condition_table("GSG", n, 0.5, 0.1, **kw).lambda_used - 1 / 12) < 1e-15
    assert abs(condition_table("cGSG", n, 0.5, 0.1, **kw).lambda_used - 1 / 24) < 1e-15
    assert abs(condition_table("BSG", n, 0.5, 0.1, **kw).lambda_used - 1 / 8) < 1e-15
    assert abs(condition_table("cBSG", n, 0.5, 0.1, **kw).lambda_used - 1 / 8) < 1e-15


def test_error_floor_matches_gmin_times_theta():
    for method, kw in [
        ("FFD", dict(L=2.0)),
        ("CFD", dict(M=1.5)),
        ("LI", dict(L=2.0, cond_qinv=2.0)),
        ("GSG", dict(L=2.0)),
        ("cGSG", dict(M=1.5)),
        ("BSG", dict(L=2.0)),
        ("cBSG", dict(M=1.5)),
    ]:
        full = dict(L=kw.get("L"), M=kw.get("M"), eps_f=1e-5,
                    grad_norm=1e6, cond_qinv=kw.get("cond_qinv"))
        rep = condition_table(method, 8, 0.4, 0.1, **full)
        floor = error_floor(method, 8, kw.get("L"), kw.get("M"), 1e-5,
                            cond_qinv=kw.get("cond_qinv")) / 0.4
        assert abs(rep.grad_norm_min - floor) < 1e-12 * floor


def test_interval_empty_exactly_below_gmin():
    kw = dict(L=2.0, M=1.0, eps_f=1e-4)
    for method in ("FFD", "CFD", "GSG", "cGSG", "BSG", "cBSG"):
        probe = condition_table(method, 6, 0.5, 0.1, grad_norm=1.0, **kw)
        gmin = probe.grad_norm_min
        below = condition_table(method, 6, 0.5, 0.1, grad_norm=gmin * 0.999, **kw)
        above = condition_table(method, 6, 0.5, 0.1, grad_norm=gmin * 1.001, **kw)
        assert below.interval == "empty" and below.sigma_hi is None
        assert below.sigma_lo == probe.sigma_lo
        assert above.interval == "nonempty"
        assert above.sigma_lo <= above.sigma_hi


def test_unknown_grad_norm_reports_what_is_computable():
    rep = condition_table("GSG", 12, 0.5, 0.1, L=2.0, eps_f=1e-6, grad_norm=None)
    assert rep.interval == "unknown"
    assert rep.sigma_hi is None
    assert rep.sigma_lo > 0
    assert rep.n_min > 0 and math.isfinite(rep.grad_norm_min)
    d = rep.to_dict()
    assert d["sigma_hi"] is None
    assert d["sigma_lo"] == rep.sigma_lo


def test_report_json_round_trip():
    rep = condition_table("FFD", 4, 0.5, L=2.0, eps_f=1.0, grad_norm=0.01)
    d = json.loads(json.dumps(rep.to_dict(), allow_nan=False))
    assert d["interval"] == "empty"
    assert d["sigma_lo"] == rep.sigma_lo and d["sigma_hi"] is None
    assert d["N_min"] == 4


def test_condition_table_rejects_bad_theta_and_delta():
    with pytest.raises(ValueError, match="theta"):
        condition_table("FFD", 4, 1.0, L=2.0, grad_norm=1.0)
    with pytest.raises(ValueError, match="delta"):
        condition_table("GSG", 4, 0.5, 1.5, L=2.0, grad_norm=1.0)


def test_condition_table_rejects_non_finite_inputs():
    inf, nan = math.inf, math.nan
    cases = [("L", dict(L=inf)), ("L", dict(L=nan)), ("M", dict(M=inf)),
             ("cond_qinv", dict(cond_qinv=nan)), ("grad_norm", dict(grad_norm=inf)),
             ("eps_f", dict(eps_f=-1.0)), ("eps_f", dict(eps_f=inf)),
             ("eps_f", dict(eps_f=nan))]
    for name, bad in cases:
        kwargs = dict(L=2.0, M=1.0, eps_f=1e-6, grad_norm=1.0) | bad
        with pytest.raises(ValueError, match=f"^{name} must be"):
            condition_table("GSG", 4, 0.5, 0.1, **kwargs)
    with pytest.raises(ValueError, match="^cond_qinv must be"):
        condition_table("LI", 4, 0.5, L=2.0, grad_norm=1.0, cond_qinv=inf)


def test_condition_table_rejects_n_below_one():
    for n in (0, -3):
        for grad_norm in (1.0, None):
            with pytest.raises(ValueError, match=f"^n must be positive, got {n}$"):
                condition_table("FFD", n, 0.5, L=2.0, grad_norm=grad_norm)
        # every bound that takes n, by the same check
        for call in (lambda: deterministic_error_bound("FFD", n, 2.0, None, 0.1),
                     lambda: smoothing_bias_bound("GSG", n, 2.0, None, 0.1),
                     lambda: variance_kappa("GSG", n, 4, 2.0, None, 0.1, 1e-6, 1.0),
                     lambda: error_floor("FFD", n, 2.0, None, 1e-6)):
            with pytest.raises(ValueError, match=f"^n must be positive, got {n}$"):
                call()


def test_inputs_outside_the_guarantees_are_rejected():
    """Each call here once returned a number the paper's bounds do not give."""
    inf, nan = math.inf, math.nan
    eps = "^eps_f must be nonnegative and finite"
    for call in (lambda: error_floor("CFD", 4, None, 1.0, -1e-6),   # a complex rho
                 lambda: error_floor("FFD", 4, 2.0, None, -1e-6),   # a math domain error
                 lambda: deterministic_error_bound("FFD", 4, 2.0, None, 0.1, eps_f=-1.0),
                 lambda: smoothing_bias_bound("GSG", 4, 2.0, None, 0.1, eps_f=-1.0)):
        with pytest.raises(ValueError, match=eps):
            call()
    with pytest.raises(ValueError, match="^sigma must be positive and finite, got inf$"):
        deterministic_error_bound("FFD", 4, 2.0, None, inf)
    for g in (nan, -1.0):
        with pytest.raises(ValueError, match="^grad_norm must be nonnegative and finite"):
            variance_kappa("GSG", 4, 4, 1.0, None, 0.1, 1e-6, g)


def test_bounds_out_of_float_range_raise_one_error():
    """Each call here once raised ZeroDivisionError or OverflowError, or
    returned inf (the first: sigma_lo = rho = inf)."""
    for call, what, inputs in (
            (lambda: condition_table("FFD", 4, 0.5, L=1e-320, eps_f=1.0), "sigma_lo",
             "method=FFD, n=4, L=1e-320, eps_f=1.0, theta=0.5"),
            (lambda: error_floor("FFD", 4, 5e-324, None, 1e-6), "sigma_lo",
             "method=FFD, n=4, L=5e-324, eps_f=1e-06"),
            (lambda: condition_table("LI", 4, 0.5, L=1e300, eps_f=1e-6, cond_qinv=1e300),
             "rho", "method=LI, n=4, L=1e+300, cond_qinv=1e+300, eps_f=1e-06, theta=0.5"),
            (lambda: condition_table("cGSG", 4, 1e-200, 0.1, M=1.0), "N_min",
             "method=cGSG, n=4, M=1.0, eps_f=0.0, theta=1e-200, delta=0.1"),
            (lambda: smoothing_bias_bound("cBSG", 4, None, 1.0, 1e200), "bound",
             "method=cBSG, n=4, M=1.0, sigma=1e+200, eps_f=0.0"),
            (lambda: deterministic_error_bound("FFD", 4, 1.0, None, 5e-324, 1.0), "bound",
             "method=FFD, n=4, L=1.0, sigma=5e-324, eps_f=1.0"),
            (lambda: variance_kappa("GSG", 4, 4, 1.0, None, 1e-200, 1e-6, 1.0), "kappa",
             "method=GSG, n=4, L=1.0, sigma=1e-200, eps_f=1e-06, grad_norm=1.0"),
            (lambda: variance_kappa("BSG", 4, 4, 1.0, None, 0.1, 1e-6, 1e300), "kappa",
             "method=BSG, n=4, L=1.0, sigma=0.1, eps_f=1e-06, grad_norm=1e+300")):
        message = f"{what} is out of float range at {inputs}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


def test_an_n_no_float_holds_is_one_error():
    """Each call here once raised OverflowError: at n = 10^400 from float(n)
    or math.sqrt(n), and variance_kappa at n = 10^200 from a product of n
    in ints that a float could not hold."""
    huge, big = 10**400, 10**200
    for call, what, inputs in (
            (lambda: deterministic_error_bound("FFD", huge, 1.0, None, 0.1), "n",
             f"method=FFD, n={huge}, L=1.0, sigma=0.1, eps_f=0.0"),
            (lambda: smoothing_bias_bound("GSG", huge, 1.0, None, 0.1), "n",
             f"method=GSG, n={huge}, L=1.0, sigma=0.1, eps_f=0.0"),
            (lambda: error_floor("FFD", huge, 1.0, None, 1e-6), "n",
             f"method=FFD, n={huge}, L=1.0, eps_f=1e-06"),
            (lambda: condition_table("FFD", huge, 0.5, L=1.0), "n",
             f"method=FFD, n={huge}, L=1.0, eps_f=0.0, theta=0.5"),
            (lambda: variance_kappa("GSG", huge, 4, 1.0, None, 0.1, 1e-6, 1.0), "n",
             f"method=GSG, n={huge}, L=1.0, sigma=0.1, eps_f=1e-06, grad_norm=1.0"),
            (lambda: variance_kappa("cGSG", big, 4, None, 1.0, 0.1, 1e-6, 1.0), "kappa",
             f"method=cGSG, n={big}, M=1.0, sigma=0.1, eps_f=1e-06, grad_norm=1.0")):
        message = f"{what} is out of float range at {inputs}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


# one bad value per input, and the one message every public bound gives for it
_BAD_INPUT = {
    "n": (0, r"n must be positive, got 0"),
    "N": (0, r"N must be at least 1"),
    "L": (math.inf, r"L must be finite, got inf"),
    "M": (math.nan, r"M must be finite, got nan"),
    "cond_qinv": (math.inf, r"cond_qinv must be finite, got inf"),
    "sigma": (0.0, r"sigma must be positive and finite, got 0\.0"),
    "eps_f": (-1e-6, r"eps_f must be nonnegative and finite, got -1e-06"),
    "grad_norm": (-1.0, r"grad_norm must be nonnegative and finite, got -1\.0"),
    "theta": (1.0, r"theta must lie in \[0, 1\)"),
    "delta": (1.0, r"delta must lie in \(0, 1\), got 1\.0"),
}
_CONST = dict(L=2.0, M=1.0, eps_f=1e-6)
# each public bound, a valid call by keyword, and its message for a wrong method
_CALLS = [
    (deterministic_error_bound, dict(method="LI", n=4, sigma=0.1, cond_qinv=2.0, **_CONST),
     r"method must be one of \('FFD', 'CFD', 'LI'\)"),
    (smoothing_bias_bound, dict(method="cGSG", n=4, sigma=0.1, **_CONST),
     r"method must be one of \('GSG', 'cGSG', 'BSG', 'cBSG'\)"),
    (variance_kappa, dict(method="BSG", n=4, N=4, sigma=0.1, grad_norm=1.0, **_CONST),
     r"method must be one of \('GSG', 'cGSG', 'BSG', 'cBSG'\)"),
    (condition_table, dict(method="GSG", n=4, theta=0.5, delta=0.1, grad_norm=1.0,
                           cond_qinv=2.0, **_CONST),
     r"unknown method 'X'"),
    (error_floor, dict(method="LI", n=4, cond_qinv=2.0, **_CONST), r"unknown method 'X'"),
]


@pytest.mark.parametrize("bound, valid, wrong_method", _CALLS,
                         ids=[c[0].__name__ for c in _CALLS])
def test_each_bounds_input_has_one_message(bound, valid, wrong_method):
    bound(**valid)
    for name in valid.keys() - {"method"}:
        value, message = _BAD_INPUT[name]
        with pytest.raises(ValueError, match=f"^{message}$"):
            bound(**valid | {name: value})
    with pytest.raises(ValueError, match=f"^{wrong_method}$"):
        bound(**valid | {"method": "X"})


@settings(max_examples=300, deadline=None)
@given(method=st.sampled_from(DETERMINISTIC + SMOOTHING), n=st.integers(2, 1000),
       L=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
       M=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
       eps_f=st.one_of(st.just(0.0), st.floats(-12.0, -1.0).map(lambda e: 10.0 ** e)),
       theta=st.floats(0.01, 0.99), cond_qinv=st.floats(0.0, 3.0).map(lambda e: 10.0 ** e))
def test_condition_table_reads_rho_from_error_floor(method, n, L, M, eps_f, theta,
                                                     cond_qinv):
    """The table's rho is error_floor's, and its threshold is rho / theta, bit for bit."""
    kw = dict(L=L, M=M, eps_f=eps_f, cond_qinv=cond_qinv)
    rep = condition_table(method, n, theta, 0.1, **kw)
    rho = error_floor(method, n, **kw)
    assert rep.rho.hex() == rho.hex()
    assert rep.grad_norm_min.hex() == (rho / theta).hex()


def test_smoothing_requires_delta_and_small_n_guard():
    with pytest.raises(ValueError):
        condition_table("GSG", 8, 0.5, None, L=1.0, grad_norm=1.0)
    with pytest.raises(ValueError):
        condition_table("GSG", 1, 0.5, 0.1, L=1.0, grad_norm=1.0)


def test_theta_zero_has_infinite_threshold():
    rep = condition_table("FFD", 4, 0.0, L=2.0, eps_f=1e-4, grad_norm=1e9)
    assert rep.grad_norm_min == math.inf
    assert rep.interval == "empty"


def test_report_json_writes_null_for_an_infinite_threshold():
    # to_dict keeps the field's inf; the CLI's JSON writes it as null
    # (test_cli_json_writes_null_for_every_non_finite_float)
    rep = condition_table("FFD", 4, 0.0, L=2.0, eps_f=1e-4, grad_norm=1e9)
    d = rep.to_dict()
    assert d["grad_norm_min"] == math.inf and d["rho"] == rep.rho


@settings(max_examples=400, deadline=None)
@given(method=st.sampled_from(DETERMINISTIC + SMOOTHING), n=st.integers(2, 1000),
       L=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
       M=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
       eps_f=st.floats(-12.0, -1.0).map(lambda e: 10.0 ** e),
       theta=st.floats(0.01, 0.99), ratio=st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e),
       cond_qinv=st.floats(0.0, 3.0).map(lambda e: 10.0 ** e))
def test_condition_table_follows_from_the_bound(method, n, L, M, eps_f, theta, ratio,
                                                cond_qinv):
    """Each table row is read off the method's bias bound (curvature term plus
    noise term): the terms are equal at sigma_lo, rho is the bound there over
    lambda, the curvature term is lambda theta ||grad|| / 2 at sigma_hi, and
    the interval is nonempty exactly when ||grad|| >= grad_norm_min."""
    rel = 1e-12
    kw = dict(L=L, M=M, eps_f=eps_f, cond_qinv=cond_qinv)
    free = condition_table(method, n, theta, 0.1, grad_norm=None, **kw)
    lam = 1.0 if free.lambda_used is None else free.lambda_used

    def bound(sigma, eps):
        if method in DETERMINISTIC:
            return deterministic_error_bound(method, n, L, M, sigma, eps,
                                             cond_qinv=cond_qinv)
        return smoothing_bias_bound(method, n, L, M, sigma, eps)

    lo = free.sigma_lo
    curvature, total = bound(lo, 0.0), bound(lo, eps_f)
    assert abs((total - curvature) - curvature) <= rel * curvature
    assert abs(total / lam - free.rho) <= rel * free.rho
    assert abs(free.grad_norm_min - free.rho / theta) <= rel * free.grad_norm_min

    g = free.grad_norm_min * ratio
    rep = condition_table(method, n, theta, 0.1, grad_norm=g, **kw)
    if abs(g - rep.grad_norm_min) > 1e-9 * rep.grad_norm_min:
        assert (rep.interval == "nonempty") == (g >= rep.grad_norm_min)
    if rep.interval == "nonempty":
        target = lam * theta * g / 2.0
        assert abs(bound(rep.sigma_hi, 0.0) - target) <= rel * target
        assert rep.sigma_lo == lo


@settings(max_examples=400, deadline=None)
@given(method=st.sampled_from(DETERMINISTIC + SMOOTHING), n=st.integers(2, 1000),
       L=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
       M=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
       eps_f=st.floats(-12.0, -1.0).map(lambda e: 10.0 ** e),
       theta=st.floats(0.01, 0.99), ratio=st.floats(0.0, 2.0).map(lambda e: 10.0 ** e),
       cond_qinv=st.floats(0.0, 3.0).map(lambda e: 10.0 ** e))
def test_condition_table_interval_meets_the_norm_condition(method, n, L, M, eps_f, theta,
                                                           ratio, cond_qinv):
    """The interval is sound: at both its ends the method's bound (LI's at
    its ||Q^-1||) is at most the bias share lambda theta ||grad phi||."""
    kw = dict(L=L, M=M, eps_f=eps_f, cond_qinv=cond_qinv)
    g = condition_table(method, n, theta, 0.1, **kw).grad_norm_min * ratio
    rep = condition_table(method, n, theta, 0.1, grad_norm=g, **kw)
    lam = 1.0 if rep.lambda_used is None else rep.lambda_used
    for sigma in ((rep.sigma_lo, rep.sigma_hi) if rep.interval == "nonempty" else ()):
        if method in DETERMINISTIC:
            bound = deterministic_error_bound(method, n, L, M, sigma, eps_f,
                                              cond_qinv=cond_qinv)
        else:
            bound = smoothing_bias_bound(method, n, L, M, sigma, eps_f)
        assert bound <= lam * theta * g * (1 + 1e-12)


# ------------------------------------------------- shape of the bound curves

def test_bounds_increase_in_eps_f_and_sigma_tail():
    for method, kw in (("FFD", dict(L=2.0, M=None)), ("CFD", dict(L=None, M=1.5))):
        lo_eps = deterministic_error_bound(method, 8, kw["L"], kw["M"], 0.1, 1e-6)
        hi_eps = deterministic_error_bound(method, 8, kw["L"], kw["M"], 0.1, 1e-3)
        assert hi_eps > lo_eps
        sigmas = np.logspace(0.5, 3, 40)
        vals = [deterministic_error_bound(method, 8, kw["L"], kw["M"], s, 1e-6)
                for s in sigmas]
        assert np.all(np.diff(vals) > 0)  # curvature term dominates eventually


def test_bound_minimizer_sits_at_or_below_table_sigma_lo():
    """FFD's table sigma_lo equals the analytic minimizer 2 sqrt(eps/L); CFD's
    table sigma_lo is the equal-terms split (6 eps/M)^(1/3), which sits a
    factor 2^(1/3) above the analytic minimizer (3 eps/M)^(1/3) and costs at
    most 6% in bound value. The grid argmin is checked against that geometry.
    """
    n, L, M, eps_f = 8, 2.0, 1.5, 1e-5
    grid = np.logspace(-6, 1, 3000)

    ffd_vals = np.array([deterministic_error_bound("FFD", n, L, None, s, eps_f)
                         for s in grid])
    ffd_star = grid[int(np.argmin(ffd_vals))]
    assert abs(ffd_star - 2.0 * math.sqrt(eps_f / L)) < 0.01 * ffd_star
    rep = condition_table("FFD", n, 0.5, L=L, eps_f=eps_f, grad_norm=1e3)
    assert rep.sigma_lo <= ffd_star * 1.01 <= rep.sigma_hi

    cfd_vals = np.array([deterministic_error_bound("CFD", n, None, M, s, eps_f)
                         for s in grid])
    cfd_star = grid[int(np.argmin(cfd_vals))]
    assert abs(cfd_star - (3 * eps_f / M) ** (1 / 3)) < 0.01 * cfd_star
    rep = condition_table("CFD", n, 0.5, M=M, eps_f=eps_f, grad_norm=1e3)
    assert abs(rep.sigma_lo - 2 ** (1 / 3) * cfd_star) < 0.02 * rep.sigma_lo
    bound_at_lo = deterministic_error_bound("CFD", n, None, M, rep.sigma_lo, eps_f)
    assert bound_at_lo <= 1.06 * cfd_vals.min()


# ------------------------------------------------------------ MC dominance

def test_deterministic_bounds_dominate_measured_error():
    # small-scale version; the 10^4-case sweep is the acceptance criterion
    from gradest.core import make_sincos

    p = make_sincos(10, 1.0, 2.0)
    noise = NoiseModel("uniform_iid", 1e-4, seed=31)
    rng = RngStream(32).generator()
    for sigma in (1e-3, 1e-2, 1e-1):
        for _ in range(20):
            x = rng.uniform(-1, 1, 10)
            grad = p.gradient_at(x)
            oracle = NoisyOracle(p, noise, rng=RngStream(33).generator())
            err = np.linalg.norm(estimate(oracle, x, EstimatorConfig("FFD", sigma)).g - grad)
            assert err <= deterministic_error_bound("FFD", 10, 2.0, None, sigma, 1e-4)
            err = np.linalg.norm(estimate(oracle, x, EstimatorConfig("CFD", sigma)).g - grad)
            assert err <= deterministic_error_bound("CFD", 10, None, 1.0, sigma, 1e-4)
            est = estimate(oracle, x, EstimatorConfig("LI", sigma), rng)
            bound = deterministic_error_bound("LI", 10, 2.0, None, sigma, 1e-4,
                                              cond_qinv=est.qinv_norm)
            assert np.linalg.norm(est.g - grad) <= bound


def test_variance_kappa_dominates_per_coordinate_mc_variance():
    """Per-coordinate sample variance of each smoothing estimator stays below
    kappa, on linear and quadratic phi, with and without noise."""
    methods = ("GSG", "cGSG", "BSG", "cBSG")
    lin = make_linear(np.array([1.0, -1.0, 0.5, 2.0]))
    quad = make_quadratic(np.diag([1.0, 2.0, 3.0, 4.0]), np.ones(4), name="q4")
    x = np.array([0.3, -0.2, 0.1, 0.4])
    cases = [(lin, 0.0, 0.0, 0.0), (lin, 0.0, 0.0, 1e-3), (quad, 4.0, 0.0, 0.0)]
    sigma, N = 0.05, 3
    for p_idx, (problem, L, M, eps_f) in enumerate(cases):
        g_norm = float(np.linalg.norm(problem.gradient_at(x)))
        noise = (NoiseModel("uniform_iid", eps_f, seed=41) if eps_f
                 else NoiseModel())
        for m_idx, name in enumerate(methods):
            kappa = variance_kappa(name, 4, N, L, M, sigma, eps_f, g_norm)

            def check(factor, name=name, problem=problem, noise=noise,
                      kappa=kappa, p_idx=p_idx, m_idx=m_idx):
                trials = 3000 * factor
                G = np.empty((trials, 4))
                for t in range(trials):
                    oracle = NoisyOracle(problem, noise,
                                         rng=RngStream(42).generator(p_idx, m_idx, t))
                    rng = RngStream(43).generator(p_idx, m_idx, factor, t)
                    G[t] = estimate(oracle, x, EstimatorConfig(name, sigma, N), rng).g
                var = G.var(axis=0, ddof=1)
                se_var = var * math.sqrt(2.0 / (trials - 1))
                assert np.all(var - 4.0 * se_var <= kappa), (
                    f"{name} on {problem.name}: var {var.max():.4g} vs kappa {kappa:.4g}")

            run_with_resample(check)


def test_variance_cap_spec_example_gsg_n4():
    # GSG, n=4, N=1, linear a=e: per-coordinate variance <= kappa = 12
    a = np.ones(4)
    p = make_linear(a)
    kappa = variance_kappa("GSG", 4, 1, 0.0, None, 1.0, 0.0, 2.0)
    assert kappa == 12.0

    def check(factor):
        trials = 10**5 * factor
        rng = RngStream(44).generator(factor)
        U = rng.standard_normal((trials, 4))
        G = (U @ a)[:, None] * U  # GSG with N=1 on linear phi, noise-free
        var = G.var(axis=0, ddof=1)
        se_var = var * math.sqrt(2.0 / (trials - 1))
        assert np.all(var - 4.0 * se_var <= kappa)
        # sanity: the estimator path agrees with the closed form sample
        est = estimate(NoisyOracle(p), np.zeros(4), EstimatorConfig("GSG", 1.0, 1),
                       RngStream(44).generator(9))
        assert est.g.shape == (4,)

    run_with_resample(check)

