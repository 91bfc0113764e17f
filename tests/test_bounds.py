"""Closed-form guarantees: bias bounds, variance caps, sample sizes, tables.

Expected numbers are frozen from independent hand/script evaluation of the
printed expressions before this module was written; they are asserted as
literals, not recomputed through the code under test.
"""

import json
import math

import numpy as np
import pytest

from conftest import assert_rate_at_most, run_with_resample
from gradest.bounds import (
    bernstein_sample_size,
    chebyshev_sample_size,
    condition_table,
    deterministic_error_bound,
    error_floor,
    ffd_exact_sigma_interval,
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


def test_chebyshev_example_and_r_scaling():
    args = dict(L=0.0, M=None, sigma=0.5, eps_f=0.0, grad_norm=1.0)
    assert chebyshev_sample_size("GSG", 4, 0.5, 1.0, **args) == 24
    assert chebyshev_sample_size("GSG", 4, 0.5, 2.0, **args) == 6
    with pytest.raises(ValueError):
        chebyshev_sample_size("BSG", 4, 0.5, 1.0, **args)
    with pytest.raises(ValueError):
        chebyshev_sample_size("GSG", 4, 1.5, 1.0, **args)


def test_bernstein_example_and_delta_scaling():
    args = dict(L=0.0, M=None, sigma=0.5, eps_f=0.0, grad_norm=1.0)
    assert bernstein_sample_size("BSG", 4, 0.1, 1.0, **args) == 53
    # log(1/delta) scaling, checked on large N where the ceiling is negligible
    big = dict(L=0.0, M=None, sigma=0.5, eps_f=0.0, grad_norm=100.0)
    n1 = bernstein_sample_size("BSG", 4, 0.01, 1.0, **big)
    n2 = bernstein_sample_size("BSG", 4, 0.1, 1.0, **big)
    assert abs(n1 / n2 - math.log(500) / math.log(50)) < 1e-3
    with pytest.raises(ValueError):
        bernstein_sample_size("GSG", 4, 0.1, 1.0, **args)


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
                            theta=0.4, cond_qinv=kw.get("cond_qinv"))
        assert abs(rep.grad_norm_min - floor) < 1e-12 * floor


def test_interval_empty_exactly_below_gmin():
    kw = dict(L=2.0, M=1.0, eps_f=1e-4)
    for method in ("FFD", "CFD", "GSG", "cGSG", "BSG", "cBSG"):
        probe = condition_table(method, 6, 0.5, 0.1, grad_norm=1.0, **kw)
        gmin = probe.grad_norm_min
        below = condition_table(method, 6, 0.5, 0.1, grad_norm=gmin * 0.999, **kw)
        above = condition_table(method, 6, 0.5, 0.1, grad_norm=gmin * 1.001, **kw)
        assert below.interval == "empty" and below.sigma_hi is None
        assert above.interval == "nonempty"
        assert above.sigma_lo <= above.sigma_hi


def test_unknown_grad_norm_reports_what_is_computable():
    rep = condition_table("GSG", 12, 0.5, 0.1, L=2.0, eps_f=1e-6, grad_norm=None)
    assert rep.interval == "unknown"
    assert rep.sigma_hi is None
    assert rep.sigma_lo > 0
    assert rep.n_min > 0 and math.isfinite(rep.grad_norm_min)
    d = rep.to_dict()
    assert d["sigma_hi"] == "unknown"
    assert d["sigma_lo"] == rep.sigma_lo


def test_report_json_round_trip():
    rep = condition_table("FFD", 4, 0.5, L=2.0, eps_f=1.0, grad_norm=0.01)
    d = json.loads(rep.to_json())
    assert d["interval"] == "empty"
    assert d["sigma_lo"] == "empty" and d["sigma_hi"] == "empty"
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


def test_smoothing_requires_delta_and_small_n_guard():
    with pytest.raises(ValueError):
        condition_table("GSG", 8, 0.5, None, L=1.0, grad_norm=1.0)
    with pytest.raises(ValueError):
        condition_table("GSG", 1, 0.5, 0.1, L=1.0, grad_norm=1.0)


def test_theta_zero_has_infinite_threshold():
    rep = condition_table("FFD", 4, 0.0, L=2.0, eps_f=1e-4, grad_norm=1e9)
    assert rep.grad_norm_min == math.inf
    assert rep.interval == "empty"


# -------------------------------------------------------- exact FFD interval

def test_ffd_exact_interval_example_and_degenerate_cases():
    lo, hi = ffd_exact_sigma_interval(4, 2.0, 1e-3, 0.5, 10.0)
    disc = math.sqrt(0.25 * 100 - 4 * 4 * 2 * 1e-3)
    assert abs(lo - (5.0 - disc) / 4.0) < 1e-15
    assert abs(hi - (5.0 + disc) / 4.0) < 1e-15
    # containment of the simplified interval
    assert lo < 2.0 * math.sqrt(5e-4) and 1.25 < hi
    # eps_f = 0 degenerates to (0, 2 theta g / (sqrt(n) L))
    lo0, hi0 = ffd_exact_sigma_interval(4, 2.0, 0.0, 0.5, 10.0)
    assert lo0 == 0.0 and abs(hi0 - 2.5) < 1e-15
    # negative discriminant: no sigma works
    assert ffd_exact_sigma_interval(4, 2.0, 1.0, 0.5, 0.1) is None
    # double root
    g = math.sqrt(4 * 4 * 2 * 1e-3) / 0.5
    lo2, hi2 = ffd_exact_sigma_interval(4, 2.0, 1e-3, 0.5, g)
    assert abs(lo2 - hi2) < 1e-12
    with pytest.raises(ValueError):
        ffd_exact_sigma_interval(4, 0.0, 1e-3, 0.5, 1.0)


def test_exact_interval_contains_simplified_for_random_draws():
    rng = RngStream(21).generator()
    kept = 0
    while kept < 1000:
        n = int(rng.integers(1, 80))
        L = 10.0 ** rng.uniform(-2, 3)
        eps_f = 10.0 ** rng.uniform(-9, -1)
        theta = rng.uniform(0.05, 0.95)
        gmin = 2.0 * math.sqrt(n * L * eps_f) / theta
        g = gmin * 10.0 ** rng.uniform(0, 2)  # nonempty simplified interval
        simple = condition_table("FFD", n, theta, L=L, eps_f=eps_f, grad_norm=g)
        exact = ffd_exact_sigma_interval(n, L, eps_f, theta, g)
        assert exact is not None
        assert exact[0] <= simple.sigma_lo * (1 + 1e-12)
        assert simple.sigma_hi <= exact[1] * (1 + 1e-12)
        kept += 1


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


def test_sample_size_formulas_hit_failure_target_on_linear():
    """P(||g - grad F|| > r) <= delta with N from the Chebyshev and Bernstein
    formulas; linear phi keeps grad F = grad phi exactly."""
    a = np.array([1.0, 1.0, -1.0, 1.0])
    p = make_linear(a)
    x = np.zeros(4)
    g_norm = 2.0
    r, delta = 1.0, 0.2
    kw = dict(L=0.0, M=0.0, sigma=0.5, eps_f=0.0, grad_norm=g_norm)
    plan = [
        ("GSG", chebyshev_sample_size("GSG", 4, delta, r, **kw)),
        ("cGSG", chebyshev_sample_size("cGSG", 4, delta, r, **kw)),
        ("BSG", bernstein_sample_size("BSG", 4, delta, r, **kw)),
        ("cBSG", bernstein_sample_size("cBSG", 4, delta, r, **kw)),
    ]
    for idx, (name, N) in enumerate(plan):
        assert N >= 1

        def check(factor, N=N, idx=idx, name=name):
            trials = 1000 * factor
            fails = 0
            for t in range(trials):
                rng = RngStream(45).generator(idx, factor, t)
                est = estimate(NoisyOracle(p), x, EstimatorConfig(name, 0.5, N), rng)
                if np.linalg.norm(est.g - a) > r:
                    fails += 1
            assert_rate_at_most(fails, trials, delta, label=name)

        run_with_resample(check)
