"""Acceptance checks: ten end-to-end criteria, one test each.

Every test prints a single PASS line with its measured numbers (run with
pytest -s to see them on success). Statistical checks use the shared
4-standard-error policy from conftest; fixed tolerances below are part of
the acceptance contract, not tuning knobs.
"""
import math
import time

import numpy as np
import pytest

from conftest import assert_matrix_within, run_with_resample
from gradest.bounds import condition_table, deterministic_error_bound
from gradest.core import (NoiseModel, NoisyOracle, get_problem, make_linear,
                          make_quadratic)
from gradest.estimators import EstimatorConfig, estimate, relative_error
from gradest.experiments import ExperimentSpec, run_optimizer_benchmark, run_theta_distribution
from gradest.optimizer import LineSearchConfig, run_dfo
from gradest.sampling import DirectionSet, RngStream, monte_carlo_moment

SEED = 0


def test_ac01_theta_distribution_reference_table():
    t0 = time.monotonic()
    spec = ExperimentSpec(experiment="theta_distribution", n=32,
                          N_list=(32, 128, 512), trials=10_000, seed=SEED)
    table = run_theta_distribution(spec)
    elapsed = time.monotonic() - t0
    want_mean = {32: 1.00, 128: 0.50, 512: 0.25}
    want_success = {32: 0.0, 128: 0.4953, 512: 1.0}
    rows = {row[1]: row for row in table.rows}
    for N in (32, 128, 512):
        mean = rows[N][table.header.index("mean_theta")]
        success = rows[N][table.header.index("success_rate")]
        assert abs(mean - want_mean[N]) <= 0.05, (N, mean)
        assert abs(success - want_success[N]) <= 0.03, (N, success)
    assert elapsed < 60.0
    line = ", ".join(
        f"N={N}: mean {rows[N][4]:.3f} (want {want_mean[N]:.2f}), "
        f"success {rows[N][7]:.2%} (want {want_success[N]:.2%})"
        for N in (32, 128, 512))
    print(f"PASS AC1 theta distribution n=32 [{line}] in {elapsed:.1f}s")


# GSG error moments on the linear objective, sampled in bulk. The closed
# forms under test:
#   E||g - a||^2 = (n+1) ||a||^2 / N
#   E||g - a||^4 = [N(N-1)(n^2+4n+7) + N(3n^2+20n+37)] ||a||^4 / N^4
_MOMENT_CASES = {(4, 1): (20.0, 2640.0), (4, 2): (10.0, 408.0),
                 (32, 8): (132.0, 23724.0)}
_MOMENT_CACHE = {}


def _gsg_error_moments(n, N, factor):
    key = (n, N, factor)
    if key not in _MOMENT_CACHE:
        trials = 100_000 * factor
        a = np.ones(n)
        rng = RngStream(SEED).generator(202, n, N, factor)
        e2 = np.empty(trials)
        done = 0
        while done < trials:
            m = min(20_000, trials - done)
            U = rng.standard_normal((m, N, n))
            G = np.mean((U @ a)[:, :, None] * U, axis=1)
            e2[done:done + m] = np.sum((G - a) ** 2, axis=1)
            done += m
        e4 = e2 ** 2
        _MOMENT_CACHE[key] = (
            float(e2.mean()), float(e2.std(ddof=1) / math.sqrt(trials)),
            float(e4.mean()), float(e4.std(ddof=1) / math.sqrt(trials)))
    return _MOMENT_CACHE[key]


def test_ac02_gsg_second_moment_identity():
    # the bulk sampler must agree with the estimator path bit-for-bit up to
    # the rounding of one subtraction, or the moments below test nothing
    problem = make_linear(np.ones(4))
    x = np.zeros(4)
    for t in range(5):
        est = estimate(NoisyOracle(problem), x, EstimatorConfig("GSG", 1.0, 2),
                       RngStream(SEED).generator(203, t))
        U = RngStream(SEED).generator(203, t).standard_normal((2, 4))
        manual = np.mean((U @ np.ones(4))[:, None] * U, axis=0)
        assert np.linalg.norm(est.g - manual) < 1e-10

    reports = []
    for (n, N), (want, _) in _MOMENT_CASES.items():
        def check(factor, n=n, N=N, want=want):
            mean, se, _, _ = _gsg_error_moments(n, N, factor)
            assert abs(mean - want) <= 4 * se, (n, N, mean, want, se)
            return mean
        run_with_resample(check, label=f"second moment n={n} N={N}")
        mean, se, _, _ = _gsg_error_moments(n, N, 1)
        reports.append(f"(n={n},N={N}): {mean:.2f} vs {want:g} (se {se:.3f})")
    print(f"PASS AC2 E||g-a||^2 at 1e5 trials [{'; '.join(reports)}]")


def test_ac03_gsg_fourth_moment_identity():
    reports = []
    for (n, N), (_, want) in _MOMENT_CASES.items():
        def check(factor, n=n, N=N, want=want):
            _, _, mean, se = _gsg_error_moments(n, N, factor)
            assert abs(mean - want) <= 4 * se, (n, N, mean, want, se)
        run_with_resample(check, label=f"fourth moment n={n} N={N}")
        _, _, mean, se = _gsg_error_moments(n, N, 1)
        reports.append(f"(n={n},N={N}): {mean:.0f} vs {want:g} (se {se:.1f})")
    print(f"PASS AC3 E||g-a||^4 at 1e5 trials [{'; '.join(reports)}]")


def test_ac04_direction_moment_identities():
    checks = 0
    for n in (2, 5, 20):
        a = RngStream(SEED).generator(204, n).standard_normal(n)
        eye = np.eye(n)
        quad = (a @ a) * eye + 2 * np.outer(a, a)
        cases = [
            ("gaussian", "quad_outer", dict(a=a), quad),
            ("sphere", "quad_outer", dict(a=a), quad / (n * (n + 2))),
            ("gaussian", "norm_outer", dict(k=2), (n + 2) * eye),
            ("sphere", "norm_outer", dict(k=3), eye / n),
            ("gaussian", "odd_outer", dict(a=a, k=1), np.zeros((n, n))),
            ("sphere", "odd_outer", dict(a=a, k=2), np.zeros((n, n))),
        ]
        for c_idx, (dist, functional, kw, expected) in enumerate(cases):
            def check(factor, dist=dist, functional=functional, kw=kw,
                      expected=expected, c_idx=c_idx, n=n):
                rng = RngStream(SEED).generator(205, n, c_idx, factor)
                mean, se = monte_carlo_moment(dist, functional, n, 1_000_000 * factor,
                                              rng, with_stderr=True, **kw)
                assert_matrix_within(mean, se, expected,
                                     label=f"{dist} {functional} n={n}")
            run_with_resample(check, label=f"{dist} {functional} n={n}")
            checks += 1
    print(f"PASS AC4 {checks} direction-moment identities at K=1e6, n in {{2,5,20}}")


def test_ac05_deterministic_bounds_hold_everywhere():
    problem, _ = get_problem("sincos20")
    n, L, M = problem.n, problem.lipschitz_gradient, problem.lipschitz_hessian
    eps_f = 1e-4
    sigmas = np.logspace(-3, 0, 10)
    points = [RngStream(SEED).generator(301, j).uniform(-1, 1, n)
              for j in range(10)]
    reports = []
    for m_idx, method in enumerate(("FFD", "CFD", "LI")):
        cases = 0
        worst_slack = math.inf
        for p_idx, x in enumerate(points):
            grad_true = problem.gradient_at(x)
            for s_idx, sigma in enumerate(sigmas):
                for t in range(100):
                    noise = NoiseModel("uniform_iid", eps_f, SEED)
                    oracle = NoisyOracle(problem, noise, rng=RngStream(SEED)
                                         .generator(302, m_idx, p_idx, s_idx, t))
                    rng = None
                    if method == "LI":
                        rng = RngStream(SEED).generator(303, p_idx, s_idx, t)
                    est = estimate(oracle, x, EstimatorConfig(method, sigma), rng)
                    bound = deterministic_error_bound(
                        method, n, L, M, sigma, eps_f, cond_qinv=est.qinv_norm)
                    err = float(np.linalg.norm(est.g - grad_true))
                    assert err <= bound, (method, sigma, err, bound)
                    worst_slack = min(worst_slack, bound - err)
                    cases += 1
        assert cases == 10_000
        reports.append(f"{method}: 10000/10000, min slack {worst_slack:.3g}")
    print(f"PASS AC5 deterministic bounds [{'; '.join(reports)}]")


def test_ac06_condition_table_failure_rates():
    problem, _ = get_problem("sincos20")
    x0 = np.zeros(20)
    grad_true = problem.gradient_at(x0)
    grad_norm = float(np.linalg.norm(grad_true))
    frozen_N = {"GSG": 4007, "cGSG": 3985, "BSG": 1832, "cBSG": 1806}
    eps_f = 1e-6
    trials = 1000
    reports = []
    for m_idx, method in enumerate(("GSG", "cGSG", "BSG", "cBSG")):
        rep = condition_table(method, 20, theta=0.5, delta=0.1, L=2.0, M=1.0,
                              eps_f=eps_f, grad_norm=grad_norm)
        assert rep.interval == "nonempty"
        assert rep.n_min == frozen_N[method]
        sigma = math.sqrt(rep.sigma_lo * rep.sigma_hi)
        failures = 0
        for t in range(trials):
            noise = NoiseModel("uniform_iid", eps_f, SEED)
            oracle = NoisyOracle(problem, noise,
                                 rng=RngStream(SEED).generator(401, m_idx, t))
            rng = RngStream(SEED).generator(402, m_idx, t)
            est = estimate(oracle, x0, EstimatorConfig(method, sigma, rep.n_min), rng)
            if relative_error(est, grad_true) > 0.5:
                failures += 1
        rate = failures / trials
        assert rate <= 0.15, (method, rate)
        reports.append(f"{method}: N={rep.n_min}, rate {rate:.1%}")
    print(f"PASS AC6 norm-condition failure rates <= 15% [{'; '.join(reports)}]")


def test_ac07_estimator_identities():
    # (a) interpolation on the coordinate frame is forward differencing
    problem, _ = get_problem("sincos20")
    x = RngStream(SEED).generator(501).uniform(-1, 1, 20)
    g_ffd = estimate(NoisyOracle(problem), x, EstimatorConfig("FFD", 0.01)).g
    coordinate = DirectionSet(np.eye(20), "coordinate")
    g_li = estimate(NoisyOracle(problem), x,
                    EstimatorConfig("LI", 0.01, direction_source=coordinate)).g
    d_coord = float(np.linalg.norm(g_li - g_ffd))
    assert d_coord < 1e-12

    # (b) interpolation is exact on a linear function, any invertible frame
    a = RngStream(SEED).generator(502).standard_normal(8)
    g_lin = estimate(NoisyOracle(make_linear(a)), np.zeros(8), EstimatorConfig("LI", 0.3),
                     RngStream(SEED).generator(503)).g
    d_lin = float(np.linalg.norm(g_lin - a))
    assert d_lin < 1e-10

    # (c) central differencing is exact on quadratics
    rng = RngStream(SEED).generator(504)
    B = rng.standard_normal((6, 6))
    problem_q = make_quadratic(B + B.T + 12 * np.eye(6), rng.standard_normal(6))
    xq = rng.standard_normal(6)
    g_cfd = estimate(NoisyOracle(problem_q), xq, EstimatorConfig("CFD", 0.5)).g
    d_quad = float(np.linalg.norm(g_cfd - problem_q.gradient_at(xq)))
    assert d_quad < 1e-10

    # (d) GSG on a shared n x n Gaussian frame is (1/n) Q^T Q times the
    # interpolation estimate on that frame
    problem10, _ = get_problem("sincos10")
    x10 = RngStream(SEED).generator(505).uniform(-1, 1, 10)
    Q = RngStream(SEED).generator(506).standard_normal((10, 10))
    ds = DirectionSet(Q, "gaussian")
    g_gsg = estimate(NoisyOracle(problem10), x10,
                     EstimatorConfig("GSG", 1e-4, 10, direction_source=ds)).g
    g_li10 = estimate(NoisyOracle(problem10), x10,
                      EstimatorConfig("LI", 1e-4, direction_source=ds)).g
    d_pair = float(np.linalg.norm(g_gsg - (Q.T @ Q @ g_li10) / 10))
    assert d_pair < 1e-10
    print(f"PASS AC7 identities [coord-LI vs FFD {d_coord:.2e}; linear LI "
          f"{d_lin:.2e}; quadratic CFD {d_quad:.2e}; GSG vs LI {d_pair:.2e}]")


def test_ac08_noise_makes_sigma_choice_u_shaped():
    problem, _ = get_problem("sincos20")
    x0 = np.zeros(20)
    grad_true = problem.gradient_at(x0)
    eps_f = 1e-2
    sigma_star = 2 * math.sqrt(eps_f / problem.lipschitz_gradient)
    assert sigma_star == pytest.approx(0.1414213562373095, abs=0)
    means = {}
    for s_idx, sigma in enumerate((1e-4, sigma_star, 1.0)):
        thetas = np.empty(100)
        for t in range(100):
            noise = NoiseModel("uniform_iid", eps_f, SEED)
            oracle = NoisyOracle(problem, noise,
                                 rng=RngStream(SEED).generator(601, s_idx, t))
            thetas[t] = relative_error(estimate(oracle, x0, EstimatorConfig("FFD", sigma)),
                                       grad_true)
        means[sigma] = float(thetas.mean())
    assert means[sigma_star] < means[1e-4]
    assert means[sigma_star] < means[1.0]
    print(f"PASS AC8 mean theta: sigma=1e-4 {means[1e-4]:.3f} > "
          f"sigma*={sigma_star:.4f} {means[sigma_star]:.3f} < "
          f"sigma=1 {means[1.0]:.3f}")


def test_ac09_line_search_dfo_convergence():
    t0 = time.monotonic()
    # noise-free Rosenbrock to 1e-5 of the optimum within 1e4 evaluations
    problem, x0 = get_problem("rosenbrock2")
    oracle = NoisyOracle(problem)
    cfg = EstimatorConfig(method="FFD", sigma=1e-6)
    ls = LineSearchConfig(direction="lbfgs", eval_budget=10_000,
                          max_iters=1_000_000)
    trace = run_dfo(oracle, cfg, ls, x0, RngStream(SEED).generator(701))
    f_best = min(r.f for r in trace.records)
    assert oracle.eval_count <= 10_000
    assert f_best <= 1e-5, f_best

    # noisy sincos20: drive the true gradient under the theoretical floor
    problem2, _ = get_problem("sincos20")
    eps_f = 1e-4
    L = problem2.lipschitz_gradient
    noise = NoiseModel("uniform_iid", eps_f, SEED)
    oracle2 = NoisyOracle(problem2, noise, rng=RngStream(SEED).generator(702))
    sigma_star = 2 * math.sqrt(eps_f / L)
    cfg2 = EstimatorConfig(method="FFD", sigma=sigma_star)
    ls2 = LineSearchConfig(direction="lbfgs", eval_budget=10_000,
                           max_iters=1_000_000)
    trace2 = run_dfo(oracle2, cfg2, ls2, np.zeros(20), RngStream(SEED).generator(703))
    floor = 10 * math.sqrt(20 * L * eps_f)
    assert floor == pytest.approx(0.6324555320336758, abs=0)
    final_norm = float(np.linalg.norm(problem2.gradient_at(trace2.records[-1].x)))
    elapsed = time.monotonic() - t0
    assert final_norm <= floor, (final_norm, floor)
    assert elapsed < 60.0
    print(f"PASS AC9 rosenbrock2 f_best {f_best:.2e} <= 1e-5; sincos20 final "
          f"||grad|| {final_norm:.3f} <= {floor:.3f}; {elapsed:.1f}s")


def test_ac10_data_profile_ffd_dominates_gsg_noise_free():
    spec = ExperimentSpec(experiment="optimizer_benchmark", trials=1,
                          taus=(1e-3,), budget_factor=200, seed=SEED,
                          eps_fs=(0.0,))
    result = run_optimizer_benchmark(spec)
    ffd_curve = result.profiles.data_profiles[(1e-3, "ffd+lbfgs+ls")]
    gsg_curve = result.profiles.data_profiles[(1e-3, "gsg:n+sd+ls")]
    assert ffd_curve.shape == gsg_curve.shape == (201,)
    assert np.all(ffd_curve >= gsg_curve), int(np.sum(ffd_curve < gsg_curve))
    print(f"PASS AC10 data profile at tau=1e-3: ffd+lbfgs+ls >= gsg:n+sd+ls "
          f"pointwise; final fractions {ffd_curve[-1]:.2f} vs {gsg_curve[-1]:.2f}")
