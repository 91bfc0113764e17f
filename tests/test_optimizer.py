"""Line search, L-BFGS directions, and the DFO driver loop."""

import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradest.bounds import condition_table
from gradest.core import (
    NOISE_KINDS,
    NoiseModel,
    NoisyOracle,
    ObjectiveFunction,
    get_problem,
    make_linear,
    make_quadratic,
    make_sincos,
    make_standard_problems,
)
from gradest.estimators import CENTRAL, METHODS, EstimatorConfig, estimate, relative_error
from gradest.optimizer import (
    ALPHA0,
    BACKTRACK,
    CURVATURE_GUARD,
    MAX_BACKTRACKS,
    TRACE_COLUMNS,
    CurvaturePair,
    IterationRecord,
    LineSearchConfig,
    NotDescent,
    OptimizationTrace,
    StepFailure,
    armijo_search,
    lbfgs_direction,
    run_dfo,
)
from gradest.sampling import DirectionSet, RngStream


def quad_oracle(diag, b=None):
    diag = np.asarray(diag, dtype=float)
    b = np.zeros(diag.size) if b is None else np.asarray(b, dtype=float)
    return NoisyOracle(make_quadratic(np.diag(diag), b, name="q"))


# ----------------------------------------------------------------- armijo

def test_armijo_accepts_full_step_on_sphere_quadratic():
    oracle = quad_oracle([1.0, 1.0])
    x = np.array([1.0, 0.0])
    g = x.copy()
    alpha, x_new, f_new, backtracks = armijo_search(
        oracle, x, -g, g, 0.5, LineSearchConfig())
    assert alpha == 1.0 and backtracks == 0
    assert f_new == 0.0 and np.array_equal(x_new, np.zeros(2))


def test_armijo_backtracks_exactly_once_on_overshoot():
    oracle = quad_oracle([1.0])
    x = np.array([1.0])
    g = np.array([1.0])
    d = np.array([-4.0])
    # alpha=1 lands at -3 (f=4.5 > 0.5 - 0.8); alpha=0.3 lands at -0.2 (f=0.02)
    alpha, x_new, f_new, backtracks = armijo_search(
        oracle, x, d, g, 0.5, LineSearchConfig())
    assert abs(alpha - 0.3) < 1e-15 and backtracks == 1
    assert abs(x_new[0] + 0.2) < 1e-15 and abs(f_new - 0.02) < 1e-15


def test_armijo_rejects_non_descent():
    oracle = quad_oracle([1.0, 1.0])
    x = np.ones(2)
    with pytest.raises(NotDescent):
        armijo_search(oracle, x, x.copy(), x.copy(), 1.0, LineSearchConfig())
    with pytest.raises(NotDescent):  # a NaN slope is no descent either
        armijo_search(oracle, x, -x, np.array([np.nan, 1.0]), 1.0, LineSearchConfig())
    assert oracle.eval_count == 0


def test_armijo_step_failure_and_eval_count():
    # phi increasing along d while the (wrong) slope says descent
    oracle = NoisyOracle(make_linear(np.array([1.0])))
    cfg = LineSearchConfig(noise_relaxation=0.0)
    with pytest.raises(StepFailure):
        armijo_search(oracle, np.zeros(1), np.array([1.0]), np.array([-1.0]),
                      0.0, cfg)
    assert oracle.eval_count == MAX_BACKTRACKS + 1  # one probe per trial step


def test_armijo_noise_relaxation_widens_acceptance():
    # true f strictly increases along d (slope 0.05) while the estimated
    # slope is a tiny -0.01, so acceptance hinges entirely on the relaxation:
    # f(x + alpha d) - f(x) = 0.05 alpha <= -0.002 alpha + relax
    rising = NoisyOracle(make_linear(np.array([0.05])))
    x, d, g = np.zeros(1), np.array([1.0]), np.array([-0.01])
    alpha, _, _, backtracks = armijo_search(
        rising, x, d, g, 0.0, LineSearchConfig(noise_relaxation=0.2))
    assert alpha == 1.0 and backtracks == 0
    alpha, _, _, backtracks = armijo_search(
        rising, x, d, g, 0.0, LineSearchConfig(noise_relaxation=0.04))
    assert alpha == pytest.approx(0.3) and backtracks == 1
    with pytest.raises(StepFailure):
        armijo_search(rising, x, d, g, 0.0, LineSearchConfig())


def test_armijo_first_probe_is_at_the_given_alpha0():
    oracle = quad_oracle([1.0])
    x, g = np.array([1.0]), np.array([1.0])
    # the default alpha0 would probe the minimum x = 0; alpha0 0.5 probes
    # x = 0.5 first, which passes
    alpha, x_new, f_new, backtracks = armijo_search(
        oracle, x, -g, g, 0.5, LineSearchConfig(), alpha0=0.5)
    assert alpha == 0.5 and backtracks == 0 and oracle.eval_count == 1
    assert x_new[0] == 0.5 and f_new == 0.125


def test_armijo_default_relaxation_absorbs_noise_on_flat_function():
    flat = make_quadratic(np.diag([1e-12]), np.zeros(1), name="flat")
    noisy = NoisyOracle(flat, NoiseModel("uniform_iid", 0.1, seed=1))
    # relaxation defaults to 2 * level = 0.2, the largest possible swing
    # between the two noise draws; the tiny estimated slope costs only
    # c1 * 1e-8, so the full step is accepted
    alpha, _, _, backtracks = armijo_search(
        noisy, np.zeros(1), np.array([1.0]), np.array([-1e-8]),
        noisy(np.zeros(1)), LineSearchConfig())
    assert alpha == 1.0 and backtracks == 0


# ----------------------------------------------------------------- l-bfgs

def test_lbfgs_empty_history_is_steepest_descent():
    g = np.array([0.3, -2.0])
    assert np.array_equal(lbfgs_direction([], g), -g)


def test_lbfgs_recovers_newton_direction_on_diagonal_quadratic():
    diag = np.array([1.0, 3.0, 10.0])
    eye = np.eye(3)
    history = [CurvaturePair.of(eye[i], diag[i] * eye[i]) for i in range(3)]  # s=e_i, y=As
    g = np.array([2.0, -1.5, 5.0])
    d = lbfgs_direction(history, g)
    assert np.max(np.abs(d + g / diag)) < 1e-10


def test_lbfgs_skips_flat_pairs():
    g = np.array([1.0, 1.0])
    s = np.array([1.0, 0.0])
    y = np.array([-1.0, 0.0])  # s'y < 0: not a curvature pair
    assert np.array_equal(lbfgs_direction([CurvaturePair.of(s, y)], g), -g)


def test_lbfgs_falls_back_to_steepest_descent_on_a_nan_direction():
    # a curved pair whose scalings overflow: the two-loop recursion yields
    # [nan, nan], which is no descent direction, so -g comes back instead
    history = [CurvaturePair.of(np.array([1e150, 0.0]), np.array([1e-160, 0.0]))]
    g = np.array([1e-155, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        d = lbfgs_direction(history, g)
    assert np.array_equal(d, -g)


def test_lbfgs_direction_is_descent_for_positive_pairs():
    rng = RngStream(51).generator()
    for _ in range(50):
        n = int(rng.integers(2, 8))
        history = []
        for _ in range(int(rng.integers(1, 6))):
            s = rng.standard_normal(n)
            y = rng.standard_normal(n)
            if np.dot(s, y) <= 1e-8:
                y = s + 0.1 * y if np.dot(s, s + 0.1 * y) > 1e-8 else s
            history.append(CurvaturePair.of(s, y))
        g = rng.standard_normal(n)
        if np.linalg.norm(g) < 1e-12:
            continue
        d = lbfgs_direction(history, g)
        assert np.dot(g, d) < 0


def reference_lbfgs_direction(history, g):
    """The two-loop recursion on raw (s, y) pairs, every norm and s'y
    recomputed on each call."""
    g_scale = 1e-8 * float(np.linalg.norm(g))
    usable = [(s, y, float(np.dot(s, y))) for s, y in history
              if np.linalg.norm(y) > g_scale
              and np.dot(s, y) > CURVATURE_GUARD * np.linalg.norm(s) * np.linalg.norm(y)]
    if not usable:
        return -np.asarray(g, dtype=float)
    q = np.array(g, dtype=float)
    alphas = []
    for s, y, sy in reversed(usable):
        a = np.dot(s, q) / sy
        alphas.append(a)
        q -= a * y
    s_new, y_new, sy_new = usable[-1]
    q *= sy_new / float(np.dot(y_new, y_new))
    for (s, y, sy), a in zip(usable, reversed(alphas)):
        b = np.dot(y, q) / sy
        q += (a - b) * s
    d = -q
    if np.dot(g, d) >= 0.0:
        return -np.asarray(g, dtype=float)
    return d


def _pair(kind, n, g_norm, rng):
    s = rng.standard_normal(n) * 10.0 ** rng.uniform(-4, 2)
    if kind == "curved":        # y = Ds with a positive diagonal D
        return s, s * rng.uniform(0.01, 100.0, n)
    if kind == "anti":          # s'y < 0: fails the curvature guard
        return s, -s * rng.uniform(0.01, 100.0, n)
    if kind == "tiny":          # curved, but ||y|| far below 1e-8 ||g||
        return s, s / np.linalg.norm(s) * g_norm * 1e-8 * rng.uniform(1e-6, 0.99)
    # "edge": s'y within a factor 2 of the guard's threshold, either side
    z = rng.standard_normal(n)
    z -= np.dot(z, s) / np.dot(s, s) * s
    y = z + rng.uniform(0.5, 2.0) * CURVATURE_GUARD * np.linalg.norm(z) / np.linalg.norm(s) * s
    return s, y


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 6),
    kinds=st.lists(st.sampled_from(["curved", "anti", "tiny", "edge"]), max_size=10),
    g_exp=st.floats(-6.0, 6.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=3, kinds=[], g_exp=0.0, seed=0)
@example(n=3, kinds=["anti", "tiny", "anti"], g_exp=0.0, seed=1)
def test_lbfgs_on_cached_pairs_matches_reference_bitwise(n, kinds, g_exp, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(n) * 10.0 ** g_exp
    raw = [_pair(kind, n, float(np.linalg.norm(g)), rng) for kind in kinds]
    d = lbfgs_direction([CurvaturePair.of(s, y) for s, y in raw], g)
    ref = reference_lbfgs_direction(raw, g)
    assert d.dtype == ref.dtype and d.shape == ref.shape
    assert d.tobytes() == ref.tobytes()


# ----------------------------------------------------------------- run_dfo

def test_config_validation():
    with pytest.raises(ValueError):
        LineSearchConfig(c1=0.0)
    with pytest.raises(ValueError):
        LineSearchConfig(direction="newton")
    for budget in (0, -3):
        with pytest.raises(ValueError, match="budget must be positive"):
            LineSearchConfig(eval_budget=budget)
    with pytest.raises(ValueError, match="max_iters must be nonnegative"):
        LineSearchConfig(max_iters=-2)
    for stop in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="grad_norm_stop must be finite and nonnegative"):
            LineSearchConfig(grad_norm_stop=stop)
    LineSearchConfig(eval_budget=1, max_iters=0, grad_norm_stop=0.0)   # the edges are valid
    with pytest.raises(ValueError):
        run_dfo(quad_oracle([1.0]), EstimatorConfig(method="CFD", sigma=1e-4),
                LineSearchConfig(max_iters=None, eval_budget=None), np.ones(1))
    with pytest.raises(ValueError, match="rng"):  # GSG draws: no seed fallback
        run_dfo(quad_oracle([1.0]), EstimatorConfig(method="GSG", sigma=1e-4, N=2),
                LineSearchConfig(max_iters=5), np.ones(1))


@pytest.mark.parametrize("step", [None, 0.5])
def test_an_exactly_zero_estimate_ends_on_grad_norm_stop(step):
    # at the minimum the CFD estimate is exactly 0, which no accepted
    # grad_norm_stop lies below, so the run stops rather than raising NotDescent
    oracle = quad_oracle([1.0, 1.0])
    trace = run_dfo(oracle, EstimatorConfig(method="CFD", sigma=1e-3),
                    LineSearchConfig(direction="steepest_descent", grad_norm_stop=0.0,
                                     max_iters=5, step=step),
                    np.zeros(2))
    assert trace.termination == "grad_norm_stop"
    assert trace.records[-1].grad_est_norm == 0.0


def test_lbfgs_terminates_fast_on_quadratics():
    # CFD is exact on quadratics, so this exercises the spec's
    # exact-gradient termination property: <= 2n + 5 iterations for n <= 10
    rng = RngStream(52).generator()
    for n in (2, 5, 10):
        diag = np.linspace(1.0, 8.0, n)
        oracle = quad_oracle(diag, b=rng.standard_normal(n))
        trace = run_dfo(
            oracle, EstimatorConfig(method="CFD", sigma=1e-5),
            LineSearchConfig(grad_norm_stop=1e-8, max_iters=200), np.ones(n))
        assert trace.termination == "grad_norm_stop"
        # the final record is the terminal bookkeeping row (alpha 0), not a step
        assert len(trace.records) - 1 <= 2 * n + 5
        assert np.linalg.norm(
            oracle.objective.gradient_at(trace.records[-1].x)) <= 1e-6


def test_noise_free_line_search_decreases_f_strictly():
    oracle = NoisyOracle(make_sincos(6, 1.0, 2.0))
    trace = run_dfo(
        oracle, EstimatorConfig(method="FFD", sigma=1e-6),
        LineSearchConfig(noise_relaxation=0.0, max_iters=40), np.full(6, 0.5))
    f_vals = [r.f for r in trace.records if r.alpha > 0]
    assert len(f_vals) >= 3
    assert all(b < a for a, b in zip(f_vals, f_vals[1:]))


def test_budget_accounting_is_exact():
    oracle = NoisyOracle(make_sincos(8, 1.0, 2.0))
    trace = run_dfo(
        oracle, EstimatorConfig(method="FFD", sigma=1e-5),
        LineSearchConfig(eval_budget=150, max_iters=10**6), np.full(8, 0.4))
    assert trace.records[-1].evals_cumulative == oracle.eval_count
    evals = [r.evals_cumulative for r in trace.records]
    assert all(b >= a for a, b in zip(evals, evals[1:]))
    assert trace.termination in ("eval_budget", "grad_norm_stop")


def test_trace_length_capped_by_max_iters():
    oracle = NoisyOracle(make_linear(np.ones(3)))  # unbounded below
    trace = run_dfo(
        oracle, EstimatorConfig(method="FFD", sigma=1e-5),
        LineSearchConfig(max_iters=17), np.zeros(3))
    assert trace.termination == "max_iters"
    assert len(trace.records) <= 17
    f_vals = [r.f for r in trace.records]
    assert all(b < a for a, b in zip(f_vals, f_vals[1:]))  # descent on linear


def test_armijo_recheckable_from_trace():
    p = make_sincos(6, 1.0, 2.0)
    oracle = NoisyOracle(p)
    cfg = LineSearchConfig(direction="steepest_descent", noise_relaxation=0.0,
                           max_iters=30)
    x0 = np.full(6, 0.5)
    trace = run_dfo(oracle, EstimatorConfig(method="FFD", sigma=1e-6), cfg, x0)
    f_prev = p.value_at(x0)
    for rec in trace.records:
        if rec.alpha > 0:
            assert rec.f <= f_prev + cfg.c1 * rec.alpha * rec.slope + 1e-12
        f_prev = rec.f


def test_rosenbrock_linesearch_solves_to_1e5():
    problem, x0 = get_problem("rosenbrock2")
    oracle = NoisyOracle(problem)
    trace = run_dfo(
        oracle, EstimatorConfig(method="FFD", sigma=1e-5),
        LineSearchConfig(eval_budget=10**4, max_iters=10**6), x0)
    assert problem.value_at(trace.records[-1].x) <= 1e-5


def test_step_failure_terminates_after_three_strikes():
    # heavy noise on a flat function with no relaxation: nearly every
    # candidate step is rejected, so step failures accumulate
    flat = make_quadratic(np.diag([1e-14, 1e-14]), np.zeros(2), name="flat2")
    oracle = NoisyOracle(flat, NoiseModel("uniform_iid", 0.5, seed=3))
    trace = run_dfo(
        oracle, EstimatorConfig(method="FFD", sigma=1e-9),
        LineSearchConfig(noise_relaxation=0.0, max_iters=50),
        np.full(2, 1e-7))
    assert trace.termination in ("step_failure", "max_iters")
    if trace.termination == "step_failure":
        tail = trace.records[-3:]
        assert all(r.alpha == 0.0 for r in tail)
        assert all(r.backtracks == MAX_BACKTRACKS + 1 for r in tail)  # failure marker


def test_step_after_a_step_failure_starts_at_half_alpha0():
    # phi = 1 + |x - 1| except 0 in a narrow window around x = 0.85. From
    # x0 = 1 the estimate is g = 1, so the probes are x = 1 - alpha: no
    # alpha in {BACKTRACK^k} reaches the window, so the first search fails;
    # from alpha0 / 2 the second probe, 0.15, lands in it.
    def value(x):
        return 0.0 if abs(x[0] - 0.85) < 0.01 else 1.0 + abs(x[0] - 1.0)

    p = ObjectiveFunction(name="window", n=1, value_at=value,
                          gradient_at=lambda x: np.sign(x - 1.0), lipschitz_gradient=1.0)
    trace = run_dfo(NoisyOracle(p), EstimatorConfig(method="FFD", sigma=1e-5),
                    LineSearchConfig(max_iters=10), np.ones(1))
    pairs = [(a, b) for a, b in zip(trace.records, trace.records[1:])
             if a.backtracks == MAX_BACKTRACKS + 1 and b.alpha > 0]
    assert pairs
    for failed, accepted in pairs:
        assert failed.alpha == 0.0
        assert accepted.alpha == (ALPHA0 / 2) * BACKTRACK**accepted.backtracks


@pytest.mark.parametrize("ls_cfg, termination", [
    (LineSearchConfig(eval_budget=1, max_iters=10), "eval_budget"),
    (LineSearchConfig(max_iters=0), "max_iters"),
])
def test_run_stopped_before_its_first_estimate_records_x0(ls_cfg, termination):
    oracle = quad_oracle([1.0, 1.0])
    x0 = np.array([1.0, 2.0])
    trace = run_dfo(oracle, EstimatorConfig(method="FFD", sigma=1e-5), ls_cfg, x0)
    assert trace.termination == termination
    [rec] = trace.records
    assert rec.iteration == 0 and rec.f == 2.5 and math.isnan(rec.grad_est_norm)
    assert rec.alpha == 0.0 and rec.evals_cumulative == oracle.eval_count == 1
    assert np.array_equal(rec.x, x0)


def test_nonfinite_estimate_stops_in_place():
    # phi leaves its domain at x[0] > 1; from x0[0] = 0.995 the FFD probe
    # along e_0 crosses that line, so the first estimate carries a NaN
    def value(x):
        return math.nan if x[0] > 1 else float(x @ x)

    p = ObjectiveFunction(name="edge", n=3, value_at=value,
                          gradient_at=lambda x: 2 * x, lipschitz_gradient=2.0)
    oracle = NoisyOracle(p)
    x0 = np.array([0.995, 0.3, -0.2])
    trace = run_dfo(oracle, EstimatorConfig(method="FFD", sigma=1e-2),
                    LineSearchConfig(max_iters=50), x0)
    assert trace.termination == "nonfinite"
    assert oracle.eval_count == 1 + (3 + 1)  # f(x0), then one FFD estimate
    [rec] = trace.records
    assert rec.alpha == 0.0 and rec.evals_cumulative == oracle.eval_count
    assert np.array_equal(rec.x, x0)


def test_grad_norm_stop_writes_terminal_row():
    oracle = quad_oracle([2.0, 2.0])
    trace = run_dfo(
        oracle, EstimatorConfig(method="CFD", sigma=1e-6),
        LineSearchConfig(grad_norm_stop=1e-7, max_iters=100), np.ones(2))
    assert trace.termination == "grad_norm_stop"
    last = trace.records[-1]
    assert last.alpha == 0.0 and last.backtracks == 0
    assert last.grad_est_norm <= 1e-7


def test_relative_grad_stop_default():
    oracle = quad_oracle([1.0, 4.0])
    trace = run_dfo(
        oracle, EstimatorConfig(method="CFD", sigma=1e-7),
        LineSearchConfig(max_iters=400), np.ones(2))
    assert trace.termination == "grad_norm_stop"
    g0 = np.linalg.norm(oracle.objective.gradient_at(np.ones(2)))
    assert trace.records[-1].grad_est_norm <= 1e-6 * g0 * (1 + 1e-6)


def test_norm_condition_sufficiency_along_trajectory(base_seed):
    """Estimates drawn with condition_table's (sigma, N) keep theta < 1/2 on
    >= 1 - delta - 0.05 of sampled iterations where the guarantee applies."""
    theta, delta, eps_f = 0.5, 0.1, 1e-6
    problem = make_sincos(20, 1.0, 2.0)
    rep = condition_table("GSG", 20, theta, delta, L=2.0, M=1.0, eps_f=eps_f,
                          grad_norm=math.sqrt(10))
    assert rep.interval == "nonempty"
    sigma = math.sqrt(rep.sigma_lo * rep.sigma_hi)
    noise = NoiseModel("uniform_iid", eps_f, seed=base_seed)
    oracle = NoisyOracle(problem, noise, rng=RngStream(base_seed).generator(0))
    est_cfg = EstimatorConfig(method="GSG", sigma=sigma, N=rep.n_min)
    trace = run_dfo(oracle, est_cfg,
                    LineSearchConfig(max_iters=40, grad_norm_stop=1e-12),
                    np.zeros(20), rng=RngStream(base_seed).generator(1))
    eligible = [r.x for r in trace.records if r.true_grad_norm >= rep.grad_norm_min]
    assert len(eligible) >= 3, "trajectory left the guarantee region too fast"
    samples, fails = 0, 0
    per_point = max(1, math.ceil(1000 / len(eligible)))
    for i, x in enumerate(eligible):
        grad = problem.gradient_at(x)
        for t in range(per_point):
            o = NoisyOracle(problem, noise, rng=RngStream(base_seed).generator(2, i, t))
            rng = RngStream(base_seed).generator(3, i, t)
            est = estimate(o, x, est_cfg, rng)
            samples += 1
            if relative_error(est, grad) > theta:
                fails += 1
    assert samples >= 1000
    assert fails / samples <= delta + 0.05


# -------------------------------------------------------------- null step

def test_noise_free_ffd_run_stops_on_its_null_step():
    # at iteration 26 the L-BFGS step from alpha = 1 backtracks 25 times to
    # alpha = 8.5e-14, where x + alpha d rounds back to x; every later
    # iteration would repeat that one until the budget ran out
    problem, x0 = get_problem("rosenbrock2")
    oracle = NoisyOracle(problem)
    trace = run_dfo(oracle, EstimatorConfig(method="FFD", sigma=1e-2),
                    LineSearchConfig(eval_budget=600), x0)
    assert trace.termination == "null_step"
    assert len(trace.records) == 27 and oracle.eval_count == 145 < 600
    prev, last = trace.records[-2:]
    assert last.alpha > 0 and last.backtracks == 25
    assert last.x.tobytes() == prev.x.tobytes() and last.f == prev.f


def test_the_step_after_a_null_step_repeats_it():
    # steepest descent: one more estimate and search from the final state
    # reproduce the final record, so run_dfo lost nothing by stopping
    problem, x0 = get_problem("trig10")
    oracle = NoisyOracle(problem)
    est_cfg = EstimatorConfig(method="FFD", sigma=1e-2)
    ls_cfg = LineSearchConfig(direction="steepest_descent", eval_budget=600)
    trace = run_dfo(oracle, est_cfg, ls_cfg, x0)
    assert trace.termination == "null_step" and oracle.eval_count < 600
    last = trace.records[-1]
    g = estimate(oracle, last.x, est_cfg).g
    assert float(np.linalg.norm(g)) == last.grad_est_norm
    assert float(np.dot(g, -g)) == last.slope
    alpha, x_new, f_new, backtracks = armijo_search(oracle, last.x, -g, g, last.f, ls_cfg)
    assert (alpha, f_new, backtracks) == (last.alpha, last.f, last.backtracks)
    assert x_new.tobytes() == last.x.tobytes()


@pytest.mark.parametrize("noise, est_cfg", [
    # noise of 1e-20 leaves every f value of the noise-free run unchanged, so
    # the run takes the same null steps, but it draws and so goes on
    (NoiseModel("uniform_iid", 1e-20, seed=3), EstimatorConfig(method="FFD", sigma=1e-2)),
    (NoiseModel(), EstimatorConfig(method="GSG", sigma=1e-2, N=2)),
])
def test_runs_that_draw_never_end_on_a_null_step(noise, est_cfg):
    problem, x0 = get_problem("rosenbrock2")
    trace = run_dfo(NoisyOracle(problem, noise), est_cfg, LineSearchConfig(eval_budget=600),
                    x0, rng=RngStream(0).generator())
    assert trace.termination == "eval_budget"
    xs = [x0] + [r.x for r in trace.records]
    null_steps = [r for r, x in zip(trace.records, xs) if r.alpha > 0
                  and r.x.tobytes() == x.tobytes()]
    assert len(null_steps) >= 10


def test_a_null_step_after_a_step_failure_stops_a_deterministic_run():
    # phi = 1 + |x - 2| from x0 = 2, where g = 1: from alpha0 = 1 every probe
    # 2 - alpha moves x and raises f, so the search fails; from alpha0 / 2 the
    # last probe, 2 - 1.03e-16, rounds to 2 and is accepted. The run is back
    # where its first search started, so it stops there
    p = ObjectiveFunction(name="kink", n=1, value_at=lambda x: 1.0 + abs(x[0] - 2.0),
                          gradient_at=lambda x: np.sign(x - 2.0), lipschitz_gradient=1.0)
    oracle = NoisyOracle(p)
    est_cfg, ls_cfg = EstimatorConfig(method="FFD", sigma=1e-5), LineSearchConfig(max_iters=6)
    trace = run_dfo(oracle, est_cfg, ls_cfg, np.full(1, 2.0))
    assert trace.termination == "null_step"
    assert [r.backtracks for r in trace.records] == [MAX_BACKTRACKS + 1, MAX_BACKTRACKS]
    assert all(r.x[0] == 2.0 and r.f == 1.0 for r in trace.records)
    failure, null = trace.records
    assert failure.alpha == 0 and null.alpha > 0
    # one more iteration would repeat both records
    g = estimate(oracle, null.x, est_cfg).g
    assert float(np.linalg.norm(g)) == null.grad_est_norm == failure.grad_est_norm
    with pytest.raises(StepFailure):
        armijo_search(oracle, null.x, -g, g, null.f, ls_cfg)
    alpha, x_new, f_new, backtracks = armijo_search(oracle, null.x, -g, g, null.f, ls_cfg,
                                                    ALPHA0 / 2)
    assert (alpha, f_new, backtracks) == (null.alpha, null.f, null.backtracks)
    assert x_new.tobytes() == null.x.tobytes()


def test_sinusoidal_noise_and_fixed_directions_are_deterministic():
    assert NoiseModel().deterministic
    assert NoiseModel("uniform_iid", 0.0).deterministic
    assert NoiseModel("sinusoidal_deterministic", 1e-3).deterministic
    assert not NoiseModel("uniform_iid", 1e-20).deterministic
    frame = DirectionSet(np.eye(2))
    assert EstimatorConfig(method="CFD", sigma=1e-2).deterministic
    assert EstimatorConfig(method="LI", sigma=1e-2, direction_source=frame).deterministic
    assert not EstimatorConfig(method="LI", sigma=1e-2).deterministic
    assert not EstimatorConfig(method="cBSG", sigma=1e-2, N=4).deterministic
    # LI on the axes is FFD; both stop at the same null step, and so does FFD
    # under sinusoidal noise too small to move f
    problem, x0 = get_problem("rosenbrock2")
    ffd = EstimatorConfig(method="FFD", sigma=1e-2)
    runs = [(NoiseModel(), EstimatorConfig(method="LI", sigma=1e-2, direction_source=frame)),
            (NoiseModel("sinusoidal_deterministic", 1e-20), ffd), (NoiseModel(), ffd)]
    csv = []
    for noise, est_cfg in runs:
        trace = run_dfo(NoisyOracle(problem, noise), est_cfg,
                        LineSearchConfig(eval_budget=600), x0)
        assert trace.termination == "null_step" and trace.evals_used == 145
        buf = io.StringIO()
        trace.to_csv(buf)
        csv.append(buf.getvalue())
    assert csv[0] == csv[1] == csv[2]


# -------------------------------------------------------------- fixed step

def fixed_step(alpha, budget, **kw):
    return LineSearchConfig(step=alpha, direction="steepest_descent", eval_budget=budget,
                            **kw)


def test_fixed_step_contracts_on_sphere_quadratic():
    oracle = quad_oracle([1.0, 1.0])
    trace = run_dfo(
        oracle, EstimatorConfig(method="CFD", sigma=1e-7),
        fixed_step(0.5, 120, grad_norm_stop=0.0), np.array([8.0, -8.0]))
    xs = np.array([r.x for r in trace.records])
    ratios = np.linalg.norm(xs[1:], axis=1) / np.linalg.norm(xs[:-1], axis=1)
    assert np.max(np.abs(ratios - 0.5)) < 1e-5
    assert trace.records[0].x == pytest.approx([4.0, -4.0])  # arrival rows
    # f(x0), then 4 CFD evaluations and one probe per step, each step
    # starting under the budget
    assert trace.termination == "eval_budget"
    assert [r.evals_cumulative for r in trace.records] == [1 + 5 * k for k in range(1, 25)]


def test_fixed_step_divergence_detection():
    oracle = quad_oracle([1.0, 1.0])
    trace = run_dfo(
        oracle, EstimatorConfig(method="CFD", sigma=1e-7), fixed_step(2.5, 10**4),
        np.array([1.0, 1.0]))
    assert trace.termination == "divergence"
    f_tail = [r.f for r in trace.records[-6:-1]]
    assert all(b > a for a, b in zip(f_tail, f_tail[1:]))


def test_fixed_step_divergence_on_a_nonfinite_arrival():
    # phi leaves its domain at x[0] < 0: the first step lands there
    def value(x):
        return math.nan if x[0] < 0 else float(x @ x)

    p = ObjectiveFunction(name="edge", n=2, value_at=value,
                          gradient_at=lambda x: 2 * x, lipschitz_gradient=2.0)
    oracle = NoisyOracle(p)
    trace = run_dfo(oracle, EstimatorConfig(method="CFD", sigma=1e-6),
                    fixed_step(1.0, 100), np.array([1.0, 1.0]))
    assert trace.termination == "divergence"
    [rec] = trace.records
    assert math.isnan(rec.f) and rec.alpha == 1.0
    assert rec.evals_cumulative == oracle.eval_count == 1 + 4 + 1


def test_fixed_step_argument_validation():
    for alpha in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="fixed step alpha must be positive and finite"):
            fixed_step(alpha, 10)
    with pytest.raises(ValueError, match="budget must be positive"):
        fixed_step(0.1, 0)
    with pytest.raises(ValueError, match="fixed step takes direction sd"):
        LineSearchConfig(step=0.1, direction="lbfgs")


def test_fixed_step_honours_max_iters_and_grad_norm_stop():
    oracle = quad_oracle([1.0, 1.0])
    cfg = EstimatorConfig(method="CFD", sigma=1e-7)
    trace = run_dfo(oracle, cfg, fixed_step(0.5, 10**4, max_iters=3), np.ones(2))
    assert trace.termination == "max_iters" and len(trace.records) == 3
    trace = run_dfo(oracle, cfg, fixed_step(0.5, 10**4, grad_norm_stop=0.1), np.ones(2))
    assert trace.termination == "grad_norm_stop"
    last = trace.records[-1]
    assert last.alpha == 0.0 and last.grad_est_norm <= 0.1


def test_fixed_step_gsg_smoke_on_rosenbrock():
    problem, x0 = get_problem("rosenbrock2")
    oracle = NoisyOracle(problem)
    trace = run_dfo(
        oracle, EstimatorConfig(method="GSG", sigma=1e-5, N=2),
        fixed_step(1e-3, 10**5, max_iters=None, grad_norm_stop=0.0), x0,
        rng=RngStream(53).generator())
    # with no iteration cap and no gradient stop the run goes on until f rises
    # five times in a row, after 11,820 steps and 47,281 evaluations
    assert trace.termination == "divergence" and len(trace.records) > 10**4
    assert all(np.all(np.isfinite(r.x)) for r in trace.records)
    assert trace.records[-1].evals_cumulative == oracle.eval_count


# ------------------------------------------------------------------ trace

def test_trace_csv_format_and_nan_handling():
    p = make_quadratic(np.diag([1.0, 2.0]), np.zeros(2), name="q2")
    oracle = NoisyOracle(p)
    trace = run_dfo(
        oracle, EstimatorConfig(method="CFD", sigma=1e-6), fixed_step(0.2, 20),
        np.ones(2))
    buf = io.StringIO()
    trace.to_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert lines[1].split(",")[3] == f"{trace.records[0].true_grad_norm:.17g}"
    rows = [line.split(",") for line in lines[1:]]
    col = np.array([float(row[3]) for row in rows])
    assert np.array_equal(col, [r.true_grad_norm for r in trace.records])
    assert np.all(np.array([float(row[1]) for row in rows])
                  == np.array([r.f for r in trace.records]))
    # non-finite values render as nan, like every other float
    nan_row = OptimizationTrace([IterationRecord(0, np.ones(2), 1.0, math.nan, math.nan,
                                                 0.0, 3, 0, 0.0)])
    buf = io.StringIO()
    nan_row.to_csv(buf)
    assert buf.getvalue().split("\n")[1] == "0,1,nan,nan,0,3,0"


# ----------------------------------------------------- run_dfo properties

STANDARD = [name for name, _, _ in make_standard_problems()]


def _estimate_cost(method, n, N):
    k = n if method in ("FFD", "CFD", "LI") else N
    return 2 * k if method in CENTRAL else k + 1


def _property_run(name, method, N, fixed, sigma, noise, direction, step, budget, seed):
    """A fresh oracle and run_dfo call: the same arguments give the same run."""
    problem, x0 = get_problem(name)
    n = problem.n
    source = None
    if fixed and method not in ("FFD", "CFD"):
        k = n if method == "LI" else N
        source = DirectionSet(np.random.default_rng(seed).standard_normal((k, n)))
    est_cfg = EstimatorConfig(method=method, sigma=sigma, N=N, direction_source=source)
    ls_cfg = LineSearchConfig(direction=direction, step=step, eval_budget=budget,
                              max_iters=None)
    oracle = NoisyOracle(problem, noise)
    trace = run_dfo(oracle, est_cfg, ls_cfg, x0, rng=RngStream(seed).generator(1))
    return problem, x0, est_cfg, ls_cfg, oracle, trace


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(STANDARD),
    method=st.sampled_from(METHODS),
    N=st.integers(1, 8),
    fixed=st.booleans(),
    sigma=st.sampled_from([1e-1, 1e-3, 1e-6]),
    kind=st.sampled_from(NOISE_KINDS),
    level=st.sampled_from([0.0, 1e-20, 1e-8, 1e-3]),
    rule=st.sampled_from([("lbfgs", None), ("steepest_descent", None),
                          ("steepest_descent", 1e-3), ("steepest_descent", 0.1)]),
    budget=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
@example(name="rosenbrock2", method="FFD", N=1, fixed=False, sigma=1e-2, kind="none",
         level=0.0, rule=("lbfgs", None), budget=300, seed=0)
@example(name="rosenbrock2", method="FFD", N=1, fixed=False, sigma=1e-2, kind="uniform_iid",
         level=1e-20, rule=("lbfgs", None), budget=300, seed=0)
def test_run_dfo_properties(name, method, N, fixed, sigma, kind, level, rule, budget, seed):
    noise = NoiseModel(kind, 0.0 if kind == "none" else level, seed=seed)
    direction, step = rule
    args = (name, method, N, fixed, sigma, noise, direction, step, budget, seed)
    problem, x0, est_cfg, ls_cfg, oracle, trace = _property_run(*args)
    records = trace.records
    cost = _estimate_cost(method, problem.n, N)
    deterministic = noise.deterministic and est_cfg.deterministic

    # exact accounting: f(x0), then each iteration's estimate and probes,
    # every iteration starting under the budget
    assert records[-1].evals_cumulative == oracle.eval_count
    if math.isnan(records[0].grad_est_norm):
        assert len(records) == 1 and oracle.eval_count == 1
    else:
        evals = 1
        for r in records:
            assert evals < budget
            probes = (r.backtracks + 1 if r.alpha > 0
                      else MAX_BACKTRACKS + 1 if r.backtracks == MAX_BACKTRACKS + 1 else 0)
            assert r.evals_cumulative - evals == cost + probes
            evals = r.evals_cumulative
    if trace.termination == "eval_budget":
        assert oracle.eval_count >= budget

    # each accepted Armijo step passes the relaxed test that accepted it,
    # recomputed from the trace; f(x0) is the first value of a fresh oracle
    f_prev = NoisyOracle(problem, noise)(x0)
    relax = 2.0 * noise.level
    for r in records:
        if step is None and r.alpha > 0:
            assert r.f <= f_prev + ls_cfg.c1 * r.alpha * r.slope + relax
        f_prev = r.f

    # null_step ends only a deterministic run, on a step that stayed at x;
    # in a deterministic run no earlier step did
    xs = [x0] + [r.x for r in records]
    null = [r.alpha > 0 and r.x.tobytes() == x.tobytes() for r, x in zip(records, xs)]
    if trace.termination == "null_step":
        assert deterministic and null[-1]
    if deterministic:
        assert not any(null[:-1])

    # the same arguments give the same trace
    again = _property_run(*args)[-1]
    assert again.termination == trace.termination
    one, two = io.StringIO(), io.StringIO()
    trace.to_csv(one)
    again.to_csv(two)
    assert one.getvalue() == two.getvalue()
    assert all(a.x.tobytes() == b.x.tobytes() for a, b in zip(records, again.records))
