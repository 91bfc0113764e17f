"""Line search, L-BFGS directions, and the DFO driver loop."""

import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradest.bounds import condition_table
from gradest.core import (
    NoiseModel,
    NoisyOracle,
    ObjectiveFunction,
    get_problem,
    make_linear,
    make_quadratic,
    make_sincos,
)
from gradest.estimators import EstimatorConfig, estimate, relative_error
from gradest.optimizer import (
    CURVATURE_GUARD,
    TRACE_COLUMNS,
    CurvaturePair,
    IterationRecord,
    LineSearchConfig,
    NotDescent,
    OptimizationTrace,
    StepFailure,
    armijo_search,
    fixed_step_dfo,
    lbfgs_direction,
    run_dfo,
)
from gradest.sampling import RngStream


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
    cfg = LineSearchConfig(max_backtracks=5, noise_relaxation=0.0)
    with pytest.raises(StepFailure):
        armijo_search(oracle, np.zeros(1), np.array([1.0]), np.array([-1.0]),
                      0.0, cfg)
    assert oracle.eval_count == 6  # max_backtracks + 1 probes


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
        armijo_search(rising, x, d, g, 0.0, LineSearchConfig(max_backtracks=8))


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
        LineSearchConfig(backtrack=1.0)
    with pytest.raises(ValueError):
        LineSearchConfig(alpha0=-1.0)
    with pytest.raises(ValueError):
        LineSearchConfig(direction="newton")
    with pytest.raises(ValueError):
        run_dfo(quad_oracle([1.0]), EstimatorConfig(method="CFD", sigma=1e-4),
                LineSearchConfig(max_iters=None, eval_budget=None), np.ones(1))
    with pytest.raises(ValueError, match="rng"):  # GSG draws: no seed fallback
        run_dfo(quad_oracle([1.0]), EstimatorConfig(method="GSG", sigma=1e-4, N=2),
                LineSearchConfig(max_iters=5), np.ones(1))


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
            oracle.objective.gradient_at(trace.final_x)) <= 1e-6


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
    assert problem.value_at(trace.final_x) <= 1e-5


def test_step_failure_terminates_after_three_strikes():
    # heavy noise on a flat function with no relaxation: nearly every
    # candidate step is rejected, so step failures accumulate
    flat = make_quadratic(np.diag([1e-14, 1e-14]), np.zeros(2), name="flat2")
    oracle = NoisyOracle(flat, NoiseModel("uniform_iid", 0.5, seed=3))
    trace = run_dfo(
        oracle, EstimatorConfig(method="FFD", sigma=1e-9),
        LineSearchConfig(noise_relaxation=0.0, max_backtracks=3, max_iters=50),
        np.full(2, 1e-7))
    assert trace.termination in ("step_failure", "max_iters")
    if trace.termination == "step_failure":
        tail = trace.records[-3:]
        assert all(r.alpha == 0.0 for r in tail)
        assert all(r.backtracks == 4 for r in tail)  # max_backtracks + 1 marker


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
            o = oracle.clone(2, i, t)
            rng = RngStream(base_seed).generator(3, i, t)
            est = estimate(o, x, est_cfg, rng)
            samples += 1
            if relative_error(est, grad) > theta:
                fails += 1
    assert samples >= 1000
    assert fails / samples <= delta + 0.05


# -------------------------------------------------------------- fixed step

def test_fixed_step_contracts_on_sphere_quadratic():
    oracle = quad_oracle([1.0, 1.0])
    trace = fixed_step_dfo(
        oracle, EstimatorConfig(method="CFD", sigma=1e-7), 0.5,
        np.array([8.0, -8.0]), budget=120)
    xs = np.array([r.x for r in trace.records])
    ratios = np.linalg.norm(xs[1:], axis=1) / np.linalg.norm(xs[:-1], axis=1)
    assert np.max(np.abs(ratios - 0.5)) < 1e-5
    assert trace.records[0].x == pytest.approx([8.0, -8.0])  # departure rows


def test_fixed_step_divergence_detection():
    oracle = quad_oracle([1.0, 1.0])
    trace = fixed_step_dfo(
        oracle, EstimatorConfig(method="CFD", sigma=1e-7), 2.5,
        np.array([1.0, 1.0]), budget=10**4)
    assert trace.termination == "divergence"
    f_tail = [r.f for r in trace.records[-6:-1]]
    assert all(b > a for a, b in zip(f_tail, f_tail[1:]))


def test_fixed_step_argument_validation():
    oracle = quad_oracle([1.0])
    cfg = EstimatorConfig(method="CFD", sigma=1e-7)
    with pytest.raises(ValueError):
        fixed_step_dfo(oracle, cfg, 0.0, np.ones(1), budget=10)
    with pytest.raises(ValueError):
        fixed_step_dfo(oracle, cfg, 0.1, np.ones(1), budget=0)


def test_fixed_step_gsg_smoke_on_rosenbrock():
    problem, x0 = get_problem("rosenbrock2")
    oracle = NoisyOracle(problem)
    trace = fixed_step_dfo(
        oracle, EstimatorConfig(method="GSG", sigma=1e-5, N=2), 1e-3, x0,
        budget=10**5, rng=RngStream(53).generator())
    assert trace.records
    assert all(np.all(np.isfinite(r.x)) for r in trace.records)
    assert trace.records[-1].evals_cumulative == oracle.eval_count


# ------------------------------------------------------------------ trace

def test_trace_csv_format_and_nan_handling():
    p = make_quadratic(np.diag([1.0, 2.0]), np.zeros(2), name="q2")
    oracle = NoisyOracle(p)
    trace = fixed_step_dfo(
        oracle, EstimatorConfig(method="CFD", sigma=1e-6), 0.2,
        np.ones(2), budget=20)
    text = trace.to_csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert lines[1].split(",")[3] == f"{trace.records[0].true_grad_norm:.17g}"
    buf = io.StringIO()
    trace.to_csv(buf)
    assert buf.getvalue() == text
    col = trace.column("true_grad_norm")
    assert np.array_equal(col, [r.true_grad_norm for r in trace.records])
    assert np.all(trace.column("f") == np.array([r.f for r in trace.records]))
    # non-finite values render as nan, like every other float
    nan_row = OptimizationTrace([IterationRecord(0, np.ones(2), 1.0, math.nan, math.nan,
                                                 0.0, 3, 0, 0.0)])
    assert nan_row.to_csv_text().split("\n")[1] == "0,1,nan,nan,0,3,0"
