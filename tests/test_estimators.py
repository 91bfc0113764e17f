"""The seven gradient estimators: exactness, accounting, and error laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_mean_within, run_with_resample
from gradest.bounds import SMOOTHING
from gradest.core import (NOISE_KINDS, NoiseModel, NoisyOracle, make_linear, make_quadratic,
                          make_sincos, make_standard_problems)
from gradest.estimators import (
    CENTRAL,
    METHODS,
    EstimatorConfig,
    SingularDirections,
    estimate,
    estimate_trials,
    method_name,
    relative_error,
    _stack_estimates,
    trial_directions,
)
from gradest.sampling import DirectionSet, RngStream, orthonormal_directions


def clean_oracle(problem):
    return NoisyOracle(problem)


@pytest.mark.parametrize("n,T", [(1, 1), (2, 3), (7, 1), (20, 4)])
def test_axis_directions_are_the_identity_stack(n, T):
    for method in ("FFD", "CFD"):
        Q = trial_directions(method, n, None, T, None)
        assert Q.tobytes() == np.eye(n)[None].repeat(T, axis=0).tobytes()


def test_ffd_cfd_exact_on_linear():
    p = make_linear(np.array([2.0, -1.0, 0.5]))
    x = np.array([0.3, 1.0, -2.0])
    for method in ("FFD", "CFD"):
        est = estimate(clean_oracle(p), x, EstimatorConfig(method, 0.1))
        assert np.max(np.abs(est.g - p.gradient_at(x))) < 1e-12


def test_cfd_exact_on_quadratics():
    A = np.array([[3.0, 1.0], [1.0, 2.0]])
    p = make_quadratic(A, np.array([1.0, -1.0]))
    x = np.array([0.7, -0.4])
    est = estimate(clean_oracle(p), x, EstimatorConfig("CFD", 0.05))
    assert np.max(np.abs(est.g - p.gradient_at(x))) < 1e-10


def test_ffd_bias_on_quadratic_is_half_sigma_diag():
    # for phi = x'Ax/2, [FFD - grad]_i = sigma * A_ii / 2 exactly
    A = np.diag([1.0, 4.0, 9.0])
    p = make_quadratic(A, np.zeros(3))
    x = np.array([0.2, -0.1, 0.5])
    sigma = 0.01
    est = estimate(clean_oracle(p), x, EstimatorConfig("FFD", sigma))
    bias = est.g - p.gradient_at(x)
    assert np.max(np.abs(bias - sigma * np.diag(A) / 2)) < 1e-10


def test_evaluation_accounting():
    n, N = 6, 9
    p = make_sincos(n, 1.0, 2.0)
    x = np.full(n, 0.2)
    rng = RngStream(3).generator()
    coordinate = DirectionSet(np.eye(n))
    cases = [
        (EstimatorConfig("FFD", 0.01), n + 1),
        (EstimatorConfig("CFD", 0.01), 2 * n),
        (EstimatorConfig("LI", 0.01, direction_source=coordinate), n + 1),
        (EstimatorConfig("GSG", 0.01, N), N + 1),
        (EstimatorConfig("cGSG", 0.01, N), 2 * N),
        (EstimatorConfig("BSG", 0.01, N), N + 1),
        (EstimatorConfig("cBSG", 0.01, N), 2 * N),
    ]
    for cfg, expected in cases:
        oracle = clean_oracle(p)
        est = estimate(oracle, x, cfg, rng)
        assert oracle.eval_count == expected
        assert est.evals_used == expected


@pytest.mark.parametrize("method, per_trial", [
    ("FFD", lambda n, N: n + 1), ("CFD", lambda n, N: 2 * n),
    ("LI", lambda n, N: n + 1), ("GSG", lambda n, N: N + 1),
    ("cGSG", lambda n, N: 2 * N), ("BSG", lambda n, N: N + 1),
    ("cBSG", lambda n, N: 2 * N)])
def test_batched_cell_evaluation_accounting(method, per_trial):
    n, N, T = 6, 9, 7
    oracle = clean_oracle(make_sincos(n, 1.0, 2.0))
    rng = RngStream(13).generator()
    config = EstimatorConfig(method, 0.01, N if method in SMOOTHING else None)
    G, cond, qinv = estimate_trials(oracle, np.full(n, 0.2), config, T, rng)
    assert G.shape == (T, n)
    assert oracle.eval_count == T * per_trial(n, N)
    assert (cond is None) == (method != "LI")


@pytest.mark.parametrize("method", ["FFD", "CFD", "LI", "GSG", "cGSG", "BSG", "cBSG"])
def test_batched_core_matches_one_trial_at_a_time(method):
    # one noisy oracle stream read in trial order: a cell of T trials in one
    # batch equals T consecutive single estimates on the same stream, up to
    # the objective's batch-size-dependent rounding
    n, N, T = 6, 5, 4
    p = make_sincos(n, 1.0, 2.0)
    x = np.linspace(-0.3, 0.4, n)
    noise = NoiseModel("uniform_iid", 1e-3, seed=1)
    Q = trial_directions(method, n, N, T, RngStream(14).generator())
    batched = NoisyOracle(p, noise, rng=RngStream(15).generator())
    rng = RngStream(14).generator()
    config = EstimatorConfig(method, 0.05, N if method in SMOOTHING else None)
    G, _, qinv = estimate_trials(batched, x, config, T, rng)
    single = NoisyOracle(p, noise, rng=RngStream(15).generator())
    for t in range(T):
        source = None if method in ("FFD", "CFD") else DirectionSet(Q[t])
        est = estimate(single, x, EstimatorConfig(method, 0.05, config.N,
                                                  direction_source=source))
        if method == "LI":
            assert abs(est.qinv_norm - qinv[t]) <= 1e-12 * qinv[t]
        assert np.max(np.abs(est.g - G[t])) <= 1e-9 * max(1.0, np.max(np.abs(G[t])))
    assert single.eval_count == batched.eval_count


def test_batched_li_redraws_a_singular_frame_once():
    n = 3
    row = np.array([0.6, 0.8, 0.0])
    singular = np.vstack([row, row, [0.0, 0.0, 1.0]])
    good = trial_directions("LI", n, n, 1, RngStream(16).generator())[0]
    Q = np.stack([good, singular])
    p = make_linear(np.array([1.0, -2.0, 0.5]))
    oracle = clean_oracle(p)
    with pytest.raises(SingularDirections):
        _stack_estimates(oracle, np.zeros(n), "LI", 0.1, Q)
    assert oracle.eval_count == 0
    with pytest.raises(SingularDirections):
        _stack_estimates(oracle, np.zeros(n), "LI", 0.1, Q,
                         redraw=lambda count: np.stack([singular] * count))
    assert oracle.eval_count == 0
    G, cond, _ = _stack_estimates(oracle, np.zeros(n), "LI", 0.1, Q,
                                  redraw=lambda count: np.stack([good] * count))
    assert np.max(np.abs(G - p.gradient_at(np.zeros(n)))) < 1e-10
    assert cond[0] == cond[1] < 1e12
    assert oracle.eval_count == 2 * (n + 1)


def test_li_on_coordinate_directions_equals_ffd():
    p = make_sincos(8, 1.0, 2.0)
    x = np.linspace(-0.5, 0.5, 8)
    sigma = 0.02
    g_ffd = estimate(clean_oracle(p), x, EstimatorConfig("FFD", sigma)).g
    coordinate = DirectionSet(np.eye(8))
    est = estimate(clean_oracle(p), x,
                   EstimatorConfig("LI", sigma, direction_source=coordinate))
    assert np.max(np.abs(est.g - g_ffd)) < 1e-12
    assert est.cond_Q == 1.0 and est.qinv_norm == 1.0


def test_li_on_a_fixed_haar_frame_solves_to_the_transpose():
    # Q^-1 = Q' on an orthonormal frame: the solve agrees with Q' d to
    # rounding, and the frame's condition number and ||Q^-1|| are 1
    n, sigma = 8, 0.02
    p = make_sincos(n, 1.0, 2.0)
    x = np.linspace(-0.5, 0.5, n)
    frame = orthonormal_directions(n, RngStream(12).generator())
    est = estimate(clean_oracle(p), x,
                   EstimatorConfig("LI", sigma, direction_source=frame))
    f = clean_oracle(p).eval_batch(np.vstack([x, x + sigma * frame.Q]))
    d = (f[1:] - f[0]) / sigma
    assert np.max(np.abs(est.g - frame.Q.T @ d)) < 1e-13
    assert abs(est.cond_Q - 1.0) < 1e-12 and abs(est.qinv_norm - 1.0) < 1e-12


def test_li_exact_on_linear_with_general_frame():
    a = np.array([1.0, -2.0, 0.25, 3.0])
    p = make_linear(a)
    est = estimate(clean_oracle(p), np.zeros(4), EstimatorConfig("LI", 0.1),
                   RngStream(4).generator())
    assert np.max(np.abs(est.g - a)) < 1e-10


def test_li_qinv_and_cond_match_svd():
    frame = DirectionSet(trial_directions("LI", 5, 5, 1, RngStream(5).generator())[0])
    p = make_linear(np.ones(5))
    est = estimate(clean_oracle(p), np.zeros(5),
                   EstimatorConfig("LI", 0.1, direction_source=frame))
    svals = np.linalg.svd(frame.Q, compute_uv=False)
    assert abs(est.cond_Q - svals[0] / svals[-1]) < 1e-10
    assert abs(est.qinv_norm - 1.0 / svals[-1]) < 1e-10


def test_li_singular_frame_rejected_before_any_evaluation():
    row = np.array([0.6, 0.8, 0.0])
    Q = np.vstack([row, row, [0.0, 0.0, 1.0]])
    frame = DirectionSet(Q)
    oracle = clean_oracle(make_linear(np.ones(3)))
    for rng in (None, RngStream(8).generator()):   # a fixed frame is never redrawn
        with pytest.raises(SingularDirections):
            estimate(oracle, np.zeros(3),
                     EstimatorConfig("LI", 0.1, direction_source=frame), rng)
    assert oracle.eval_count == 0


def test_li_requires_square_frame():
    frame = DirectionSet(trial_directions("GSG", 3, 5, 1, RngStream(6).generator())[0])
    with pytest.raises(ValueError):
        estimate(clean_oracle(make_linear(np.ones(3))), np.zeros(3),
                 EstimatorConfig("LI", 0.1, direction_source=frame))


def test_gsg_li_shared_direction_identity():
    # g_GSG = (1/n) Q'Q g_LI when both use the same square frame, no noise
    n = 6
    p = make_sincos(n, 1.0, 2.0)
    x = np.full(n, 0.1)
    frame = DirectionSet(trial_directions("GSG", n, n, 1, RngStream(7).generator())[0])
    sigma = 0.05
    g_li = estimate(clean_oracle(p), x, EstimatorConfig("LI", sigma, direction_source=frame)).g
    g_gsg = estimate(clean_oracle(p), x,
                     EstimatorConfig("GSG", sigma, n, direction_source=frame)).g
    assert np.max(np.abs(g_gsg - (frame.Q.T @ frame.Q) @ g_li / n)) < 1e-10


def test_smoothing_estimators_are_unbiased_on_linear():
    a = np.array([1.0, -1.0, 2.0])
    p = make_linear(a)
    x = np.zeros(3)
    for name in ("GSG", "cGSG", "BSG", "cBSG"):
        def check(factor, name=name):
            trials = 2000 * factor
            err = np.empty((trials, 3))
            for t in range(trials):
                rng = RngStream(8).generator(trials, t)
                err[t] = estimate(clean_oracle(p), x, EstimatorConfig(name, 0.5, 4), rng).g - a
            for i in range(3):
                assert_mean_within(err[:, i], 0.0, label=f"{name}[{i}]")

        run_with_resample(check)


def test_relative_error_values_and_zero_gradient():
    est = np.array([1.0, 1.0])
    truth = np.array([1.0, 0.0])
    assert abs(relative_error(est, truth) - 1.0) < 1e-15
    assert math.isnan(relative_error(est, np.zeros(2)))
    # a stack of T estimates gives T thetas, all nan at a vanished gradient
    thetas = relative_error(np.ones((3, 2)), np.zeros(2))
    assert thetas.shape == (3,) and np.all(np.isnan(thetas))


@settings(max_examples=200, deadline=None)
@given(T=st.integers(1, 40), n=st.integers(1, 40), log_scale=st.floats(-8.0, 8.0),
       seed=st.integers(0, 2**32 - 1))
def test_relative_error_of_a_stack_is_its_rows_bit_for_bit(T, n, log_scale, seed):
    rng = np.random.default_rng(seed)
    truth = rng.standard_normal(n)
    G = truth + 10.0 ** log_scale * rng.standard_normal((T, n))
    thetas = relative_error(G, truth)
    assert thetas.shape == (T,)
    rows = [relative_error(g, truth) for g in G]
    assert all(type(theta) is float for theta in rows)
    assert thetas.tolist() == rows


def test_estimator_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(method="newton", sigma=0.1)
    with pytest.raises(ValueError):
        EstimatorConfig(method="FFD", sigma=0.0)
    with pytest.raises(ValueError, match="N must be positive, got 0"):
        EstimatorConfig(method="GSG", sigma=0.1, N=0)
    with pytest.raises(ValueError, match="GSG requires N"):
        EstimatorConfig("GSG", 0.1)
    for N in (2.5, 4.0, True, np.float64(3.0)):
        with pytest.raises(ValueError, match="N must be an integer, got"):
            EstimatorConfig("GSG", 0.1, N)
    assert EstimatorConfig("GSG", 0.1, np.int64(3)).N == 3
    with pytest.raises(ValueError, match="direction_source"):
        EstimatorConfig(method="FFD", sigma=0.1,
                        direction_source=DirectionSet(np.eye(2)))
    for method in ("FFD", "CFD", "LI"):
        with pytest.raises(ValueError, match="N applies to the smoothing methods only"):
            EstimatorConfig(method=method, sigma=0.1, N=4)


def test_sigma_must_be_positive_and_finite():
    for sigma in (math.inf, math.nan, -0.1):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            EstimatorConfig(method="FFD", sigma=sigma)


def test_method_name_ignores_case_and_lists_choices():
    assert [method_name(m.lower()) for m in METHODS] == list(METHODS)
    assert method_name(" cbsg ") == "cBSG"
    with pytest.raises(ValueError, match="unknown estimator 'newton'; choices: FFD, CFD"):
        method_name("newton")


def test_estimate_dispatcher_contracts():
    p = make_sincos(4, 1.0, 2.0)
    x = np.zeros(4)
    with pytest.raises(ValueError, match="N"):
        estimate(clean_oracle(p), x, EstimatorConfig(method="GSG", sigma=0.1))
    with pytest.raises(ValueError, match="direction_source"):
        estimate(clean_oracle(p), x, EstimatorConfig(method="LI", sigma=0.1))
    # no seed fallback: a method that draws needs rng or fixed directions
    oracle = clean_oracle(p)
    with pytest.raises(ValueError, match="rng"):
        estimate(oracle, x, EstimatorConfig(method="GSG", sigma=0.1, N=3))
    assert oracle.eval_count == 0
    est = estimate(clean_oracle(p), x, EstimatorConfig(method="CFD", sigma=0.01))
    assert est.evals_used == 2 * 4
    frame = orthonormal_directions(4, RngStream(11).generator())
    est = estimate(clean_oracle(p), x,
                   EstimatorConfig(method="LI", sigma=0.01, direction_source=frame))
    assert est.evals_used == 4 + 1


def test_estimate_draws_fresh_li_frames():
    p = make_sincos(4, 1.0, 2.0)
    cfg = EstimatorConfig(method="LI", sigma=0.01)
    oracle = clean_oracle(p)
    rng = RngStream(12).generator()
    e1 = estimate(oracle, np.zeros(4), cfg, rng)
    e2 = estimate(oracle, np.zeros(4), cfg, rng)
    assert oracle.eval_count == 10  # (n+1) twice
    assert e1.cond_Q != e2.cond_Q   # different random frames


def test_sigma_validation_everywhere():
    p = make_linear(np.ones(2))
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            estimate(clean_oracle(p), np.zeros(2), EstimatorConfig("FFD", bad))


@settings(max_examples=40, deadline=None)
@given(
    diag=st.lists(st.floats(0.1, 50.0), min_size=2, max_size=6),
    sigma=st.floats(1e-6, 1.0),
    scale=st.floats(-2.0, 2.0),
)
def test_ffd_error_within_deterministic_bound_on_quadratics(diag, sigma, scale):
    # noise-free dominance: ||FFD - grad|| <= sqrt(n) L sigma / 2 with L = max A_ii
    n = len(diag)
    A = np.diag(diag)
    p = make_quadratic(A, np.zeros(n))
    x = np.full(n, scale)
    est = estimate(clean_oracle(p), x, EstimatorConfig("FFD", sigma))
    err = np.linalg.norm(est.g - p.gradient_at(x))
    bound = math.sqrt(n) * max(diag) * sigma / 2
    # rounding of f in the difference quotient costs up to eps |f| / sigma
    # per coordinate, on top of the exact-arithmetic bound
    round_off = 8 * math.sqrt(n) * np.finfo(float).eps \
        * max(1.0, abs(p.value_at(x))) / sigma
    assert err <= bound * (1 + 1e-9) + round_off


_PROBLEMS = [p for _, p, _ in make_standard_problems()]


@settings(max_examples=150, deadline=None)
@given(
    p_idx=st.integers(0, len(_PROBLEMS) - 1),
    method=st.sampled_from(METHODS),
    log_sigma=st.floats(-8.0, 0.0),
    N=st.integers(1, 12),
    trials=st.integers(1, 6),
    kind=st.sampled_from(NOISE_KINDS),
    log_level=st.floats(-10.0, -1.0),
    fixed=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_estimate_trials_is_finite_or_raises_and_counts_every_row(
        p_idx, method, log_sigma, N, trials, kind, log_level, fixed, seed):
    # any problem, method, sigma, N, trial count and noise: estimate_trials
    # returns a finite G or raises its typed error, and the oracle counts
    # exactly trials x rows per trial (a redrawn LI frame costs nothing)
    problem = _PROBLEMS[p_idx]
    n = problem.n
    x = problem.x0 + np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    level = 0.0 if kind == "none" else 10.0 ** log_level
    oracle = NoisyOracle(problem, NoiseModel(kind, level, seed),
                         rng=RngStream(seed).generator(1))
    k = n if method in ("FFD", "CFD", "LI") else N
    stream = RngStream(seed).generator(2)
    source = None
    if fixed and method not in ("FFD", "CFD"):
        source = DirectionSet(stream.standard_normal((k, n)))
    config = EstimatorConfig(method, 10.0 ** log_sigma, N if method in SMOOTHING else None,
                             direction_source=source)
    try:
        G, cond, qinv = estimate_trials(oracle, x, config, trials, stream, stream)
    except SingularDirections:
        assert method == "LI" and oracle.eval_count == 0   # checked before probing
        return
    assert G.shape == (trials, n) and np.all(np.isfinite(G))
    assert oracle.eval_count == trials * (2 * k if method in CENTRAL else k + 1)
    if method == "LI":
        assert cond.shape == qinv.shape == (trials,)
        assert np.all(np.isfinite(cond)) and np.all(qinv > 0)
    else:
        assert cond is None and qinv is None
