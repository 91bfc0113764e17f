"""Objectives, noise models, the counting oracle, and the package exports."""

import importlib
import math
import pkgutil

import numpy as np
import pytest

import gradest
from gradest.core import (
    NoiseModel,
    NoisyOracle,
    ObjectiveFunction,
    get_problem,
    make_linear,
    make_quadratic,
    make_rosenbrock,
    make_sincos,
    make_standard_problems,
)
from gradest.sampling import RngStream


def central_diff_grad(problem, x, h=1e-6):
    n = x.size
    g = np.empty(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = h * (1.0 + abs(x[i]))
        g[i] = (problem.value_at(x + e) - problem.value_at(x - e)) / (2 * e[i])
    return g


def test_sincos_gradient_norm_at_origin():
    for n, M, L in ((20, 1.0, 2.0), (10, 2.0, 4.0), (4, 0.5, 1.0)):
        p = make_sincos(n, M, L)
        assert abs(np.linalg.norm(p.gradient_at(np.zeros(n)))
                   - math.sqrt(n / 2) * M) < 1e-12


def test_sincos_rejects_bad_shapes():
    with pytest.raises(ValueError):
        make_sincos(5, 1.0, 2.0)      # odd n
    with pytest.raises(ValueError):
        make_sincos(4, 2.0, 1.0)      # L <= M


def test_registry_gradients_match_finite_differences():
    rng = RngStream(7).generator(1)
    for name, problem, x0 in make_standard_problems():
        x = x0 + 0.1 * rng.standard_normal(problem.n)
        g = problem.gradient_at(x)
        g_fd = central_diff_grad(problem, x)
        scale = 1.0 + np.linalg.norm(g)
        assert np.linalg.norm(g - g_fd) / scale < 1e-4, name


def test_registry_batch_matches_scalar_values():
    rng = RngStream(11).generator(1)
    for name, problem, x0 in make_standard_problems():
        X = x0[None, :] + 0.3 * rng.standard_normal((8, problem.n))
        batch = problem.batch_value(X)
        single = np.array([problem.value_at(x) for x in X])
        assert np.allclose(batch, single, rtol=1e-12, atol=1e-12), name


def test_registry_names_and_lookup():
    triples = make_standard_problems()
    names = [name for name, _, _ in triples]
    assert len(names) == 12
    assert len(set(names)) == 12
    assert "linear" in names and "sincos20" in names
    problem, x0 = get_problem("rosenbrock2")
    assert problem.n == 2
    assert np.array_equal(x0, problem.x0)
    with pytest.raises(KeyError):
        get_problem("nonexistent_problem")


def test_quadratic_minimum_and_lipschitz():
    A = np.diag([1.0, 4.0, 9.0])
    b = np.array([1.0, 1.0, 1.0])
    p = make_quadratic(A, b, name="q3")
    xstar = np.linalg.solve(A, b)
    assert abs(p.value_at(xstar) - p.minimum_value) < 1e-12
    assert np.linalg.norm(p.gradient_at(xstar)) < 1e-12
    assert p.lipschitz_gradient == 9.0


def test_rosenbrock_minimum():
    p = make_rosenbrock(2)
    assert p.value_at(np.ones(2)) == 0.0
    assert p.minimum_value == 0.0


def test_oracle_counts_every_evaluation():
    p = make_sincos(4, 1.0, 2.0)
    oracle = NoisyOracle(p)
    oracle(np.zeros(4))
    assert oracle.eval_count == 1
    oracle.eval_batch(np.zeros((5, 4)))
    assert oracle.eval_count == 6
    oracle(np.ones(4))
    assert oracle.eval_count == 7


def test_oracle_rejects_wrong_shape():
    oracle = NoisyOracle(make_sincos(4, 1.0, 2.0))
    with pytest.raises(ValueError):
        oracle(np.zeros(3))
    with pytest.raises(ValueError):
        oracle.eval_batch(np.zeros((2, 5)))


def test_noiseless_oracle_is_exact():
    p = make_sincos(6, 1.0, 2.0)
    oracle = NoisyOracle(p)
    x = np.full(6, 0.3)
    assert oracle(x) == p.value_at(x)


def test_uniform_noise_is_bounded_and_fresh():
    p = make_linear(np.ones(3))
    noise = NoiseModel("uniform_iid", 1e-2, seed=5)
    oracle = NoisyOracle(p, noise)
    x = np.ones(3)
    vals = np.array([oracle(x) for _ in range(200)])
    eps = vals - p.value_at(x)
    assert np.all(np.abs(eps) <= 1e-2 + 1e-15)
    # fresh draw on every call, even at a repeated point
    assert np.unique(eps).size > 100


def test_sinusoidal_noise_is_deterministic_in_x():
    p = make_linear(np.ones(3))
    noise = NoiseModel("sinusoidal_deterministic", 1e-3)
    oracle = NoisyOracle(p, noise)
    x = np.array([0.2, -1.0, 0.5])
    assert oracle(x) == oracle(x)
    eps = oracle(x) - p.value_at(x)
    assert abs(eps) <= 1e-3 + 1e-18
    assert eps != 0.0


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel("gaussian", 0.1)
    with pytest.raises(ValueError):
        NoiseModel("uniform_iid", -1.0)
    for level in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            NoiseModel("uniform_iid", level)
    with pytest.raises(ValueError):
        NoiseModel("none", 0.1)


def test_clone_resets_counter_and_keys_substream():
    p = make_linear(np.ones(2))
    oracle = NoisyOracle(p, NoiseModel("uniform_iid", 1e-2, seed=3))
    oracle(np.zeros(2))
    c1 = oracle.clone(4, 0)
    c2 = oracle.clone(4, 0)
    c3 = oracle.clone(4, 1)
    assert c1.eval_count == 0
    x = np.ones(2)
    v1, v2, v3 = c1(x), c2(x), c3(x)
    assert v1 == v2          # same substream indices, same realization
    assert v1 != v3          # different indices, independent stream


def test_batch_and_scalar_noise_share_one_stream_position():
    # uniform noise consumes one draw per evaluation in either entry path
    p = make_linear(np.ones(2))
    noise = NoiseModel("uniform_iid", 0.5, seed=9)
    a = NoisyOracle(p, noise, rng=RngStream(9).generator())
    b = NoisyOracle(p, noise, rng=RngStream(9).generator())
    X = np.arange(6.0).reshape(3, 2)
    batch = a.eval_batch(X)
    singles = np.array([b(x) for x in X])
    assert np.allclose(batch, singles, atol=1e-15)


ZERO = ObjectiveFunction(name="zero", n=3, value_at=lambda x: 0.0,
                         gradient_at=lambda x: np.zeros(3), lipschitz_gradient=0.0,
                         value_batch=lambda X: np.zeros(X.shape[0]))


@pytest.mark.parametrize("kind", ["uniform_iid", "sinusoidal_deterministic"])
def test_scalar_call_draws_the_noise_of_a_one_row_batch(kind):
    # phi = 0 exposes the noise itself: a scalar call and a twin oracle's
    # one-row batch must give the same doubles, draw after draw
    noise = NoiseModel(kind, 1e-3, seed=5)
    a = NoisyOracle(ZERO, noise, rng=RngStream(5).generator(1))
    b = NoisyOracle(ZERO, noise, rng=RngStream(5).generator(1))
    X = RngStream(6).generator().uniform(-2.0, 2.0, (200, 3))
    scalar = np.array([a(x) for x in X])
    rows = np.array([b.eval_batch(x[None])[0] for x in X])
    assert np.all(scalar != 0.0)
    assert scalar.tobytes() == rows.tobytes()
    assert a.eval_count == b.eval_count == len(X)


@pytest.mark.parametrize("noise", [NoiseModel(), NoiseModel("uniform_iid", 0.0)])
def test_noiseless_scalar_call_writes_positive_zero(noise):
    # the trace CSV would otherwise write -0 where a batch row gives 0
    minus_zero = ObjectiveFunction(name="minus_zero", n=2, value_at=lambda x: -0.0,
                                   gradient_at=lambda x: np.zeros(2),
                                   lipschitz_gradient=0.0)
    value = NoisyOracle(minus_zero, noise)(np.zeros(2))
    assert value == 0.0 and math.copysign(1.0, value) == 1.0
    assert f"{value:.17g}" == "0"


@pytest.mark.parametrize("module", ["gradest"] + [
    info.name for info in pkgutil.iter_modules(gradest.__path__, "gradest.")])
def test_every_export_exists(module):
    # a stale __all__ entry otherwise fails only under `import *`
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
