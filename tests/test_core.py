"""Objectives, noise models, the counting oracle, and the package exports."""

import importlib
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("size", [1, 2, 7, 64])
def test_batch_rows_are_independent_of_batch_size(size):
    # a row's value must not depend on the rows evaluated with it, or the
    # drivers' chunking would move output bytes; bitwise, not approximately
    rng = RngStream(12).generator(size)
    for name, problem, x0 in make_standard_problems():
        X = x0[None, :] + rng.uniform(-2.0, 2.0, (128, problem.n))
        whole = problem.batch_value(X)
        parts = np.concatenate([problem.batch_value(X[i:i + size])
                                for i in range(0, 128, size)])
        assert whole.tobytes() == parts.tobytes(), name


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


@pytest.mark.parametrize("name", [name for name, _, _ in make_standard_problems()])
def test_every_standard_problem_declares_its_start_inside_its_box(name):
    # the experiment drivers read x0 and the box of every problem they run
    problem = get_problem(name)[0]
    for field in (problem.x0, problem.box_lo, problem.box_hi):
        assert field is not None and np.shape(field) == (problem.n,)
    assert np.all(problem.box_lo <= problem.x0) and np.all(problem.x0 <= problem.box_hi)


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


def test_an_objective_needs_a_batch_form_and_a_batch_needs_two_dimensions():
    with pytest.raises(TypeError, match="batch_value"):
        ObjectiveFunction(name="scalar_only", n=2, value_at=lambda x: 0.0,
                          gradient_at=lambda x: np.zeros(2), lipschitz_gradient=0.0)
    oracle = NoisyOracle(make_sincos(4, 1.0, 2.0))
    for X in (np.zeros(4), np.zeros((1, 1, 4))):
        with pytest.raises(ValueError, match=r"points have shape .*, expected \(\*, 4\)"):
            oracle.eval_batch(X)
    assert oracle.eval_count == 0


# The standard problems whose value_at the ObjectiveFunction docstring says
# may differ from a batch row by rounding
_VALUE_AT_ROUNDS_APART = {"linear", "quadratic", "quadratic_diag", "sphere", "trig5",
                          "trig10", "sincos20"}


def test_value_at_rounds_apart_from_a_batch_row_only_where_documented():
    # keeps the docstring's list exact: every listed problem has a differing
    # row among 2000 box draws, and every other problem agrees bitwise
    rng = RngStream(13).generator()
    for name, problem, _ in make_standard_problems():
        X = rng.uniform(problem.box_lo, problem.box_hi, (2000, problem.n))
        single = np.array([problem.value_at(x) for x in X])
        differ = int(np.sum(single.view(np.uint64) != problem.batch_value(X).view(np.uint64)))
        assert (differ > 0) == (name in _VALUE_AT_ROUNDS_APART), (name, differ)


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


def test_uniform_noise_range_must_be_finite():
    # numpy's uniform(-level, level) raises OverflowError once 2 level overflows
    top = np.finfo(float).max
    for level in (1e308, np.nextafter(top / 2, math.inf)):
        with pytest.raises(ValueError, match=r"^uniform_iid noise range 2 \* level overflows"):
            NoiseModel("uniform_iid", level)
    oracle = NoisyOracle(make_linear(np.ones(2)), NoiseModel("uniform_iid", top / 2, seed=3),
                         rng=np.random.default_rng(4))
    assert abs(oracle(np.zeros(2))) <= top / 2
    NoiseModel("sinusoidal_deterministic", 1e308)


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
                         batch_value=lambda X: np.zeros(X.shape[0]))


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
                                   lipschitz_gradient=0.0,
                                   batch_value=lambda X: np.full(X.shape[0], -0.0))
    value = NoisyOracle(minus_zero, noise)(np.zeros(2))
    assert value == 0.0 and math.copysign(1.0, value) == 1.0
    assert f"{value:.17g}" == "0"


@pytest.mark.parametrize("noise", [NoiseModel(), NoiseModel("uniform_iid", 0.0),
                                   NoiseModel("sinusoidal_deterministic", 0.0)])
def test_noiseless_batch_rows_write_positive_zero(noise):
    # zero noise is added as the scalar 0.0, which turns -0.0 into +0.0 as
    # the scalar path does
    minus_zero = ObjectiveFunction(name="minus_zero", n=2, value_at=lambda x: -0.0,
                                   gradient_at=lambda x: np.zeros(2), lipschitz_gradient=0.0,
                                   batch_value=lambda X: np.full(X.shape[0], -0.0))
    rows = NoisyOracle(minus_zero, noise).eval_batch(np.zeros((3, 2)))
    assert rows.tobytes() == np.zeros(3).tobytes()


def _reference_forms(name):
    """The standard problems' value_at, gradient_at and batch_value as they
    were written before they moved to strided slices, np.add.reduce and the
    ndarray sum method; None where a form was not rewritten."""
    p, _ = get_problem(name)
    n = p.n
    odd, even = np.arange(0, n, 2), np.arange(1, n, 2)
    if name.startswith("sincos"):
        M, L = {20: (1.0, 2.0), 10: (2.0, 4.0)}[n]
        c = (L - M) / (2 * n)

        def value(x):
            s = x.sum()
            return float(M * np.sin(x[odd]).sum() + np.cos(x[even]).sum() + c * s * s)

        def grad(x):
            g = np.full(n, 2 * c * x.sum())
            g[odd] += M * np.cos(x[odd])
            g[even] += -np.sin(x[even])
            return g

        return value, grad, None
    if name.startswith("rosenbrock"):
        def grad(x):
            g = np.zeros(n)
            t = x[even] - x[odd] ** 2
            g[odd] = -400.0 * t * x[odd] - 2.0 * (1.0 - x[odd])
            g[even] = 200.0 * t
            return g

        def batch(X):
            t = X[:, even] - X[:, odd] ** 2
            return np.sum(100.0 * t**2 + (1.0 - X[:, odd]) ** 2, axis=1)

        return (lambda x: float(np.sum(100.0 * (x[even] - x[odd] ** 2) ** 2
                                       + (1.0 - x[odd]) ** 2)), grad, batch)
    if name.startswith("powell"):
        def value(x):
            v = x.reshape(-1, 4)
            return float(np.sum((v[:, 0] + 10 * v[:, 1]) ** 2 + 5 * (v[:, 2] - v[:, 3]) ** 2
                                + (v[:, 1] - 2 * v[:, 2]) ** 4 + 10 * (v[:, 0] - v[:, 3]) ** 4))

        def batch(X):
            V = X.reshape(X.shape[0], -1, 4)
            return np.sum((V[:, :, 0] + 10 * V[:, :, 1]) ** 2
                          + 5 * (V[:, :, 2] - V[:, :, 3]) ** 2
                          + (V[:, :, 1] - 2 * V[:, :, 2]) ** 4
                          + 10 * (V[:, :, 0] - V[:, :, 3]) ** 4, axis=1)

        return value, None, batch
    if name.startswith("trig"):
        idx = np.arange(1, n + 1, dtype=float)

        def value(x):
            cx = np.cos(x)
            r = n - cx.sum() + idx * (1.0 - cx) - np.sin(x)
            return float(r @ r)

        def batch(X):
            cX = np.cos(X)
            R = n - cX.sum(axis=1, keepdims=True) + idx * (1.0 - cX) - np.sin(X)
            return np.sum(R * R, axis=1)

        return value, None, batch
    assert name == "sphere"
    return None, None, lambda X: 0.5 * np.sum(X * X, axis=1)


_REWRITTEN = ["sincos20", "sincos10", "rosenbrock2", "rosenbrock10", "powell4", "powell12",
              "trig5", "trig10", "sphere"]


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(_REWRITTEN), rows=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
@example(name="sincos20", rows=1, seed=0)
def test_rewritten_objective_forms_match_their_old_expressions_bitwise(name, rows, seed):
    p, _ = get_problem(name)
    value, grad, batch = _reference_forms(name)
    X = np.random.default_rng(seed).uniform(p.box_lo, p.box_hi, (rows, p.n))
    X[0] = p.x0   # the start point, where every run's first evaluation lands
    for x in X:
        if value is not None:
            assert np.float64(p.value_at(x)).tobytes() == np.float64(value(x)).tobytes()
        if grad is not None:
            assert p.gradient_at(x).tobytes() == grad(x).tobytes()
    if batch is not None:
        assert p.batch_value(X).tobytes() == batch(X).tobytes()


@pytest.mark.parametrize("module", ["gradest"] + [
    info.name for info in pkgutil.iter_modules(gradest.__path__, "gradest.")])
def test_every_export_exists(module):
    # a stale __all__ entry otherwise fails only under `import *`
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
