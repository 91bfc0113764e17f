"""Objective functions, bounded-noise models, and evaluation-counting oracles.

The noisy oracle computes f(x) = phi(x) + eps(x) with |eps(x)| <= eps_f. All
error bounds downstream assume only this uniform bound, so the noise may be
random or deterministic (adversarial-style); both kinds are provided.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .sampling import RngStream

Array = np.ndarray

NOISE_KINDS = ("none", "uniform_iid", "sinusoidal_deterministic")

# Fixed constants of the deterministic noise hash; changing them changes every
# sinusoidal oracle, so they are part of the reproducibility contract.
_SIN_SEED = 0x5EEDED
_SIN_FREQ = 2557.0
_SIN_PHASE = 0.7310585786300049

__all__ = [
    "Array",
    "ObjectiveFunction",
    "NoiseModel",
    "NoisyOracle",
    "make_sincos",
    "make_linear",
    "make_quadratic",
    "make_rosenbrock",
    "make_powell_singular",
    "make_trigonometric",
    "make_standard_problems",
    "get_problem",
]


@dataclass(frozen=True)
class ObjectiveFunction:
    """Smooth objective phi with analytic gradient and documented constants.

    value_at(x) is phi at one point, gradient_at(x) the gradient there, and
    batch_value(X) phi on each row of a 2-D array X, each row computed as if
    alone. A BLAS product (X @ a) is not: it rounds by the batch's size and
    the row's place in it, so the drivers' trial chunking would move values.
    Row sums of X and einsum contractions are (for column subsets see
    _sum_in_order). value_at may differ from a batch row by rounding; among
    the standard problems it does on linear, quadratic, quadratic_diag,
    sphere, trig5, trig10 and sincos20.

    lipschitz_gradient (L) bounds ||grad phi(x) - grad phi(y)|| / ||x - y||
    over the documented box [box_lo, box_hi]; lipschitz_hessian (M) is the
    analogous Hessian constant, or None when unknown. minimum_value is the
    known global minimum over the box, or None.
    """

    name: str
    n: int
    value_at: Callable[[Array], float]
    batch_value: Callable[[Array], Array]
    gradient_at: Callable[[Array], Array]
    lipschitz_gradient: float
    lipschitz_hessian: float | None = None
    x0: Array | None = None
    box_lo: Array | None = None
    box_hi: Array | None = None
    minimum_value: float | None = None


@dataclass(frozen=True)
class NoiseModel:
    """Bounded perturbation eps(x) with |eps(x)| <= level.

    kinds:
        none: eps identically zero.
        uniform_iid: eps ~ U(-level, level), drawn fresh on every evaluation,
            even at a repeated x. seed keys the stream.
        sinusoidal_deterministic: eps(x) = level * sin(c * h(x)) for a fixed
            hash h; repeatable, adversarial-style noise that does not average
            out under repeated evaluation.
    """

    kind: str = "none"
    level: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not 0 <= self.level < np.inf:
            raise ValueError(f"noise level must be finite and nonnegative, got {self.level!r}")
        if self.kind == "none" and self.level != 0.0:
            raise ValueError("kind='none' requires level 0")
        if self.kind == "uniform_iid" and self.level > np.finfo(float).max / 2:
            raise ValueError(f"uniform_iid noise range 2 * level overflows, got {self.level!r}")

    @property
    def deterministic(self) -> bool:
        """True when eps(x) draws nothing, so f at a given x never changes."""
        return self.kind != "uniform_iid" or self.level == 0.0


def _sum_in_order(A: Array) -> Array:
    """Row sums of A adding the columns in sequence from the left. A.sum(axis=1)
    does so on a many-row column subset X[:, idx], which numpy makes
    column-major, but sums a lone row pairwise, which rounds differently."""
    total = A[:, 0].copy()
    for col in A.T[1:]:
        total += col
    return total


def _sin_weights(n: int) -> Array:
    # Fixed per-dimension weights for the deterministic hash h(x) = w.x.
    gen = RngStream(_SIN_SEED).generator(n)
    return gen.standard_normal(n)


class NoisyOracle:
    """Counting oracle for f(x) = phi(x) + eps(x).

    Each scalar evaluation increments eval_count by exactly one; batch
    evaluation of K rows increments it by K.
    """

    def __init__(self, objective: ObjectiveFunction, noise: NoiseModel | None = None,
                 *, rng: np.random.Generator | None = None):
        self.objective = objective
        self.noise = noise if noise is not None else NoiseModel()
        self.eval_count = 0
        if self.noise.kind == "uniform_iid":
            self._rng = rng if rng is not None else RngStream(self.noise.seed).generator()
        else:
            self._rng = None
        if self.noise.kind == "sinusoidal_deterministic":
            self._w = _sin_weights(objective.n)

    def _noise_batch(self, X: Array) -> Array:
        if self.noise.kind == "uniform_iid":
            return self._rng.uniform(-self.noise.level, self.noise.level, X.shape[0])
        h = np.einsum("ij,j->i", X, self._w)   # row-independent, unlike X @ w
        return self.noise.level * np.sin(_SIN_FREQ * (h + _SIN_PHASE))

    def __call__(self, x: Array) -> float:
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or len(x) != self.objective.n:
            raise ValueError(f"point has shape {x.shape}, expected ({self.objective.n},)")
        self.eval_count += 1
        phi = float(self.objective.value_at(x))
        level = self.noise.level
        if level == 0.0:
            return phi + 0.0   # + 0.0 turns a -0.0 value into +0.0, as a batch row does
        if self._rng is not None:
            # the same double as the batch path's uniform(-level, level, 1)[0]
            return phi + self._rng.uniform(-level, level)
        return phi + float(self._noise_batch(x[None, :])[0])

    def eval_batch(self, X: Array) -> Array:
        """f on each row of the 2-D array X; counts one evaluation per row."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.objective.n:
            raise ValueError(f"points have shape {X.shape}, expected (*, {self.objective.n})")
        self.eval_count += X.shape[0]
        # zero noise adds 0.0, which turns -0.0 into +0.0 as a zero noise array did
        return self.objective.batch_value(X) + (self._noise_batch(X) if self.noise.level else 0.0)


def make_sincos(n: int, M: float, L: float) -> ObjectiveFunction:
    """Separable sin/cos test function plus a rank-one quadratic coupling.

    phi(x) = sum_{i=1}^{n/2} [M sin(x_{2i-1}) + cos(x_{2i})]
             + (L - M)/(2n) * (sum_j x_j)^2

    Designed so that ||grad phi(0)|| = sqrt(n/2) * M while the gradient
    Lipschitz constant is L (exact for M >= 1; for M < 1 it still holds on
    the documented box [-1, 1]^n) and the Hessian Lipschitz constant is
    max(M, 1). Requires n even and L > M > 0.
    """
    if n <= 0 or n % 2 != 0:
        raise ValueError("n must be a positive even integer")
    if not (L > M > 0):
        raise ValueError("constants must satisfy L > M > 0")

    c = (L - M) / (2 * n)
    odd = np.arange(0, n, 2)   # x_{2i-1} in 1-based counting
    even = np.arange(1, n, 2)

    def value(x: Array) -> float:
        s = np.add.reduce(x)
        return float(M * np.add.reduce(np.sin(x[0::2])) + np.add.reduce(np.cos(x[1::2]))
                     + c * s * s)

    def grad(x: Array) -> Array:
        g = np.full(n, 2 * c * x.sum())
        g[0::2] += M * np.cos(x[0::2])
        g[1::2] -= np.sin(x[1::2])
        return g

    def batch(X: Array) -> Array:
        s = X.sum(axis=1)
        return (M * _sum_in_order(np.sin(X[:, odd])) + _sum_in_order(np.cos(X[:, even]))
                + c * s * s)

    return ObjectiveFunction(
        name=f"sincos{n}", n=n, value_at=value, gradient_at=grad,
        lipschitz_gradient=float(L), lipschitz_hessian=float(max(M, 1.0)),
        batch_value=batch, x0=np.zeros(n),
        box_lo=-np.ones(n), box_hi=np.ones(n), minimum_value=None)


def make_linear(a: Array) -> ObjectiveFunction:
    a = np.asarray(a, dtype=float)
    n = a.size
    return ObjectiveFunction(
        name="linear", n=n,
        value_at=lambda x: float(a @ x),
        gradient_at=lambda x: a.copy(),
        lipschitz_gradient=0.0, lipschitz_hessian=0.0,
        batch_value=lambda X: np.einsum("ij,j->i", X, a),
        x0=np.ones(n), box_lo=np.zeros(n), box_hi=2 * np.ones(n),
        minimum_value=None)


def make_quadratic(A: Array, b: Array, name: str = "quadratic",
                   x0: Array | None = None) -> ObjectiveFunction:
    """phi(x) = x'Ax/2 - b'x with A symmetric positive definite."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n = b.size
    xstar = np.linalg.solve(A, b)
    fstar = float(0.5 * xstar @ A @ xstar - b @ xstar)
    if x0 is None:
        x0 = np.ones(n)
    return ObjectiveFunction(
        name=name, n=n,
        value_at=lambda x: float(0.5 * x @ A @ x - b @ x),
        gradient_at=lambda x: A @ x - b,
        lipschitz_gradient=float(np.linalg.norm(A, 2)), lipschitz_hessian=0.0,
        batch_value=lambda X: (0.5 * np.einsum("ij,jk,ik->i", X, A, X)
                               - np.einsum("ij,j->i", X, b)),
        x0=x0, box_lo=x0 - 2, box_hi=x0 + 2, minimum_value=fstar)


# Local gradient-Lipschitz bounds, frozen from a dense scan of the analytic
# Hessian spectral norm over each documented box (with headroom). The box is
# part of the constant's meaning.
_ROSENBROCK_L = 6200.0      # box [-2.048, 2.048]^n, scanned sup 5970.7
_POWELL_L = 4000.0          # box x0 +- 1, scanned sup 3846.1
_TRIG_L = {5: 200.0, 10: 650.0}  # box x0 +- 1, sampled sups 140.4 / 466.3


def make_rosenbrock(n: int) -> ObjectiveFunction:
    """Extended Rosenbrock: pairs 100(x_{2i} - x_{2i-1}^2)^2 + (1 - x_{2i-1})^2."""
    if n <= 0 or n % 2 != 0:
        raise ValueError("n must be a positive even integer")
    odd = np.arange(0, n, 2)
    even = np.arange(1, n, 2)

    def value(x: Array) -> float:
        xo = x[0::2]
        return float(np.add.reduce(100.0 * (x[1::2] - xo ** 2) ** 2 + (1.0 - xo) ** 2))

    def grad(x: Array) -> Array:
        g = np.zeros(n)
        xo = x[0::2]
        t = x[1::2] - xo ** 2
        g[0::2] = -400.0 * t * xo - 2.0 * (1.0 - xo)
        g[1::2] = 200.0 * t
        return g

    def batch(X: Array) -> Array:
        t = X[:, even] - X[:, odd] ** 2
        return (100.0 * t**2 + (1.0 - X[:, odd]) ** 2).sum(axis=1)

    x0 = np.tile([-1.2, 1.0], n // 2)
    return ObjectiveFunction(
        name=f"rosenbrock{n}", n=n, value_at=value, gradient_at=grad,
        lipschitz_gradient=_ROSENBROCK_L, lipschitz_hessian=None,
        batch_value=batch, x0=x0,
        box_lo=np.full(n, -2.048), box_hi=np.full(n, 2.048), minimum_value=0.0)


def make_powell_singular(n: int) -> ObjectiveFunction:
    """Extended Powell singular function; n a multiple of 4.

    Each block of four variables contributes
    (x1 + 10 x2)^2 + 5 (x3 - x4)^2 + (x2 - 2 x3)^4 + 10 (x1 - x4)^4;
    the Hessian is singular at the minimizer (the origin).
    """
    if n <= 0 or n % 4 != 0:
        raise ValueError("n must be a positive multiple of 4")

    def value(x: Array) -> float:
        v = x.reshape(-1, 4)
        return float(((v[:, 0] + 10 * v[:, 1]) ** 2 + 5 * (v[:, 2] - v[:, 3]) ** 2
                      + (v[:, 1] - 2 * v[:, 2]) ** 4 + 10 * (v[:, 0] - v[:, 3]) ** 4).sum())

    def grad(x: Array) -> Array:
        v = x.reshape(-1, 4)
        t1 = v[:, 0] + 10 * v[:, 1]
        t2 = v[:, 2] - v[:, 3]
        t3 = (v[:, 1] - 2 * v[:, 2]) ** 3
        t4 = (v[:, 0] - v[:, 3]) ** 3
        g = np.empty_like(v)
        g[:, 0] = 2 * t1 + 40 * t4
        g[:, 1] = 20 * t1 + 4 * t3
        g[:, 2] = 10 * t2 - 8 * t3
        g[:, 3] = -10 * t2 - 40 * t4
        return g.reshape(-1)

    def batch(X: Array) -> Array:
        V = X.reshape(X.shape[0], -1, 4)
        return ((V[:, :, 0] + 10 * V[:, :, 1]) ** 2 + 5 * (V[:, :, 2] - V[:, :, 3]) ** 2
                + (V[:, :, 1] - 2 * V[:, :, 2]) ** 4
                + 10 * (V[:, :, 0] - V[:, :, 3]) ** 4).sum(axis=1)

    x0 = np.tile([3.0, -1.0, 0.0, 1.0], n // 4)
    return ObjectiveFunction(
        name=f"powell{n}", n=n, value_at=value, gradient_at=grad,
        lipschitz_gradient=_POWELL_L, lipschitz_hessian=None,
        batch_value=batch, x0=x0, box_lo=x0 - 1, box_hi=x0 + 1, minimum_value=0.0)


def make_trigonometric(n: int) -> ObjectiveFunction:
    """Trigonometric test function (sum of squares of a cosine system).

    r_i(x) = n - sum_j cos x_j + i (1 - cos x_i) - sin x_i, phi = sum r_i^2.
    Classical start x0 = (1/n, ..., 1/n); minimum value 0.
    """
    if n not in _TRIG_L:
        raise ValueError(f"n must be one of {sorted(_TRIG_L)}")
    idx = np.arange(1, n + 1, dtype=float)

    def residuals(x: Array) -> Array:
        cx = np.cos(x)
        return n - np.add.reduce(cx) + idx * (1.0 - cx) - np.sin(x)

    def value(x: Array) -> float:
        r = residuals(x)
        return float(r @ r)

    def grad(x: Array) -> Array:
        cx, sx = np.cos(x), np.sin(x)
        r = n - cx.sum() + idx * (1.0 - cx) - sx
        # J_ij = sin x_j + delta_ij (i sin x_i - cos x_i); grad = 2 J'r
        return 2.0 * (sx * r.sum() + r * (idx * sx - cx))

    def batch(X: Array) -> Array:
        cX = np.cos(X)
        R = n - cX.sum(axis=1, keepdims=True) + idx * (1.0 - cX) - np.sin(X)
        return (R * R).sum(axis=1)

    x0 = np.full(n, 1.0 / n)
    return ObjectiveFunction(
        name=f"trig{n}", n=n, value_at=value, gradient_at=grad,
        lipschitz_gradient=_TRIG_L[n], lipschitz_hessian=None,
        batch_value=batch, x0=x0, box_lo=x0 - 1, box_hi=x0 + 1, minimum_value=0.0)


def make_standard_problems() -> list[tuple[str, ObjectiveFunction, Array]]:
    """The desk-scale benchmark set: (name, objective, start point) triples.

    Classical start points throughout; each problem documents its local
    gradient-Lipschitz constant over [box_lo, box_hi]. `linear` is unbounded
    below and is excluded from minimization benchmarks.
    """
    sphere = ObjectiveFunction(
        name="sphere", n=6,
        value_at=lambda x: float(0.5 * x @ x),
        gradient_at=lambda x: x.copy(),
        lipschitz_gradient=1.0, lipschitz_hessian=0.0,
        batch_value=lambda X: 0.5 * (X * X).sum(axis=1),
        x0=np.full(6, 2.0), box_lo=np.full(6, -3.0), box_hi=np.full(6, 3.0),
        minimum_value=0.0)
    problems = [
        make_linear(np.ones(3)),
        make_quadratic(np.eye(4), np.zeros(4), name="quadratic", x0=np.ones(4)),
        make_quadratic(np.diag(np.arange(1.0, 11.0)), np.ones(10),
                       name="quadratic_diag", x0=np.zeros(10)),
        sphere,
        make_rosenbrock(2),
        make_rosenbrock(10),
        make_powell_singular(4),
        make_powell_singular(12),
        make_trigonometric(5),
        make_trigonometric(10),
        make_sincos(20, 1.0, 2.0),
        make_sincos(10, 2.0, 4.0),
    ]
    return [(p.name, p, p.x0.copy()) for p in problems]


def get_problem(name: str) -> tuple[ObjectiveFunction, Array]:
    """Look up a standard problem by name; raises KeyError with choices."""
    table = {nm: (p, x0) for nm, p, x0 in make_standard_problems()}
    if name not in table:
        raise KeyError(f"unknown problem {name!r}; choices: {', '.join(sorted(table))}")
    return table[name]
