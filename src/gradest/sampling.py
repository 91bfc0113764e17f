"""Direction sampling and Monte Carlo moment utilities.

Direction sets feed the estimators: direction_stack draws stacks of raw
Gaussian rows, rows uniform on the unit sphere, or max-norm scaled Gaussian
frames for interpolation, and orthonormal_directions draws Haar frames; a
DirectionSet holds one fixed set. monte_carlo_moment estimates matrices
of the form E[w(u) u u^T], which is what the variance analysis of the
smoothing estimators reduces to.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Array = np.ndarray

# Orthogonality / unit-norm tolerances promised by the generators.
ORTHO_TOL = 1e-12
# |R_ii| below RANK_TOL * ||row i of the draw|| means the Gaussian draw was
# numerically dependent on the rows before it; redraw it.
RANK_TOL = 1e-8

__all__ = [
    "Array",
    "DirectionSet",
    "RngStream",
    "direction_stack",
    "orthonormal_directions",
    "monte_carlo_moment",
]


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream with addressable substreams.

    Wraps numpy's Philox bit generator, a counter-based generator whose
    output for a given key is identical across platforms. Substreams are
    derived through SeedSequence([seed, *indices]), so trial k of cell j in
    a sweep is reproducible in isolation from (seed, j, k) with no state.
    """

    seed: int

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")

    def generator(self, *indices: int) -> np.random.Generator:
        """Independent generator for the substream keyed by indices."""
        ss = np.random.SeedSequence([self.seed, *indices])
        return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class DirectionSet:
    """N direction vectors stored as the rows of Q (N x n)."""

    Q: Array
    scheme: str  # coordinate | orthonormal | general_interp | gaussian | sphere

    def __post_init__(self) -> None:
        if np.ndim(self.Q) != 2:
            raise ValueError(f"Q must be an N x n matrix, got shape {np.shape(self.Q)}")

    @property
    def N(self) -> int:
        return self.Q.shape[0]

    @property
    def n(self) -> int:
        return self.Q.shape[1]


def direction_stack(scheme: str, n: int, N: int, T: int,
                    rng: np.random.Generator) -> Array:
    """T direction sets of N rows in R^n, shape (T, N, n), drawn from rng in
    set order, so splitting T across calls does not change the draws.

    scheme:
        gaussian: iid standard normal rows.
        sphere: rows uniform on the unit sphere (normalized Gaussian draws).
        general_interp: square Gaussian frames (N == n), each scaled so its
            largest row has norm 1.
    """
    if n < 1 or N < 1:
        raise ValueError("n and N must be positive")
    Q = rng.standard_normal((T, N, n))
    if scheme == "gaussian":
        return Q
    if scheme == "sphere":
        norms = np.linalg.norm(Q, axis=-1)
        # A zero draw has probability zero; redraw to keep the normalization sound.
        while np.any(norms == 0.0):
            bad = norms == 0.0
            Q[bad] = rng.standard_normal((int(bad.sum()), n))
            norms = np.linalg.norm(Q, axis=-1)
        return Q / norms[..., None]
    if scheme == "general_interp":
        if N != n:
            raise ValueError("interpolation frames must be square")
        scale = np.max(np.linalg.norm(Q, axis=-1), axis=-1)
        while np.any(scale == 0.0):  # pragma: no cover - probability zero
            bad = scale == 0.0
            Q[bad] = rng.standard_normal((int(bad.sum()), n, n))
            scale = np.max(np.linalg.norm(Q, axis=-1), axis=-1)
        return Q / scale[:, None, None]
    raise ValueError(f"unknown direction scheme {scheme!r}")


def orthonormal_directions(n: int, rng: np.random.Generator) -> DirectionSet:
    """Random n x n orthonormal matrix, Haar distributed.

    QR of the transpose of an iid Gaussian matrix Z, with each column of Q
    multiplied by the sign of the matching diagonal entry of R (Mezzadri
    2007, "How to generate random matrices from the classical compact
    groups"); without that sign fix the factor is not Haar. The rows of the
    result are the Gram-Schmidt orthonormalization of the rows of Z, in
    order. A draw with some |R_ii| below RANK_TOL of its row's norm is
    numerically rank deficient and is redrawn.
    """
    if n < 1:
        raise ValueError("n must be positive")
    while True:
        Z = rng.standard_normal((n, n))
        Q, R = np.linalg.qr(Z.T)
        d = np.diag(R)
        if np.all(np.abs(d) > RANK_TOL * np.linalg.norm(Z, axis=1)):
            break
    return DirectionSet((Q * np.sign(d)).T, "orthonormal")


# Chunk size for Monte Carlo accumulation; bounds the working set to a few
# tens of MB even at n = 20.
_MC_CHUNK = 1 << 16


def monte_carlo_moment(
    dist: str,
    functional: str,
    n: int,
    K: int,
    rng: np.random.Generator,
    *,
    a: Array | None = None,
    k: int | None = None,
    with_stderr: bool = False,
):
    """Sample mean of w(u) u u^T over K draws of u.

    Args:
        dist: "gaussian" (u ~ N(0, I)) or "sphere" (u uniform on the unit
            sphere).
        functional: which weight w(u) to apply:
            "quad_outer": w = (a.u)^2
            "odd_outer":  w = (a.u) * ||u||^k
            "norm_outer": w = ||u||^k
        n: dimension.
        K: number of draws.
        rng: generator for the draws.
        a: direction vector, required by quad_outer and odd_outer.
        k: norm power, required by odd_outer and norm_outer.
        with_stderr: when True also return the entrywise standard error of
            the mean, estimated from the same sample.

    Returns:
        The n x n sample mean matrix, or (mean, stderr) when with_stderr.
    """
    if K < 1:
        raise ValueError("K must be positive")
    if dist not in ("gaussian", "sphere"):
        raise ValueError(f"unknown distribution {dist!r}")
    if functional in ("quad_outer", "odd_outer") and a is None:
        raise ValueError(f"{functional} requires the vector a")
    if functional in ("odd_outer", "norm_outer") and k is None:
        raise ValueError(f"{functional} requires the power k")
    if functional not in ("quad_outer", "odd_outer", "norm_outer"):
        raise ValueError(f"unknown functional {functional!r}")

    s1 = np.zeros((n, n))
    s2 = np.zeros((n, n))
    done = 0
    while done < K:
        m = min(_MC_CHUNK, K - done)
        U = rng.standard_normal((m, n))
        if dist == "sphere":
            norms = np.linalg.norm(U, axis=1)
            while np.any(norms == 0.0):
                bad = norms == 0.0
                U[bad] = rng.standard_normal((int(bad.sum()), n))
                norms = np.linalg.norm(U, axis=1)
            U /= norms[:, None]
        if functional == "quad_outer":
            w = (U @ a) ** 2
        elif functional == "odd_outer":
            w = (U @ a) * np.linalg.norm(U, axis=1) ** k
        else:
            w = np.linalg.norm(U, axis=1) ** k
        # one reused (m, n) buffer: V = w u, then V = w u^2 in place
        V = U * w[:, None]
        s1 += V.T @ U
        if with_stderr:
            V *= U
            s2 += V.T @ V
        done += m

    mean = s1 / K
    if not with_stderr:
        return mean
    if K > 1:
        var = (s2 / K - mean**2) * (K / (K - 1))
        stderr = np.sqrt(np.maximum(var, 0.0) / K)
    else:
        stderr = np.full((n, n), np.inf)
    return mean, stderr
