"""Direction sampling and Monte Carlo moment utilities.

RngStream keys every random role to its own Philox substream. A
DirectionSet holds one fixed set of directions; orthonormal_directions
draws a Haar frame as one. The estimators draw their own direction stacks
(estimators.trial_directions) and share unit_rows, the one normalization to
the unit sphere, with monte_carlo_moment, which estimates matrices of the
form E[w(u) u u^T], what the variance analysis of the smoothing estimators
reduces to.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Array = np.ndarray

# |R_ii| below RANK_TOL * ||row i of the draw|| means the Gaussian draw was
# numerically dependent on the rows before it; redraw it.
RANK_TOL = 1e-8

__all__ = [
    "Array",
    "DirectionSet",
    "RngStream",
    "unit_rows",
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

    def __post_init__(self) -> None:
        if np.ndim(self.Q) != 2:
            raise ValueError(f"Q must be an N x n matrix, got shape {np.shape(self.Q)}")


def unit_rows(U: Array, rng: np.random.Generator) -> Array:
    """U with each row (last axis) scaled to unit norm in place: iid normal
    rows become uniform on the unit sphere. A zero row, which has
    probability zero, is first redrawn from rng."""
    norms = np.linalg.norm(U, axis=-1)
    while np.any(norms == 0.0):
        bad = norms == 0.0
        U[bad] = rng.standard_normal((int(bad.sum()), U.shape[-1]))
        norms = np.linalg.norm(U, axis=-1)
    U /= norms[..., None]
    return U


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
    return DirectionSet((Q * np.sign(d)).T)


# Draws per chunk of Monte Carlo accumulation: the chunk's (m, n) arrays
# take under 1 MB each at n = 20, and the n x n accumulators are updated
# once per chunk.
_MC_CHUNK = 1 << 12


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
            unit_rows(U, rng)
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
