"""Direction generators, substreams, and the appendix moment identities."""

import math

import numpy as np
import pytest

from conftest import assert_matrix_within, assert_mean_within, run_with_resample
from gradest.estimators import trial_directions
from gradest.sampling import (
    DirectionSet,
    RngStream,
    monte_carlo_moment,
    orthonormal_directions,
    unit_rows,
)


def test_rngstream_substreams_are_reproducible_and_distinct():
    a = RngStream(42).generator(3, 7).standard_normal(16)
    b = RngStream(42).generator(3, 7).standard_normal(16)
    c = RngStream(42).generator(3, 8).standard_normal(16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        RngStream(-1)


def test_coordinate_directions_are_identity():
    ds = DirectionSet(np.eye(5))
    assert ds.Q.shape == (5, 5)


def test_gaussian_directions_shape_and_determinism():
    Q1 = trial_directions("GSG", 3, 7, 1, RngStream(42).generator())[0]
    Q2 = trial_directions("GSG", 3, 7, 1, RngStream(42).generator())[0]
    assert Q1.shape == (7, 3)
    assert np.array_equal(Q1, Q2)


def test_gaussian_directions_first_moments():
    rng = RngStream(1).generator(2)
    Q = trial_directions("GSG", 5, 10**6, 1, rng)[0]
    assert np.all(np.abs(Q.mean(axis=0)) < 4.0 / math.sqrt(10**6))
    assert_mean_within(np.sum(Q * Q, axis=1), 5.0, label="E||u||^2 = n")


def test_sphere_rows_unit_norm_and_moments():
    rng = RngStream(2).generator(1)
    Q = trial_directions("BSG", 3, 2000, 1, rng)[0]
    norms = np.linalg.norm(Q, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    big = trial_directions("BSG", 2, 10**6, 1, RngStream(2).generator(2))[0]
    assert_mean_within(big[:, 0], 0.0, label="sphere odd moment")
    assert_mean_within(big[:, 0] ** 2, 0.5, label="E u1^2 = 1/n on sphere")


def test_unit_rows_normalizes_in_place_and_redraws_a_zero_row():
    U = np.array([[3.0, 4.0], [0.0, 0.0]])
    assert unit_rows(U, RngStream(3).generator()) is U
    assert np.array_equal(U[0], [0.6, 0.8])
    assert np.all(U[1] != 0.0) and abs(np.linalg.norm(U[1]) - 1.0) < 1e-15


def test_orthonormal_directions_orthogonality():
    for n in (1, 2, 3, 10, 50, 120):
        ds = orthonormal_directions(n, RngStream(5).generator(n))
        err = np.max(np.abs(ds.Q @ ds.Q.T - np.eye(n)))
        assert err < 1e-12, f"n={n}: {err:.2e}"
    q1 = orthonormal_directions(1, RngStream(6).generator()).Q
    assert abs(abs(q1[0, 0]) - 1.0) < 1e-15


def test_orthonormal_first_entry_matches_haar_marginal():
    # brute-force reference for the Haar first-row marginal: a normalized
    # Gaussian vector has the same distribution as any single row
    n, draws = 50, 1000

    def check(factor):
        k = draws * factor
        got = np.empty(k)
        for i in range(k):
            got[i] = abs(orthonormal_directions(
                n, RngStream(7).generator(factor, i)).Q[0, 0])
        rng = RngStream(8).generator(factor)
        G = rng.standard_normal((k * 10, n))
        ref = np.abs(G[:, 0] / np.linalg.norm(G, axis=1))
        se = math.hypot(got.std(ddof=1) / math.sqrt(k),
                        ref.std(ddof=1) / math.sqrt(k * 10))
        assert abs(got.mean() - ref.mean()) <= 4 * se
        # and both sit near the analytic large-n value sqrt(2/(pi n))
        assert abs(got.mean() - math.sqrt(2 / (math.pi * n))) < 0.01

    run_with_resample(check)


def test_interpolation_directions_max_norm_scaling():
    for n in (2, 8, 33):
        Q = trial_directions("LI", n, n, 1, RngStream(9).generator(n))[0]
        norms = np.linalg.norm(Q, axis=1)
        assert norms.max() <= 1.0 + 1e-12
        assert abs(norms.max() - 1.0) < 1e-12  # scaled BY the max, not below it


def test_direction_set_shape_validation():
    with pytest.raises(ValueError):
        DirectionSet(np.zeros(3))


# ---------------------------------------------------------------- moments

def test_mc_moment_gaussian_quad_outer_example():
    # E[(a'u)^2 uu'] = ||a||^2 I + 2 aa', a = e1, n = 2
    def check(factor):
        rng = RngStream(10).generator(factor)
        mean, se = monte_carlo_moment("gaussian", "quad_outer", 2, 10**6 * factor,
                                      rng, a=np.array([1.0, 0.0]), with_stderr=True)
        assert_matrix_within(mean, se, np.diag([3.0, 1.0]), label="gaussian quad")

    run_with_resample(check)


def test_mc_moment_sphere_quad_outer_example():
    # sphere version carries the 1/(n(n+2)) factor: diag(3,1)/8 at n=2
    def check(factor):
        rng = RngStream(11).generator(factor)
        mean, se = monte_carlo_moment("sphere", "quad_outer", 2, 10**6 * factor,
                                      rng, a=np.array([1.0, 0.0]), with_stderr=True)
        assert_matrix_within(mean, se, np.diag([3.0, 1.0]) / 8.0, label="sphere quad")

    run_with_resample(check)


def test_mc_moment_gaussian_norm_outer_example():
    # E[||u||^2 uu'] = (n+2) I at n = 4
    def check(factor):
        rng = RngStream(12).generator(factor)
        mean, se = monte_carlo_moment("gaussian", "norm_outer", 4, 10**6 * factor,
                                      rng, k=2, with_stderr=True)
        assert_matrix_within(mean, se, 6.0 * np.eye(4), label="gaussian norm k=2")

    run_with_resample(check)


def test_gaussian_quad_outer_random_directions():
    # 20 random a per dimension at reduced K; the K=10^6 sweep lives in
    # the acceptance suite
    for n in (2, 5, 20):
        rng_a = RngStream(13).generator(n)

        def check(factor, n=n, rng_a=rng_a):
            for j in range(20):
                a = rng_a.standard_normal(n)
                rng = RngStream(14).generator(n, j, factor)
                mean, se = monte_carlo_moment("gaussian", "quad_outer", n,
                                              20000 * factor, rng, a=a,
                                              with_stderr=True)
                expected = (a @ a) * np.eye(n) + 2.0 * np.outer(a, a)
                assert_matrix_within(mean, se, expected, label=f"n={n} a#{j}")

        run_with_resample(check)


def test_odd_moments_vanish_both_distributions():
    a = np.array([0.7, -0.2, 0.4])
    for d_idx, dist in enumerate(("gaussian", "sphere")):
        for k in (0, 1, 2):
            def check(factor, dist=dist, k=k, d_idx=d_idx):
                rng = RngStream(15).generator(d_idx, k, factor)
                mean, se = monte_carlo_moment(dist, "odd_outer", 3, 10**5 * factor,
                                              rng, a=a, k=k, with_stderr=True)
                assert_matrix_within(mean, se, np.zeros((3, 3)),
                                     label=f"{dist} odd k={k}")

            run_with_resample(check)


def test_sphere_norm_outer_is_k_independent():
    # ||u|| = 1 on the sphere, so E[||u||^k uu'] = I/n for every k
    for k in (0, 1, 3, 6):
        def check(factor, k=k):
            rng = RngStream(16).generator(k, factor)
            mean, se = monte_carlo_moment("sphere", "norm_outer", 5, 10**5 * factor,
                                          rng, k=k, with_stderr=True)
            assert_matrix_within(mean, se, np.eye(5) / 5.0, label=f"sphere k={k}")

        run_with_resample(check)


def test_gaussian_odd_k_norm_cap():
    # E[||u|| uu'] <= (n+1) n^{-1/2} I in the Loewner order
    for n in (2, 5, 20):
        def check(factor, n=n):
            rng = RngStream(17).generator(n, factor)
            mean, se = monte_carlo_moment("gaussian", "norm_outer", n,
                                          2 * 10**5 * factor, rng, k=1,
                                          with_stderr=True)
            cap = (n + 1) / math.sqrt(n)
            lam_max = float(np.linalg.eigvalsh(mean)[-1])
            cushion = 4.0 * float(se.max()) * n
            assert lam_max <= cap + cushion, f"n={n}: {lam_max:.4f} vs {cap:.4f}"

        run_with_resample(check)
