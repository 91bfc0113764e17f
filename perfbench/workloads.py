"""The benchmark workloads: fixed inputs from a seed, one timed
repetition, and checks on the outputs.

Every check must hold for any correct program at any seed and any layout of
its random streams. Statistical checks therefore test closed-form
expectations at a family-wise z threshold (false alarm probability
FAMILY_ALPHA per family), and exact checks test only what the program
promises exactly: evaluation accounting, finiteness, the Armijo rule it
documents, and seed -> byte-identical CSV text.

Harness code calls the program through module attributes
(`optimizer.run_dfo`, `cli.main`, ...), never through names imported into
this module, so that the tracer's patches see every call.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
from pathlib import Path
from statistics import NormalDist

import numpy as np

from gradest import (bounds, cli, core, estimators, experiments, optimizer,
                     sampling)

FAMILY_ALPHA = 1e-6

# stream tags for inputs the harness draws itself (the CLI workloads key
# their own streams from --seed)
_TAG_NOISE, _TAG_SOLVER, _TAG_MC_A, _TAG_MC, _TAG_POINT, _TAG_FRAME = (
    7001, 7002, 7003, 7004, 7005, 7006)


def family_z(m: int) -> float:
    """Two-sided Bonferroni z threshold for m tests at FAMILY_ALPHA."""
    return NormalDist().inv_cdf(1.0 - FAMILY_ALPHA / (2.0 * max(m, 1)))


def _run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def _close(a: float, b: float, scale: float = 0.0) -> bool:
    """Equal up to float64 reduction-order rounding; `scale` is the size of
    the terms a value was computed from (mean^2 for a variance)."""
    return abs(a - b) <= 1e-9 * max(abs(a), abs(b)) + 1e-12 * scale


class Check:
    """Ops attempted and failed in one repetition, with the first reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def op(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20 and reason not in self.reasons:
                self.reasons.append(reason)

    def fail_all(self, count: int, reason: str) -> None:
        for _ in range(count):
            self.op(False, reason)

    def merge(self, other: "Check") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons += [r for r in other.reasons if r not in self.reasons][
            : max(0, 20 - len(self.reasons))]


# ---------------------------------------------------------------------------

class ThetaDist:
    """`gradest theta-dist` at n=32 over the default N list: GSG on the
    noise-free linear objective, so direction sampling dominates."""

    n = 32
    trials = 500

    def __init__(self, seed: int, workdir: Path, refs=None):
        self.out = workdir / "theta.csv"
        self.n_list = experiments.ExperimentSpec("theta_distribution").N_list
        self.argv = ["theta-dist", "--n", str(self.n), "--trials", str(self.trials),
                     "--seed", str(seed), "--out", str(self.out)]
        self.ops_per_rep = len(self.n_list) * (self.trials + 1)

    def rep(self):
        return _run_cli(self.argv)

    def artifacts(self, rc) -> dict[str, bytes]:
        return {"theta.csv": self.out.read_bytes()} if rc == 0 else {}

    def check(self, rc, arts) -> Check:
        chk = Check()
        if rc != 0:
            chk.fail_all(self.ops_per_rep, f"theta-dist exited {rc}")
            return chk
        rows = _rows(arts["theta.csv"])
        if [int(r["N"]) for r in rows] != list(self.n_list):
            chk.fail_all(self.ops_per_rep, "theta-dist rows do not match N_list")
            return chk
        z_max = family_z(len(rows))
        n = self.n
        for r in rows:
            N, T = int(r["N"]), int(r["trials"])
            # E[theta^2] = (n+1)/N; Var from the closed-form fourth moment
            # E||g-a||^4/||a||^4 = [N(N-1)(n^2+4n+7) + N(3n^2+20n+37)] / N^4
            mu2 = (n + 1) / N
            mu4 = (N * (N - 1) * (n * n + 4 * n + 7) + N * (3 * n * n + 20 * n + 37)) / N**4
            mean, var = float(r["mean_theta"]), float(r["var_theta"])
            m2 = var * (T - 1) / T + mean * mean
            z = abs(m2 - mu2) / math.sqrt((mu4 - mu2 * mu2) / T)
            ok = int(r["n"]) == n and T == self.trials and z <= z_max
            for _ in range(self.trials):   # the row's estimate trials
                chk.op(ok, f"N={N}: E[theta^2] {m2:.6g} vs {mu2:.6g}, z={z:.2f} > {z_max:.2f}")
            chk.op(ok, f"N={N}: row n={r['n']} trials={T}")
        return chk


class Sweep:
    """`gradest sweep` over all standard problems x 7 methods x 2 sigmas x
    2 noise levels: many tiny trials, so per-trial overhead and CSV
    rendering dominate."""

    sigmas = ("0.001", "0.01")
    eps_fs = ("0", "0.0001")
    points = 2
    trials = 20

    def __init__(self, seed: int, workdir: Path, refs=None):
        self.out = workdir / "sweep.csv"
        self.summary = workdir / "sweep_summary.csv"
        spec = experiments.ExperimentSpec("relative_error_sweep")
        self.cells = (len(core.make_standard_problems()) * self.points
                      * len(self.sigmas) * len(self.eps_fs) * len(spec.methods))
        self.argv = ["sweep", "--sigmas", ",".join(self.sigmas),
                     "--eps-fs", ",".join(self.eps_fs), "--noise-kind", "uniform_iid",
                     "--points", str(self.points), "--trials", str(self.trials),
                     "--seed", str(seed), "--out", str(self.out)]
        self.ops_per_rep = self.cells * (self.trials + 1)

    def rep(self):
        return _run_cli(self.argv)

    def artifacts(self, rc) -> dict[str, bytes]:
        if rc != 0:
            return {}
        return {"sweep.csv": self.out.read_bytes(),
                "sweep_summary.csv": self.summary.read_bytes()}

    def check(self, rc, arts) -> Check:
        chk = Check()
        if rc != 0:
            chk.fail_all(self.ops_per_rep, f"sweep exited {rc}")
            return chk
        raw, summary = _rows(arts["sweep.csv"]), _rows(arts["sweep_summary.csv"])
        if len(raw) != self.cells * self.trials or len(summary) != self.cells:
            chk.fail_all(self.ops_per_rep, f"sweep wrote {len(raw)} rows and "
                         f"{len(summary)} cells, want {self.cells * self.trials} "
                         f"and {self.cells}")
            return chk
        key = ("problem", "point", "method", "sigma", "eps_f")
        cells: dict[tuple, list[float]] = {}
        for r in raw:
            cells.setdefault(tuple(r[k] for k in key), []).append(float(r["theta"]))
        for cell, thetas in cells.items():
            noise_free_fd = cell[2] in ("FFD", "CFD") and float(cell[4]) == 0.0
            for theta in thetas:
                ok = math.isfinite(theta)
                if ok and noise_free_fd:
                    # deterministic estimate: identical in every trial, up to
                    # round-off (abs 1e-9 sits far below any noise effect)
                    ok = abs(theta - thetas[0]) <= 1e-12 * abs(thetas[0]) + 1e-9
                chk.op(ok, f"{cell}: theta {theta!r} (first trial {thetas[0]!r})")
        for s in summary:
            cell = tuple(s[k] for k in key)
            thetas = np.asarray(cells.get(cell, []))
            ok = thetas.size == int(s["trials"]) == self.trials
            if ok:
                th = thetas[np.isfinite(thetas)]
                mean = float(np.mean(th))
                var = float(np.var(th, ddof=1)) if th.size > 1 else 0.0
                ok = (_close(float(s["mean_theta"]), mean)
                      and _close(float(s["median_theta"]), float(np.median(th)))
                      and _close(float(s["var_theta"]), var, mean * mean)
                      and _close(float(s["success_rate"]), float(np.mean(th < 0.5))))
            chk.op(ok, f"{cell}: summary row disagrees with its raw rows")
        return chk


class Sweeps:
    """The sampling-bound and the overhead-bound CLI experiment, run back to
    back: ThetaDist then Sweep. One workload, so that each run of it is long
    enough to ride out the host's slow spells."""

    def __init__(self, seed: int, workdir: Path, refs=None):
        self.parts = (ThetaDist(seed, workdir), Sweep(seed, workdir))
        self.ops_per_rep = sum(p.ops_per_rep for p in self.parts)

    def rep(self):
        return [p.rep() for p in self.parts]

    def artifacts(self, rcs) -> dict[str, bytes]:
        arts = {}
        for p, rc in zip(self.parts, rcs):
            arts.update(p.artifacts(rc))
        return arts

    def check(self, rcs, arts) -> Check:
        chk = Check()
        for p, rc in zip(self.parts, rcs):
            chk.merge(p.check(rc, arts))
        return chk


class DfoRace:
    """run_dfo over the bench problem set (the standard problems without
    `linear`), three solvers, noise-free and at eps_f = 1e-4: bound by the
    optimizer loop and scalar oracle calls."""

    solvers = ("ffd+lbfgs+ls", "gsg:n+sd+ls", "ffd:1e-2+lbfgs+ls")
    eps_fs = (0.0, 1e-4)
    trials = 1
    budget_factor = 200
    tau = 1e-3

    def __init__(self, seed: int, workdir: Path, refs=None):
        self.seed = seed
        problems = [p for _, p, _ in core.make_standard_problems() if p.name != "linear"]
        self.jobs = []
        for e_idx, eps_f in enumerate(self.eps_fs):
            for p_idx, problem in enumerate(problems):
                budget = self.budget_factor * (problem.n + 1)
                for s_idx, text in enumerate(self.solvers):
                    s = experiments.parse_solver(text)
                    cfg = estimators.EstimatorConfig(s.method, s.sigma, N=s.resolve_N(problem.n))
                    ls = optimizer.LineSearchConfig(direction=s.direction, eval_budget=budget,
                                                    max_iters=10_000_000)
                    for t in range(self.trials):
                        self.jobs.append((problem, text, cfg, ls, eps_f, budget,
                                          (e_idx, p_idx, s_idx, t)))
        self.refs = refs
        self.ops_per_rep = len(self.jobs)

    def rep(self):
        runs = []
        for problem, _, cfg, ls, eps_f, _, idx in self.jobs:
            stream = sampling.RngStream(self.seed)
            if eps_f > 0:
                noise = core.NoiseModel("uniform_iid", eps_f, self.seed)
                oracle = core.NoisyOracle(problem, noise, rng=stream.generator(_TAG_NOISE, *idx))
            else:
                oracle = core.NoisyOracle(problem)
            trace = optimizer.run_dfo(oracle, cfg, ls, problem.x0.copy(),
                                      stream.generator(_TAG_SOLVER, *idx))
            runs.append((trace, oracle.eval_count))
        return runs

    def artifacts(self, runs) -> dict[str, bytes]:
        buf = io.StringIO()
        for (problem, solver, _, _, eps_f, _, idx), (trace, _) in zip(self.jobs, runs):
            buf.write(f"# {problem.name} {solver} eps_f={eps_f!r} trial={idx[3]} "
                      f"termination={trace.termination}\n")
            trace.to_csv(buf)
        return {"traces.csv": buf.getvalue().encode()}

    def _phi(self, problem, trace) -> np.ndarray:
        if not trace.records:
            return np.empty(0)
        return problem.batch_value(np.stack([r.x for r in trace.records]))

    def check(self, runs, arts) -> Check:
        chk = Check()
        for (problem, solver, _, ls, eps_f, _, _), (trace, evals) in zip(self.jobs, runs):
            where = f"{problem.name} {solver} eps_f={eps_f:g}"
            recs = trace.records
            if not recs or recs[-1].evals_cumulative != evals:
                chk.op(False, f"{where}: trace ends at "
                       f"{recs[-1].evals_cumulative if recs else 0} evals, oracle counted {evals}")
                continue
            phi = self._phi(problem, trace)
            if not (np.all(np.isfinite([r.f for r in recs])) and np.all(np.isfinite(phi))):
                chk.op(False, f"{where}: non-finite f or phi")
                continue
            relax = 2.0 * eps_f if ls.noise_relaxation is None else ls.noise_relaxation
            bad = None
            for prev, r in zip(recs, recs[1:]):
                if r.alpha > 0:
                    rhs = prev.f + ls.c1 * r.alpha * r.slope + relax
                    tol = 1e-12 * (abs(prev.f) + abs(ls.c1 * r.alpha * r.slope) + relax)
                    if not r.f <= rhs + tol:
                        bad = r
                        break
            chk.op(bad is None, f"{where}: iteration {bad.iteration if bad else -1} "
                   "breaks the relaxed Armijo condition")
        return chk

    def e2e(self, runs) -> dict[str, float]:
        """solved_frac and solve_cost against the fixed reference targets."""
        solved = 0
        cost = 0.0
        for (problem, _, _, _, _, budget, _), (trace, _) in zip(self.jobs, runs):
            f0 = float(problem.value_at(problem.x0))
            target = f0 - (1.0 - self.tau) * (f0 - self.refs[problem.name])
            phi = self._phi(problem, trace)
            evals = np.array([r.evals_cumulative for r in trace.records])
            hit = np.nonzero((phi <= target) & (evals <= budget))[0]
            if hit.size:
                solved += 1
                cost += evals[hit[0]] / budget
            else:
                cost += 1.0
        return {"solved_frac": solved / len(runs), "solve_cost": cost / len(runs)}

    def layer_counts(self, runs) -> dict[str, float]:
        """Optimizer counts read from the traces (exact at one seed)."""
        out = dict.fromkeys(("optimizer.iterations", "optimizer.evals", "optimizer.backtracks",
                             "optimizer.null_steps", "optimizer.step_failure_runs"), 0)
        for (problem, *_), (trace, evals) in zip(self.jobs, runs):
            out["optimizer.iterations"] += len(trace.records)
            out["optimizer.evals"] += evals
            out["optimizer.step_failure_runs"] += trace.termination == "step_failure"
            prev_x = problem.x0
            for r in trace.records:
                out["optimizer.backtracks"] += r.backtracks
                out["optimizer.null_steps"] += r.alpha > 0 and np.array_equal(r.x, prev_x)
                prev_x = r.x
        return out


class TheoryCheck:
    """Bound validation and the direction-moment identities: the only
    workload with large batches (condition_table picks N of about 1.8k-4k)
    and the only user of bounds, monte_carlo_moment and
    orthonormal_directions."""

    bc_trials = 100
    mc_dims = (5, 20)
    mc_draws = 50_000
    li_frames = 150
    li_sigmas = (1e-3, 1e-2, 1e-1)
    li_eps_f = 1e-6

    def __init__(self, seed: int, workdir: Path, refs=None):
        self.seed = seed
        self.out = workdir / "bound_check.csv"
        self.prob_out = workdir / "bound_check_probabilistic.csv"
        self.argv = ["bound-check", "--problems", "sincos20", "--eps-fs", "1e-6",
                     "--noise-kind", "uniform_iid", "--trials", str(self.bc_trials),
                     "--seed", str(seed), "--out", str(self.out)]
        stream = sampling.RngStream(seed)
        self.mc_cases = []
        for n in self.mc_dims:
            a = stream.generator(_TAG_MC_A, n).standard_normal(n)
            eye = np.eye(n)
            quad = (a @ a) * eye + 2.0 * np.outer(a, a)
            zero = np.zeros((n, n))
            self.mc_cases += [
                (n, "gaussian", "quad_outer", dict(a=a), quad),
                (n, "sphere", "quad_outer", dict(a=a), quad / (n * (n + 2))),
                (n, "gaussian", "norm_outer", dict(k=2), (n + 2) * eye),
                (n, "sphere", "norm_outer", dict(k=3), eye / n),
                (n, "gaussian", "odd_outer", dict(a=a, k=1), zero),
                (n, "sphere", "odd_outer", dict(a=a, k=2), zero),
            ]
        self.problem, _ = core.get_problem("sincos20")
        self.points = [stream.generator(_TAG_POINT, t).uniform(-1.0, 1.0, self.problem.n)
                       for t in range(self.li_frames)]
        # one op per bound-check row (one per method at one sigma and one
        # eps_f) and its exit code, per moment case, per frame, per Haar row
        bc_rows = len(experiments.ExperimentSpec("bound_validation").methods)
        self.ops_per_rep = bc_rows + 1 + len(self.mc_cases) + self.li_frames + 2

    def rep(self):
        rc = _run_cli(self.argv)
        stream = sampling.RngStream(self.seed)
        moments = []
        for c_idx, (n, dist, functional, kw, _) in enumerate(self.mc_cases):
            moments.append(sampling.monte_carlo_moment(
                dist, functional, n, self.mc_draws, stream.generator(_TAG_MC, c_idx),
                with_stderr=True, **kw))
        p = self.problem
        noise = core.NoiseModel("uniform_iid", self.li_eps_f, self.seed)
        li = []
        for t, x in enumerate(self.points):
            frame = sampling.orthonormal_directions(p.n, stream.generator(_TAG_FRAME, t))
            sigma = self.li_sigmas[t % len(self.li_sigmas)]
            oracle = core.NoisyOracle(p, noise, rng=stream.generator(_TAG_NOISE, t))
            est = estimators.estimate(oracle, x, estimators.EstimatorConfig(
                "LI", sigma, direction_source=frame))
            bound = bounds.deterministic_error_bound(
                "LI", p.n, p.lipschitz_gradient, p.lipschitz_hessian, sigma,
                self.li_eps_f, cond_qinv=est.qinv_norm)
            err = float(np.linalg.norm(est.g - p.gradient_at(x)))
            li.append((frame.Q, sigma, err, bound))
        return rc, moments, li

    def artifacts(self, out) -> dict[str, bytes]:
        rc, moments, li = out
        arts = {}
        if rc in (0, 1):   # 1: bound-check ran and found a failing row
            arts["bound_check.csv"] = self.out.read_bytes()
            arts["bound_check_probabilistic.csv"] = self.prob_out.read_bytes()
        text = io.StringIO()
        for (n, dist, functional, _, _), (mean, se) in zip(self.mc_cases, moments):
            text.write(f"{n},{dist},{functional},"
                       + ",".join(format(v, ".17g") for v in np.concatenate(
                           [mean.ravel(), se.ravel()])) + "\n")
        for Q, sigma, err, bound in li:
            text.write(f"{sigma!r},{err!r},{bound!r},"
                       + ",".join(format(v, ".17g") for v in Q.ravel()) + "\n")
        arts["theory.csv"] = text.getvalue().encode()
        return arts

    def check(self, out, arts) -> Check:
        rc, moments, li = out
        chk = Check()
        if "bound_check.csv" not in arts:
            chk.op(False, f"bound-check exited {rc}")
        else:
            for name in ("bound_check.csv", "bound_check_probabilistic.csv"):
                for r in _rows(arts[name]):
                    chk.op(r["passed"] == "true", f"bound-check {r['kind']} {r['method']} row failed")
            chk.op(rc == 0, f"bound-check exited {rc}")

        z_max = family_z(sum(c[0] ** 2 for c in self.mc_cases))
        for (n, dist, functional, _, expected), (mean, se) in zip(self.mc_cases, moments):
            z = float(np.max(np.abs(mean - expected) / np.maximum(se, 1e-300)))
            chk.op(z <= z_max, f"{dist} {functional} n={n}: worst entry {z:.2f} s.e. > {z_max:.2f}")

        p = self.problem
        eye = np.eye(p.n)
        for Q, sigma, err, bound in li:
            ortho = float(np.max(np.abs(Q @ Q.T - eye)))
            chk.op(ortho <= 1e-12 and err <= bound,
                   f"LI sigma={sigma:g}: error {err:.3g} vs bound {bound:.3g}, "
                   f"orthonormality {ortho:.2e}")
        # Haar frames: E[Q_ij] = 0 and E[Q_ij^2] = 1/n entrywise
        Qs = np.stack([q for q, *_ in li])
        z_max = family_z(2 * p.n * p.n)
        for name, vals, want in (("E[Q_ij]", Qs, 0.0), ("E[Q_ij^2]", Qs**2, 1.0 / p.n)):
            se = vals.std(axis=0, ddof=1) / math.sqrt(len(vals))
            z = float(np.max(np.abs(vals.mean(axis=0) - want) / np.maximum(se, 1e-300)))
            chk.op(z <= z_max, f"orthonormal frames: {name} worst entry {z:.2f} s.e. > {z_max:.2f}")
        return chk


WORKLOADS = {"sweeps": Sweeps, "dfo_race": DfoRace, "theory_check": TheoryCheck}


def reference_minima() -> dict[str, float]:
    """Per bench problem, a local minimum value from its analytic gradient
    (scipy L-BFGS-B from x0), capped by the documented minimum_value.

    The targets depend on no solver under test, so a better solver cannot
    move another solver's target."""
    from scipy.optimize import minimize

    refs = {}
    for name, problem, x0 in core.make_standard_problems():
        if name == "linear":
            continue
        res = minimize(problem.value_at, x0, jac=problem.gradient_at, method="L-BFGS-B",
                       options=dict(maxiter=100_000, maxfun=100_000, ftol=1e-15, gtol=1e-12))
        best = float(res.fun)
        if problem.minimum_value is not None:
            best = min(best, float(problem.minimum_value))
        refs[name] = best
    return refs
