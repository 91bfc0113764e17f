"""Command-line driver.

Subcommands: estimate, bounds, sweep, theta-dist, bound-check, optimize,
bench. Global flags --seed/--out/--trials apply to every subcommand;
experiment subcommands also accept --spec pointing at a JSON file whose keys
are ExperimentSpec fields (flags override file values). The experiment
subcommands run single-threaded: each cell's trials go through the batched
estimator core with their own direction and noise streams, so the same seed
always writes the same bytes.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import bounds as bnd
from .core import NoiseModel, NoisyOracle, get_problem
from .estimators import (METHODS, EstimatorConfig, ZeroGradient, estimate,
                         relative_error)
from .experiments import (EXPERIMENTS, ExperimentSpec, bound_check_skips,
                          run_bound_validation, run_optimizer_benchmark,
                          run_relative_error_sweep, run_theta_distribution)
from .optimizer import LineSearchConfig, fixed_step_dfo, run_dfo
from .sampling import RngStream

__all__ = ["main"]


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(t) for t in text.split(",") if t.strip())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(",") if t.strip())


def _strs(text: str) -> tuple[str, ...]:
    return tuple(t.strip() for t in text.split(",") if t.strip())


_METHOD_BY_LOWER = {m.lower(): m for m in METHODS}


def _canon_method(name: str) -> str:
    # unknown names pass through so the config error can list the choices
    return _METHOD_BY_LOWER.get(name.strip().lower(), name)


def _sibling(out: str, suffix: str) -> str:
    p = Path(out)
    return str(p.with_name(p.stem + suffix + p.suffix))


def _spec_from_args(args, experiment: str, **overrides) -> ExperimentSpec:
    data = {}
    if getattr(args, "spec", None):
        with open(args.spec) as fh:
            data = json.load(fh)
    data["experiment"] = experiment
    data["seed"] = args.seed
    if args.trials is not None:
        data["trials"] = args.trials
    for key, value in overrides.items():
        if value is not None:
            data[key] = value
    return ExperimentSpec.from_dict(data)


def _make_oracle(problem, args) -> NoisyOracle:
    if args.eps_f > 0:
        kind = args.noise_kind or "uniform_iid"
        noise = NoiseModel(kind=kind, level=args.eps_f, seed=args.seed)
    else:
        noise = NoiseModel()
    rng = None
    if noise.kind == "uniform_iid":
        rng = RngStream(args.seed).generator(1)
    return NoisyOracle(problem, noise, rng=rng)


def _cmd_estimate(args) -> int:
    problem, x0 = get_problem(args.problem)
    x = np.array(_floats(args.point)) if args.point else x0
    if x.shape != (problem.n,):
        raise ValueError(f"point must have {problem.n} coordinates")
    oracle = _make_oracle(problem, args)
    cfg = EstimatorConfig(method=args.method, sigma=args.sigma, N=args.N)
    est = estimate(oracle, x, cfg, RngStream(args.seed).generator(2))
    out = {
        "problem": problem.name,
        "method": est.method,
        "sigma": est.sigma,
        "N": est.N,
        "evals_used": est.evals_used,
        "point": [float(v) for v in x],
        "g": [float(v) for v in est.g],
        "grad_est_norm": float(np.linalg.norm(est.g)),
    }
    if est.cond_Q is not None:
        out["cond_Q"] = est.cond_Q
        out["qinv_norm"] = est.qinv_norm
    try:
        out["theta"] = relative_error(est, problem.gradient_at(x))
    except ZeroGradient:
        out["theta"] = None
    text = json.dumps(out, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


def _cmd_bounds(args) -> int:
    grad_norm = None if args.grad_norm in (None, "unknown") else float(args.grad_norm)
    report = bnd.condition_table(args.method, args.n, args.theta, args.delta,
                                 args.L, args.M, args.eps_f, grad_norm,
                                 args.cond_qinv)
    text = report.to_json()
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


def _cmd_sweep(args) -> int:
    spec = _spec_from_args(
        args, "relative_error_sweep",
        problems=_strs(args.problems) if args.problems else None,
        methods=_strs(args.methods) if args.methods else None,
        sigmas=_floats(args.sigmas) if args.sigmas else None,
        eps_fs=_floats(args.eps_fs) if args.eps_fs else None,
        noise_kind=args.noise_kind,
        sample_factor=args.sample_factor,
        points_per_problem=args.points)
    rows, summary = run_relative_error_sweep(spec)
    out = args.out or "sweep.csv"
    rows.write(out)
    summary_path = _sibling(out, "_summary")
    summary.write(summary_path)
    print(f"wrote {len(rows.rows)} rows to {out}; per-cell summary in {summary_path}")
    return 0


def _cmd_theta_dist(args) -> int:
    spec = _spec_from_args(
        args, "theta_distribution", n=args.n,
        N_list=_ints(args.N_list) if args.N_list else None)
    table = run_theta_distribution(spec)
    if args.out:
        table.write(args.out)
        print(f"wrote {len(table.rows)} rows to {args.out}")
    else:
        sys.stdout.write(table.text())
    return 0


def _cmd_bound_check(args) -> int:
    spec = _spec_from_args(
        args, "bound_validation",
        problems=_strs(args.problems) if args.problems else None,
        methods=_strs(args.methods) if args.methods else None,
        sigmas=_floats(args.sigmas) if args.sigmas else None,
        eps_fs=_floats(args.eps_fs) if args.eps_fs else None,
        noise_kind=args.noise_kind,
        theta=args.theta, delta=args.delta,
        points_per_problem=args.points)
    for problem, method, why in bound_check_skips(spec):
        print(f"skipped {method} on {problem}: {why}")
    det, prob = run_bound_validation(spec)
    out = args.out or "bound_check.csv"
    det.write(out)
    prob_path = _sibling(out, "_probabilistic")
    prob.write(prob_path)

    def passed(table):
        col = table.column("passed")
        return sum(1 for v in col if v is True or v == "true"), len(col)

    d_ok, d_all = passed(det)
    p_ok, p_all = passed(prob)
    d_skip = sum(1 for v in det.column("round_off") if v is True or v == "true")
    p_skip = sum(1 for v in prob.column("interval") if v != "nonempty")
    print(f"deterministic rows: {d_ok}/{d_all} passed, {d_skip} excluded as "
          f"round-off ({out})")
    print(f"probabilistic rows: {p_ok}/{p_all} passed, {p_skip} excluded as "
          f"empty interval ({prob_path})")
    return 0 if d_ok == d_all and p_ok == p_all else 1


def _cmd_optimize(args) -> int:
    problem, x0 = get_problem(args.problem)
    oracle = _make_oracle(problem, args)
    cfg = EstimatorConfig(method=args.method, sigma=args.sigma, N=args.N)
    rng = RngStream(args.seed).generator(3)
    if args.step == "fixed":
        trace = fixed_step_dfo(oracle, cfg, args.alpha, x0, args.budget, rng)
    else:
        direction = "steepest_descent" if args.direction == "sd" else args.direction
        ls = LineSearchConfig(direction=direction, eval_budget=args.budget,
                              max_iters=args.max_iters,
                              grad_norm_stop=args.grad_stop)
        trace = run_dfo(oracle, cfg, ls, x0, rng)
    out = args.out or "trace.csv"
    trace.to_csv(out)
    final = trace.records[-1] if trace.records else None
    f_final = final.f if final else float("nan")
    print(f"termination={trace.termination} iters={len(trace.records)} "
          f"evals={oracle.eval_count} f={f_final:.6g} trace={out}")
    return 0


def _cmd_bench(args) -> int:
    spec = _spec_from_args(
        args, "optimizer_benchmark",
        problems=_strs(args.problems) if args.problems else None,
        solvers=_strs(args.solvers) if args.solvers else None,
        eps_fs=_floats(args.eps_fs) if args.eps_fs else None,
        noise_kind=args.noise_kind,
        budget_factor=args.budget_factor,
        taus=_floats(args.taus) if args.taus else None)
    result = run_optimizer_benchmark(spec)
    out = args.out or "bench.csv"
    result.raw.write(out)
    data_path = _sibling(out, "_data_profile")
    perf_path = _sibling(out, "_perf_profile")
    result.profiles.data_profile_table().write(data_path)
    result.profiles.perf_profile_table().write(perf_path)
    print(f"raw results: {out}")
    print(f"profiles: {data_path}, {perf_path}")
    for tau in result.profiles.taus:
        for solver in result.profiles.solvers:
            curve = result.profiles.data_profiles[(tau, solver)]
            print(f"tau={tau:g} {solver}: solved {curve[-1]:.0%} within budget")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gradest",
        description="Gradient estimation from noisy function values: "
                    "estimators, error bounds, and DFO experiments.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    common.add_argument("--out", default=None, help="output path")
    common.add_argument("--trials", type=int, default=None,
                        help="trials per cell (default per experiment)")
    noise = argparse.ArgumentParser(add_help=False)
    noise.add_argument("--eps-f", type=float, default=0.0, help="noise level bound")
    noise.add_argument("--noise-kind", default=None,
                       choices=("uniform_iid", "sinusoidal_deterministic"))
    specfile = argparse.ArgumentParser(add_help=False)
    specfile.add_argument("--spec", default=None,
                          help="JSON file with ExperimentSpec fields")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", parents=[common, noise],
                       help="one gradient estimate at a point")
    p.add_argument("--problem", default="sincos20")
    p.add_argument("--method", required=True)
    p.add_argument("--sigma", type=float, default=0.01)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--point", default=None, help="comma-separated coordinates (default x0)")
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("bounds", parents=[common],
                       help="norm-condition table row as JSON")
    p.add_argument("--method", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--L", type=float, default=None)
    p.add_argument("--M", type=float, default=None)
    p.add_argument("--eps-f", type=float, default=0.0)
    p.add_argument("--grad-norm", default=None,
                   help="float or 'unknown' (default unknown)")
    p.add_argument("--cond-qinv", type=float, default=None)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("sweep", parents=[common, noise, specfile],
                       help="relative-error sweep over a parameter grid")
    p.add_argument("--problems", default=None, help="comma-separated names")
    p.add_argument("--methods", default=None)
    p.add_argument("--sigmas", default=None)
    p.add_argument("--eps-fs", default=None, dest="eps_fs")
    p.add_argument("--sample-factor", type=float, default=None)
    p.add_argument("--points", type=int, default=None, help="points per problem")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("theta-dist", parents=[common, specfile],
                       help="theta distribution vs N on the linear objective")
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--N-list", default=None, dest="N_list",
                   help="comma-separated sample sizes")
    p.set_defaults(fn=_cmd_theta_dist)

    p = sub.add_parser("bound-check", parents=[common, noise, specfile],
                       help="measured errors vs theoretical bounds")
    p.add_argument("--problems", default=None)
    p.add_argument("--methods", default=None)
    p.add_argument("--sigmas", default=None)
    p.add_argument("--eps-fs", default=None, dest="eps_fs")
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--points", type=int, default=None)
    p.set_defaults(fn=_cmd_bound_check)

    p = sub.add_parser("optimize", parents=[common, noise],
                       help="one DFO run, trace to CSV")
    p.add_argument("--problem", required=True)
    p.add_argument("--method", default="FFD")
    p.add_argument("--sigma", type=float, default=1e-5)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--direction", default="lbfgs", choices=("lbfgs", "sd", "steepest_descent"))
    p.add_argument("--step", default="ls", choices=("ls", "fixed"))
    p.add_argument("--alpha", type=float, default=0.01, help="fixed step size")
    p.add_argument("--budget", type=int, default=10_000)
    p.add_argument("--max-iters", type=int, default=1_000_000)
    p.add_argument("--grad-stop", type=float, default=None)
    p.set_defaults(fn=_cmd_optimize)

    p = sub.add_parser("bench", parents=[common, noise, specfile],
                       help="solver race with performance/data profiles")
    p.add_argument("--problems", default=None)
    p.add_argument("--solvers", default=None,
                   help="comma-separated specs like ffd+lbfgs+ls,gsg:n+sd+ls")
    p.add_argument("--budget-factor", type=int, default=None)
    p.add_argument("--taus", default=None)
    p.add_argument("--eps-fs", default=None, dest="eps_fs",
                   help="noise level for all runs (first value used)")
    p.set_defaults(fn=_cmd_bench)

    args = parser.parse_args(argv)
    if getattr(args, "method", None):
        args.method = _canon_method(args.method)
    if getattr(args, "methods", None):
        args.methods = ",".join(_canon_method(m) for m in _strs(args.methods))
    try:
        return args.fn(args)
    except KeyError as exc:
        print(f"gradest: error: {exc.args[0]}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"gradest: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
