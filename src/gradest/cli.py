"""Command-line driver.

Subcommands: estimate, bounds, sweep, theta-dist, bound-check, optimize,
bench. Every subcommand takes --out and --seed. The experiment subcommands
(sweep, theta-dist, bound-check, bench) build one ExperimentSpec: each of
their flags is stored under its ExperimentSpec field name, and the spec is
the --spec JSON file's fields updated with the flags that were given, so a
flag left out keeps the file's value or else the spec default. Each cell's
trials go through the batched estimator core with their own direction and
noise streams, so the same seed always writes the same bytes, whether
bound-check runs its probabilistic cells on one CPU or several. A usage
error, a bad input value or running out of memory prints one
"gradest: error: ..." line and returns 2. The JSON that estimate and
bounds print is strict: every non-finite float in it is written as null.
Numpy's floating-point warnings are silenced for the run: a probe that
overflows shows up as a non-finite value in the output, not as a warning
on stderr.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import bounds as bnd
from .core import get_problem
from .estimators import EstimatorConfig, estimate, method_name, relative_error
from .experiments import (ExperimentSpec, bound_check_skips, make_oracle, parse_solver,
                          run_bound_validation, run_optimizer_benchmark,
                          run_relative_error_sweep, run_theta_distribution)
from .sampling import RngStream

__all__ = ["main"]

_SPEC_FIELDS = frozenset(f.name for f in fields(ExperimentSpec))


def _arg_type(parse):
    """parse as an argparse type: a ValueError it raises is reported with
    its own message rather than argparse's generic one."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _strs(text: str) -> tuple[str, ...]:
    if entries := tuple(t.strip() for t in text.split(",") if t.strip()):
        return entries
    raise ValueError(f"needs at least one entry, got {text!r}")


_STRS = _arg_type(_strs)
_FLOATS = _arg_type(lambda text: tuple(float(t) for t in _strs(text)))
_INTS = _arg_type(lambda text: tuple(int(t) for t in _strs(text)))
_METHOD = _arg_type(method_name)


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ValueError, so main reports them like any
    other bad input instead of exiting from inside parse_args."""

    def error(self, message):
        raise ValueError(message)


def _sibling(out: str, suffix: str) -> str:
    p = Path(out)
    return str(p.with_name(p.stem + suffix + p.suffix))


def _print_json(data: dict, out: str | None, **dump_args) -> int:
    """data as strict JSON on stdout or in the file out: a non-finite float,
    alone or in a list, becomes null, and json.dumps raises ValueError (one
    error line) on any other it meets rather than write NaN or Infinity."""
    def finite(v):
        if isinstance(v, list):
            return [finite(u) for u in v]
        return None if isinstance(v, float) and not math.isfinite(v) else v

    text = json.dumps({k: finite(v) for k, v in data.items()}, indent=2, allow_nan=False,
                      **dump_args)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)
    return 0


def _spec_from_args(args, experiment: str) -> ExperimentSpec:
    """The --spec file's fields updated with the flags that were given."""
    flags = {k: v for k, v in vars(args).items() if k in _SPEC_FIELDS}
    if getattr(args, "spec", None):
        return ExperimentSpec.from_json(args.spec, **flags, experiment=experiment)
    return ExperimentSpec.from_dict({}, **flags, experiment=experiment)


def _cmd_estimate(args) -> int:
    problem, x0 = get_problem(args.problem)
    x = np.array(args.point) if args.point else x0
    if x.shape != (problem.n,):
        raise ValueError(f"point must have {problem.n} coordinates")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"point must be finite, got {args.point}")
    oracle = make_oracle(problem, args.noise_kind, args.eps_f, args.seed, 1)
    cfg = EstimatorConfig(method=args.method, sigma=args.sigma, N=args.N)
    est = estimate(oracle, x, cfg, RngStream(args.seed).generator(2))
    out = {
        "problem": problem.name,
        "method": cfg.method,
        "sigma": cfg.sigma,
        "N": cfg.N or x.size,
        "evals_used": est.evals_used,
        "point": [float(v) for v in x],
        "g": [float(v) for v in est.g],
        "grad_est_norm": float(np.linalg.norm(est.g)),
    }
    if est.cond_Q is not None:
        out["cond_Q"] = est.cond_Q
        out["qinv_norm"] = est.qinv_norm
    out["theta"] = relative_error(est, problem.gradient_at(x))
    return _print_json(out, args.out)


def _cmd_bounds(args) -> int:
    grad_norm = None if args.grad_norm in (None, "unknown") else float(args.grad_norm)
    report = bnd.condition_table(args.method, args.n, args.theta, args.delta,
                                 args.L, args.M, args.eps_f, grad_norm,
                                 args.cond_qinv)
    return _print_json(report.to_dict(), args.out, sort_keys=True)


def _cmd_sweep(args) -> int:
    spec = _spec_from_args(args, "relative_error_sweep")
    rows, summary = run_relative_error_sweep(spec)
    out = args.out or "sweep.csv"
    rows.write(out)
    summary_path = _sibling(out, "_summary")
    summary.write(summary_path)
    print(f"wrote {len(rows.rows)} rows to {out}; per-cell summary in {summary_path}")
    return 0


def _cmd_theta_dist(args) -> int:
    spec = _spec_from_args(args, "theta_distribution")
    table = run_theta_distribution(spec)
    if args.out:
        table.write(args.out)
        print(f"wrote {len(table.rows)} rows to {args.out}")
    else:
        sys.stdout.write(table.text())
    return 0


def _cmd_bound_check(args) -> int:
    spec = _spec_from_args(args, "bound_validation")
    for problem, method, why in bound_check_skips(spec):
        print(f"skipped {method} on {problem}: {why}")
    det, prob = run_bound_validation(spec)
    out = args.out or "bound_check.csv"
    det.write(out)
    prob_path = _sibling(out, "_probabilistic")
    prob.write(prob_path)

    def passed(table, excluded):
        """(rows passed, rows checked, rows excluded from pass/fail)"""
        checked = [ok for ok, skip in zip(table.column("passed"), excluded) if not skip]
        return sum(checked), len(checked), len(excluded) - len(checked)

    d_ok, d_all, d_skip = passed(det, det.column("round_off"))
    p_ok, p_all, p_skip = passed(prob, [v != "nonempty" for v in prob.column("interval")])
    print(f"deterministic rows: {d_ok}/{d_all} passed, {d_skip} excluded as "
          f"round-off ({out})")
    print(f"probabilistic rows: {p_ok}/{p_all} passed, {p_skip} excluded as "
          f"empty interval ({prob_path})")
    return 0 if d_ok == d_all and p_ok == p_all else 1


def _cmd_optimize(args) -> int:
    problem, x0 = get_problem(args.problem)
    oracle = make_oracle(problem, args.noise_kind, args.eps_f, args.seed, 1)
    trace = args.solver.run(oracle, x0, args.budget, RngStream(args.seed).generator(3),
                            max_iters=args.max_iters, grad_norm_stop=args.grad_stop)
    out = args.out or "trace.csv"
    with open(out, "w", newline="") as fh:
        trace.to_csv(fh)
    print(f"termination={trace.termination} iters={len(trace.records)} "
          f"evals={oracle.eval_count} f={trace.records[-1].f:.6g} trace={out}")
    return 0


def _cmd_bench(args) -> int:
    spec = _spec_from_args(args, "optimizer_benchmark")
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
    parser = _Parser(
        prog="gradest",
        description="Gradient estimation from noisy function values: "
                    "estimators, error bounds, and DFO experiments.")
    kinds = ("uniform_iid", "sinusoidal_deterministic")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output path")
    single = argparse.ArgumentParser(add_help=False, parents=[common])
    single.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    noise = argparse.ArgumentParser(add_help=False)
    noise.add_argument("--eps-f", type=float, default=0.0, help="noise level bound")
    noise.add_argument("--noise-kind", default="uniform_iid", choices=kinds)
    # experiment flags: dest is the ExperimentSpec field, and a flag that is
    # not given leaves the spec file's value or the spec default in place
    spec = argparse.ArgumentParser(add_help=False, parents=[common],
                                   argument_default=argparse.SUPPRESS)
    spec.add_argument("--spec", help="JSON file with ExperimentSpec fields; "
                                     "flags that are given override it")
    spec.add_argument("--seed", type=int, help="base seed (default 0)")
    spec.add_argument("--trials", type=int,
                      help="trials per cell (default per experiment)")
    grid = argparse.ArgumentParser(add_help=False, parents=[spec],
                                   argument_default=argparse.SUPPRESS)
    grid.add_argument("--problems", type=_STRS, help="comma-separated names")
    grid.add_argument("--eps-fs", type=_FLOATS,
                      help="comma-separated noise levels (bench takes exactly one)")
    grid.add_argument("--noise-kind", choices=kinds)

    sub = parser.add_subparsers(dest="command", required=True)

    def experiment(name, parent, fn, help):
        p = sub.add_parser(name, parents=[parent], help=help,
                           argument_default=argparse.SUPPRESS)
        p.set_defaults(fn=fn)
        return p

    p = sub.add_parser("estimate", parents=[single, noise],
                       help="one gradient estimate at a point")
    p.add_argument("--problem", default="sincos20")
    p.add_argument("--method", type=_METHOD, required=True)
    p.add_argument("--sigma", type=float, default=0.01)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--point", type=_FLOATS, default=None,
                   help="comma-separated coordinates (default x0)")
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("bounds", parents=[single],
                       help="norm-condition table row as JSON")
    p.add_argument("--method", type=_METHOD, required=True)
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

    p = experiment("sweep", grid, _cmd_sweep,
                   "relative-error sweep over a parameter grid")
    p.add_argument("--methods", type=_STRS)
    p.add_argument("--sigmas", type=_FLOATS)
    p.add_argument("--sample-factor", type=float)
    p.add_argument("--points", type=int, dest="points_per_problem",
                   help="points per problem")

    p = experiment("theta-dist", spec, _cmd_theta_dist,
                   "theta distribution vs N on the linear objective")
    p.add_argument("--n", type=int)
    p.add_argument("--N-list", type=_INTS,
                   help="comma-separated sample sizes")

    p = experiment("bound-check", grid, _cmd_bound_check,
                   "measured errors vs theoretical bounds")
    p.add_argument("--methods", type=_STRS)
    p.add_argument("--sigmas", type=_FLOATS)
    p.add_argument("--theta", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--points", type=int, dest="points_per_problem")

    p = sub.add_parser("optimize", parents=[single, noise],
                       help="one DFO run, trace to CSV")
    p.add_argument("--problem", required=True)
    p.add_argument("--solver", type=_arg_type(parse_solver), default="ffd+lbfgs+ls",
                   help="solver spec as bench --solvers takes it, like gsg:n+sd+ls "
                        "(default %(default)s)")
    p.add_argument("--budget", type=int, default=10_000)
    p.add_argument("--max-iters", type=int, default=1_000_000)
    p.add_argument("--grad-stop", type=float, default=None)
    p.set_defaults(fn=_cmd_optimize)

    p = experiment("bench", grid, _cmd_bench,
                   "solver race with performance/data profiles")
    p.add_argument("--solvers", type=_STRS,
                   help="comma-separated specs like ffd+lbfgs+ls,gsg:n+sd+ls")
    p.add_argument("--budget-factor", type=int)
    p.add_argument("--taus", type=_FLOATS)

    try:
        args = parser.parse_args(argv)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.fn(args)
    except KeyError as exc:
        print(f"gradest: error: {exc.args[0]}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"gradest: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"gradest: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
