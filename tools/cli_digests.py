"""SHA-256 digests of a fixed set of gradest CLI runs, for byte-identity checks.

Runs fifty-six gradest invocations at seed 7, each in its own directory
under a temporary root, with the gradest package from --src DIR (default:
the src/ directory next to this script). Prints a header line naming the
numpy version, the machine and numpy's SIMD baseline, since floating-point
results may differ where these do, then one "<sha256>  <invocation>/<part>"
line per output file, stdout, stderr and exit code, in a fixed order. Two
checkouts write the same bytes when their outputs diff clean; one copy of
the invocation list serves both, so an invocation added here can be
compared against an older checkout:

    python tools/cli_digests.py > new.txt
    python tools/cli_digests.py --src ../parent/src > old.txt
    diff old.txt new.txt

tests/cli_digests.txt holds the output for the current source, and
tests/test_golden.py checks it; a change that moves output bytes updates
that file in the same commit, so its diff names the invocations that moved.
The runs take well under a second each.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
SEED = "7"

# (name, argv after "gradest"); outputs go to relative paths in the run's
# own directory, so no temporary path reaches stdout
INVOCATIONS = [
    ("estimate_ffd", ["estimate", "--method", "FFD", "--problem", "sincos20",
                      "--eps-f", "1e-3", "--out", "est.json"]),
    ("estimate_li", ["estimate", "--method", "li", "--problem", "rosenbrock2",
                     "--sigma", "1e-4", "--eps-f", "1e-6"]),
    ("estimate_cbsg", ["estimate", "--method", "cBSG", "--N", "12", "--problem",
                       "quadratic", "--noise-kind", "sinusoidal_deterministic",
                       "--eps-f", "1e-4", "--out", "est.json"]),
    # a stationary point of the sphere: theta is undefined and written as null
    ("estimate_stationary", ["estimate", "--method", "CFD", "--problem", "sphere",
                             "--point", "0,0,0,0,0,0"]),
    # sigma = 1e200 overflows every probe: a nan estimate and a nan theta
    ("estimate_overflow", ["estimate", "--method", "CFD", "--problem", "rosenbrock2",
                           "--sigma", "1e200"]),
    # an unknown problem name: the CLI's KeyError branch, one error line
    ("estimate_unknown_problem", ["estimate", "--method", "FFD", "--problem", "nosuch"]),
    ("optimize_ffd_lbfgs", ["optimize", "--problem", "rosenbrock2",
                            "--budget", "600", "--out", "trace.csv"]),
    ("optimize_gsg_sd", ["optimize", "--problem", "quadratic", "--solver", "gsg:8+sd+ls",
                         "--eps-f", "1e-4", "--budget", "2000", "--out", "trace.csv"]),
    # a fractional multiple of n: N = ceil(1.5 * 5) = 8
    ("optimize_gsg_fraction", ["optimize", "--problem", "trig5", "--solver", "gsg:1.5n+sd+ls",
                               "--eps-f", "1e-4", "--budget", "300", "--out", "trace.csv"]),
    ("optimize_li_stop", ["optimize", "--problem", "rosenbrock2",
                          "--solver", "li:1e-6+lbfgs+ls", "--budget", "900",
                          "--grad-stop", "1e-4", "--out", "trace.csv"]),
    ("optimize_cfd_fixed", ["optimize", "--problem", "rosenbrock2",
                            "--solver", "cfd+sd+fixed:0.001", "--budget", "600",
                            "--out", "trace.csv"]),
    # FFD at sigma 1e-2 reaches a point where its L-BFGS step rounds away
    # (x + alpha d == x) with its budget mostly unspent
    ("optimize_null_step", ["optimize", "--problem", "rosenbrock2",
                            "--solver", "ffd:1e-2+lbfgs+ls", "--budget", "600",
                            "--out", "trace.csv"]),
    # eps_f 0.5 at sigma 1e-9: the FFD estimate is noise of size eps_f / sigma,
    # whose slope asks more decrease than any probe gives, so three line
    # searches in a row fail under the 2 eps_f relaxation
    ("optimize_noisy_step_failure", ["optimize", "--problem", "sphere",
                                     "--solver", "ffd:1e-9+sd+ls", "--eps-f", "0.5",
                                     "--budget", "600", "--out", "trace.csv"]),
    ("optimize_budget_one", ["optimize", "--problem", "quadratic", "--budget", "1",
                             "--out", "trace.csv"]),
    ("optimize_bsg_fixed", ["optimize", "--problem", "quadratic",
                            "--solver", "bsg:4+sd+fixed:0.05", "--eps-f", "1e-3",
                            "--budget", "800", "--out", "trace.csv"]),
    ("sweep", ["sweep", "--problems", "quadratic,rosenbrock2", "--trials", "5",
               "--points", "2", "--sigmas", "1e-2,1e-5", "--eps-fs", "0,1e-3",
               "--out", "sweep.csv"]),
    # the N column reads ceil(1.5 * 5) = 8 for GSG and n = 5 for LI
    ("sweep_sample_factor", ["sweep", "--problems", "trig5", "--methods", "GSG,LI",
                             "--sample-factor", "1.5", "--trials", "3", "--points", "1",
                             "--out", "sweep.csv"]),
    # sigma = 1e200 overflows every probe: non-finite thetas, empty stderr
    ("sweep_overflow", ["sweep", "--problems", "rosenbrock2", "--sigmas", "1e200",
                        "--trials", "3", "--points", "1", "--out", "sweep.csv"]),
    # a list flag given with no entries is an error, not the default list: exit 2
    ("sweep_empty_problems", ["sweep", "--problems", "", "--methods", "FFD", "--trials", "1",
                              "--points", "1", "--out", "sw.csv"]),
    # all seven methods under the deterministic sinusoidal noise
    ("sweep_sinusoidal", ["sweep", "--problems", "sincos10", "--noise-kind",
                          "sinusoidal_deterministic", "--eps-fs", "1e-4",
                          "--trials", "5", "--points", "1", "--out", "sweep.csv"]),
    ("theta_dist", ["theta-dist", "--n", "8", "--N-list", "1,4,16", "--trials", "200",
                    "--out", "theta.csv"]),
    # cells whose trials span several estimator chunks: LI on sincos20 (3)
    # and GSG at N = 512, n = 32 (7)
    ("sweep_li_chunks", ["sweep", "--problems", "sincos20", "--methods", "LI",
                         "--trials", "400", "--points", "1", "--out", "sweep.csv"]),
    ("theta_dist_chunks", ["theta-dist", "--n", "32", "--N-list", "512", "--trials", "20",
                           "--out", "theta.csv"]),
    # an N list out of size order, so the longest-first cell order differs
    # from the row order
    ("theta_dist_unsorted", ["theta-dist", "--n", "16", "--N-list", "64,1,256,8",
                             "--trials", "30", "--out", "theta.csv"]),
    ("bound_check_default", ["bound-check", "--trials", "50", "--points", "2",
                             "--out", "bc.csv"]),
    ("bound_check_grid", ["bound-check", "--problems", "quadratic,sphere",
                          "--methods", "FFD,LI,GSG,cBSG", "--trials", "30",
                          "--points", "2", "--eps-fs", "0,1e-6", "--out", "bc.csv"]),
    ("bench_default", ["bench", "--problems", "rosenbrock2,quadratic",
                       "--budget-factor", "50", "--out", "bench.csv"]),
    ("bench_mixed", ["bench", "--problems", "rosenbrock2,powell4",
                     "--solvers", "ffd+lbfgs+ls,cfd+sd+fixed:0.001",
                     "--taus", "0.1,0.001", "--trials", "2", "--eps-fs", "1e-4",
                     "--budget-factor", "40", "--out", "bench.csv"]),
    ("bench_smoothing", ["bench", "--problems", "sphere,rosenbrock2",
                         "--solvers", "li+lbfgs+ls,gsg:2n+sd+ls,bsg:8:1e-4+lbfgs+ls",
                         "--budget-factor", "30", "--out", "bench.csv"]),
    # the dfo_race benchmark's three solvers over all eleven default bench
    # problems, noisy and noise-free: every problem runs through run_dfo
    ("bench_race_noisy", ["bench", "--solvers", "ffd+lbfgs+ls,gsg:n+sd+ls,ffd:1e-2+lbfgs+ls",
                          "--eps-fs", "1e-4", "--budget-factor", "30", "--out", "bench.csv"]),
    ("bench_race_clean", ["bench", "--solvers", "ffd+lbfgs+ls,gsg:n+sd+ls,ffd:1e-2+lbfgs+ls",
                          "--eps-fs", "0", "--budget-factor", "30", "--out", "bench.csv"]),
    # a repeated solver would merge two profile curves: exit 2
    ("bench_repeated_solver", ["bench", "--problems", "sphere",
                               "--solvers", "gsg:n+sd+ls,gsg:n+sd+ls",
                               "--budget-factor", "5", "--out", "bench.csv"]),
    # a method given twice (matched ignoring case) would write two rows that
    # no column tells apart: exit 2
    ("bound_check_repeated_method", ["bound-check", "--problems", "sincos10",
                                     "--methods", "GSG,gsg", "--trials", "20",
                                     "--points", "1", "--out", "bc.csv"]),
    ("bounds", ["bounds", "--method", "GSG", "--n", "10", "--delta", "0.1",
                "--L", "2", "--eps-f", "1e-6", "--grad-norm", "1"]),
    # one condition-table row per remaining method, an empty interval, and an
    # unknown gradient norm (bounds_cfd)
    ("bounds_ffd", ["bounds", "--method", "FFD", "--n", "10", "--L", "2",
                    "--eps-f", "1e-6", "--grad-norm", "1"]),
    ("bounds_cfd", ["bounds", "--method", "CFD", "--n", "10", "--M", "1",
                    "--eps-f", "1e-6"]),
    ("bounds_li", ["bounds", "--method", "LI", "--n", "10", "--L", "2",
                   "--eps-f", "1e-6", "--grad-norm", "1", "--cond-qinv", "3"]),
    ("bounds_cgsg", ["bounds", "--method", "cGSG", "--n", "10", "--delta", "0.1",
                     "--M", "1", "--eps-f", "1e-6", "--grad-norm", "1"]),
    ("bounds_bsg", ["bounds", "--method", "BSG", "--n", "10", "--delta", "0.1",
                    "--L", "2", "--eps-f", "1e-6", "--grad-norm", "1"]),
    ("bounds_cbsg", ["bounds", "--method", "cBSG", "--n", "10", "--delta", "0.1",
                     "--M", "1", "--eps-f", "1e-6", "--grad-norm", "1"]),
    ("bounds_empty", ["bounds", "--method", "cBSG", "--n", "10", "--delta", "0.1",
                      "--M", "1", "--eps-f", "1e-2", "--grad-norm", "0.1"]),
    # theta = 0: no gradient norm is large enough, grad_norm_min is infinite
    ("bounds_theta_zero", ["bounds", "--method", "ffd", "--n", "4", "--L", "2",
                           "--eps-f", "1e-6", "--grad-norm", "1", "--theta", "0"]),
    # bad input exits 2 with one line on stderr naming the input
    ("bounds_missing_constant", ["bounds", "--method", "CFD", "--n", "4", "--eps-f", "1e-6"]),
    ("bounds_bad_n", ["bounds", "--method", "GSG", "--n", "0", "--delta", "0.1", "--L", "1"]),
    ("bounds_infinite_m", ["bounds", "--method", "FFD", "--n", "4", "--L", "2", "--M", "inf"]),
    ("bounds_negative_eps", ["bounds", "--method", "FFD", "--n", "4", "--L", "2",
                             "--eps-f=-1e-6"]),
    # a bound no float holds exits 2 the same way: delta theta^2 underflows to 0
    ("bounds_theta_underflow", ["bounds", "--method", "GSG", "--n", "4", "--delta", "0.1",
                                "--L", "1", "--theta", "1e-200"]),
    # and sigma^2 overflows in CFD's bound
    ("bound_check_sigma_overflow", ["bound-check", "--problems", "sphere", "--methods", "CFD",
                                    "--trials", "2", "--points", "1", "--sigmas", "1e200",
                                    "--out", "bc.csv"]),
    # an n no float holds exits 2 the same way
    ("bounds_huge_n", ["bounds", "--method", "FFD", "--n", str(10**400), "--L", "1"]),
    # uniform noise above half the largest float: its range 2 level overflows
    ("estimate_eps_overflow", ["estimate", "--method", "FFD", "--problem", "sphere",
                               "--eps-f", "1e308"]),
    # theta-dist without --out writes its table to stdout
    ("theta_dist_stdout", ["theta-dist", "--n", "4", "--N-list", "2,8", "--trials", "50"]),
    # GSG at eps_f 1e-2 on the sphere has an empty interval: a probabilistic row
    # with no sigma (cBSG is skipped, since the sphere's M is 0)
    ("bound_check_empty", ["bound-check", "--problems", "sphere", "--methods", "GSG,cBSG",
                           "--eps-fs", "1e-2", "--trials", "10", "--points", "1",
                           "--out", "bc.csv"]),
    # two deterministic rows below ROUND_OFF_SIGMA, flagged and excluded
    ("bound_check_round_off", ["bound-check", "--problems", "sincos10", "--methods", "FFD,LI",
                               "--sigmas", "1e-2,1e-13", "--trials", "5", "--points", "2",
                               "--out", "bc.csv"]),
    ("optimize_max_iters", ["optimize", "--problem", "rosenbrock2", "--max-iters", "5",
                            "--out", "trace.csv"]),
    # a fixed step of 3 on the sphere: f rises five times in a row
    ("optimize_fixed_divergence", ["optimize", "--problem", "sphere",
                                   "--solver", "ffd+sd+fixed:3", "--budget", "600",
                                   "--out", "trace.csv"]),
    # the scalar oracle under sinusoidal noise (the line search's trial points)
    ("optimize_sinusoidal", ["optimize", "--problem", "sincos10", "--noise-kind",
                             "sinusoidal_deterministic", "--eps-f", "1e-4",
                             "--budget", "500", "--out", "trace.csv"]),
]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def platform_header() -> str:
    """The header line: what the digests may depend on besides the source."""
    baseline = np.show_config(mode="dicts")["SIMD Extensions"]["baseline"]
    return (f"# numpy {np.__version__} machine {platform.machine()} "
            f"simd_baseline {','.join(baseline)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=SRC,
                        help="directory holding the gradest package (default %(default)s)")
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()))
    print(platform_header())
    with tempfile.TemporaryDirectory(prefix="cli_digests_") as root:
        for name, argv in INVOCATIONS:
            cwd = Path(root) / name
            cwd.mkdir()
            proc = subprocess.run(
                [sys.executable, "-m", "gradest.cli", *argv, "--seed", SEED],
                cwd=cwd, env=env, capture_output=True, check=False)
            for path in sorted(cwd.iterdir()):
                print(f"{_digest(path.read_bytes())}  {name}/{path.name}")
            print(f"{_digest(proc.stdout)}  {name}/stdout")
            print(f"{_digest(proc.stderr)}  {name}/stderr")
            print(f"{_digest(str(proc.returncode).encode())}  {name}/exit_code")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
