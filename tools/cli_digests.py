"""SHA-256 digests of a fixed set of gradest CLI runs, for byte-identity checks.

Runs sixteen gradest invocations at seed 7, each in its own directory under
a temporary root, with the gradest package from the src/ directory next to
this script. Prints one "<sha256>  <invocation>/<part>" line per output
file, stdout, stderr and exit code, in a fixed order. Two checkouts write
the same bytes when their outputs diff clean:

    python tools/cli_digests.py > new.txt
    python ../parent/tools/cli_digests.py > old.txt
    diff old.txt new.txt

Standard library only; the runs take a few seconds each.
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

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
    ("optimize_ffd_lbfgs", ["optimize", "--problem", "rosenbrock2",
                            "--budget", "600", "--out", "trace.csv"]),
    ("optimize_gsg_sd", ["optimize", "--problem", "quadratic", "--method", "GSG",
                         "--N", "8", "--direction", "sd", "--eps-f", "1e-4",
                         "--budget", "2000", "--out", "trace.csv"]),
    ("optimize_li_stop", ["optimize", "--problem", "rosenbrock2", "--method", "LI",
                          "--sigma", "1e-6", "--budget", "900", "--grad-stop", "1e-4",
                          "--out", "trace.csv"]),
    ("optimize_cfd_fixed", ["optimize", "--problem", "rosenbrock2", "--method", "CFD",
                            "--step", "fixed", "--alpha", "0.001", "--budget", "600",
                            "--out", "trace.csv"]),
    ("optimize_bsg_fixed", ["optimize", "--problem", "quadratic", "--method", "BSG",
                            "--N", "4", "--step", "fixed", "--alpha", "0.05",
                            "--eps-f", "1e-3", "--budget", "800", "--out", "trace.csv"]),
    ("sweep", ["sweep", "--problems", "quadratic,rosenbrock2", "--trials", "5",
               "--points", "2", "--sigmas", "1e-2,1e-5", "--eps-fs", "0,1e-3",
               "--out", "sweep.csv"]),
    ("theta_dist", ["theta-dist", "--n", "8", "--N-list", "1,4,16", "--trials", "200",
                    "--out", "theta.csv"]),
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
    ("bounds", ["bounds", "--method", "GSG", "--n", "10", "--delta", "0.1",
                "--L", "2", "--eps-f", "1e-6", "--grad-norm", "1"]),
]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
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
