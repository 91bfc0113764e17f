"""The CLI's error contract: bad input is one "gradest: error:" line and exit 2.

The listed cases each once ended in a Python traceback (exit 1); the
hypothesis test draws invocations of all seven subcommands with extreme
floats and checks the contract on each.
"""

import contextlib
import io
import json
import math
import re
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradest.cli import main

# a bound that a float cannot hold, at the step that overflows or underflows
_OUT_OF_RANGE = {
    "n_min_theta_underflow": (["bounds", "--method", "GSG", "--n", "4", "--delta", "0.1",
                               "--L", "1", "--theta", "1e-200"], "N_min"),
    "n_min_delta_overflow": (["bounds", "--method", "GSG", "--n", "4", "--delta", "1e-320",
                              "--L", "1"], "N_min"),
    "sigma_lo_subnormal_L": (["bounds", "--method", "FFD", "--n", "4", "--L", "5e-324",
                              "--eps-f", "1e-6"], "sigma_lo"),
    "sigma_hi_divisor_underflow": (["bounds", "--method", "LI", "--n", "4", "--L", "1e-200",
                                    "--cond-qinv", "1e-320", "--grad-norm", "1"],
                                   "sigma_hi"),
    "n_huge": (["bounds", "--method", "FFD", "--n", str(10**400), "--L", "1"], "n"),
    "bound_check_sigma_overflow": (["bound-check", "--problems", "sphere", "--methods", "CFD",
                                    "--trials", "2", "--points", "1", "--sigmas", "1e200"],
                                   "bound"),
}


@pytest.mark.parametrize("argv, what", list(_OUT_OF_RANGE.values()), ids=list(_OUT_OF_RANGE))
def test_cli_bound_out_of_float_range_is_one_error_line(tmp_path, capsys, argv, what):
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"gradest: error: {what} is out of float range at method=")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["estimate", "--method", "FFD", "--problem", "sphere", "--eps-f", "1e308"],
    ["optimize", "--problem", "sphere", "--budget", "50", "--eps-f", "1e308"],
    ["sweep", "--problems", "sphere", "--trials", "2", "--points", "1", "--eps-fs", "0,1e308"],
    ["bound-check", "--problems", "sphere", "--trials", "2", "--points", "1",
     "--eps-fs", "1e308"],
    ["bench", "--problems", "sphere", "--budget-factor", "5", "--eps-fs", "1e308"],
], ids=lambda argv: argv[0])
def test_cli_uniform_noise_above_half_the_largest_float_is_one_error_line(tmp_path, capsys,
                                                                          argv):
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("gradest: error: uniform_iid noise range 2 * level overflows, "
                          "got 1e+308")
    assert not any(tmp_path.iterdir())


# --------------------------------------------------------- the contract, drawn

EXTREMES = (5e-324, 1e-320, 1e-200, 0.0, -0.0, -1.0, 1e200, 1e308, math.inf, -math.inf,
            math.nan)
PROBLEMS = ("linear", "quadratic", "sphere", "rosenbrock2", "trig5", "sincos10", "nope")
METHODS = ("FFD", "CFD", "LI", "GSG", "cGSG", "BSG", "cBSG")


def _floats(*usual):
    """A flag's float as text: one of its usual values or an extreme, evenly."""
    return st.one_of(st.sampled_from(usual), st.sampled_from(EXTREMES)).map(repr)


def _flags(draw, options):
    """Each flag in options given or left out; values are passed as --flag=value,
    so that a value such as -inf is not read as a flag."""
    argv = []
    for flag, values in options.items():
        if draw(st.booleans()):
            argv.append(f"--{flag}={draw(values)}")
    return argv


def _listed(values):
    return st.lists(values, min_size=1, max_size=2).map(",".join)


_SIZES = st.integers(-1, 5).map(str)
_GRID = {"problems": st.sampled_from(PROBLEMS), "trials": _SIZES, "points": _SIZES,
         "methods": _listed(st.sampled_from(METHODS)),
         "sigmas": _listed(_floats(1e-6, 1e-2, 0.3)),
         "eps-fs": _floats(1e-8, 1e-4), "noise-kind": st.sampled_from(
             ("uniform_iid", "sinusoidal_deterministic"))}
_SOLVERS = ("ffd+lbfgs+ls", "gsg:n+sd+ls", "cfd+sd+fixed:0.001", "li:1e-6+lbfgs+ls",
            "bsg:8:1e-4+lbfgs+ls", "ffd+sd+ls:")   # the last is malformed


@st.composite
def _argv(draw):
    """A small invocation of one subcommand, extremes in its floats; the
    sizes keep each run well under a second, and an N, theta or delta that
    would draw a large array is drawn only where it fails before drawing."""
    command = draw(st.sampled_from(("estimate", "bounds", "sweep", "theta-dist",
                                    "bound-check", "optimize", "bench")))
    noise = {"eps-f": _floats(1e-8, 1e-4), "noise-kind": _GRID["noise-kind"]}
    if command == "estimate":
        argv = [f"--method={draw(st.sampled_from(METHODS))}",
                f"--problem={draw(st.sampled_from(PROBLEMS))}"]
        argv += _flags(draw, {"sigma": _floats(1e-6, 1e-2), "N": st.integers(-1, 64).map(str),
                              **noise})
    elif command == "bounds":
        argv = [f"--method={draw(st.sampled_from(METHODS))}",
                f"--n={draw(st.one_of(st.integers(-1, 20), st.just(10**400)))}",
                f"--delta={draw(_floats(0.1, 0.5))}",
                f"--L={draw(_floats(1.0, 2.0))}", f"--M={draw(_floats(1.0, 2.0))}",
                f"--cond-qinv={draw(_floats(1.0, 3.0))}"]
        argv += _flags(draw, {"theta": _floats(0.5, 0.9), "eps-f": _floats(1e-8, 1e-4),
                              "grad-norm": st.one_of(_floats(1.0, 10.0),
                                                     st.just("unknown"))})
    elif command == "sweep":
        argv = _flags(draw, _GRID | {"sample-factor": st.sampled_from(
            (0.5, 1.0, 2.0, 0.0, -1.0, math.inf, math.nan, 1e308)).map(repr)})
    elif command == "theta-dist":
        argv = _flags(draw, {"n": st.integers(-1, 20).map(str), "trials": _SIZES,
                             "N-list": _listed(st.integers(-1, 64).map(str))})
    elif command == "bound-check":
        # theta and delta set N_min: usual values keep it near 10^3, and the
        # extremes either fail the (0, 1) check or put N_min out of float range
        argv = _flags(draw, _GRID | {"theta": _floats(0.5, 0.9),
                                     "delta": st.sampled_from(
                                         (0.1, 0.5, 5e-324, 1e-320, 0.0, -1.0, 1.0, math.inf,
                                          math.nan)).map(repr)})
    elif command == "optimize":
        argv = [f"--problem={draw(st.sampled_from(PROBLEMS))}"]
        argv += _flags(draw, {"solver": st.sampled_from(_SOLVERS),
                              "budget": st.integers(-1, 500).map(str),
                              "max-iters": st.integers(-1, 30).map(str),
                              "grad-stop": _floats(1e-6, 1.0), **noise})
    else:
        grid = {k: _GRID[k] for k in ("problems", "trials", "eps-fs", "noise-kind")}
        argv = _flags(draw, grid | {"solvers": _listed(st.sampled_from(_SOLVERS)),
                                    "budget-factor": st.integers(-1, 20).map(str),
                                    "taus": _listed(_floats(0.1, 1e-3))})
    if command in ("sweep", "bound-check", "bench") and "--problems" not in " ".join(argv):
        argv.append(f"--problems={draw(st.sampled_from(PROBLEMS))}")   # not all twelve
    return [command, *argv]


def _reject(token):
    raise ValueError(f"non-JSON token {token}")


_TEXT = {   # stdout on success, line by line, where it is not JSON
    "sweep": r"wrote \d+ rows to \S+; per-cell summary in \S+",
    "theta-dist": r"wrote \d+ rows to \S+",
    "bound-check": r"skipped \w+ on \w+: .+|(deterministic|probabilistic) rows: \d+/\d+ "
                   r"passed, \d+ excluded as (round-off|empty interval) \(\S+\)",
    "optimize": r"termination=\w+ iters=\d+ evals=\d+ f=\S+ trace=\S+",
    "bench": r"raw results: \S+|profiles: \S+, \S+|tau=\S+ \S+: solved \d+% within budget",
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=_argv())
@example(argv=["bounds", "--method=GSG", "--n=4", "--delta=0.1", "--L=1", "--theta=1e-200"])
@example(argv=["estimate", "--method=FFD", "--problem=sphere", "--eps-f=1e308"])
@example(argv=["bounds", "--method=FFD", f"--n={10**400}", "--L=1"])
def test_cli_exits_0_or_2_with_one_error_line(argv):
    """Any invocation ends in exit 0 with strict JSON or the documented text
    and an empty stderr, in exit 2 with one "gradest: error:" line, or (for
    bound-check only) in exit 1 with a failing row; never in a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        command = argv[0]
        extra = [] if command in ("estimate", "bounds") else ["--out", f"{tmp}/out.csv"]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([*argv, *extra])
    out, err = out.getvalue(), err.getvalue()
    if rc == 2:
        assert err.startswith("gradest: error: ") and err.count("\n") == 1, err
        return
    assert err == ""
    if command in ("estimate", "bounds"):
        assert rc == 0
        data = json.loads(out, parse_constant=_reject)
        if command == "bounds":   # null, never a word, marks a sigma the table cannot give
            assert isinstance(data["sigma_lo"], float)
            assert data["sigma_hi"] is None or isinstance(data["sigma_hi"], float)
        return
    assert rc == 0 or (command == "bound-check" and any(
        int(ok) < int(total) for ok, total in re.findall(r"(\d+)/(\d+) passed", out)))
    for line in out.splitlines():
        assert re.fullmatch(_TEXT[command], line), line
