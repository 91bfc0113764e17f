"""Experiment drivers and the command-line front end.

Determinism contracts (same seed -> byte-identical CSV, at any chunk size
of the batched trials) are checked on deliberately tiny grids; statistical
content of the drivers is covered in test_acceptance.py at full scale.
"""
import dataclasses
import json
import math
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradest import cli, estimators, experiments
from gradest.cli import _sibling, main
from gradest.core import get_problem, make_standard_problems
from gradest.estimators import METHODS
from gradest.experiments import (BENCH_HEADER, BOUND_DET_HEADER,
                                 BOUND_PROB_HEADER, DATA_PROFILE_HEADER,
                                 PERF_PROFILE_HEADER, SWEEP_HEADER,
                                 SWEEP_SUMMARY_HEADER, THETA_HEADER, CsvTable,
                                 ExperimentSpec, SolverSpec, parse_solver,
                                 run_bound_validation,
                                 run_optimizer_benchmark,
                                 run_relative_error_sweep,
                                 run_theta_distribution)
from gradest.optimizer import TRACE_COLUMNS
from gradest.sampling import RngStream


# ---------------------------------------------------------------- spec


def test_spec_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown spec keys.*budgetfactor"):
        ExperimentSpec.from_dict({"experiment": "relative_error_sweep",
                                  "budgetfactor": 10})
    with pytest.raises(ValueError, match="unknown spec keys.*threads"):
        ExperimentSpec.from_dict({"experiment": "relative_error_sweep",
                                  "threads": 2})


def test_spec_rejects_wrong_typed_scalars():
    with pytest.raises(ValueError, match="'trials' must be an integer"):
        ExperimentSpec.from_dict({"experiment": "relative_error_sweep",
                                  "trials": "lots"})
    with pytest.raises(ValueError, match="'theta' must be a number"):
        ExperimentSpec.from_dict({"experiment": "bound_validation",
                                  "theta": "half"})
    with pytest.raises(ValueError, match="'n' must be an integer"):
        ExperimentSpec.from_dict({"experiment": "theta_distribution",
                                  "n": True})


def test_spec_coerces_lists_to_tuples():
    spec = ExperimentSpec.from_dict({
        "experiment": "relative_error_sweep",
        "methods": ["FFD", "GSG"],
        "sigmas": [0.1, 0.01],
    })
    assert spec.methods == ("FFD", "GSG")
    assert spec.sigmas == (0.1, 0.01)


def test_spec_stores_json_integers_of_float_grids_as_floats():
    # they land in float columns, which take floats only, and print as before
    spec = ExperimentSpec.from_dict({"experiment": "relative_error_sweep", "sigmas": [1],
                                     "eps_fs": [0], "taus": [0.5], "problems": ["sphere"],
                                     "methods": ["FFD"], "points_per_problem": 1, "trials": 1})
    assert all(type(v) is float for v in spec.sigmas + spec.eps_fs + spec.taus)
    rows = run_relative_error_sweep(spec)[0]
    assert rows.text().splitlines()[1].startswith("sphere,6,0,FFD,1,0,6,0,0,")


def test_spec_from_json_file(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"experiment": "theta_distribution",
                                "n": 8, "N_list": [4, 16], "trials": 7}))
    spec = ExperimentSpec.from_json(path)
    assert spec.n == 8
    assert spec.N_list == (4, 16)
    assert spec.resolved_trials() == 7


def test_spec_default_trials_per_experiment():
    defaults = {"relative_error_sweep": 100, "theta_distribution": 10_000,
                "bound_validation": 1000, "optimizer_benchmark": 1}
    for experiment, expected in defaults.items():
        spec = ExperimentSpec(experiment=experiment)
        assert spec.resolved_trials() == expected


def test_spec_validation_errors():
    with pytest.raises(ValueError, match="unknown experiment"):
        ExperimentSpec(experiment="nope")
    with pytest.raises(ValueError, match="trials"):
        ExperimentSpec(experiment="theta_distribution", trials=0)
    with pytest.raises(ValueError, match="sigmas"):
        ExperimentSpec(experiment="bound_validation", sigmas=())
    bad = [("n must be >= 1", dict(n=0)),
           ("points_per_problem must be >= 1", dict(points_per_problem=0)),
           ("budget_factor must be >= 1", dict(budget_factor=0)),
           ("N_list entries must be >= 1", dict(N_list=(4, 0))),
           ("sample_factor must be positive and finite", dict(sample_factor=-1.0)),
           ("sample_factor must be positive and finite", dict(sample_factor=0.0)),
           ("sample_factor must be positive and finite", dict(sample_factor=math.inf)),
           (r"taus must lie in \(0, 1\)", dict(taus=(2.0,))),
           (r"taus must lie in \(0, 1\)", dict(taus=(0.1, 0.0))),
           (r"taus must lie in \(0, 1\)", dict(taus=(1.0,))),
           # profiles keep one curve per (tau, solver label), the label stripped
           ("taus must not repeat an entry", dict(taus=(1e-3, 0.1, 0.001))),
           ("solvers must not repeat an entry", dict(solvers=("gsg:n+sd+ls",) * 2)),
           ("solvers must not repeat an entry",
            dict(solvers=("ffd+lbfgs+ls", " ffd+lbfgs+ls"))),
           # one table row per grid entry: methods compared after method_name,
           # sigmas and eps_fs as floats
           # an empty list is not the default set (problems=None is)
           ("problems must be nonempty", dict(problems=())),
           ("problems must not repeat an entry", dict(problems=("sphere", "quadratic",
                                                                "sphere"))),
           ("methods must not repeat an entry", dict(methods=("GSG", "FFD", "gsg"))),
           ("sigmas must not repeat an entry", dict(sigmas=(0.1, 1e-2, 0.01))),
           ("eps_fs must not repeat an entry", dict(eps_fs=(0, 0.0))),
           (r"theta must lie in \(0, 1\), got 2", dict(theta=2.0)),
           (r"theta must lie in \(0, 1\), got 0", dict(theta=0.0)),
           (r"delta must lie in \(0, 1\), got 0", dict(delta=0.0)),
           (r"delta must lie in \(0, 1\), got 1", dict(delta=1.0))]
    for message, kwargs in bad:
        with pytest.raises(ValueError, match=message):
            ExperimentSpec(experiment="relative_error_sweep", **kwargs)
    with pytest.raises(ValueError, match="exactly one eps_fs level"):
        ExperimentSpec(experiment="optimizer_benchmark", eps_fs=(1e-4, 0.0))
    with pytest.raises(ValueError, match="must be a JSON object, got list"):
        ExperimentSpec.from_dict([1, 2])
    for key, value in (("sigmas", ["a"]), ("sigmas", 0.1), ("N_list", [2.5]),
                       ("problems", [3]), ("taus", [True])):
        with pytest.raises(ValueError, match=f"spec key '{key}' must be a list"):
            ExperimentSpec.from_dict({"experiment": "relative_error_sweep", key: value})


def test_spec_rejects_out_key():
    # output paths belong to the command line, not to the experiment
    with pytest.raises(ValueError, match="unknown spec keys.*'out'"):
        ExperimentSpec.from_dict({"experiment": "theta_distribution",
                                  "out": "theta.csv"})


def test_spec_canonicalises_method_names():
    spec = ExperimentSpec(experiment="relative_error_sweep",
                          methods=("ffd", " Cgsg ", "BSG"))
    assert spec.methods == ("FFD", "cGSG", "BSG")
    assert ExperimentSpec(experiment="bound_validation").methods == METHODS
    with pytest.raises(ValueError, match="unknown estimator 'foo'.*cBSG"):
        ExperimentSpec(experiment="bound_validation", methods=("FFD", "foo"))


def test_spec_rejects_non_finite_grids():
    for sigmas in ((0.0,), (-0.1,), (math.inf,), (math.nan,)):
        with pytest.raises(ValueError, match="sigmas must be positive and finite"):
            ExperimentSpec(experiment="relative_error_sweep", sigmas=sigmas)
    for eps_fs in ((-1e-4,), (math.inf,), (0.0, math.nan)):
        with pytest.raises(ValueError, match="eps_fs must be finite and nonnegative"):
            ExperimentSpec(experiment="relative_error_sweep", eps_fs=eps_fs)


def test_spec_checks_noise_kind_against_every_level(tmp_path, capsys, monkeypatch):
    for message, kind, eps_fs in (("unknown noise kind 'bogus'", "bogus", (0.0,)),
                                  ("unknown noise kind 'bogus'", "bogus", (0.0, 1e-3)),
                                  ("kind='none' requires level 0", "none", (0.0, 1e-3))):
        with pytest.raises(ValueError, match=message):
            ExperimentSpec(experiment="relative_error_sweep", noise_kind=kind, eps_fs=eps_fs)
    assert ExperimentSpec(experiment="relative_error_sweep", noise_kind="none").eps_fs == (0.0,)
    # a bad kind fails before any cell runs, at a noise-free level too
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(json.dumps({"noise_kind": "bogus"}))
    for eps_fs in ("0", "0,1e-3"):
        assert main(["sweep", "--spec", "spec.json", "--problems", "quadratic",
                     "--trials", "2", "--points", "1", "--eps-fs", eps_fs,
                     "--out", "sweep.csv"]) == 2
        assert "unknown noise kind 'bogus'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]


def test_spec_default_problem_sets():
    def names(experiment):
        return [p.name for p in ExperimentSpec(experiment=experiment).problem_list()]

    every = [name for name, _, _ in make_standard_problems()]
    assert names("bound_validation") == ["sincos20"]
    assert names("optimizer_benchmark") == [n for n in every if n != "linear"]
    assert names("relative_error_sweep") == every
    spec = ExperimentSpec(experiment="bound_validation", problems=("linear", "sphere"))
    assert [p.name for p in spec.problem_list()] == ["linear", "sphere"]
    # a JSON null is the default set, as an absent key is
    spec = ExperimentSpec.from_dict({"experiment": "bound_validation", "problems": None})
    assert spec.problems is None
    assert [p.name for p in spec.problem_list()] == ["sincos20"]


def test_cli_spec_file_with_no_problems_exits_2(tmp_path, capsys, monkeypatch):
    # like every other empty grid: one error line and no table, not the
    # default problem set
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(json.dumps({
        "problems": [], "methods": ["FFD"], "trials": 1, "points_per_problem": 1}))
    assert main(["sweep", "--spec", "spec.json", "--out", "sweep.csv"]) == 2
    assert capsys.readouterr().err == "gradest: error: problems must be nonempty\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]


# ---------------------------------------------------------------- solver grammar


def test_parse_solver_default_forms():
    s = parse_solver("ffd+lbfgs+ls")
    assert (s.method, s.direction, s.step) == ("FFD", "lbfgs", None)
    assert s.n_spec is None and s.sigma == 1e-5
    assert s.resolve_N(20) is None

    s = parse_solver("gsg:n+sd+ls")
    assert (s.method, s.direction) == ("GSG", "steepest_descent")
    assert s.resolve_N(20) == 20
    assert parse_solver("gsg+sd+ls").resolve_N(20) == 80  # default 4n


def test_parse_solver_tokens_and_alpha():
    s = parse_solver("cfd:0.01+sd+fixed:0.05")
    assert (s.method, s.sigma, s.step) == ("CFD", 0.01, 0.05)
    assert parse_solver("cfd+sd+fixed").step == 0.01
    s = parse_solver("bsg:64:1e-3+lbfgs+ls")
    assert (s.method, s.sigma) == ("BSG", 1e-3)
    assert s.resolve_N(5) == 64
    assert parse_solver("cbsg:2n+lbfgs+ls").resolve_N(7) == 14


def test_parse_solver_rejects_malformed():
    with pytest.raises(ValueError, match="unknown estimator"):
        parse_solver("newton+lbfgs+ls")
    with pytest.raises(ValueError, match="direction"):
        parse_solver("ffd+cg+ls")
    with pytest.raises(ValueError, match="step"):
        parse_solver("ffd+lbfgs+wolfe")
    with pytest.raises(ValueError, match="must look like"):
        parse_solver("ffd+lbfgs")
    for text in ("gsg:0+sd+ls", "gsg:0n+sd+ls", "gsg:-2n+sd+ls", "gsg:infn+sd+ls",
                 "gsg:nann+sd+ls"):
        with pytest.raises(ValueError, match="N must be positive"):
            parse_solver(text)
    # one N and one sigma at most, and no step token beyond fixed's alpha
    for text, message in [("gsg:4:8+sd+ls", "N is given twice"),
                          ("gsg:1e-3:1e-4+sd+ls", "sigma is given twice"),
                          ("ffd+lbfgs+ls:0.5", "step must be ls or fixed"),
                          ("cfd+sd+fixed:0.1:7", "step must be ls or fixed"),
                          ("gsg:1e-3x+sd+ls", "could not convert"),
                          ("newton+sd+ls", "unknown estimator"),
                          ("ffd+lbfgs", "must look like")]:
        with pytest.raises(ValueError) as err:
            parse_solver(text)
        assert message in str(err.value) and f"in solver spec {text!r}" in str(err.value)
    for text in ("ffd:-1+lbfgs+ls", "ffd:0.0+sd+ls", "ffd:nan+lbfgs+ls", "ffd:NaN+sd+ls",
                 "gsg:n:inf+sd+ls"):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            parse_solver(text)
    for text in ("cfd+sd+fixed:inf", "cfd+sd+fixed:0", "cfd+sd+fixed:-0.1",
                 "cfd+sd+fixed:nan"):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            parse_solver(text)
    with pytest.raises(ValueError, match="fixed step takes direction sd"):
        parse_solver("cfd+lbfgs+fixed:0.001")
    # a bare number on FFD, CFD or LI is an N token, which they do not take:
    # it raises rather than run at the default sigma
    for text in ("ffd:1+lbfgs+ls", "cfd:4n+sd+ls", "li:12:1e-3+lbfgs+ls"):
        with pytest.raises(ValueError, match="N applies to the smoothing methods only"):
            parse_solver(text)
    with pytest.raises(ValueError, match="N applies.*in solver spec 'li'"):
        SolverSpec("li", "LI", "n", 1e-5, "lbfgs", None)
    assert parse_solver("ffd:1.0+lbfgs+ls").sigma == 1.0
    # a malformed solver fails before any solver runs
    spec = ExperimentSpec(experiment="optimizer_benchmark", problems=("quadratic",),
                          solvers=("ffd+lbfgs+ls", "cfd+sd+fixed:inf"))
    with pytest.raises(ValueError, match="alpha"):
        run_optimizer_benchmark(spec)


# ---------------------------------------------------------------- rendering

TABLE_HEADERS = (SWEEP_HEADER, SWEEP_SUMMARY_HEADER, THETA_HEADER, BOUND_DET_HEADER,
                 BOUND_PROB_HEADER, BENCH_HEADER, DATA_PROFILE_HEADER,
                 PERF_PROFILE_HEADER)


def _reference_fmt(v) -> str:
    # the per-value renderer the typed columns replaced
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _reference_text(table) -> str:
    lines = [",".join(table.header)]
    lines.extend(",".join(_reference_fmt(v) for v in row) for row in table.rows)
    return "\n".join(lines) + "\n"


_EDGE_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072009e-308,
                1e17, 0.1, -1.5e-300)
_VALUES = {
    float: st.builds(lambda v, wrap: wrap(v),
                     st.floats() | st.sampled_from(_EDGE_FLOATS),
                     st.sampled_from((float, np.float64))),
    int: st.builds(lambda v, wrap: wrap(v), st.integers(-2**63, 2**63 - 1),
                   st.sampled_from((int, np.int64))),
    bool: st.builds(lambda v, wrap: wrap(v), st.booleans(),
                    st.sampled_from((bool, np.bool_))),
    str: st.text(),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data(), header=st.sampled_from(TABLE_HEADERS))
def test_typed_render_matches_the_per_value_reference(data, header):
    row = st.tuples(*(_VALUES[kind] for kind in header.kinds))
    table = CsvTable(header, data.draw(st.lists(row, max_size=6)))
    assert table.text() == _reference_text(table)


# a value of each kind, and values that fit no column of that kind
_FITS = {str: "FFD", int: 3, float: 0.25, bool: True}
_MISFITS = {str: (3, 0.25, None, True), int: (3.0, np.float64(3.0), True, "3"),
            float: (True, np.bool_(False), 1, np.int64(1), "0.25"),
            bool: (1, 0.0, "true", None)}


@pytest.mark.parametrize("header", TABLE_HEADERS, ids=lambda h: h[0] + "_" + h[-1])
def test_render_raises_on_a_value_that_does_not_fit_its_column(header):
    row = tuple(_FITS[kind] for kind in header.kinds)
    assert CsvTable(header, [row]).text() == _reference_text(CsvTable(header, [row]))
    for i, kind in enumerate(header.kinds):
        for bad in _MISFITS[kind]:
            table = CsvTable(header, [row, row[:i] + (bad,) + row[i + 1:]])
            with pytest.raises(TypeError, match=f"column '{header[i]}'"):
                table.text()
    for wrong in (row[:-1], row + (1,)):
        with pytest.raises(ValueError, match="fields"):
            CsvTable(header, [row, wrong]).text()
        with pytest.raises(ValueError, match="fields"):
            CsvTable(header).add(*wrong)


def test_write_streams_the_bytes_of_text(tmp_path):
    sweep, _ = run_relative_error_sweep(ExperimentSpec(**SWEEP_SPEC))
    _, prob = run_bound_validation(ExperimentSpec(
        experiment="bound_validation", problems=("sincos10",), methods=("GSG",),
        eps_fs=(1e-6, 1e-3), trials=10, seed=1))
    assert BOUND_PROB_HEADER.kinds[-1] is bool
    for table in (sweep, prob):
        path = tmp_path / "t.csv"
        table.write(path)
        assert path.read_bytes() == table.text().encode()


def test_write_checks_every_row_before_it_opens_the_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"old,bytes\n")
    table = CsvTable(THETA_HEADER, [(8, 4, 10, 0, 0.5, 0.5, 0.1, 1.0),
                                    (8, 4.0, 10, 0, 0.5, 0.5, 0.1, 1.0)])
    with pytest.raises(TypeError, match="column 'N'"):
        table.write(path)
    assert path.read_bytes() == b"old,bytes\n"


def _reference_stats(thetas):
    # the per-cell statistics the one summary pass replaced
    ok = thetas[np.isfinite(thetas)]
    if not ok.size:
        return math.nan, math.nan, math.nan, math.nan
    var = float(np.var(ok, ddof=1)) if ok.size > 1 else 0.0
    return (float(np.mean(ok)), float(np.median(ok)), var, float(np.mean(ok < 0.5)))


@pytest.mark.parametrize("trials", [1, 2, 3, 20, 257])
def test_summary_pass_equals_per_cell_statistics_bitwise(trials):
    rng = np.random.default_rng(trials)
    thetas = rng.lognormal(-1.0, 1.5, size=(60, trials))
    thetas[:5] = 0.5                        # ties with the success threshold
    thetas[5] = np.nan                      # a vanished gradient: nothing finite
    thetas[6, : (trials + 1) // 2] = np.inf
    thetas[7, -1] = np.nan                  # one non-finite trial
    thetas[8, 0] = -np.inf
    got = experiments._theta_stats(thetas)
    assert len(got) == len(thetas)
    for row, stats in zip(thetas, got):
        assert all(type(v) is float for v in stats)
        assert [v.hex() for v in stats] == [v.hex() for v in _reference_stats(row)]


# ---------------------------------------------------------------- theta distribution


@pytest.fixture(scope="module")
def theta_table():
    spec = ExperimentSpec(experiment="theta_distribution", n=32,
                          N_list=(1, 256), trials=400, seed=11)
    return run_theta_distribution(spec)


def test_theta_distribution_shape_and_regimes(theta_table):
    assert theta_table.header == THETA_HEADER
    assert [row[1] for row in theta_table.rows] == [1, 256]
    by_N = {row[1]: row for row in theta_table.rows}
    # N = 1: estimate is a near-random direction, theta concentrates well
    # above 1 and essentially never beats 1/2
    assert by_N[1][4] > 1.0
    assert by_N[1][7] < 0.05
    # N = 256 = 8n: mean under 1/2 and success nearly certain
    assert by_N[256][4] < 0.5
    assert by_N[256][7] > 0.9


def test_theta_distribution_seed_determinism(theta_table):
    spec = ExperimentSpec(experiment="theta_distribution", n=32,
                          N_list=(1, 256), trials=400, seed=11)
    again = run_theta_distribution(spec)
    assert again.text() == theta_table.text()
    other_seed = ExperimentSpec(experiment="theta_distribution", n=32,
                                N_list=(1, 256), trials=400, seed=12)
    assert run_theta_distribution(other_seed).text() != theta_table.text()


# ---------------------------------------------------------------- sweep


SWEEP_SPEC = dict(experiment="relative_error_sweep", problems=("sincos20",),
                  methods=("FFD", "GSG"), sigmas=(0.01,),
                  eps_fs=(0.0, 1e-3), points_per_problem=2, trials=3,
                  sample_factor=1.0, seed=4)


@pytest.fixture(scope="module")
def sweep_tables():
    return run_relative_error_sweep(ExperimentSpec(**SWEEP_SPEC))


def test_sweep_row_grid_and_headers(sweep_tables):
    rows, summary = sweep_tables
    assert rows.header == SWEEP_HEADER
    assert summary.header == SWEEP_SUMMARY_HEADER
    # 1 problem x 2 points x 2 methods x 1 sigma x 2 eps x 3 trials
    assert len(rows.rows) == 24
    assert len(summary.rows) == 8
    assert set(rows.column("method")) == {"FFD", "GSG"}
    assert all(s == 4 for s in rows.column("seed"))


def test_sweep_summary_matches_recomputed_stats(sweep_tables):
    rows, summary = sweep_tables

    def key(row, hdr):
        return tuple(row[hdr.index(c)] for c in
                     ("problem", "point", "method", "sigma", "eps_f"))

    for srow in summary.rows:
        cell = key(srow, SWEEP_SUMMARY_HEADER)
        thetas = np.array([row[SWEEP_HEADER.index("theta")] for row in rows.rows
                           if key(row, SWEEP_HEADER) == cell])
        assert len(thetas) == 3
        assert srow[SWEEP_SUMMARY_HEADER.index("mean_theta")] == pytest.approx(thetas.mean())
        assert srow[SWEEP_SUMMARY_HEADER.index("median_theta")] == pytest.approx(np.median(thetas))
        assert srow[SWEEP_SUMMARY_HEADER.index("var_theta")] == pytest.approx(thetas.var(ddof=1))
        assert srow[SWEEP_SUMMARY_HEADER.index("success_rate")] == pytest.approx(np.mean(thetas < 0.5))


def test_sweep_noise_hurts_and_determinism(sweep_tables):
    rows, summary = sweep_tables
    mean_col = SWEEP_SUMMARY_HEADER.index("mean_theta")
    eps_col = SWEEP_SUMMARY_HEADER.index("eps_f")
    clean = np.mean([r[mean_col] for r in summary.rows if r[eps_col] == 0.0])
    noisy = np.mean([r[mean_col] for r in summary.rows if r[eps_col] == 1e-3])
    assert noisy > clean
    rows2, summary2 = run_relative_error_sweep(ExperimentSpec(**SWEEP_SPEC))
    assert rows2.text() == rows.text()
    assert summary2.text() == summary.text()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sweep_log10_theta_is_nan_where_theta_is_nan(monkeypatch):
    # at sigma = 1e200 most probes overflow, and theta is nan or inf
    rows, _ = run_relative_error_sweep(ExperimentSpec(
        experiment="relative_error_sweep", problems=("rosenbrock2",), sigmas=(1e200,),
        trials=3, points_per_problem=1, seed=7))
    theta, log10 = SWEEP_HEADER.index("theta"), SWEEP_HEADER.index("log10_theta")
    assert sum(math.isnan(r[theta]) for r in rows.rows) == 17
    for r in rows.rows:
        if math.isnan(r[theta]):
            assert math.isnan(r[log10])
        else:
            assert r[log10] == math.log10(r[theta])
    assert "nan,-inf" not in rows.text()
    # every theta the log maps: 0 -> -inf, nan -> nan, inf -> inf
    monkeypatch.setattr(experiments, "relative_error",
                        lambda G, grad: np.array([0.0, math.nan, 100.0, math.inf]))
    rows, _ = run_relative_error_sweep(ExperimentSpec(
        experiment="relative_error_sweep", problems=("sphere",), methods=("FFD",),
        trials=4, points_per_problem=1))
    assert [line.rsplit(",", 2)[1:] for line in rows.text().splitlines()[1:]] == [
        ["0", "-inf"], ["nan", "nan"], ["100", "2"], ["inf", "inf"]]


def test_sweep_cells_build_only_the_streams_they_read(monkeypatch):
    # a Philox stream costs about 30 us to build: FFD/CFD cells draw nothing
    # and build none, and only LI cells build the stream frames are redrawn from
    built = []
    generator = RngStream.generator

    def spy(self, *indices):
        built.append(indices)
        return generator(self, *indices)

    monkeypatch.setattr(RngStream, "generator", spy)
    spec = ExperimentSpec(experiment="relative_error_sweep", problems=("sincos10",),
                          points_per_problem=1, trials=3, seed=5)
    run_relative_error_sweep(spec)
    cell_keys = [k for k in built
                 if k[0] in (experiments._TAG_SWEEP, experiments._TAG_REDRAW)]
    counts = {m: sum(spec.methods[k[-1]] == m for k in cell_keys) for m in METHODS}
    assert counts == {"FFD": 0, "CFD": 0, "LI": 2, "GSG": 1, "cGSG": 1, "BSG": 1,
                      "cBSG": 1}


def test_sweep_draws_each_group_of_noise_levels_once(monkeypatch):
    # cells that differ only in eps_f share one direction draw per chunk, so
    # more noise levels add no draws
    calls = []
    draw = estimators.trial_directions

    def counted(*args):
        calls.append(args[0])
        return draw(*args)

    monkeypatch.setattr(estimators, "trial_directions", counted)
    counts = []
    for eps_fs in ((0.0,), (0.0, 1e-4, 1e-2)):
        calls.clear()
        run_relative_error_sweep(ExperimentSpec(
            experiment="relative_error_sweep", problems=("sincos10",), eps_fs=eps_fs,
            points_per_problem=1, trials=3, seed=5))
        counts.append(len(calls))
    assert counts[0] == counts[1] == len(METHODS)


def test_csv_bytes_do_not_depend_on_the_trial_chunk_size(monkeypatch):
    specs = [
        ExperimentSpec(experiment="relative_error_sweep",
                       problems=("sincos20", "sincos10", "rosenbrock2"), sigmas=(0.01,),
                       eps_fs=(0.0, 1e-3), points_per_problem=1, trials=6, seed=3),
        ExperimentSpec(experiment="theta_distribution", n=8, N_list=(1, 16),
                       trials=60, seed=3),
        ExperimentSpec(experiment="bound_validation", problems=("sincos20", "sincos10"),
                       eps_fs=(1e-6,), noise_kind="sinusoidal_deterministic",
                       points_per_problem=2, trials=8, seed=3),
        # LI frames redrawn: run below a condition limit that some draws exceed
        ExperimentSpec(experiment="relative_error_sweep", problems=("rosenbrock2",),
                       methods=("LI",), sigmas=(0.01,), eps_fs=(0.0, 1e-3),
                       points_per_problem=2, trials=60, seed=3),
    ]
    redrawn = []
    checked_frames = estimators._checked_frames

    def counted(Q, redraw):
        if redraw is None:
            return checked_frames(Q, None)

        def counting(count):
            redrawn.append(count)
            return redraw(count)
        return checked_frames(Q, counting)

    monkeypatch.setattr(estimators, "_checked_frames", counted)

    def texts():
        sweep = run_relative_error_sweep(specs[0])
        theta = run_theta_distribution(specs[1])
        bound = run_bound_validation(specs[2])
        with monkeypatch.context() as low:
            low.setattr(estimators, "COND_LIMIT", 30.0)
            before = sum(redrawn)
            redraws = run_relative_error_sweep(specs[3])
            assert sum(redrawn) > before
        return [t.text() for t in (*sweep, theta, *bound, *redraws)]

    default = texts()   # at the default _CHUNK_COORDS
    for chunk in (4096, 512, 1):   # 1: one trial per chunk
        monkeypatch.setattr(estimators, "_CHUNK_COORDS", chunk)
        assert texts() == default, chunk


# ---------------------------------------------------------------- bound validation


def test_bound_validation_deterministic_rows():
    spec = ExperimentSpec(experiment="bound_validation",
                          problems=("sincos10",), methods=("FFD", "LI"),
                          sigmas=(0.01, 1e-13), eps_fs=(1e-5,),
                          points_per_problem=3, trials=4, seed=2)
    det, prob = run_bound_validation(spec)
    assert det.header == BOUND_DET_HEADER
    assert len(prob.rows) == 0
    assert len(det.rows) == 4
    for row in det.rows:
        r = dict(zip(BOUND_DET_HEADER, row))
        assert r["passed"] is True
        if r["sigma"] == 1e-13:
            assert r["round_off"] is True
        else:
            assert r["round_off"] is False
            assert r["margin"] >= 0.0
            assert r["max_error"] <= r["bound"]


def test_bound_check_counts_evaluation_rounding_as_noise(monkeypatch):
    # at eps_f = 0 these bounds are tight to rounding (CFD is exact on a
    # quadratic, FFD on an equal-diagonal one); the eps_mach max|phi|
    # allowance lets them pass, yet is far too small to hide a 1e-6 bias
    spec = ExperimentSpec(experiment="bound_validation",
                          problems=("linear", "quadratic", "quadratic_diag", "sphere"),
                          methods=("FFD", "CFD", "LI"), trials=20, seed=0)
    det, _ = run_bound_validation(spec)
    assert len(det.rows) == 12
    assert all(det.column("passed")) and not any(det.column("round_off"))

    core = estimators._stack_estimates

    def biased(oracle, x, method, sigma, Q, **kw):
        G, cond, qinv = core(oracle, x, method, sigma, Q, **kw)
        return (G + 1e-6 if method == "FFD" else G), cond, qinv

    monkeypatch.setattr(estimators, "_stack_estimates", biased)
    det, _ = run_bound_validation(ExperimentSpec(
        experiment="bound_validation", problems=("quadratic",), methods=("FFD",),
        trials=20, seed=0))
    assert det.column("passed") == [False]


def test_bound_validation_probabilistic_rows_and_empty_interval():
    spec = ExperimentSpec(experiment="bound_validation",
                          problems=("sincos20",), methods=("GSG",),
                          eps_fs=(1e-6, 1e-4), trials=20, seed=2)
    det, prob = run_bound_validation(spec)
    assert prob.header == BOUND_PROB_HEADER
    rows = {dict(zip(BOUND_PROB_HEADER, r))["eps_f"]: dict(zip(BOUND_PROB_HEADER, r))
            for r in prob.rows}
    live = rows[1e-6]
    assert live["interval"] == "nonempty"
    assert live["trials"] == 20
    assert live["failure_rate"] == live["failures"] / 20
    assert live["passed"] is True
    # at eps_f = 1e-4 the required gradient floor exceeds ||grad phi(x0)||,
    # so there is no admissible sigma: excluded from pass/fail, not failed
    empty = rows[1e-4]
    assert empty["interval"] == "empty"
    assert empty["trials"] == 0
    assert np.isnan(empty["sigma"]) and np.isnan(empty["failure_rate"])
    assert empty["passed"] is True


def _cells_that_fail_at_different_rates(monkeypatch):
    """A bound-check spec whose probabilistic cells fail at distinct rates,
    so a row filled from the wrong cell shows: N is cut 40-fold below the
    condition table's. sincos10 has two checked GSG cells, one empty-interval
    row (GSG at eps_f 1e-3) and two cBSG cells; linear's smoothing pairs are
    skipped (L = M = 0)."""
    table = experiments.bnd.condition_table

    def coarse(*args, **kwargs):
        report = table(*args, **kwargs)
        return dataclasses.replace(report, n_min=max(1, report.n_min // 40))

    monkeypatch.setattr(experiments.bnd, "condition_table", coarse)
    return ExperimentSpec(experiment="bound_validation", problems=("sincos10", "linear"),
                          methods=("FFD", "GSG", "cBSG"), eps_fs=(1e-6, 1e-3),
                          trials=40, seed=3)


def _count_thread_starts(monkeypatch) -> list:
    """A list that grows by one entry per threading.Thread started."""
    starts, start = [], threading.Thread.start

    def spy(self):
        starts.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", spy)
    return starts


def test_bound_validation_bytes_do_not_depend_on_the_worker_count(monkeypatch):
    spec = _cells_that_fail_at_different_rates(monkeypatch)
    starts = _count_thread_starts(monkeypatch)
    tables, helpers = {}, []
    for cpus in (1, 2):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
        before = len(starts)
        tables[cpus] = run_bound_validation(spec)
        helpers.append(len(starts) - before)
    assert helpers == [0, 1]
    assert [t.text() for t in tables[1]] == [t.text() for t in tables[2]]
    det, prob = tables[2]
    assert len(det.rows) == 4   # FFD on both problems at both eps_f
    rows = [dict(zip(BOUND_PROB_HEADER, r)) for r in prob.rows]
    assert [(r["method"], r["interval"]) for r in rows] == [
        ("GSG", "nonempty"), ("GSG", "empty"), ("cBSG", "nonempty"), ("cBSG", "nonempty")]
    # each checked row holds the count of its own cell, keyed (problem,
    # smoothing method, eps_f) and recounted here from that cell's streams
    problem = get_problem("sincos10")[0]
    grad = problem.gradient_at(problem.x0)
    counts = []
    for r, key in zip([r for r in rows if r["interval"] == "nonempty"],
                      [(0, 0, 0), (0, 1, 0), (0, 1, 1)]):
        oracle = experiments.make_oracle(problem, spec.noise_kind, r["eps_f"], spec.seed,
                                         experiments._TAG_NOISE, *key)
        config = estimators.EstimatorConfig(r["method"], r["sigma"], r["N"])
        G = estimators.estimate_trials(
            (oracle,), problem.x0, config, spec.trials,
            *experiments._cell_streams(spec.seed, config, experiments._TAG_BOUND, *key))[0][0]
        counts.append(int(np.sum(experiments.relative_error(G, grad) > spec.theta)))
        assert r["failures"] == counts[-1]
    assert len(set(counts)) == 3 and 0 < min(counts) and max(counts) < 40


def _raise_for(monkeypatch, delays):
    """Patches experiments.estimate_trials to raise SingularDirections, naming
    the method and sigma, for each method in delays, after its delay in
    seconds."""
    real = experiments.estimate_trials

    def fake(oracle, x, config, *args):
        if config.method in delays:
            time.sleep(delays[config.method])
            raise estimators.SingularDirections(f"{config.method} at sigma {config.sigma!r}")
        return real(oracle, x, config, *args)

    monkeypatch.setattr(experiments, "estimate_trials", fake)


def _messages_at_one_and_two_cpus(monkeypatch, spec, error) -> list:
    """run_bound_validation(spec)'s error message at 1 and at 2 CPUs; every
    helper thread has ended when it raises."""
    messages = []
    for cpus in (1, 2):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
        before = threading.active_count()
        with pytest.raises(error) as err:
            run_bound_validation(spec)
        assert threading.active_count() == before
        messages.append(str(err.value))
    return messages


def test_a_failing_cell_raises_as_in_the_serial_loop(monkeypatch):
    spec = _cells_that_fail_at_different_rates(monkeypatch)
    sigmas = [r[BOUND_PROB_HEADER.index("sigma")] for r in run_bound_validation(spec)[1].rows
              if r[BOUND_PROB_HEADER.index("method")] == "cBSG"]
    assert len(sigmas) == len(set(sigmas)) == 2
    _raise_for(monkeypatch, {"cBSG": 0.0})
    # both cBSG cells raise; the first in row order surfaces, at any count
    assert _messages_at_one_and_two_cpus(
        monkeypatch, spec, estimators.SingularDirections) == [f"cBSG at sigma {sigmas[0]!r}"] * 2


@pytest.mark.parametrize("methods, sigmas, delays", [
    # FFD's cells come first and pass; both LI cells raise, the first surfaces
    (("FFD", "LI"), (1e-2, 1e-3), {"LI": 0.0}),
    # a deterministic cell's error wins over a probabilistic one's, though
    # at two CPUs the GSG cell raises first in time
    (("GSG", "LI"), (1e-2,), {"GSG": 0.0, "LI": 0.05}),
], ids=["deterministic", "deterministic_before_probabilistic"])
def test_a_failing_deterministic_cell_raises_as_in_the_serial_loop(monkeypatch, methods,
                                                                   sigmas, delays):
    spec = ExperimentSpec(experiment="bound_validation", problems=("sincos10",),
                          methods=methods, sigmas=sigmas, eps_fs=(1e-6,), trials=4,
                          points_per_problem=2, seed=1)
    _raise_for(monkeypatch, delays)
    assert _messages_at_one_and_two_cpus(
        monkeypatch, spec, estimators.SingularDirections) == ["LI at sigma 0.01"] * 2


def test_a_condition_table_error_surfaces_before_any_cell_runs(monkeypatch):
    spec = ExperimentSpec(experiment="bound_validation", problems=("sincos10",),
                          methods=("FFD", "GSG"), trials=4, points_per_problem=2, seed=1)
    _raise_for(monkeypatch, {"FFD": 0.0})

    def no_table(*args, **kwargs):
        raise ValueError("no condition table")

    monkeypatch.setattr(experiments.bnd, "condition_table", no_table)
    assert _messages_at_one_and_two_cpus(monkeypatch, spec, ValueError) == [
        "no condition table"] * 2


def test_map_cells_returns_results_in_cell_order(monkeypatch):
    # the later cells finish first: the results still come back in order
    delays = [0.03, 0.02, 0.01, 0.0, 0.0]
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    got = experiments._map_cells(lambda c: time.sleep(delays[c]) or c * c, range(5))
    assert got == [0, 1, 4, 9, 16]


def test_map_cells_runs_every_cell_once_under_contention(monkeypatch):
    # more threads than cores, switching every microsecond: a cell taken
    # twice or lost would show in the calls or the results
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 8)
    calls, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = experiments._map_cells(lambda c: calls.append(c) or -c, range(400))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(calls) == list(range(400))
    assert got == [-c for c in range(400)]


@pytest.mark.parametrize("cpus,cells,helpers", [(1, 4, 0), (2, 1, 0), (2, 4, 1), (4, 2, 1)])
def test_map_cells_starts_one_helper_per_further_cpu(monkeypatch, cpus, cells, helpers):
    starts = _count_thread_starts(monkeypatch)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
    before = threading.active_count()
    assert experiments._map_cells(str, range(cells)) == [str(c) for c in range(cells)]
    assert len(starts) == helpers
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus", [1, 2])
def test_map_cells_raises_the_first_failure_in_cell_order(monkeypatch, cpus):
    # cell 2 raises before cell 1, which waits for it: cell 1's exception
    # surfaces, as in the serial loop
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
    raised = threading.Event()

    def fn(c):
        if c == 1:
            raised.wait(timeout=1.0 if cpus > 1 else 0.0)
            raise KeyError(c)
        if c == 2:
            raised.set()
            raise ValueError(c)
        return c

    before = threading.active_count()
    with pytest.raises(KeyError):
        experiments._map_cells(fn, range(4))
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus", [1, 2])
def test_map_cells_starts_no_cell_after_a_failure(monkeypatch, cpus):
    # cell 0 raises at once; cell 1, if the other thread took it in time,
    # runs until well after that; cells 2 and on never start
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
    started, raised = [], threading.Event()

    def fn(c):
        started.append(c)
        if c == 0:
            raised.set()
            raise ValueError(c)
        raised.wait(timeout=1.0)
        time.sleep(0.05)
        return c

    before = threading.active_count()
    with pytest.raises(ValueError):
        experiments._map_cells(fn, range(6))
    assert threading.active_count() == before
    assert sorted(started) in ([[0]] if cpus == 1 else [[0], [0, 1]])


def test_theta_distribution_text_does_not_depend_on_the_cpu_count(monkeypatch):
    # the cells start largest N first, the rows follow N_list
    spec = ExperimentSpec(experiment="theta_distribution", n=8, N_list=(16, 1, 64, 4, 16),
                          trials=50, seed=9)
    texts = []
    for cpus in (1, 2):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
        texts.append(run_theta_distribution(spec).text())
    assert texts[0] == texts[1]
    assert [line.split(",")[1] for line in texts[0].splitlines()[1:]] == [
        "16", "1", "64", "4", "16"]


# ---------------------------------------------------------------- benchmark


# the termination values the README documents for bench rows
BENCH_TERMINATIONS = {"eval_budget", "max_iters", "grad_norm_stop", "step_failure",
                      "nonfinite", "divergence", "null_step"}


@pytest.fixture(scope="module")
def bench_result():
    spec = ExperimentSpec(experiment="optimizer_benchmark",
                          problems=("quadratic", "rosenbrock2"),
                          solvers=("ffd+lbfgs+ls", "gsg:n+sd+ls"),
                          budget_factor=30, taus=(0.1,), trials=1, seed=6)
    return run_optimizer_benchmark(spec)


def test_benchmark_raw_table(bench_result):
    raw = bench_result.raw
    assert raw.header == BENCH_HEADER
    assert len(raw.rows) == 4  # 2 problems x 2 solvers x 1 tau x 1 trial
    for row in raw.rows:
        r = dict(zip(BENCH_HEADER, row))
        assert r["budget"] == 30 * (r["n"] + 1)
        assert r["evals_to_solve"] == np.inf or r["evals_to_solve"] <= r["budget"]
        assert r["f_best"] <= r["f0"]
        assert r["f_ref"] <= r["f_best"] + 1e-12
        # the budget is tested before each iteration, so a run may finish
        # the iteration it started: at most n + 1 estimate evaluations
        # (N = n for gsg:n) and MAX_BACKTRACKS + 1 line-search ones past it
        assert r["termination"] in BENCH_TERMINATIONS
        assert r["iters"] >= 1
        assert r["evals_to_solve"] == np.inf or r["evals_to_solve"] <= r["evals_used"]
        assert r["evals_used"] <= r["budget"] + r["n"] + 1 + 31
        if r["termination"] == "eval_budget":
            assert r["evals_used"] >= r["budget"]


def test_benchmark_solves_count_only_within_the_budget():
    # at this seed rosenbrock2's gsg:n+sd+ls run reaches its best value in an
    # iteration that starts under the 600-evaluation budget and ends at 607:
    # that hit is not a solve, for the raw table and both profiles alike
    spec = ExperimentSpec(experiment="optimizer_benchmark",
                          problems=("quadratic", "quadratic_diag", "sphere",
                                    "rosenbrock2"),
                          eps_fs=(1e-4,), seed=7)
    result = run_optimizer_benchmark(spec)
    rows = [dict(zip(BENCH_HEADER, r)) for r in result.raw.rows]
    late = [r for r in rows if r["problem"] == "rosenbrock2"
            and r["solver"] == "gsg:n+sd+ls" and r["tau"] in (1e-3, 1e-5)]
    assert len(late) == 2
    for r in late:
        assert r["evals_used"] > r["budget"] and r["f_best"] == r["f_ref"]
        assert r["evals_to_solve"] == np.inf
    for r in rows:
        assert r["evals_to_solve"] == np.inf or r["evals_to_solve"] <= r["budget"]
    profiles = result.profiles
    instances = len(spec.problems)
    for tau in spec.taus:
        for solver in profiles.solvers:
            solved = sum(r["evals_to_solve"] < np.inf for r in rows
                         if r["tau"] == tau and r["solver"] == solver)
            assert profiles.data_profiles[(tau, solver)][-1] * instances == pytest.approx(solved)
            assert np.all(profiles.perf_profiles[(tau, solver)] * instances
                          <= solved + 1e-12)


def test_benchmark_profiles_are_monotone_fractions(bench_result):
    profiles = bench_result.profiles
    assert profiles.solvers == ("ffd+lbfgs+ls", "gsg:n+sd+ls")
    for curve in profiles.data_profiles.values():
        assert len(curve) == 31
        assert np.all(curve >= 0.0) and np.all(curve <= 1.0)
        assert np.all(np.diff(curve) >= 0.0)
    table = profiles.data_profile_table()
    assert table.header == ("tau", "solver", "budget_groups", "fraction_solved")
    assert len(table.rows) == 2 * 31
    perf = profiles.perf_profile_table()
    assert perf.header == ("tau", "solver", "alpha", "fraction_solved")
    for value in perf.column("fraction_solved"):
        assert 0.0 <= value <= 1.0


def test_benchmark_profiles_equal_a_recount_of_the_raw_rows():
    # both profiles recomputed by brute force from the raw table's
    # evals_to_solve: 2 taus x 2 trials at a noise level, with a fixed-step
    # solver in the race, must agree exactly
    spec = ExperimentSpec(experiment="optimizer_benchmark",
                          problems=("quadratic", "rosenbrock2", "powell4"),
                          solvers=("ffd+lbfgs+ls", "cfd+sd+fixed:0.001", "gsg:n+sd+ls"),
                          eps_fs=(1e-4,), taus=(0.1, 1e-3), trials=2,
                          budget_factor=40, seed=3)
    result = run_optimizer_benchmark(spec)
    rows = [dict(zip(BENCH_HEADER, r)) for r in result.raw.rows]
    solves = {(r["tau"], r["problem"], r["trial"], r["solver"]): r["evals_to_solve"]
              for r in rows}
    assert len(solves) == len(rows) == 2 * 3 * 2 * 3
    finite = [v for v in solves.values() if v < math.inf]
    assert 0 < len(finite) < len(rows)
    dims = {r["problem"]: r["n"] for r in rows}
    instances = [(p, t) for p in spec.problems for t in range(2)]
    profiles = result.profiles
    for tau in spec.taus:
        for solver in spec.solvers:
            curve = [sum(solves[(tau, p, t, solver)] <= k * (dims[p] + 1)
                         for p, t in instances) / len(instances)
                     for k in range(spec.budget_factor + 1)]
            assert profiles.data_profiles[(tau, solver)].tolist() == curve
            fractions = []
            for alpha in experiments.PERF_ALPHA_GRID:
                hits = 0
                for p, t in instances:
                    mine = solves[(tau, p, t, solver)]
                    best = min(solves[(tau, p, t, s)] for s in spec.solvers)
                    hits += mine < math.inf and mine / best <= alpha
                fractions.append(hits / len(instances))
            assert profiles.perf_profiles[(tau, solver)].tolist() == fractions


# ---------------------------------------------------------------- CLI


def test_sibling_output_naming():
    assert _sibling("/x/y.csv", "_summary") == "/x/y_summary.csv"
    assert _sibling("runs/bench.csv", "_data_profile") == "runs/bench_data_profile.csv"


def test_cli_estimate_prints_json(capsys):
    rc = main(["estimate", "--problem", "sincos20", "--method", "FFD",
               "--sigma", "0.01", "--seed", "3"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["method"] == "FFD"
    assert len(out["g"]) == 20
    assert out["evals_used"] == 21
    assert 0.0 <= out["theta"] < 0.5


def test_cli_estimate_with_noise_and_point(capsys):
    rc = main(["estimate", "--problem", "quadratic", "--method", "cGSG",
               "--N", "8", "--sigma", "0.1", "--eps-f", "1e-4",
               "--point", "1,0,1,0", "--seed", "1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["point"] == [1.0, 0.0, 1.0, 0.0]
    assert out["N"] == 8
    assert out["evals_used"] == 16


def test_cli_estimate_rejects_N_on_the_deterministic_methods(capsys):
    for method in ("FFD", "cfd", "LI"):
        rc = main(["estimate", "--problem", "quadratic", "--method", method, "--N", "5"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.startswith("gradest: error: N applies to the smoothing methods only")
        assert err.count("\n") == 1


def test_cli_bounds_report(capsys):
    rc = main(["bounds", "--method", "GSG", "--n", "32", "--theta", "0.5",
               "--delta", "0.1", "--L", "2", "--eps-f", "1e-6",
               "--grad-norm", "3.1622776601683795"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["N_min"] == 5699
    assert out["interval"] == "nonempty"
    assert out["sigma_lo"] == pytest.approx(7.0710678118654755e-4)


def test_cli_bounds_unknown_grad_norm(capsys):
    rc = main(["bounds", "--method", "FFD", "--n", "4", "--L", "2",
               "--eps-f", "1e-4", "--grad-norm", "unknown"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["sigma_hi"] is None
    assert out["grad_norm_min"] == pytest.approx(0.11313708498984762)


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-JSON token {token}")
    return json.loads(text, parse_constant=reject)


def test_cli_json_writes_null_for_every_non_finite_float(tmp_path, capsys):
    # sigma = 1e200 overflows every probe: a nan estimate, norm and theta
    assert main(["estimate", "--method", "CFD", "--problem", "rosenbrock2",
                 "--sigma", "1e200"]) == 0
    out = _strict_json(capsys.readouterr().out)
    assert out["g"] == [None, None]
    assert out["grad_est_norm"] is None and out["theta"] is None
    assert out["point"] == [-1.2, 1.0]
    # theta = 0: no gradient norm is large enough, grad_norm_min is infinite
    path = tmp_path / "bounds.json"
    assert main(["bounds", "--method", "ffd", "--n", "4", "--L", "2", "--eps-f", "1e-6",
                 "--grad-norm", "1", "--theta", "0", "--out", str(path)]) == 0
    out = _strict_json(path.read_text())
    assert out["grad_norm_min"] is None and out["interval"] == "empty"
    assert out["rho"] > 0.0


def test_cli_reports_a_non_finite_float_that_escapes_the_null_rule(monkeypatch, capsys):
    # a value the rule does not reach, here one nested in a dict, is one
    # error line rather than invalid JSON
    real = cli.relative_error
    monkeypatch.setattr(cli, "relative_error", lambda g, grad: {"nested": real(g, grad) * math.inf})
    assert main(["estimate", "--method", "FFD", "--problem", "quadratic"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("gradest: error: Out of range float values")
    assert err.count("\n") == 1


def test_cli_sweep_writes_byte_identical_csv(tmp_path, capsys):
    args = ["sweep", "--problems", "sincos10", "--methods", "FFD,GSG",
            "--sigmas", "0.01", "--eps-fs", "0", "--points", "2",
            "--trials", "3", "--sample-factor", "1", "--seed", "9"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "a_summary.csv").exists()
    header = out1.read_text().splitlines()[0]
    assert header == ",".join(SWEEP_HEADER)


def test_cli_theta_dist_writes_csv(tmp_path, capsys):
    out = tmp_path / "theta.csv"
    rc = main(["theta-dist", "--n", "4", "--N-list", "2,4", "--trials", "50",
               "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(THETA_HEADER)
    assert len(lines) == 3


def test_cli_bound_check_exit_codes(tmp_path, capsys):
    # the summary counts only the rows it checked: in the second run two of
    # the four deterministic rows lie below ROUND_OFF_SIGMA, and in the third
    # the sphere's one GSG row has an empty interval
    out = tmp_path / "bc.csv"
    for flags, summary in [
        (["--problems", "sincos10", "--methods", "FFD", "--sigmas", "0.01",
          "--points", "2", "--trials", "3"], "deterministic rows: 1/1 passed"),
        (["--problems", "sincos10", "--methods", "FFD,LI", "--sigmas", "1e-2,1e-13",
          "--trials", "5", "--points", "2"],
         "deterministic rows: 2/2 passed, 2 excluded as round-off"),
        (["--problems", "sphere", "--methods", "GSG", "--eps-fs", "1e-2",
          "--trials", "10", "--points", "1"],
         "probabilistic rows: 0/0 passed, 1 excluded as empty interval"),
    ]:
        assert main(["bound-check", *flags, "--out", str(out)]) == 0
        assert summary in capsys.readouterr().out
        assert (tmp_path / "bc_probabilistic.csv").exists()


def test_cli_bound_check_skips_pairs_without_constants(tmp_path, capsys):
    # quadratic has M = 0 (no cGSG/cBSG condition table) and rosenbrock2 no
    # M at all (no CFD/cGSG/cBSG bound): those pairs are skipped, not errors
    out = tmp_path / "bc.csv"
    rc = main(["bound-check", "--problems", "quadratic,rosenbrock2",
               "--trials", "20", "--out", str(out)])
    captured = capsys.readouterr().out
    assert rc in (0, 1)
    skipped = {("quadratic", "cGSG"), ("quadratic", "cBSG"), ("rosenbrock2", "CFD"),
               ("rosenbrock2", "cGSG"), ("rosenbrock2", "cBSG")}
    for problem, method in skipped:
        assert f"skipped {method} on {problem}:" in captured
    pairs = {tuple(line.split(",")[1:4:2])
             for path in (out, tmp_path / "bc_probabilistic.csv")
             for line in path.read_text().splitlines()[1:]}
    assert pairs.isdisjoint(skipped)
    assert len(pairs) == 2 * 7 - len(skipped)


def test_bound_check_skips_smoothing_pairs_without_positive_L(tmp_path, capsys):
    # linear declares L = M = 0: the condition tables of GSG and BSG need
    # L > 0 and those of cGSG and cBSG M > 0, so all four are skipped
    spec = ExperimentSpec(experiment="bound_validation", problems=("linear",))
    skipped = {(p, m) for p, m, _ in experiments.bound_check_skips(spec)}
    assert skipped == {("linear", m) for m in ("GSG", "BSG", "cGSG", "cBSG")}
    out = tmp_path / "bc.csv"
    rc = main(["bound-check", "--problems", "linear", "--trials", "5",
               "--out", str(out)])
    captured = capsys.readouterr().out
    assert rc in (0, 1)
    assert "skipped GSG on linear: the condition table needs L > 0" in captured
    assert "skipped BSG on linear: the condition table needs L > 0" in captured


def test_cli_optimize_writes_trace(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    rc = main(["optimize", "--problem", "rosenbrock2", "--solver", "ffd:1e-6+lbfgs+ls",
               "--budget", "500", "--out", str(out)])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "termination=" in captured
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert len(lines) > 2


def test_cli_optimize_matches_the_bench_run_of_the_same_solver(tmp_path, capsys):
    # FFD and CFD draw no directions, so a noise-free optimize run with a
    # 600-evaluation budget is the bench run on rosenbrock2 (n = 2) at
    # budget_factor 200: same termination, iterations and evaluations
    spec = ExperimentSpec(experiment="optimizer_benchmark", problems=("rosenbrock2",),
                          solvers=("ffd+lbfgs+ls", "cfd+sd+fixed:0.001"),
                          budget_factor=200, taus=(0.1,), seed=4)
    rows = {r[2]: dict(zip(BENCH_HEADER, r))
            for r in run_optimizer_benchmark(spec).raw.rows}
    for solver in spec.solvers:
        out = tmp_path / "trace.csv"
        assert main(["optimize", "--problem", "rosenbrock2", "--budget", "600",
                     "--solver", solver, "--out", str(out)]) == 0
        printed = dict(kv.split("=") for kv in capsys.readouterr().out.split()[:2])
        last = dict(zip(TRACE_COLUMNS, out.read_text().splitlines()[-1].split(",")))
        bench = rows[solver]
        assert printed["termination"] == bench["termination"]
        assert int(printed["iters"]) == bench["iters"]
        assert int(last["evals"]) == bench["evals_used"]


def test_cli_optimize_defaults_N_and_reads_direction_in_any_case(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    for solver in ("gsg+lbfgs+ls", "ffd+SD+ls"):
        rc = main(["optimize", "--problem", "quadratic", "--budget", "200",
                   "--solver", solver, "--out", str(out)])
        assert rc == 0, capsys.readouterr().err
        assert "termination=" in capsys.readouterr().out
    # gsg without an N token runs at N = 4n: f(x0) and one estimate of
    # 4n + 1 = 17 evaluations on the 4-dimensional quadratic, which the
    # gradient-norm stop then ends
    assert main(["optimize", "--problem", "quadratic", "--solver", "gsg+SD+ls",
                 "--grad-stop", "1e300", "--out", str(out)]) == 0
    assert "termination=grad_norm_stop iters=1 evals=18 " in capsys.readouterr().out


def test_cli_optimize_budget_spent_on_x0_writes_one_row(tmp_path, capsys):
    # f(x0) uses the whole budget: the trace still accounts for that
    # evaluation, in one in-place row at x0
    out = tmp_path / "trace.csv"
    assert main(["optimize", "--problem", "quadratic", "--budget", "1",
                 "--out", str(out)]) == 0
    assert "termination=eval_budget iters=1 evals=1 f=2 " in capsys.readouterr().out
    assert out.read_text().splitlines()[1:] == ["0,2,nan,2,0,1,0"]


@pytest.mark.parametrize("flags, message", [
    (["--budget", "0"], "budget must be positive"),
    (["--budget", "-3"], "budget must be positive"),
    (["--solver", "ffd+sd+fixed", "--budget", "0"], "budget must be positive"),
    (["--max-iters", "-2"], "max_iters must be nonnegative"),
    (["--grad-stop", "nan"], "grad_norm_stop must be finite and nonnegative"),
    (["--grad-stop", "-1"], "grad_norm_stop must be finite and nonnegative"),
])
def test_cli_optimize_rejects_bad_loop_limits(tmp_path, capsys, flags, message):
    # rejected before f(x0) is spent: exit 2 and no trace
    out = tmp_path / "trace.csv"
    assert main(["optimize", "--problem", "quadratic", "--out", str(out), *flags]) == 2
    assert capsys.readouterr().err.startswith(f"gradest: error: {message}")
    assert not out.exists()


def test_cli_overflowing_probes_write_nothing_to_stderr(tmp_path, capsys):
    # sigma = 1e200 overflows rosenbrock's probes: the CSV records a
    # non-finite theta, and no numpy RuntimeWarning escapes (one would raise here)
    out = tmp_path / "sweep.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "--problems", "rosenbrock2", "--sigmas", "1e200",
                     "--trials", "3", "--points", "1", "--seed", "7",
                     "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = [dict(zip(SWEEP_HEADER, line.split(",")))
            for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 21 and not any(math.isfinite(float(r["theta"])) for r in rows)


def test_cli_bound_check_overflowing_probes_write_nothing_to_stderr(tmp_path, capsys,
                                                                     monkeypatch):
    # both FFD cells overflow rosenbrock's probes, and the barrier holds each
    # until the other has started, so one runs on the helper thread: the
    # errstate of cli.main must hold there too (a RuntimeWarning would raise)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    barrier, real = threading.Barrier(2, timeout=5.0), experiments.estimate_trials

    def together(*args):
        barrier.wait()
        return real(*args)

    monkeypatch.setattr(experiments, "estimate_trials", together)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["bound-check", "--problems", "rosenbrock2", "--methods", "FFD",
                     "--sigmas", "1e200,1e199", "--trials", "5", "--points", "1",
                     "--out", str(tmp_path / "bc.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "deterministic rows: 0/2 passed" in captured.out


def test_cli_bench_writes_profiles(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--problems", "quadratic", "--solvers",
               "ffd+lbfgs+ls,gsg:n+sd+ls", "--budget-factor", "10",
               "--taus", "0.1", "--out", str(out)])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "solved" in captured
    for suffix in ("", "_data_profile", "_perf_profile"):
        assert (tmp_path / f"bench{suffix}.csv").exists()


def test_cli_bench_rejects_a_repeated_solver(tmp_path, capsys):
    # a repeated solver, problem or method (matched ignoring case) is one
    # error line before any work, from bench, sweep and bound-check alike
    for field, argv in (
            ("solvers", ["bench", "--problems", "sphere", "--solvers",
                         "gsg:n+sd+ls,gsg:n+sd+ls", "--budget-factor", "5"]),
            ("problems", ["sweep", "--problems", "sphere,sphere", "--methods", "FFD",
                          "--trials", "2", "--points", "1"]),
            ("methods", ["bound-check", "--problems", "sincos10", "--methods", "GSG,gsg",
                         "--trials", "20", "--points", "1"])):
        assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"gradest: error: {field} must not repeat an entry")
        assert not any(tmp_path.iterdir())


def test_cli_method_names_are_case_insensitive(tmp_path, capsys):
    rc = main(["estimate", "--problem", "quadratic", "--method", "cgsg",
               "--N", "4", "--sigma", "0.1", "--seed", "1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["method"] == "cGSG"
    assert out["evals_used"] == 8
    rc = main(["bounds", "--method", "gsg", "--n", "4", "--L", "2",
               "--delta", "0.1", "--grad-norm", "1"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["method"] == "GSG"
    out = tmp_path / "trace.csv"
    rc = main(["optimize", "--problem", "rosenbrock2", "--solver", "Ffd+LBFGS+LS",
               "--budget", "30", "--out", str(out)])
    assert rc == 0
    assert "termination=" in capsys.readouterr().out


def test_cli_spec_file_values_survive_absent_flags(tmp_path, capsys):
    spec = tmp_path / "theta.json"
    spec.write_text(json.dumps({"seed": 5, "n": 4, "N_list": [2], "trials": 5}))
    out = tmp_path / "theta.csv"
    assert main(["theta-dist", "--spec", str(spec), "--out", str(out)]) == 0
    row = dict(zip(THETA_HEADER, out.read_text().splitlines()[1].split(",")))
    assert (row["n"], row["N"], row["trials"], row["seed"]) == ("4", "2", "5", "5")
    assert main(["theta-dist", "--spec", str(spec), "--seed", "1", "--n", "3",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    row = dict(zip(THETA_HEADER, out.read_text().splitlines()[1].split(",")))
    assert (row["n"], row["N"], row["trials"], row["seed"]) == ("3", "2", "5", "1")


def test_cli_spec_file_lowercase_methods_produce_rows(tmp_path, capsys):
    spec = tmp_path / "bc.json"
    spec.write_text(json.dumps({"methods": ["ffd", "gsg"]}))
    out = tmp_path / "bc.csv"
    rc = main(["bound-check", "--spec", str(spec), "--problems", "sincos10",
               "--sigmas", "0.01", "--points", "2", "--trials", "10",
               "--out", str(out)])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "deterministic rows: 1/1 passed" in captured
    assert "probabilistic rows: 1/1 passed" in captured
    methods = [line.split(",")[3]
               for path in (out, tmp_path / "bc_probabilistic.csv")
               for line in path.read_text().splitlines()[1:]]
    assert methods == ["FFD", "GSG"]


def test_cli_bad_inputs_exit_2_with_clean_error(tmp_path, capsys):
    not_an_object = tmp_path / "list.json"
    not_an_object.write_text("[1, 2]")
    bad_sigmas = tmp_path / "sigmas.json"
    bad_sigmas.write_text(json.dumps({"sigmas": ["a"]}))
    cases = [
        ["sweep", "--spec", str(not_an_object)],
        ["sweep", "--spec", str(bad_sigmas)],
        ["theta-dist", "--n", "0"],
        ["sweep", "--points", "0"],
        ["bound-check", "--points", "0"],
        ["sweep", "--sample-factor", "-1"],
        ["bench", "--budget-factor", "0"],
        ["bench", "--taus", "2"],
        ["bench", "--eps-fs", "1e-4,0"],
        ["bounds", "--method", "FFD", "--n", "4", "--L", "2", "--eps-f", "nan"],
        ["bounds", "--method", "FFD", "--n", "4", "--L", "2", "--eps-f", "inf"],
        ["bounds", "--method", "FFD", "--n", "4", "--L", "2", "--eps-f=-1"],
        ["bounds", "--method", "GSG", "--n", "4", "--delta", "0.1", "--L", "inf"],
        ["bounds", "--method", "FFD", "--n", "4", "--L", "2", "--grad-norm", "inf"],
        ["bounds", "--method", "FFD", "--n", "0", "--L", "2", "--grad-norm", "1"],
        ["bounds", "--method", "FFD", "--n", "0", "--L", "2"],
        ["bounds", "--method", "FFD", "--n", "-3", "--L", "2"],
        ["bound-check", "--methods", "FFD,CFD,LI", "--theta", "2", "--trials", "3"],
        ["bound-check", "--methods", "FFD", "--theta", "0", "--trials", "3"],
        ["bound-check", "--methods", "FFD,CFD,LI", "--delta", "0", "--trials", "3"],
        ["estimate", "--problem", "quadratic", "--method", "newton"],
        ["estimate", "--problem", "nowhere", "--method", "FFD"],
        ["estimate", "--problem", "quadratic", "--method", "FFD",
         "--point", "1,2"],
        ["bench", "--problems", "quadratic", "--solvers", "ffd+warp+ls",
         "--taus", "0.1", "--budget-factor", "5"],
        ["bench", "--problems", "quadratic", "--solvers", "ffd+lbfgs+ls,cfd+sd+fixed:inf"],
        ["bench", "--problems", "quadratic", "--solvers", "cfd+lbfgs+fixed:0.001"],
        ["bench", "--problems", "quadratic", "--solvers", "ffd+lbfgs+ls,ffd:-1+lbfgs+ls"],
        ["bench", "--problems", "quadratic", "--solvers", "ffd:nan+lbfgs+ls"],
        ["bound-check", "--methods", "FFD,foo", "--trials", "3"],
        ["sweep", "--sigmas", "abc"],
        ["theta-dist", "--N-list", "2,x"],
        ["estimate", "--problem", "quadratic", "--method", "FFD", "--eps-f", "inf"],
        ["estimate", "--problem", "quadratic", "--method", "FFD", "--eps-f", "nan"],
        ["estimate", "--problem", "quadratic", "--method", "FFD", "--sigma", "inf"],
        ["estimate", "--problem", "quadratic", "--method", "FFD",
         "--point", "nan,1,1,1"],
        ["optimize", "--problem", "quadratic", "--eps-f=-1e-4"],
        ["sweep", "--eps-fs", "nan"],
        ["sweep", "--sigmas", "inf"],
        ["estimate", "--problem", "quadratic"],
        ["optimize", "--problem", "quadratic", "--solver", "gsg:infn+sd+ls"],
        ["bench", "--problems", "quadratic", "--solvers", "gsg:infn+sd+ls"],
        ["sweep", "--problems", "quadratic", "--sample-factor", "1e308"],
        # a list flag with no entries is an error, not the default list
        ["sweep", "--problems", ""],
        ["estimate", "--problem", "quadratic", "--method", "FFD", "--point", ""],
        ["bench", "--solvers", " , "],
        ["theta-dist", "--N-list", ","],
    ]
    for argv in cases:
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("gradest: error: ")
        assert "Traceback" not in err
    # a bad --solver fails on the check it targets, naming the spec
    for solver, message in [("ffd+newton+ls", "direction must be lbfgs or sd"),
                            ("gsg:0+sd+ls", "N must be positive"),
                            ("ffd:1+lbfgs+ls", "N applies to the smoothing methods only"),
                            ("cfd+sd+fixed:inf", "alpha must be positive and finite"),
                            ("cfd+lbfgs+fixed", "fixed step takes direction sd"),
                            ("ffd:0.0+lbfgs+ls", "sigma must be positive and finite"),
                            ("gsg:4:8+sd+ls", "N is given twice")]:
        assert main(["optimize", "--problem", "quadratic", "--solver", solver]) == 2
        err = capsys.readouterr().err
        assert err.startswith("gradest: error: argument --solver: ")
        assert message in err and f"in solver spec '{solver}'" in err


def test_cli_names_the_solver_when_N_fails_at_the_problem_dimension(tmp_path, capsys):
    # 1e308 n passes the solver check at n = 1 and overflows at trig5's n = 5
    out = str(tmp_path / "out.csv")
    for argv in (["optimize", "--problem", "trig5", "--solver", "gsg:1e308n+sd+ls"],
                 ["bench", "--problems", "trig5", "--solvers", "gsg:1e308n+sd+ls"]):
        assert main([*argv, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == ("gradest: error: N must be positive and finite, got 1e+308 * n "
                       "in solver spec 'gsg:1e308n+sd+ls'\n")


def test_cli_reports_running_out_of_memory_as_one_error_line(tmp_path, capsys, monkeypatch):
    # the direction draw stands in for an allocation too large for memory,
    # so nothing large is allocated
    def out_of_memory(message):
        def draw(*args):
            raise MemoryError(message) if message else MemoryError()
        return draw

    argv = ["optimize", "--problem", "trig5", "--solver", "gsg:4n+sd+ls",
            "--out", str(tmp_path / "trace.csv")]
    for message, line in [("Unable to allocate 7.28 TiB", "Unable to allocate 7.28 TiB"),
                          (None, "out of memory")]:
        monkeypatch.setattr(estimators, "trial_directions", out_of_memory(message))
        assert main(argv) == 2
        assert capsys.readouterr().err == f"gradest: error: {line}\n"
