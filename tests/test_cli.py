import json
import os
import subprocess
import sys
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mildsing
from mildsing import cli
from mildsing.cli import (
    ConfigError,
    build_coefficient,
    build_solver_config,
    main,
    parse_config,
    run,
    suite,
)
from mildsing.solver import LevelStats

SOLVE_CONFIG = """\
[experiment]
kind = solve
name = demo

[mesh]
dim = 1
nx = 129

[nonlinearity]
g = power
gamma = 0.5
f = 1.0
"""

ZERO_CONFIG = """\
[experiment]
kind = solve
name = zero

[mesh]
nx = 9
ny = 9

[nonlinearity]
g = none
"""

SHORT_STABILITY_CONFIG = """\
[experiment]
kind = stability

[mesh]
nx = 17
ny = 17

[nonlinearity]
g = power
gamma = 1.0
f = 1.0

[stability]
levels = 1,2
"""

BAD_GAMMA_CONFIG = """\
[experiment]
kind = solve

[mesh]
nx = 9

[nonlinearity]
g = power
gamma = -0.5
f = 1.0
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_zero_problem_run_exits_clean(tmp_path):
    path = write(tmp_path, "zero.ini", ZERO_CONFIG)
    out = tmp_path / "out"
    assert run(path, out_dir=out) == 0
    field = (out / "solution.csv").read_text().splitlines()
    values = [float(line.split(",")[4]) for line in field[1:]]
    assert all(v == 0.0 for v in values)
    record = json.loads((out / "results.jsonl").read_text())
    assert record["pass"] is True
    assert record["name"] == "solve"


def test_malformed_gamma_is_config_error(tmp_path, capsys):
    path = write(tmp_path, "bad.ini", BAD_GAMMA_CONFIG)
    assert run(path, out_dir=tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert "gamma" in err
    assert "0 < gamma <= 1" in err


def test_source_without_nonlinearity_is_config_error(tmp_path, capsys):
    # g = none is the problem without the f g(u) term: an f there would be dropped
    path = write(tmp_path, "nof.ini", ZERO_CONFIG + "f = 5.0\n")
    assert run(path, out_dir=tmp_path / "o") == 2
    assert "[nonlinearity] f: unknown key" in capsys.readouterr().err
    assert not (tmp_path / "o" / "solution.csv").exists()


@pytest.mark.parametrize("mesh", ["dim = 1\nnx = 1", "nx = 1\nny = 1"], ids=["1d", "2d"])
def test_too_few_nodes_is_config_error(tmp_path, capsys, mesh):
    # a mesh of one node is a mistake in the config, in either dimension
    path = write(tmp_path, "one.ini", SOLVE_CONFIG.replace("dim = 1\nnx = 129", mesh))
    assert run(path, out_dir=tmp_path / "o") == 2
    assert "[mesh] nx: need at least 2 nodes" in capsys.readouterr().err


def test_missing_config_is_config_error(tmp_path):
    assert run(tmp_path / "nope.ini", out_dir=tmp_path / "o") == 2


def test_missing_data_file_is_config_error(tmp_path):
    cfg = SOLVE_CONFIG.replace("f = 1.0", "f = csv:missing.csv")
    path = write(tmp_path, "data.ini", cfg)
    assert run(path, out_dir=tmp_path / "o") == 2


@pytest.mark.parametrize("section, key", [
    ("solver", "max_iner"), ("solver", "slope_damping"), ("solver", "theta0"),
    ("solver", "cg_tol"), ("solver", "cg_maxit"), ("solver", "inner_tol"),
    ("solver", "inner_tol_abs"), ("solver", "max_inner"), ("solver", "max_levels"),
    ("solver", "n_start"), ("nonlinearity", "gama"), ("solve", "energy_tl"), ("mesh2", "nx"),
], ids=["max_iner", "slope_damping", "theta0", "cg_tol", "cg_maxit", "inner_tol",
        "inner_tol_abs", "max_inner", "max_levels", "n_start", "gama", "energy_tl", "mesh2"])
def test_unknown_solver_key_is_config_error(tmp_path, capsys, section, key):
    # the key goes into its section if the config has one (a second header is a
    # syntax error), else into a new section at the end
    header = f"[{section}]\n"
    text = (SOLVE_CONFIG.replace(header, f"{header}{key} = 0.5\n") if header in SOLVE_CONFIG
            else f"{SOLVE_CONFIG}\n{header}{key} = 0.5\n")
    path = write(tmp_path, "typo.ini", text)
    assert run(path, out_dir=tmp_path / "o") == 2
    assert f"[{section}] {key}: unknown" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()  # rejected before the run directory is made


def test_truncation_start_below_one_fails(tmp_path, capsys):
    # every schedule starts at level 1; a listed level below it fails the run
    text = SHORT_STABILITY_CONFIG.replace("levels = 1,2", "levels = 0.5,1")
    path = write(tmp_path, "n0.ini", text)
    assert run(path, out_dir=tmp_path / "o") == 1
    assert "truncation level must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("outer_tol", "inf", "must be finite and > 0"), ("outer_tol_abs", "0", "must be finite and > 0"),
    # the step limit is the constant solver._MAX_INNER: no value of the old key is accepted
    ("max_inner", "0", "unknown key"), ("max_inner", "-5", "unknown key"),
], ids=["outer_tol_inf", "outer_tol_abs_zero", "max_inner_0", "max_inner_neg"])
def test_solver_range_is_config_error(tmp_path, capsys, key, value, message):
    path = write(tmp_path, "range.ini", f"{SOLVE_CONFIG}\n[solver]\n{key} = {value}\n")
    assert run(path, out_dir=tmp_path / "o") == 2
    assert f"[solver] {key}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o" / "solution.csv").exists()


def _matrix_config(a11, a12, a21, a22, extra=""):
    return (f"{extra}[coefficient]\nkind = matrix\n"
            f"a11 = {a11!r}\na12 = {a12!r}\na21 = {a21!r}\na22 = {a22!r}\n")


MATRIX_SOLVE_CONFIG = SOLVE_CONFIG.replace("dim = 1\nnx = 129", "nx = 17\nny = 17")


def test_isotropic_coefficient_is_the_diagonal_matrix(tmp_path):
    # kind = isotropic with a = 2.5 is kind = matrix with a11 = a22 = 2.5
    iso = MATRIX_SOLVE_CONFIG + "\n[coefficient]\nkind = isotropic\na = 2.5\n"
    mat = _matrix_config(2.5, 0.0, 0.0, 2.5, extra=MATRIX_SOLVE_CONFIG + "\n")
    mesh = mildsing.build_rectangle_mesh(1.0, 1.0, 17, 17)
    coeffs = [build_coefficient(parse_config(text), mesh) for text in (iso, mat)]
    assert np.array_equal(coeffs[0].matrices, coeffs[1].matrices)
    csvs = []
    for name, text in (("iso", iso), ("mat", mat)):
        assert run(write(tmp_path, f"{name}.ini", text), out_dir=tmp_path / name) == 0
        csvs.append((tmp_path / name / "solution.csv").read_bytes())
    assert csvs[0] == csvs[1]


@pytest.mark.parametrize("a", [(1.0, -0.5, -0.5, 1.0), (1.0, 1.2, 1.2, 2.0)],
                         ids=["negative_coupling", "coupling_above_diagonal"])
def test_non_m_matrix_coefficient_is_config_error(tmp_path, capsys, a):
    path = write(tmp_path, "aniso.ini", _matrix_config(*a, extra=MATRIX_SOLVE_CONFIG + "\n"))
    assert run(path, out_dir=tmp_path / "o") == 2
    assert "0 <= (a12 + a21) / 2 <= min(a11, a22)" in capsys.readouterr().err
    assert not (tmp_path / "o" / "solution.csv").exists()


@pytest.mark.parametrize("a", [(2.0, 0.5, 0.5, 1.0), (1.0, 0.3, -0.3, 1.0)],
                         ids=["anisotropic", "non_symmetric"])
def test_m_matrix_coefficient_runs(tmp_path, a):
    path = write(tmp_path, "aniso.ini", _matrix_config(*a, extra=MATRIX_SOLVE_CONFIG + "\n"))
    assert run(path, out_dir=tmp_path / "o") == 0


@settings(max_examples=200, deadline=None)
@given(a11=st.floats(0.1, 10.0), a22=st.floats(0.1, 10.0), s=st.floats(-10.0, 10.0),
       d=st.floats(-10.0, 10.0))
def test_matrix_coefficient_range_matches_stiffness_signs(a11, a22, s, d):
    # A = [[a11, s + d], [s - d, a22]]: symmetric part s, antisymmetric part d
    a12, a21 = s + d, s - d
    s = (a12 + a21) / 2.0
    scale = max(a11, a22)
    assume(a11 * a22 - s * s > 1e-6 * scale * scale)  # coercive
    assume(min(abs(s), abs(a11 - s), abs(a22 - s)) > 1e-9 * scale)  # off the range's ends
    mesh = mildsing.build_rectangle_mesh(1.0, 1.0, 5, 5)
    K = mildsing.assemble_stiffness(
        mesh, mildsing.Coefficient.constant(mesh, [[a11, a12], [a21, a22]])).matrix.tocoo()
    m_matrix = bool(np.all(K.data[K.row != K.col] <= 0.0))
    try:
        build_coefficient(parse_config(_matrix_config(a11, a12, a21, a22)), mesh)
        accepted = True
    except ConfigError:
        accepted = False
    assert accepted == m_matrix


def test_every_solver_field_is_parsed():
    values = {f.name: 2 + i for i, f in enumerate(fields(mildsing.SolverConfig))}
    cfg = parse_config(SOLVE_CONFIG + "\n[solver]\n"
                       + "".join(f"{k} = {v}\n" for k, v in values.items()))
    scfg = build_solver_config(cfg)
    assert {k: getattr(scfg, k) for k in values} == values


def test_auto_rate_solve_shares_its_operator(tmp_path, fem_calls):
    # rate = auto takes lambda_1 of the operator the solve then runs on: one
    # assembly, which is also the H1 seminorm's matrix (A = I, mu = 0), and
    # one multigrid hierarchy
    path = write(tmp_path, "eigen.ini", """\
[experiment]
kind = solve

[mesh]
nx = 17
ny = 17

[nonlinearity]
g = eigen_trunc
rate = auto
k = 1.0
f = 0.5
l = 1.0
""")
    assert run(path, out_dir=tmp_path / "out") == 0
    assert fem_calls.count("stiffness_csr") == 1
    assert fem_calls.count("_multigrid") == 1


def test_solve_run_outputs_are_deterministic(tmp_path):
    path = write(tmp_path, "solve.ini", SOLVE_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(path, out_dir=out1, seed=3) == 0
    assert run(path, out_dir=out2, seed=3) == 0
    assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()
    r1 = json.loads((out1 / "results.jsonl").read_text())
    r2 = json.loads((out2 / "results.jsonl").read_text())
    r1.pop("artifacts"), r2.pop("artifacts")  # contain the differing out dirs
    assert r1 == r2


#: the benchmark's oscillating model, whose Picard tail is Anderson-accelerated
OSCILLATING_65 = SOLVE_CONFIG.replace("dim = 1\nnx = 129", "nx = 65\nny = 65").replace(
    "g = power\ngamma = 0.5", "g = oscillating\ngamma = 1.0")


def test_solve_run_output_independent_of_blas_threads(tmp_path):
    # 129^2 vectors are long enough for OpenBLAS to thread its dot product;
    # the CSV must not depend on how many threads it uses, also where the
    # Anderson steps of the Picard tail solve their least-squares problems
    src = os.path.dirname(os.path.dirname(os.path.abspath(mildsing.__file__)))
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    power_129 = SOLVE_CONFIG.replace("dim = 1\nnx = 129", "nx = 129\nny = 129")
    for name, config in (("power129", power_129), ("oscillating65", OSCILLATING_65)):
        path = write(tmp_path, f"{name}.ini", config)
        outs = []
        for extra in ({"OPENBLAS_NUM_THREADS": "1"}, {}):
            out = tmp_path / f"{name}-out{len(outs)}"
            subprocess.run([sys.executable, "-m", "mildsing.cli", "run", "--config", str(path),
                            "--out", str(out)], env={**base, **extra}, check=True, timeout=300)
            outs.append((out / "solution.csv").read_bytes())
        assert outs[0] == outs[1], name


def test_solver_stats_count_accelerated_steps(tmp_path):
    # each level's line says how many of its steps were Anderson steps;
    # the count stays out of results.jsonl like every other solver statistic
    path = write(tmp_path, "osc.ini", OSCILLATING_65)
    out = tmp_path / "out"
    assert run(path, out_dir=out) == 0
    levels = [json.loads(line) for line in (out / "solver_stats.jsonl").read_text().splitlines()]
    assert all(0 <= st["accelerated"] < st["iterations"] for st in levels)
    assert sum(st["accelerated"] for st in levels) > 0
    assert "accelerated" not in (out / "results.jsonl").read_text()


def test_solver_stats_report_the_equation_residual(tmp_path):
    # each level's line carries the relative residual of the capped equation
    # at the iterate it returned; like the other statistics, not in results.jsonl
    path = write(tmp_path, "solve.ini", SOLVE_CONFIG)
    out = tmp_path / "out"
    assert run(path, out_dir=out) == 0
    levels = [json.loads(line) for line in (out / "solver_stats.jsonl").read_text().splitlines()]
    assert all(st["converged"] and 0.0 <= st["equation_residual"] <= 1e-6 for st in levels)
    assert "equation_residual" not in (out / "results.jsonl").read_text()


def test_solver_stats_lines_are_the_level_stats(tmp_path):
    # one line per level: every LevelStats field under its own name, and
    # nothing else
    path = write(tmp_path, "solve.ini", SOLVE_CONFIG)
    out = tmp_path / "out"
    reports = []

    def schedule(*args, _original=cli._schedule, **kwargs):
        reports.append(_original(*args, **kwargs))
        return reports[-1]

    with mock.patch.object(cli, "_schedule", schedule):
        assert run(path, out_dir=out) == 0
    levels = [json.loads(line) for line in (out / "solver_stats.jsonl").read_text().splitlines()]
    (report,) = reports
    assert len(levels) == len(report.level_stats) > 1
    for line, st in zip(levels, report.level_stats):
        want = {f.name: json.loads(json.dumps(getattr(st, f.name))) for f in fields(LevelStats)}
        assert line == want


TABLE_CONFIG = SOLVE_CONFIG.replace("g = power\ngamma = 0.5", "g = table\ntable_s = 0,1")

SWEEP_CONFIG = """\
[experiment]
kind = homogenization

[mesh]
nx = 17
ny = 17

[nonlinearity]
g = none
l = 1.0

[homogenization]
mu = 10
epsilons = 0.25,0.125
"""


def test_table_nonlinearity_runs(tmp_path):
    assert run(write(tmp_path, "table.ini", TABLE_CONFIG + "table_g = 1,0.5\n"),
               out_dir=tmp_path / "o") == 0
    assert (tmp_path / "o" / "solution.csv").exists()


def test_table_of_unequal_lengths_is_config_error(tmp_path, capsys):
    path = write(tmp_path, "table.ini", TABLE_CONFIG + "table_g = 1,0.5,0.25\n")
    assert run(path, out_dir=tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert "[nonlinearity] table_s: table_s and table_g need equal length" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text, section, key", [
    (TABLE_CONFIG + "table_g = 1,x\n", "nonlinearity", "table_g"),
    (SWEEP_CONFIG.replace("0.25,0.125", "0.25,x"), "homogenization", "epsilons"),
    (SHORT_STABILITY_CONFIG.replace("levels = 1,2", "levels = 1,y"), "stability", "levels"),
], ids=["table_g", "epsilons", "levels"])
def test_bad_list_is_config_error(tmp_path, capsys, text, section, key):
    # each comma-separated list names itself when one entry is not a number
    path = write(tmp_path, "bad.ini", text)
    out = tmp_path / "o"
    assert run(path, out_dir=out) == 2
    assert f"[{section}] {key}: bad list" in capsys.readouterr().err
    assert not out.exists()  # rejected before the run directory is made


def test_nonuniqueness_run_records_distinct_solutions(tmp_path):
    text = """\
[experiment]
kind = nonuniqueness

[mesh]
nx = 33
ny = 33

[nonuniqueness]
k = 1.0
"""
    path = write(tmp_path, "nonuniq.ini", text)
    out = tmp_path / "out"
    assert run(path, out_dir=out) == 0
    record = json.loads((out / "results.jsonl").read_text())
    assert record["pass"] is True
    assert record["metrics"]["max_linf_separation"] >= 0.1
    assert not list(out.glob("nonuniqueness_*.csv"))  # fields are written only on failure


def test_failed_run_writes_its_fields(tmp_path):
    path = write(tmp_path, "short.ini", SHORT_STABILITY_CONFIG)
    out = tmp_path / "out"
    assert run(path, out_dir=out) == 1
    record = json.loads((out / "results.jsonl").read_text())
    assert record["pass"] is False
    assert record["artifacts"] == [str(out / "stability_u_ref.csv")]
    assert (out / "stability_u_ref.csv").exists()
    assert not list(out.glob("*.tmp.*"))


ZERO_DATA = "g = power\ngamma = 1.0\nf = 0.0\nl = 0.0\n"
SWEEP_KINDS = ("homogenization", "corrector")


CAPACITY_CONFIG = """\
[experiment]
kind = capacity

[capacity]
r_outer = 0.5
r_inner = 0.05
h = 0.00390625
"""


def test_capacity_run(tmp_path):
    path = write(tmp_path, "cap.ini", CAPACITY_CONFIG)
    assert run(path, out_dir=tmp_path / "out") == 0


# one valid config of each kind that had a verdict tolerance key
TOLERANCE_KIND_CONFIGS = {
    "solve": SOLVE_CONFIG,
    "capacity": CAPACITY_CONFIG,
    "nonuniqueness": "[experiment]\nkind = nonuniqueness\n\n[mesh]\nnx = 9\n\n"
                     "[nonuniqueness]\nk = 1.0\n",
    "homogenization": "[experiment]\nkind = homogenization\n\n[mesh]\nnx = 17\n\n"
                      f"[nonlinearity]\n{ZERO_DATA}\n"
                      "[homogenization]\nmu = 100\nepsilons = 0.25,0.125\n",
}


@pytest.mark.parametrize("kind, section, key, why", [
    ("solve", "solve", "energy_tol", "unknown section"),
    ("capacity", "capacity", "rel_tol", "unknown key (choose from r_outer, r_inner, h)"),
    ("nonuniqueness", "nonuniqueness", "ray_tol", "unknown key (choose from k)"),
    ("homogenization", "homogenization", "defect_tol",
     "unknown key (choose from mu, strategy, epsilons)"),
])
def test_verdict_tolerance_key_is_config_error(tmp_path, capsys, kind, section, key, why):
    # verdict thresholds are module constants: a config that sets one is
    # refused before the run directory is made
    text = TOLERANCE_KIND_CONFIGS[kind]
    cfg = parse_config(text)
    cfg.get("experiment", "kind"), cfg.get("experiment", "name")  # as run reads them
    cli._prepare(cfg, kind, str(tmp_path / "unused"), seed=0, threads=1)
    cfg.reject_unread()  # the config without the key is valid
    header = f"[{section}]\n"
    text = (text.replace(header, f"{header}{key} = 0.5\n") if header in text
            else f"{text}\n{header}{key} = 0.5\n")
    assert run(write(tmp_path, f"{kind}.ini", text), out_dir=tmp_path / "o") == 2
    assert capsys.readouterr().err == f"config error: [{section}] {key}: {why}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind", ["solve", "comparison", "uniqueness", "stability", *SWEEP_KINDS])
def test_zero_data_run_ends_in_a_verdict(tmp_path, capsys, kind):
    # f = l = 0 gives u = 0, and mu |u_0|**2 = 0 with it: every kind that
    # takes data returns a verdict or rejects the data, never a traceback.
    # The sweeps run on 65**2: on 17**2 the epsilon = 1/8 row is dropped as
    # unresolved, and the sweep stops before it compares its defect with mu |u_0|**2
    nx = 65 if kind in SWEEP_KINDS else 17
    text = f"[experiment]\nkind = {kind}\n\n[mesh]\nnx = {nx}\nny = {nx}\n\n[nonlinearity]\n{ZERO_DATA}"
    if kind == "comparison":
        text += f"\n[nonlinearity2]\n{ZERO_DATA}"
    if kind in SWEEP_KINDS:
        text += "\n[homogenization]\nmu = 100\nepsilons = 0.25,0.125\n"
    out = tmp_path / "out"
    code = run(write(tmp_path, f"{kind}.ini", text), out_dir=out)
    if not (out / "results.jsonl").exists():
        assert code == 1 and "experiment failed" in capsys.readouterr().err
        return
    assert code in (0, 1)
    record = json.loads((out / "results.jsonl").read_text())
    if kind == "homogenization":
        assert record["pass"] is False  # eL2 = 0 at every epsilon does not decrease
        assert record["metrics"]["defect_rel_error"] == "nan"


def test_suite_empty_manifest(tmp_path):
    manifest = write(tmp_path, "empty.txt", "# nothing here\n")
    assert suite(manifest, out_dir=tmp_path / "suite") == 0
    summary = (tmp_path / "suite" / "summary.csv").read_text().splitlines()
    assert summary == ["name,pass,exit_code,wall_seconds"]


def test_suite_mixed_results(tmp_path):
    write(tmp_path, "good.ini", ZERO_CONFIG)
    write(tmp_path, "short.ini", SHORT_STABILITY_CONFIG)
    manifest = write(tmp_path, "manifest.txt", "good.ini\nshort.ini\n")
    code = suite(manifest, out_dir=tmp_path / "suite")
    rows = (tmp_path / "suite" / "summary.csv").read_text().splitlines()
    assert code == 1
    assert len(rows) == 3
    verdicts = {r.split(",")[0]: r.split(",")[1] for r in rows[1:]}
    assert verdicts == {"good": "true", "short": "false"}
    # the failing run still left its partial results behind
    assert (tmp_path / "suite" / "short" / "results.jsonl").exists()


def test_suite_rejects_runs_sharing_a_name(tmp_path, capsys):
    # both runs would write <out>/x: refused before either starts
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    write(tmp_path / "a", "x.ini", ZERO_CONFIG)
    write(tmp_path / "b", "x.ini", ZERO_CONFIG)
    manifest = write(tmp_path, "m.txt", "a/x.ini\nb/x.ini\n")
    assert suite(manifest, out_dir=tmp_path / "suite") == 2
    assert "runs share a name" in capsys.readouterr().err
    assert not (tmp_path / "suite").exists()


def test_suite_parallel_matches_serial(tmp_path):
    write(tmp_path, "a.ini", ZERO_CONFIG.replace("name = zero", "name = a"))
    write(tmp_path, "b.ini", ZERO_CONFIG.replace("name = zero", "name = b"))
    manifest = write(tmp_path, "m.txt", "a.ini\nb.ini\n")
    assert suite(manifest, out_dir=tmp_path / "s1", threads=1) == 0
    assert suite(manifest, out_dir=tmp_path / "s2", threads=2) == 0
    for name in ("a", "b"):
        s1 = (tmp_path / "s1" / name / "solution.csv").read_bytes()
        s2 = (tmp_path / "s2" / name / "solution.csv").read_bytes()
        assert s1 == s2


def test_shipped_demo_manifest_passes(tmp_path):
    import pathlib

    manifest = pathlib.Path(__file__).resolve().parent.parent / "configs" / "manifest.txt"
    assert suite(manifest, out_dir=tmp_path / "suite", threads=2) == 0
    rows = (tmp_path / "suite" / "summary.csv").read_text().splitlines()
    assert len(rows) == 5
    assert all(row.split(",")[1] == "true" for row in rows[1:])


def test_main_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("command", [["run", "--config", "x.ini"],
                                     ["suite", "--manifest", "configs/manifest.txt"]],
                         ids=["run", "suite"])
def test_main_rejects_threads_below_one(monkeypatch, capsys, command, threads):
    # a usage error, found before any run or thread pool starts
    def started(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(mildsing.cli, "run", started)
    monkeypatch.setattr(mildsing.cli, "suite", started)
    with pytest.raises(SystemExit) as err:
        main(command + ["--threads", threads])
    assert err.value.code == 2
    assert f"--threads must be at least 1, got {threads}" in capsys.readouterr().err


def test_main_run_subcommand(tmp_path):
    path = write(tmp_path, "zero.ini", ZERO_CONFIG)
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 0


def test_corrector_kind_runs_sweep(tmp_path):
    text = """\
[experiment]
kind = corrector

[mesh]
nx = 65
ny = 65

[nonlinearity]
g = none
l = 10.0

[homogenization]
mu = 100
epsilons = 0.25,0.125
"""
    path = write(tmp_path, "corr.ini", text)
    out = tmp_path / "out"
    code = run(path, out_dir=out, threads=2)
    record = json.loads((out / "results.jsonl").read_text())
    assert record["name"] == "corrector"
    assert "eH1_corr" in record["metrics"]
    assert (out / "sweep.csv").exists()
    assert record["artifacts"] == [str(out / "sweep.csv")]
    assert record["metrics"]["improves_everywhere"] is True
    assert code in (0, 1)  # the strict trend needs the resolving mesh


@pytest.mark.parametrize("kind", SWEEP_KINDS)
def test_sweep_that_keeps_one_epsilon_fails(tmp_path, kind):
    # on 17**2 the epsilon = 1/8 holes are unresolved (h > r/2) and dropped;
    # one row left cannot show a trend, so both sweep kinds fail on it
    text = (f"[experiment]\nkind = {kind}\n\n[mesh]\nnx = 17\nny = 17\n\n"
            "[nonlinearity]\ng = power\ngamma = 1.0\nf = 1.0\n\n"
            "[homogenization]\nmu = 100\nepsilons = 0.25,0.125\n")
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="dropping epsilon"):
        code = run(write(tmp_path, f"{kind}.ini", text), out_dir=out)
    assert code == 1
    record = json.loads((out / "results.jsonl").read_text())
    assert record["name"] == kind
    assert record["pass"] is False
    assert record["metrics"]["rows_kept"] == 1


def test_field_data_from_csv(tmp_path):
    import mildsing as ms

    mesh = ms.build_rectangle_mesh(1.0, 1.0, 9, 9)
    fld = ms.FieldFunction.from_callable(mesh, lambda x, y: 1.0 + x)
    ms.write_field_csv(tmp_path / "f.csv", fld)
    text = """\
[experiment]
kind = solve

[mesh]
nx = 9
ny = 9

[nonlinearity]
g = power
gamma = 0.5
f = csv:f.csv
"""
    path = write(tmp_path, "csvrun.ini", text)
    assert run(path, out_dir=tmp_path / "out") == 0


def _repeat_node_5(lines):
    lines[7] = lines[6]  # node 5 listed twice, node 6 left out
    return lines


def _rename_columns(lines):
    lines[0] = "a,b,c,d,e\n"
    return lines


def _cut_row(lines):
    lines[3] = lines[3].rsplit(",", 1)[0] + "\n"  # node 2 loses its value
    return lines


def _nan_at_node_12(lines):
    lines[13] = lines[13].rsplit(",", 1)[0] + ",nan\n"
    return lines


@pytest.mark.parametrize("corrupt, message", [
    (_repeat_node_5, "node index 5"),
    (_rename_columns, "no column index, value"),
    (_cut_row, "line 4: field count"),
    (_nan_at_node_12, "f must be finite and nonnegative everywhere (node 12 has nan)"),
], ids=["repeated_index", "missing_columns", "short_row", "nan_value"])
def test_field_data_with_repeated_index_is_config_error(tmp_path, capsys, corrupt, message):
    import mildsing as ms

    mesh = ms.build_rectangle_mesh(1.0, 1.0, 5, 5)
    ms.write_field_csv(tmp_path / "f.csv", ms.FieldFunction.from_callable(mesh, lambda x, y: 1.0 + x))
    lines = (tmp_path / "f.csv").read_text().splitlines(keepends=True)
    (tmp_path / "f.csv").write_text("".join(corrupt(lines)))
    text = SOLVE_CONFIG.replace("dim = 1\nnx = 129", "nx = 5\nny = 5").replace("f = 1.0", "f = csv:f.csv")
    path = write(tmp_path, "dup.ini", text)
    assert run(path, out_dir=tmp_path / "out") == 2
    assert message in capsys.readouterr().err
