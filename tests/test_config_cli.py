"""Configuration parsing and command-line behavior.

Config errors are pinned with their line numbers so a parser change
cannot silently degrade diagnostics. CLI commands are exercised through
cmd_* entry points (capturing stdout) and through main() for exit codes;
file outputs are checked for schema, round-trip precision, and
bit-for-bit reproducibility.
"""

from __future__ import annotations

import io
import math
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from paper_tables import BENCH_ALPHAS, parse_reproduce_tables
from fracburst import (
    ConfigError,
    NotApplicableError,
    PowerLawParams,
    RefinementPolicy,
    SolverConfig,
    load_config,
    parse_config,
    theorem_bound,
)
from fracburst.cli import (
    EXIT_CONFIG,
    EXIT_NOT_APPLICABLE,
    EXIT_NUMERIC,
    EXIT_OK,
    cmd_b_curve,
    cmd_bound,
    cmd_detect,
    cmd_solve,
    main,
)

EXAMPLE1_CFG = """\
name = bench1
[system]
alpha = 0.1, 0.4, 0.6, 0.9
q1 = 0.5
q2 = 1.5
p11 = 1.5
p12 = 3.6
p21 = 0.5
p22 = 2.4
x0 = 1.0
y0 = 1.2
"""

MINIMAL_CFG = """\
[system]
alpha = 0.5
p11 = 1.0
p12 = 3.0
p21 = 2.0
p22 = 4.0
x0 = 1.0
y0 = 1.0
"""

CELL = re.compile(r"-?\d\.\d{11}e[+-]\d{2,3}$")


def run_cmd(func, *args, **kwargs):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = func(*args, **kwargs)
    return code, buf.getvalue()


def write_cfg(tmp_path, text, name="scn.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    return header, data


# ---------------------------------------------------------------------------
# parsing

def test_parse_full_example():
    cfg = parse_config(EXAMPLE1_CFG)
    assert cfg.name == "bench1"
    assert cfg.systems == tuple(
        PowerLawParams(alpha=alpha, q1=0.5, q2=1.5, p11=1.5, p12=3.6,
                       p21=0.5, p22=2.4, x0=1.0, y0=1.2)
        for alpha in BENCH_ALPHAS
    )


def test_parse_defaults():
    cfg = parse_config(MINIMAL_CFG)
    assert cfg.name == "scenario"
    (params,) = cfg.systems
    assert params.alpha == 0.5
    assert (params.q1, params.q2) == (0.0, 0.0)
    assert cfg.solver is None
    assert cfg.policy == RefinementPolicy()
    # N, threshold and budget defaults, seen through a horizon
    solver = parse_config(MINIMAL_CFG + "[solver]\nT = 1\n").solver
    assert solver == SolverConfig(T=1.0, N=4096)
    assert solver.overflow_threshold == 1e8
    assert cfg.policy.budget == 5


def test_parse_comments_and_blanks():
    text = "# comment\n\nname = c\n" + MINIMAL_CFG + "\n# trailing\n"
    assert parse_config(text).name == "c"


def test_parse_solver_and_detection_sections():
    text = MINIMAL_CFG + "[solver]\nT = 0.25\nN = 512\n[detection]\nthreshold = 1e6\nbudget = 2\n"
    cfg = parse_config(text)
    assert cfg.solver == SolverConfig(T=0.25, N=512, overflow_threshold=1e6)
    assert cfg.policy == RefinementPolicy(budget=2)


@pytest.mark.parametrize(
    "text,message",
    [
        ("[orbit]\n", "line 1: unknown section [orbit]"),
        (MINIMAL_CFG + "[system]\n", "line 9: duplicate section [system]"),
        ("[system]\nalpha\n", "line 2: expected key = value"),
        ("[system]\nalpha =\n", "line 2: empty value for 'alpha'"),
        ("x0 = 1\n", "line 1: key 'x0' before any section"),
        ("name = a\nname = b\n", "line 2: duplicate key 'name'"),
        ("name = demo  # my run\n", "line 1: '#' in the value of 'name'; "
                                    "comments go on a line of their own"),
        ("[system]\nT = 1\n", "line 2: unknown key 'T' in [system]"),
        ("[system]\nalpha = 0.5\nalpha = 0.6\n", "line 3: duplicate key 'alpha'"),
        ("[system]\nalpha = abc\n", "line 2: alpha is not a number: 'abc'"),
        ("[system]\nalpha = inf\n", "line 2: alpha must be finite"),
        ("[system]\nalpha = 1.5\n", "alpha must lie in (0, 1]"),
        (MINIMAL_CFG.replace("x0 = 1.0", "x0 = 0.0"), "x0 must be positive"),
        (MINIMAL_CFG + "q1 = -0.5\n", "q1 must be nonnegative"),
        (MINIMAL_CFG.replace("p21 = 2.0", "p21 = -2.0"), "p21 must be nonnegative"),
        (MINIMAL_CFG + "[solver]\nN = 2.5\n", "N is not an integer"),
        (MINIMAL_CFG + "[solver]\nN = 0\n", "N must be >= 1"),
        (MINIMAL_CFG + "[solver]\nT = -1\n", "T must be positive"),
        (MINIMAL_CFG + "[detection]\nthreshold = 0\n", "threshold must be positive"),
        (MINIMAL_CFG + "[detection]\nbudget = -1\n", "budget must be nonnegative"),
        ("name = x\n", "missing [system] section"),
        ("name = sub/run\n" + MINIMAL_CFG,
         "line 1: name must not contain /, \\, ' or NUL, got 'sub/run'"),
        ("name = sub\\run\n" + MINIMAL_CFG, "line 1: name must not contain"),
        ("name = it's\n" + MINIMAL_CFG, "line 1: name must not contain"),
        ("name = a\0b\n" + MINIMAL_CFG, "line 1: name must not contain"),
        # repr shows the NUL byte that str would print invisibly
        ("name = a\0b\n" + MINIMAL_CFG, "got 'a\\x00b'"),
        ("[system]\np11 = 1\n", "missing required key 'alpha' in [system]"),
        ("[system]\nalpha = 0.5\n", "missing required key 'p11' in [system]"),
    ],
)
def test_parse_errors(text, message):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert message in str(exc.value)


def test_load_config_uses_stem_as_default_name(tmp_path):
    path = write_cfg(tmp_path, MINIMAL_CFG, name="burst3.cfg")
    assert load_config(path).name == "burst3"
    named = write_cfg(tmp_path, "name = custom\n" + MINIMAL_CFG, name="other.cfg")
    assert load_config(named).name == "custom"


def test_load_config_checks_the_stem_default_name(tmp_path):
    path = write_cfg(tmp_path, MINIMAL_CFG, name="it's.cfg")
    with pytest.raises(ConfigError, match="default name must not contain"):
        load_config(path)
    named = write_cfg(tmp_path, "name = its\n" + MINIMAL_CFG, name="it's.cfg")
    assert load_config(named).name == "its"


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "absent.cfg")


# ---------------------------------------------------------------------------
# bound command

def test_bound_prints_certificates():
    code, out = run_cmd(cmd_bound, parse_config(EXAMPLE1_CFG))
    assert code == EXIT_OK
    for alpha in BENCH_ALPHAS:
        assert f"alpha = {alpha:g}" in out
    assert out.count("branch   = DISTINCT_Q (j = 2)") == 4
    assert out.count("tau_ub") == 4
    assert "lambda_m = -0.802" in out


def test_bound_not_applicable_lists_violations():
    text = MINIMAL_CFG.replace("p12 = 3.0", "p12 = 1.0").replace(
        "p22 = 4.0", "p22 = 1.0"
    )
    code, out = run_cmd(cmd_bound, parse_config(text))
    assert code == EXIT_NOT_APPLICABLE
    assert "not applicable" in out
    assert "branch 1:" in out and "branch 2:" in out


# ---------------------------------------------------------------------------
# solve command and CSV schema

@pytest.fixture()
def solved(tmp_path):
    # the system blows up near t = 0.013, so T = 0.01 completes
    text = MINIMAL_CFG + "[solver]\nT = 0.01\nN = 256\n"
    cfg = parse_config(text)
    code, out = run_cmd(cmd_solve, cfg, out_dir=tmp_path)
    return cfg, code, out, tmp_path


def test_solve_writes_csv_and_plot(solved):
    cfg, code, out, tmp_path = solved
    assert code == EXIT_OK
    assert "alpha=0.5: completed" in out
    csv_path = tmp_path / "scenario_alpha0.5.csv"
    plot_path = tmp_path / "scenario_alpha0.5.plot"
    assert csv_path.exists() and plot_path.exists()
    assert csv_path.name in plot_path.read_text()


def test_csv_schema(solved):
    _, _, _, tmp_path = solved
    csv_path = tmp_path / "scenario_alpha0.5.csv"
    raw = csv_path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    lines = raw.decode().splitlines()
    assert lines[0] == "t,x1,x2"
    assert len(lines) == 258  # header + 257 rows
    for line in lines[1:]:
        for cell in line.split(","):
            assert CELL.match(cell), cell


def test_csv_round_trip(solved):
    cfg, _, _, tmp_path = solved
    from fracburst import solve, system_spec

    header, data = read_csv(tmp_path / "scenario_alpha0.5.csv")
    traj = solve(system_spec(cfg.systems[0]), SolverConfig(T=0.01, N=256))
    assert data.shape == (257, 3)
    original = np.column_stack([traj.times, traj.states])
    for k in range(data.shape[0]):
        for c in range(3):
            assert data[k, c] == float(f"{original[k, c]:.11e}")
    nonzero = original != 0.0
    rel = np.abs(data[nonzero] - original[nonzero]) / np.abs(original[nonzero])
    assert np.max(rel) <= 1e-11


def test_solve_reports_overflow(tmp_path):
    text = MINIMAL_CFG + "[solver]\nT = 0.25\nN = 512\n"
    code, out = run_cmd(cmd_solve, parse_config(text), out_dir=tmp_path)
    assert code == EXIT_OK
    assert "overflowed at t =" in out
    assert "(component" in out


def test_solve_reports_non_finite(tmp_path):
    # past the blow-up the threshold never fires, so the state turns non-finite
    text = MINIMAL_CFG + "[solver]\nT = 3.0\nN = 256\n[detection]\nthreshold = 1e300\n"
    code, out = run_cmd(cmd_solve, parse_config(text), out_dir=tmp_path)
    assert code == EXIT_OK
    assert "alpha=0.5: non-finite at step 5, 5 rows" in out
    _, data = read_csv(tmp_path / "scenario_alpha0.5.csv")
    assert data.shape == (5, 3)


def test_solve_requires_horizon():
    with pytest.raises(ConfigError, match="needs a \\[solver\\] section with T"):
        run_cmd(cmd_solve, parse_config(MINIMAL_CFG))


# ---------------------------------------------------------------------------
# detect command

def test_detect_prints_ladder():
    text = MINIMAL_CFG + "[solver]\nT = 0.25\nN = 256\n[detection]\nthreshold = 1e6\nbudget = 2\n"
    code, out = run_cmd(cmd_detect, parse_config(text))
    assert code == EXIT_OK
    assert "t_num =" in out and "+/-" in out
    assert "(converged)" in out or "(budget exhausted)" in out
    assert "N=256: crossing t =" in out
    assert "N=512: crossing t =" in out


def test_detect_reports_no_crossing():
    # small horizon, nothing reaches the threshold
    text = MINIMAL_CFG + "[solver]\nT = 0.01\nN = 64\n[detection]\nbudget = 1\n"
    code, out = run_cmd(cmd_detect, parse_config(text))
    assert code == EXIT_OK
    assert "no crossing in [0, 0.01] at finest N = 128" in out


# ---------------------------------------------------------------------------
# b-curve command

def test_b_curve_default_range(tmp_path):
    cfg = parse_config("name = e1\n" + EXAMPLE1_CFG.split("\n", 1)[1]
                       .replace("alpha = 0.1, 0.4, 0.6, 0.9", "alpha = 0.1"))
    code, out = run_cmd(cmd_b_curve, cfg, out_dir=tmp_path)
    assert code == EXIT_OK
    assert "lambda_m = -0.802" in out
    csv_path = tmp_path / "e1_alpha0.1_b.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "lambda,B"
    assert len(lines) == 401  # header + 400 samples
    lam = np.array([float(l.split(",")[0]) for l in lines[1:]])
    b = np.array([float(l.split(",")[1]) for l in lines[1:]])
    # interior minimum: endpoints strictly above the sampled minimum
    k = int(np.argmin(b))
    assert 0 < k < len(b) - 1
    assert b[0] > b[k] and b[-1] > b[k]
    assert lam[k] == pytest.approx(-0.802, abs=5e-3)
    plot = (tmp_path / "e1_alpha0.1_b.plot").read_text()
    assert "dashtype 2" in plot and csv_path.name in plot


def test_b_curve_explicit_range(tmp_path):
    cfg = parse_config(MINIMAL_CFG.replace("alpha = 0.5", "alpha = 0.6"))
    code, _ = run_cmd(cmd_b_curve, cfg, lambda_min=0.5, lambda_max=3.0,
                      out_dir=tmp_path)
    assert code == EXIT_OK
    _, data = read_csv(tmp_path / "scenario_alpha0.6_b.csv")
    assert data[0, 0] == pytest.approx(0.5)
    assert data[-1, 0] == pytest.approx(3.0)


def test_b_curve_not_applicable(tmp_path):
    text = MINIMAL_CFG
    for name in ("p12", "p21", "p22"):
        text = re.sub(rf"{name} = \S+", f"{name} = 1.0", text)
    code, out = run_cmd(cmd_b_curve, parse_config(text), out_dir=tmp_path)
    assert code == EXIT_NOT_APPLICABLE
    assert out.startswith("alpha=0.5: not applicable: ")
    assert "branch 1:" in out and "branch 2:" in out
    assert list(tmp_path.iterdir()) == []


def test_b_curve_writes_inf_where_b_overflows(tmp_path):
    # certified with q = 100 and p_tilde = 1.0033: ln B leaves the double
    # range near lam = 1e3, where its rounding is still near 1e-11
    text = MINIMAL_CFG.replace("p11 = 1.0", "q1 = 0.5\nq2 = 100.0\np11 = 5.0")
    for name, value in (("p12", "300.0"), ("p21", "3.0"), ("p22", "2.0")):
        text = re.sub(rf"{name} = \S+", f"{name} = {value}", text)
    code, _ = run_cmd(cmd_b_curve, parse_config(text), lambda_min=1.0,
                      lambda_max=3000.0, out_dir=tmp_path)
    assert code == EXIT_OK
    lines = (tmp_path / "scenario_alpha0.5_b.csv").read_text().splitlines()
    cells = [line.split(",")[1] for line in lines[1:]]
    k = cells.index("inf")
    assert 0 < k and cells[k:] == ["inf"] * (len(cells) - k)
    assert all(math.isfinite(float(c)) for c in cells[:k])


def test_b_curve_bad_range_is_domain_error(tmp_path):
    from fracburst import DomainError

    cfg = parse_config(MINIMAL_CFG)
    with pytest.raises(DomainError, match="lambda range"):
        run_cmd(cmd_b_curve, cfg, lambda_min=5.0, lambda_max=1.0,
                out_dir=tmp_path)


# ---------------------------------------------------------------------------
# exit codes through main()

def test_main_bound_ok(tmp_path, capsys):
    path = write_cfg(tmp_path, EXAMPLE1_CFG)
    assert main(["bound", str(path)]) == EXIT_OK
    assert "tau_ub" in capsys.readouterr().out


def test_main_missing_config(tmp_path, capsys):
    assert main(["bound", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_main_invalid_config(tmp_path, capsys):
    path = write_cfg(tmp_path, "[system]\nalpha = 2.0\n")
    assert main(["bound", str(path)]) == EXIT_CONFIG


ALPHA_ONE_CFG = MINIMAL_CFG.replace("alpha = 0.5", "alpha = 1.0")


def test_main_bound_alpha_one_not_applicable(tmp_path, capsys):
    path = write_cfg(tmp_path, ALPHA_ONE_CFG)
    assert main(["bound", str(path)]) == EXIT_NOT_APPLICABLE
    out = capsys.readouterr().out
    assert "not applicable" in out
    assert "alpha must lie in (0, 1)" in out


def test_main_solve_alpha_one(tmp_path, capsys, monkeypatch):
    # the classical limit has no bound, but it solves
    path = write_cfg(tmp_path, ALPHA_ONE_CFG + "[solver]\nT = 0.01\nN = 64\n")
    monkeypatch.chdir(tmp_path)
    assert main(["solve", str(path)]) == EXIT_OK
    assert "alpha=1: completed" in capsys.readouterr().out
    header, data = read_csv(tmp_path / "scn_alpha1.csv")
    assert header == ["t", "x1", "x2"]
    assert data.shape == (65, 3)


def test_main_detect_alpha_one(tmp_path, capsys):
    text = ALPHA_ONE_CFG + "[solver]\nT = 0.25\nN = 64\n[detection]\nbudget = 1\n"
    path = write_cfg(tmp_path, text)
    assert main(["detect", str(path)]) == EXIT_OK
    assert "alpha=1: t_num =" in capsys.readouterr().out


def test_main_bound_all_ones_not_applicable(tmp_path, capsys):
    text = """\
[system]
alpha = 0.5
q1 = 1
q2 = 1
p11 = 1
p12 = 1
p21 = 1
p22 = 1
x0 = 1
y0 = 1
"""
    path = write_cfg(tmp_path, text)
    assert main(["bound", str(path)]) == EXIT_NOT_APPLICABLE
    out = capsys.readouterr().out
    with pytest.raises(NotApplicableError) as exc:
        theorem_bound(load_config(path).systems[0])
    # one line names each violated hypothesis, as b-curve does
    assert len(exc.value.violations) >= 2
    for violation in exc.value.violations:
        assert out.count(violation) == 1


def test_main_b_curve_bad_range(tmp_path, capsys):
    path = write_cfg(tmp_path, MINIMAL_CFG)
    code = main(["b-curve", str(path), "--lambda-min", "5", "--lambda-max", "1"])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_main_b_curve_infinite_range(tmp_path, capsys):
    path = write_cfg(tmp_path, MINIMAL_CFG)
    assert main(["b-curve", str(path), "--lambda-max", "inf"]) == EXIT_CONFIG
    assert "must be finite, increasing and above" in capsys.readouterr().err


def test_main_b_curve_lambda_lost_to_rounding(tmp_path, monkeypatch, capsys):
    # ln B at lam = 1e20 is rounding only: b-curve stops before writing it
    path = write_cfg(tmp_path, MINIMAL_CFG)
    monkeypatch.chdir(tmp_path)
    assert main(["b-curve", str(path), "--lambda-max", "1e20"]) == EXIT_CONFIG
    assert "is lost to rounding" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["scn.cfg"]


def test_main_undecodable_config(tmp_path, capsys):
    path = tmp_path / "binary.cfg"
    path.write_bytes(b"\x7fELF\x02\x01\x01\x00\xff\xfe")
    assert main(["bound", str(path)]) == EXIT_CONFIG
    assert "config error: cannot read config" in capsys.readouterr().err


def test_main_detect_numeric_failure(tmp_path, capsys):
    text = """\
[system]
alpha = 0.5
p11 = 3
p12 = 0
p21 = 0
p22 = 3
x0 = 2
y0 = 2
[solver]
T = 2
N = 8
[detection]
threshold = 1e300
budget = 0
"""
    path = write_cfg(tmp_path, text)
    assert main(["detect", str(path)]) == EXIT_NUMERIC
    assert "numeric failure" in capsys.readouterr().err


def test_main_no_arguments_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_console_script_help_runs():
    proc = subprocess.run([sys.executable, "-m", "fracburst.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "bound" in proc.stdout and "reproduce" in proc.stdout


# ---------------------------------------------------------------------------
# reproduce

def test_reproduce_exit_and_files(reproduce_run):
    text, out_dir, code, _ = reproduce_run
    assert code == EXIT_OK
    csvs = sorted(out_dir.glob("*.csv"))
    plots = sorted(out_dir.glob("*.plot"))
    assert len(csvs) == 12 and len(plots) == 12
    for example in (1, 2, 3):
        for alpha in BENCH_ALPHAS:
            assert (out_dir / f"example{example}_alpha{alpha:g}.csv").exists()


def test_reproduce_tables_sound(reproduce_tables):
    keys = sorted(reproduce_tables)
    assert keys == [(e, a) for e in (1, 2, 3) for a in BENCH_ALPHAS]
    for key, row in reproduce_tables.items():
        assert row["verdict"] == "pass", key
        assert row["t_num"] < row["tau_ub"]


def test_reproduce_flags_inconsistent_row(reproduce_run, reproduce_tables):
    text, _, _, _ = reproduce_run
    assert reproduce_tables[(1, 0.1)]["flagged"]
    assert not reproduce_tables[(1, 0.4)]["flagged"]
    assert not reproduce_tables[(2, 0.1)]["flagged"]
    assert "* flagged: source table reads 0.085" in text
    assert "excluded from the pass tally" in text


def test_reproduce_lambda_column_only_for_example_1(reproduce_tables):
    for (example, _), row in reproduce_tables.items():
        if example == 1:
            assert row["lambda_m"] is not None
        else:
            assert row["lambda_m"] is None


def test_reproduce_solves_no_grid_outside_detect(tmp_path, monkeypatch):
    from fracburst import cli

    def no_solve(*args, **kwargs):
        raise AssertionError("reproduce solved a grid outside detect")

    monkeypatch.setattr(cli, "solve", no_solve)
    with redirect_stdout(io.StringIO()):
        code = cli.cmd_reproduce(out_dir=tmp_path, base_n=64)
    assert code == EXIT_OK
    assert len(list(tmp_path.glob("*.csv"))) == 12


def reproduce_lines(text):
    """Table rows of cmd_reproduce's stdout: lines that start with an alpha."""
    return [line for line in text.splitlines() if re.match(r"\s+0\.\d\s", line)]


def test_reproduce_reports_failed_rows(tmp_path, monkeypatch):
    from fracburst import NonConvergenceError, cli

    def failing_detect(*args, **kwargs):
        raise NonConvergenceError("ladder did not settle")

    monkeypatch.setattr(cli, "detect", failing_detect)
    code, out = run_cmd(cli.cmd_reproduce, out_dir=tmp_path, base_n=64)
    assert code == EXIT_NUMERIC
    rows = reproduce_lines(out)
    assert len(rows) == 12
    for row in rows:
        assert re.search(r"\s+error\s+-\s+-(  \*)?$", row), row
    # the certificate came before detect, so example 1 keeps its lambda_m
    assert all(re.match(r"\s+0\.\d\s+-?\d", row) for row in rows[:4])
    assert out.count("\n    NonConvergenceError: ladder did not settle\n") == 12
    assert list(tmp_path.glob("*.csv")) == []


def test_reproduce_reports_rows_without_crossing(tmp_path, monkeypatch):
    from dataclasses import replace

    from fracburst import cli

    real_detect = cli.detect
    monkeypatch.setattr(cli, "detect", lambda *a, **k: replace(real_detect(*a, **k), t_num=None))
    code, out = run_cmd(cli.cmd_reproduce, out_dir=tmp_path, base_n=64)
    assert code == EXIT_OK
    rows = reproduce_lines(out)
    assert len(rows) == 12
    for row in rows:
        assert re.search(r"\s+no crossing\s+\d\.\d+(e[+-]\d+)?\s+-(  \*)?$", row), row
    assert len(list(tmp_path.glob("*.csv"))) == 12


def test_main_reproduce_passes_out_dir(tmp_path, monkeypatch):
    from fracburst import cli

    seen = []
    monkeypatch.setattr(cli, "cmd_reproduce", lambda out_dir: seen.append(out_dir) or EXIT_OK)
    d = str(tmp_path / "tables")
    assert main(["reproduce", "--out-dir", d]) == EXIT_OK
    assert seen == [Path(d)]


def test_reproduce_is_bit_reproducible(reproduce_run, tmp_path):
    from fracburst.cli import cmd_reproduce

    text, out_dir, _, _ = reproduce_run
    second_dir = tmp_path / "again"
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cmd_reproduce(out_dir=second_dir)
    assert code == EXIT_OK
    # the last stdout line names the output directory, which differs per run
    first, second = text.splitlines(), buf.getvalue().splitlines()
    assert second[:-1] == first[:-1]
    assert first[-1].startswith("wrote trajectory CSVs and plot scripts to ")
    assert second[-1].startswith("wrote trajectory CSVs and plot scripts to ")
    for path in sorted(out_dir.iterdir()):
        twin = second_dir / path.name
        assert twin.exists(), path.name
        assert twin.read_bytes() == path.read_bytes(), path.name
