"""Tests for the benchmark's own checks and references.

Each check passes on a right output and fails on a deliberately wrong
one. Run from the repository root:

    python3 -m pytest bench
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import fracburst as fb
from fracburst import cli

import references as ref
import run
import spans
import workloads as wl

# t_num for the rows without a usable graph read: below tau_ub, as detected
_TNUM_OTHER = {(1, 0.1): 0.08, (2, 0.1): 0.22, (2, 0.4): 3.0, (2, 0.9): 5.5}


def _published_rows():
    return {key: cli._ReproRow(example=key[0], alpha=key[1], tau_ub=tau,
                               lambda_m=ref.LAMBDA_PUBLISHED[key[1]] if key[0] == 1 else None,
                               t_num=ref.TNUM_GRAPH_READ.get(key, _TNUM_OTHER.get(key)))
            for key, tau in ref.TAU_PUBLISHED.items()}


def _printed_tables(monkeypatch, tmp_path, rows) -> str:
    """The tables as cmd_reproduce prints them, for rows made up here."""
    monkeypatch.setattr(cli, "_reproduce_row", lambda ex, alpha, base_n, out: rows[(ex, alpha)])
    text = io.StringIO()
    with redirect_stdout(text):
        cli.cmd_reproduce(out_dir=tmp_path)
    return text.getvalue()


def test_tables_pass_on_published_values(monkeypatch, tmp_path):
    rows = wl.parse_tables(_printed_tables(monkeypatch, tmp_path, _published_rows()))
    assert set(rows) == set(ref.TAU_PUBLISHED)
    assert wl.check_tables(rows) == []


@pytest.mark.parametrize("key, fields", [
    ((2, 0.6), {"tau_ub": 7.297 + 1e-2}),        # bound off the table
    ((1, 0.4), {"lambda_m": -0.358 - 1e-2}),      # minimizer off the table
    ((3, 0.9), {"t_num": 1.97}),                  # t_num above tau_ub
    ((3, 0.6), {"t_num": 0.21 * 1.2}),            # outside the 15% band
])
def test_tables_fail_on_wrong_values(monkeypatch, tmp_path, key, fields):
    printed = _published_rows()
    for name, value in fields.items():
        setattr(printed[key], name, value)
    rows = wl.parse_tables(_printed_tables(monkeypatch, tmp_path, printed))
    problems = wl.check_tables(rows)
    assert len(problems) == 1 and str(key) in problems[0]


def test_tables_fail_on_missing_row(monkeypatch, tmp_path):
    rows = wl.parse_tables(_printed_tables(monkeypatch, tmp_path, _published_rows()))
    del rows[(1, 0.9)]
    assert wl.check_tables(rows)


def _write_grid_csv(path: Path, horizon: float, n: int, steps: int, initial):
    times = np.arange(steps + 1) * (horizon / n)
    states = np.array(initial) * (1.0 + times[:, None])
    cli._write_csv(path, times, states)


def _lines(path: Path) -> list[str]:
    return path.read_text().splitlines()


def test_csv_passes_on_grid(tmp_path):
    path = tmp_path / "example1_alpha0.4.csv"
    _write_grid_csv(path, 1.0478, 8192, 500, (1.0, 1.2))
    assert wl.check_csv(path, 1.0478, (1.0, 1.2), 4096) == []


@pytest.mark.parametrize("row, corrupt", [
    (1, lambda cells: ["1e-30", *cells[1:]]),              # initial time moved
    (1, lambda cells: [cells[0], "1.1e+00", cells[2]]),     # wrong initial state
    (300, lambda cells: [f"{float(cells[0]) * 1.001:.11e}", *cells[1:]]),  # off the grid
    (300, lambda cells: [cells[0], "9.0e-01", cells[2]]),   # below the initial state
])
def test_csv_fails_on_corrupted_row(tmp_path, row, corrupt):
    path = tmp_path / "example1_alpha0.4.csv"
    _write_grid_csv(path, 1.0478, 8192, 500, (1.0, 1.2))
    lines = _lines(path)
    lines[row] = ",".join(corrupt(lines[row].split(",")))
    path.write_text("\n".join(lines) + "\n")
    assert wl.check_csv(path, 1.0478, (1.0, 1.2), 4096)


def test_csv_fails_off_the_ladder(tmp_path):
    path = tmp_path / "example1_alpha0.4.csv"
    _write_grid_csv(path, 1.0478, 3 * 4096, 500, (1.0, 1.2))
    assert wl.check_csv(path, 1.0478, (1.0, 1.2), 4096)


def test_reference_bounds_match_the_published_table():
    for (example, alpha), published in ref.TAU_PUBLISHED.items():
        tau, lam = ref.tau_ub_reference(alpha, *ref.FAMILIES[example])
        assert abs(tau - published) <= ref.TABLE_TOL, (example, alpha)
        if example == 1:
            assert abs(lam - ref.LAMBDA_PUBLISHED[alpha]) <= ref.TABLE_TOL


def test_reference_bound_refuses_systems_off_the_hypotheses():
    with pytest.raises(ValueError):
        ref.tau_ub_reference(0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)


def _sweep_results(sweep):
    return [sweep._one(p) for p in sweep.systems]


def test_certificates_and_crossings(tmp_path):
    sweep = wl.ParamSweep(7, tmp_path)
    sweep.systems = sweep.systems[:6]
    results = _sweep_results(sweep)
    refs = [ref.tau_ub_reference(p.alpha, p.q1, p.q2, p.p11, p.p12, p.p21, p.p22, p.x0, p.y0)
            for p in sweep.systems]
    assert wl.check_certificates(results, refs) == []
    assert wl.check_crossings(results) == []

    tau, lam, crossings = results[2]
    wrong_tau = results[:2] + [(tau * (1.0 + 1e-2), lam, crossings)] + results[3:]
    assert len(wl.check_certificates(wrong_tau, refs)) == 1
    wrong_lam = results[:2] + [(tau, lam + 1e-3, crossings)] + results[3:]
    assert len(wl.check_certificates(wrong_lam, refs)) == 1
    late = results[:2] + [(tau, lam, crossings[:-1] + (tau,))] + results[3:]
    assert len(wl.check_crossings(late)) == 1
    missed = results[:2] + [(tau, lam, crossings[:-1] + (None,))] + results[3:]
    assert len(wl.check_crossings(missed)) == 1


def test_mittag_leffler_references_agree():
    # the mpmath series against the closed forms it stands in for elsewhere
    for z in (-5.5, -2.0, -0.3, 0.0, 0.7, 1.0):
        assert ref.ml_series(0.5, 1.0, z) == pytest.approx(ref.erfcx(-z), rel=1e-14)
        assert ref.ml_series(0.5, 0.5, z) == pytest.approx(
            ref.ml_closed_form(0.5, 0.5, z), rel=1e-12, abs=1e-15)
        assert ref.ml_series(1.0, 1.0, z) == pytest.approx(math.exp(z), rel=1e-14)
    # E_{a,b}(z) = 1/Gamma(b) + z E_{a,a+b}(z) at an order with no closed form
    for z in (-2.5, -1.0, 0.9):
        lhs = ref.ml_series(0.3, 1.0, z)
        assert lhs == pytest.approx(1.0 + z * ref.ml_series(0.3, 1.3, z), rel=1e-14)


def test_ml_values_fail_off_the_reference(tmp_path):
    grid = wl.SpecialGrid(3, tmp_path)
    points = grid.points[::10][:8] + list(wl.ML_FAULT_POINTS)
    grid.points = points
    out = grid.run_round()
    assert out.failed == len(wl.ML_FAULT_POINTS)
    refs = [ref.ml_reference(*p) for p in points]
    assert wl.check_ml_values(points, out.data, refs) == []
    wrong = list(out.data)
    wrong[3] *= 1.0 + 1e-9
    assert len(wl.check_ml_values(points, wrong, refs)) == 1


def test_long_solve_checks(tmp_path):
    work = wl.LongSolve(5, tmp_path)
    solves = work._solves(512)
    for kind, n, traj in solves:
        assert work.check_solve(kind, n, traj) == [], kind
    (lh, uh, th), (lo, uo, to) = work.half, work.one
    bump = 10.0 * max(wl.half_tolerance(lh, uh, th / 512), wl.one_tolerance(lo, uo, to / 512))
    for kind, n, traj in solves:
        states = traj.states.copy()
        if kind == "power-law":
            states[-1, 1] = 0.99 * work.power.y0
        else:
            states[n // 2, 0] += bump
        bad = fb.Trajectory(times=traj.times.copy(), states=states, status=traj.status)
        assert work.check_solve(kind, n, bad), kind
    short = fb.Trajectory(times=traj.times[:10].copy(), states=traj.states[:10].copy(),
                          status=fb.Overflowed(step=9, component=0))
    assert work.check_solve("power-law", 512, short)


def test_inputs_follow_the_seed(tmp_path):
    for cls in (wl.LongSolve, wl.ParamSweep, wl.SpecialGrid):
        a, b, c = cls(11, tmp_path), cls(11, tmp_path), cls(12, tmp_path)
        assert vars(a).keys() == vars(b).keys()
        assert repr(vars(a)) == repr(vars(b)) != repr(vars(c)), cls.name


def _span(layer, t0, t1, parent=None, steps=0, caller="bench"):
    s = spans.Span(layer, layer, caller, parent)
    s.t0, s.t1, s.steps = t0, t1, steps
    return s


def test_self_time_subtracts_the_union_of_children():
    root = _span("cli", 0.0, 10.0)
    kids = [_span("detect", 1.0, 4.0, root), _span("detect", 3.0, 5.0, root),
            _span("solver", 7.0, 8.0, root)]
    own = spans.self_times([root, *kids])
    assert own[id(root)] == pytest.approx(10.0 - 4.0 - 1.0)


def test_step_cost_fit_recovers_both_terms():
    a, b = 40e-6, 1e-9
    calls = [_span("solver", 0.0, a * n + b * n * n, steps=n) for n in (256, 1024, 8192, 32768)]
    fa, fb_ = spans.fit_step_costs(calls)
    assert fa == pytest.approx(a, rel=1e-6) and fb_ == pytest.approx(b, rel=1e-6)
    metrics = spans.layer_metrics(calls)
    assert metrics["solver.calls"] == 4
    assert metrics["solver.fixed_us_per_step"] == pytest.approx(40.0)


def test_tracer_wraps_and_restores(tmp_path):
    original = fb.solve
    work = wl.LongSolve(1, tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        work.warm_up()
    finally:
        tracer.uninstall()
    assert fb.solve is original
    assert [s.steps for s in tracer.spans] == [256, 256, 256]
    assert all(s.layer == "solver" and s.caller == "bench" for s in tracer.spans)


def test_units_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
