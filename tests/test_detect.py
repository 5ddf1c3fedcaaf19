"""Blow-up detection tests over the twelve benchmark scenarios.

The session-scoped ladders are exercised for internal consistency
(report fields agree with the refinement history), stability of the
detected times against a frozen regression table, and the published
graph-read values where those are available. Threshold sensitivity is
measured on one fixed fine grid so refinement early-stopping cannot
alias into the comparison.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from paper_tables import BENCH_ALPHAS, BENCH_EXAMPLES, TNUM_REF
from fracburst import (
    Completed,
    DetectionReport,
    DomainError,
    NonConvergenceError,
    PowerLawParams,
    RefinementPolicy,
    SolverConfig,
    SystemSpec,
    crossing_time,
    detect,
    detection_scenario,
    solve,
    system_spec,
)

# detected times on the default ladder (base N=4096, budget 5); a change
# of more than 0.5 percent means the scheme or the detector changed
TNUM_FROZEN = {
    (1, 0.1): 0.0760288, (1, 0.4): 0.257973, (1, 0.6): 0.409098,
    (1, 0.9): 0.659087,
    (2, 0.1): 0.212173, (2, 0.4): 3.05295, (2, 0.6): 4.3669,
    (2, 0.9): 5.65337,
    (3, 0.1): 0.0165099, (3, 0.4): 0.101678, (3, 0.6): 0.202898,
    (3, 0.9): 0.406296,
}

# ladder levels on the same default ladder: how many grids each row
# solves before the crossing settles or the budget runs out
LEVELS_FROZEN = {
    (1, 0.1): 6, (1, 0.4): 6, (1, 0.6): 6, (1, 0.9): 4,
    (2, 0.1): 6, (2, 0.4): 3, (2, 0.6): 2, (2, 0.9): 2,
    (3, 0.1): 6, (3, 0.4): 6, (3, 0.6): 6, (3, 0.9): 2,
}

ROBUST_ROWS = [(1, 0.1), (1, 0.4), (1, 0.6),
               (3, 0.1), (3, 0.4), (3, 0.6), (3, 0.9)]


def scalar_spec(alpha, rhs, u0=1.0):
    return SystemSpec(alpha=alpha, dimension=1, rhs=rhs,
                      initial_state=np.array([u0]))


def grid_index(crossing, n, T):
    # grid times are k*h exactly with h = T/n, so rounding recovers k
    return round(crossing * n / T)


def assert_finest_trajectory(result, spec, base_config):
    # the carried trajectory is exactly the finest level's solve
    finest_n, finest_crossing = result.runs[-1]
    fresh = solve(spec, replace(base_config, N=finest_n))
    assert np.array_equal(result.trajectory.times, fresh.times)
    assert np.array_equal(result.trajectory.states, fresh.states)
    threshold = base_config.overflow_threshold
    assert crossing_time(result.trajectory, threshold) == finest_crossing


# ---------------------------------------------------------------------------
# crossing_time

def test_crossing_time_basics():
    traj = solve(scalar_spec(0.5, lambda t, x: x), SolverConfig(T=1.0, N=16))
    assert crossing_time(traj, 1e9) is None
    c = crossing_time(traj, 1.5)
    assert c is not None and 0.0 < c <= 1.0
    assert c in traj.times


def test_crossing_time_rejects_initial_exceedance():
    traj = solve(scalar_spec(0.5, lambda t, x: x, u0=2.0),
                 SolverConfig(T=1.0, N=8))
    with pytest.raises(DomainError):
        crossing_time(traj, 1.0)


def test_refinement_policy_validation():
    with pytest.raises(DomainError):
        RefinementPolicy(-1)
    with pytest.raises(DomainError):
        RefinementPolicy(2.5)
    for budget in (2.0, "2", None, np.float64(2.0), np.int64(-1)):
        with pytest.raises(DomainError, match="must be a nonnegative int"):
            RefinementPolicy(budget)


def test_refinement_policy_accepts_numpy_int():
    # numpy ints pass, as they do for SolverConfig's N, and are stored as int
    policy = RefinementPolicy(np.int64(2))
    assert type(policy.budget) is int and policy == RefinementPolicy(2)


# ---------------------------------------------------------------------------
# detect outcomes

def test_no_crossing_on_bounded_problem():
    rhs = lambda t, x: np.zeros(1)
    result = detect(scalar_spec(0.5, rhs), SolverConfig(T=1.0, N=32),
                    RefinementPolicy(1))
    assert result.t_num is None and not result.converged
    assert result.uncertainty == 1.0 / 64
    assert result.runs == ((32, None), (64, None))
    assert_finest_trajectory(result, scalar_spec(0.5, rhs), SolverConfig(T=1.0, N=32))


def test_converged_report_carries_finest_trajectory():
    scenario = detection_scenario(3, 0.6, base_n=32)
    spec = system_spec(scenario.params)
    result = detect(spec, scenario.base_config, RefinementPolicy(1))
    assert isinstance(result, DetectionReport) and result.converged
    assert_finest_trajectory(result, spec, scenario.base_config)


def test_nonfinite_before_crossing_raises():
    # cubing overshoots straight past [1e300, inf): the trajectory dies
    # non-finite without ever crossing the threshold
    rhs = lambda t, x: x ** 3
    with pytest.raises(NonConvergenceError):
        detect(scalar_spec(0.5, rhs, u0=2.0),
               SolverConfig(T=2.0, N=8, overflow_threshold=1e300),
               RefinementPolicy(0))


def test_all_benchmarks_detect_a_crossing(detection_rows):
    rows, _ = detection_rows
    assert set(rows) == {(e, a) for e in BENCH_EXAMPLES for a in BENCH_ALPHAS}
    for scenario, result in rows.values():
        assert result.t_num is not None


def test_report_fields_agree_with_history(detection_rows):
    rows, _ = detection_rows
    for scenario, report in rows.values():
        T = scenario.base_config.T
        ns = [n for n, _ in report.runs]
        assert ns[0] == scenario.base_config.N
        assert all(b == 2 * a for a, b in zip(ns, ns[1:]))
        assert report.t_num == report.runs[-1][1]
        assert report.uncertainty == T / ns[-1]
        if report.converged:
            (n_prev, c_prev), (n_last, c_last) = report.runs[-2:]
            k_prev, k_last = grid_index(c_prev, n_prev, T), grid_index(c_last, n_last, T)
            assert abs(k_last - 2 * k_prev) <= 2
        else:
            assert len(report.runs) == RefinementPolicy().budget + 1


def test_ladder_monotone_or_within_one_coarse_cell(detection_rows):
    rows, _ = detection_rows
    for scenario, report in rows.values():
        T = scenario.base_config.T
        for (n_prev, c_prev), (_, c) in zip(report.runs, report.runs[1:]):
            assert c is not None and c_prev is not None
            assert c <= c_prev or c - c_prev < T / n_prev


def test_refinement_differences_shrink(detection_rows):
    rows, _ = detection_rows
    for scenario, report in rows.values():
        crossings = [c for _, c in report.runs]
        diffs = [abs(a - b) for a, b in zip(crossings, crossings[1:])]
        if len(diffs) >= 2:
            assert diffs[-1] < diffs[0] or diffs[-1] < report.uncertainty * 2.0


def test_detected_times_match_frozen_regression(detection_rows):
    rows, _ = detection_rows
    for key, (scenario, report) in rows.items():
        frozen = TNUM_FROZEN[key]
        assert report.t_num == pytest.approx(frozen, rel=5e-3), key


def test_ladder_levels_match_frozen_regression(detection_rows):
    rows, _ = detection_rows
    levels = {key: len(report.runs) for key, (_, report) in rows.items()}
    assert levels == LEVELS_FROZEN


@pytest.mark.parametrize(
    "example,alpha",
    [(3, 0.9), (1, 0.4)],
)
def test_published_graph_reads(detection_rows, example, alpha):
    rows, _ = detection_rows
    _, report = rows[(example, alpha)]
    ref = TNUM_REF[(example, alpha)]
    assert abs(report.t_num - ref) / ref <= 0.15


# ---------------------------------------------------------------------------
# threshold robustness on a fixed fine grid

def test_threshold_insensitive_rows(robustness_deltas):
    # example 2 has a flatter pre-singularity ramp and example 1 at
    # alpha=0.9 sits exactly on the two-cell edge; the remaining seven
    # scenarios move less than two cells when the threshold spans 1e6-1e10
    for key in ROBUST_ROWS:
        delta, h = robustness_deltas[key]
        assert delta < 2.0 * h, key


@pytest.mark.xfail(
    reason="threshold insensitivity does not hold uniformly: example 2's "
    "crossing drifts by thousands of cells between thresholds 1e6 and "
    "1e10, and example 1 at alpha=0.9 lands exactly on two cells",
    strict=True,
)
def test_threshold_insensitive_all_rows(robustness_deltas):
    for key, (delta, h) in robustness_deltas.items():
        assert delta < 2.0 * h, key


# ---------------------------------------------------------------------------
# stop-rule ties

def test_stop_rule_ignores_last_bit_of_horizon():
    # this row stops on a one-coarse-cell move, which in float times is a
    # tie between |crossing - prev_crossing| and T/n; one ulp more of T
    # must give the same levels and the same crossing index at each level
    scenario = detection_scenario(3, 0.9, base_n=512)
    spec = system_spec(scenario.params)
    policy = RefinementPolicy()
    T = scenario.base_config.T
    T_up = float(np.nextafter(T, math.inf))
    at_t = detect(spec, scenario.base_config, policy)
    above = detect(spec, replace(scenario.base_config, T=T_up), policy)
    assert [n for n, _ in above.runs] == [n for n, _ in at_t.runs]
    assert ([grid_index(c, n, T_up) for n, c in above.runs]
            == [grid_index(c, n, T) for n, c in at_t.runs])
    assert above.t_num == pytest.approx(at_t.t_num, rel=1e-15)


# ---------------------------------------------------------------------------
# classical limit: exact crossings

# (q1, q2, p, y0, T, N): at alpha = 1, x' = t^q1 and y' = t^q2 y^p with
# x0 = 1, so x + y is closed form and its crossing is one bisection
CLASSICAL_CASES = [
    (0.0, 0.0, 2.0, 1.0, 1.05, 64),
    (0.0, 0.0, 2.0, 1.0, 2.1, 64),
    (0.5, 1.0, 3.0, 1.0, 2.0, 256),
    (0.0, 0.5, 1.5, 2.0, 3.0, 128),
]


def exact_classical_crossing(q1, q2, p, y0, threshold):
    def total(t):
        x = 1.0 + t ** (q1 + 1.0) / (q1 + 1.0)
        base = y0 ** (1.0 - p) + (1.0 - p) * t ** (q2 + 1.0) / (q2 + 1.0)
        return x + base ** (1.0 / (1.0 - p)) if base > 0.0 else math.inf

    # y blows up where base reaches 0, so the crossing lies below that
    lo, hi = 0.0, ((q2 + 1.0) * y0 ** (1.0 - p) / (p - 1.0)) ** (1.0 / (q2 + 1.0))
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        lo, hi = (lo, mid) if total(mid) > threshold else (mid, hi)


@pytest.fixture(scope="module")
def classical_error_ratios():
    """|t_num - exact crossing| / uncertainty on each CLASSICAL_CASES row."""
    ratios = []
    for q1, q2, p, y0, T, N in CLASSICAL_CASES:
        params = PowerLawParams(alpha=1.0, q1=q1, q2=q2, p11=0.0, p12=0.0,
                                p21=0.0, p22=p, x0=1.0, y0=y0)
        config = SolverConfig(T=T, N=N)
        report = detect(system_spec(params), config)
        exact = exact_classical_crossing(q1, q2, p, y0, config.overflow_threshold)
        ratios.append(abs(report.t_num - exact) / report.uncertainty)
    return ratios


def test_classical_crossing_error_band(classical_error_ratios):
    # measured 2.76, 3.05, 2.00 and 3.13: the printed uncertainty (one
    # finest cell) undercounts the error by two to three cells
    for ratio in classical_error_ratios:
        assert 1.9 <= ratio <= 3.2, classical_error_ratios


@pytest.mark.xfail(
    strict=True,
    reason="uncertainty is one finest cell, T/N, while the crossing error on "
    "these exact cases is 2.0 to 3.1 cells (ROADMAP item 2)",
)
def test_classical_crossing_within_uncertainty(classical_error_ratios):
    for ratio in classical_error_ratios:
        assert ratio <= 1.0, classical_error_ratios
