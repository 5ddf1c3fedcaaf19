"""Acceptance gate: one numbered test block per shipping criterion.

Every block checks its criterion at the stated tolerance; the terminal
summary hook in conftest turns the outcomes into one line per criterion.
Three bars are not attainable in double precision at the stated grids
(the alpha=0.3 start-up layer, the full Example-2 detection band, and
the complete negative-axis series grids); each of those keeps a green
test pinning today's attained behavior plus a strict-xfail twin holding
the literal bar honest. Beside criterion 4, one more strict xfail marks
the one row whose run outlives its certified bound.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from paper_tables import (
    BENCH_ALPHAS,
    BENCH_EXAMPLES,
    EXPECTED_TNUM_MISSES,
    LAMBDA_REF,
    TAU_REF,
    TNUM_FLAG_CANDIDATES,
    TNUM_REF,
)
from fracburst import (
    NonConvergenceError,
    NonFinite,
    NotApplicableError,
    Overflowed,
    PowerLawParams,
    SolverConfig,
    SystemSpec,
    detection_scenario,
    example_params,
    gamma,
    l1_caputo,
    mittag_leffler,
    solve,
    system_spec,
    theorem_bound,
)
from fracburst import special


# ---------------------------------------------------------------------------
# criterion 1: the twelve bound-table cells, deterministic, under a second

def test_criterion_1_bound_tables(reproduce_tables):
    for key, ref in TAU_REF.items():
        assert reproduce_tables[key]["tau_ub"] == pytest.approx(ref, abs=5e-3), key


def test_criterion_1_bound_runtime():
    t0 = time.perf_counter()
    for example in BENCH_EXAMPLES:
        for alpha in BENCH_ALPHAS:
            theorem_bound(example_params(example, alpha))
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# criterion 2: the Example-1 minimizer column

def test_criterion_2_minimizer_table():
    for alpha, ref in LAMBDA_REF.items():
        cert = theorem_bound(example_params(1, alpha))
        assert cert.scalar.lambda_m == pytest.approx(ref, abs=5e-3), alpha


# ---------------------------------------------------------------------------
# criterion 3: detected blow-up times against the reference graph reads

def test_criterion_3_detection_bands(detection_rows):
    rows, _ = detection_rows
    for key, ref in TNUM_REF.items():
        _, report = rows[key]
        deviation = abs(report.t_num - ref) / ref
        if key in EXPECTED_TNUM_MISSES:
            lo, hi = EXPECTED_TNUM_MISSES[key]
            assert lo < deviation < hi, (key, deviation)
        else:
            assert deviation <= 0.15, (key, deviation)


def test_criterion_3_flagged_row(detection_rows):
    # the excluded row: the two source readings differ by a factor of ten;
    # the detected time agrees with the small one and rules out the large
    rows, _ = detection_rows
    _, report = rows[(1, 0.1)]
    small, large = TNUM_FLAG_CANDIDATES
    assert abs(report.t_num - small) / small <= 0.15
    assert abs(report.t_num - large) / large > 0.80


def test_criterion_3_runtime(detection_rows):
    _, elapsed = detection_rows
    assert elapsed < 120.0


@pytest.mark.xfail(
    strict=True,
    reason="three Example-2 rows sit 18-40 percent below their graph reads "
    "at every grid refinement tried; the attained 8-of-11 band and the "
    "frozen deviations are locked by the green tests above",
)
def test_criterion_3_published_band_all_rows(detection_rows):
    rows, _ = detection_rows
    for key, ref in TNUM_REF.items():
        _, report = rows[key]
        assert abs(report.t_num - ref) / ref <= 0.15, key


# ---------------------------------------------------------------------------
# criterion 4: soundness, the detected time sits under the certified bound

def test_criterion_4_soundness_every_level(detection_rows):
    rows, _ = detection_rows
    for key, (scenario, report) in rows.items():
        tau_ub = theorem_bound(scenario.params).tau_ub
        assert report.t_num < tau_ub, key
        for n, crossing in report.runs:
            if crossing is not None:
                assert crossing < tau_ub, (key, n)


# Beside criterion 4: the 1e8 crossing says little about the blow-up of a
# slow ramp, so run each row on [0, 1.6 tau_ub] at threshold 1e300 and
# check that the run itself ends before tau_ub, on two grids.

_SLOW_RAMP_ROW = (2, 0.9)


def _run_end_times(example, alpha):
    """tau_ub and the end time of each run, None for a completed run."""
    params = example_params(example, alpha)
    tau_ub = theorem_bound(params).tau_ub
    ends = []
    for n in (2 ** 12, 2 ** 14):
        config = SolverConfig(T=1.6 * tau_ub, N=n, overflow_threshold=1e300)
        status = solve(system_spec(params), config).status
        ended = isinstance(status, (Overflowed, NonFinite))
        ends.append(status.step * config.T / n if ended else None)
    return tau_ub, ends


@pytest.mark.parametrize(
    "example,alpha",
    [(e, a) for e in BENCH_EXAMPLES for a in BENCH_ALPHAS if (e, a) != _SLOW_RAMP_ROW],
)
def test_run_ends_before_tau_ub(example, alpha):
    tau_ub, ends = _run_end_times(example, alpha)
    for end in ends:
        assert end is not None and end < tau_ub, (ends, tau_ub)


@pytest.mark.xfail(
    strict=True,
    reason="Example 2 at alpha 0.9 is still finite at tau_ub = 8.9485: the run "
    "ends at t = 9.84 on N = 2^12 (NonFinite) and 9.79 on N = 2^14 "
    "(Overflowed); its 1e8 crossing, 5.65, sits far below both",
)
def test_run_ends_before_tau_ub_slow_ramp_row():
    tau_ub, ends = _run_end_times(*_SLOW_RAMP_ROW)
    for end in ends:
        assert end is not None and end < tau_ub, (ends, tau_ub)


# ---------------------------------------------------------------------------
# criterion 5: the linear equation against its series solution

def test_criterion_5_linear_oracle(linear_oracle_data):
    errs = linear_oracle_data
    assert errs[0.5] <= 1e-4
    assert errs[0.8] <= 1e-4
    # alpha=0.3 carries a t^alpha start-up layer; its error at N=2^12 is
    # pinned to today's band instead of the uniform bar
    assert 1.2e-3 <= errs[0.3] <= 2.2e-3
    assert errs[1.0] >= 1.9  # empirical order in the classical limit


@pytest.mark.xfail(
    strict=True,
    reason="the alpha=0.3 start-up layer decays like h^(2*alpha); the "
    "max-norm error at N=2^12 is 1.7e-3, above the uniform 1e-4 bar met "
    "at alpha=0.5 and alpha=0.8",
)
def test_criterion_5_uniform_bar(linear_oracle_data):
    assert linear_oracle_data[0.3] <= 1e-4


# ---------------------------------------------------------------------------
# criterion 6: convergence order on a manufactured smooth solution

def _manufactured_error(alpha: float, n: int) -> float:
    # D^a u = -u + g with g chosen so u(t) = 1 + t^2 exactly
    def g(t):
        return 2.0 * t ** (2.0 - alpha) / math.gamma(3.0 - alpha) + 1.0 + t * t

    spec = SystemSpec(alpha=alpha, dimension=1, rhs=lambda t, x: -x + g(t),
                      initial_state=np.array([1.0]))
    traj = solve(spec, SolverConfig(T=1.0, N=n))
    return float(np.max(np.abs(traj.states[:, 0] - (1.0 + traj.times ** 2))))


@pytest.mark.parametrize("alpha", (0.3, 0.5, 0.8))
def test_criterion_6_manufactured_order(alpha):
    floor = min(1.0 + alpha, 2.0) - 0.2
    errs = [_manufactured_error(alpha, n) for n in (512, 1024, 2048, 4096)]
    for coarse, fine in zip(errs, errs[1:]):
        assert math.log2(coarse / fine) >= floor


# ---------------------------------------------------------------------------
# criterion 7: the discrete power inequality with 10h slack

@pytest.mark.parametrize("alpha", (0.3, 0.7))
@pytest.mark.parametrize("power", (2, 3))
def test_criterion_7_power_inequality(alpha, power):
    n = 1024
    h = 1.0 / n
    t = np.linspace(0.0, 1.0, n + 1)
    u = 1.0 + t ** 2
    lhs = l1_caputo(u ** power, alpha, h)
    rhs = power * u[1:] ** (power - 1) * l1_caputo(u, alpha, h)
    assert np.all(lhs <= rhs + 10.0 * h)


# ---------------------------------------------------------------------------
# criterion 8: special-function grids

def test_criterion_8_exponential_matches_exp():
    for t in np.linspace(-10.0, 10.0, 100):
        rel = abs(mittag_leffler(1.0, 1.0, float(t)) - math.exp(t)) / math.exp(t)
        assert rel <= 1e-12


def test_criterion_8_gamma_recurrence():
    for x in np.linspace(0.1, 50.0, 200):
        x = float(x)
        rel = abs(gamma(x + 1.0) - x * gamma(x)) / gamma(x + 1.0)
        assert rel <= 1e-12


# alpha=0.3 cells of the shift grid where the series raises instead of
# returning garbage: both tails exceed the validated summation range
_SHIFT_RAISES = (-5.0, -4.5, -4.0, -3.5, -3.0, 3.5, 4.0, 4.5, 5.0)


@pytest.mark.parametrize("alpha", (0.3, 0.5, 0.9))
@pytest.mark.parametrize("beta", (0.5, 1.0, 2.0))
def test_criterion_8_shift_identity(alpha, beta):
    raised = []
    for t in np.linspace(-5.0, 5.0, 21):
        t = float(t)
        try:
            lhs = mittag_leffler(alpha, beta, t)
            rhs = 1.0 / gamma(beta) + t * mittag_leffler(alpha, beta + alpha, t)
        except NonConvergenceError:
            raised.append(t)
            continue
        assert abs(lhs - rhs) / abs(lhs) <= 1e-10, (t, lhs, rhs)
    expected = list(_SHIFT_RAISES) if alpha == 0.3 else []
    assert raised == expected


# longest prefix of the t-grid {0, 0.5, ..., 20} that evaluates per alpha;
# beyond it the series raises, at the same point for every term budget
_NEGATIVE_AXIS_OK = {0.1: 1.0, 0.4: 4.0, 0.6: 8.5, 0.9: 20.0}


@pytest.mark.parametrize("max_terms", (400, 2000, 4000))
def test_criterion_8_positivity_monotonicity(max_terms, monkeypatch):
    monkeypatch.setattr(special, "_MAX_TERMS", max_terms)
    for alpha, last_ok in _NEGATIVE_AXIS_OK.items():
        values = []
        for t in np.arange(0.0, 20.5, 0.5):
            t = float(t)
            if t <= last_ok:
                values.append(mittag_leffler(alpha, 1.0, -t))
            else:
                with pytest.raises(NonConvergenceError):
                    mittag_leffler(alpha, 1.0, -t)
        assert all(v > 0.0 for v in values), alpha
        assert np.all(np.diff(values) < 0.0), alpha


@pytest.mark.xfail(
    strict=True,
    reason="direct summation of E_alpha(-t) loses all significant digits "
    "beyond t = 1.0 / 4.0 / 8.5 for alpha = 0.1 / 0.4 / 0.6 and raises "
    "there for any term budget; the green twin locks the guaranteed "
    "raise-instead-of-garbage behavior on the same grid",
)
def test_criterion_8_full_positivity_grids():
    for alpha in (0.1, 0.4, 0.6, 0.9):
        values = [mittag_leffler(alpha, 1.0, -float(t))
                  for t in np.arange(0.0, 20.5, 0.5)]
        assert all(v > 0.0 for v in values)
        assert np.all(np.diff(values) < 0.0)


# ---------------------------------------------------------------------------
# criterion 9: the applicability gate and the certificate floor

def test_criterion_9_applicability_gate():
    all_ones = PowerLawParams(alpha=0.5, q1=1.0, q2=1.0, p11=1.0, p12=1.0,
                              p21=1.0, p22=1.0, x0=1.0, y0=1.0)
    with pytest.raises(NotApplicableError) as exc:
        theorem_bound(all_ones)
    violations = exc.value.violations
    assert len(violations) == 4
    assert sum(v.startswith("branch 1: ") for v in violations) == 2
    assert sum(v.startswith("branch 2: ") for v in violations) == 2
    assert any("p_12 >= 3 + p_21 fails" in v for v in violations)
    assert any("p_22 >= 3 + p_11 fails" in v for v in violations)
    assert any("admissibility" in v for v in violations)


def test_criterion_9_certificates_gamma_floor():
    for example in BENCH_EXAMPLES:
        for alpha in BENCH_ALPHAS:
            cert = theorem_bound(example_params(example, alpha))
            assert cert.gamma_j >= 2.0, (example, alpha)
