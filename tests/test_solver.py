"""Predictor-corrector scheme and L1 derivative tests.

Weight formulas are pinned by hand-derivable values and telescoping
identities; the integrator is checked against the linear-problem series
solution, the classical alpha=1 limit, and manufactured polynomial
solutions where the exact answer is cheap. The L1 residual tests verify
grid-halving behavior away from the derivative singularity at t=0.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from fracburst import (
    Completed,
    DomainError,
    NonFinite,
    Overflowed,
    PowerLawRhs,
    SolverConfig,
    SystemSpec,
    corrector_weight_a,
    example_params,
    l1_caputo,
    predictor_weight_b,
    solve,
    system_spec,
)


def scalar_spec(alpha, rhs, u0=1.0):
    return SystemSpec(alpha=alpha, dimension=1, rhs=rhs,
                      initial_state=np.array([u0]))


# ---------------------------------------------------------------------------
# weights

def test_corrector_weight_values():
    assert corrector_weight_a(0, 0, 0.5) == pytest.approx(0.5, rel=1e-15)
    assert corrector_weight_a(0, 0, 1.0) == pytest.approx(1.0, rel=1e-15)
    assert corrector_weight_a(1, 1, 1.0) == pytest.approx(2.0, rel=1e-15)


def test_predictor_weight_values():
    for n in (0, 3, 7):
        assert predictor_weight_b(n, n, 1.0, 0.1) == pytest.approx(0.1, rel=1e-15)
    assert predictor_weight_b(0, 0, 0.5, 1.0) == pytest.approx(2.0, rel=1e-15)


def test_corrector_weights_positive():
    n, alpha = 10, 0.6
    for j in range(n + 1):
        assert corrector_weight_a(j, n, alpha) > 0.0


def test_predictor_weights_positive():
    n, alpha, h = 10, 0.6, 0.05
    for j in range(n + 1):
        assert predictor_weight_b(j, n, alpha, h) > 0.0


def test_predictor_weight_sum_telescopes():
    n, alpha, h = 20, 0.3, 0.05
    total = sum(predictor_weight_b(j, n, alpha, h) for j in range(n + 1))
    assert total == pytest.approx(h ** alpha / alpha * (n + 1) ** alpha, rel=1e-12)


def test_corrector_weight_sum_identity():
    # with the +1 weight of the predicted endpoint the trapezoid weights
    # integrate a constant exactly: sum = (n+1)^alpha (alpha+1)
    n, alpha = 20, 0.3
    total = sum(corrector_weight_a(j, n, alpha) for j in range(n + 1)) + 1.0
    assert total == pytest.approx((n + 1) ** alpha * (alpha + 1.0), rel=1e-12)


def test_weight_domain_errors():
    with pytest.raises(DomainError):
        corrector_weight_a(3, 2, 0.5)
    with pytest.raises(DomainError):
        corrector_weight_a(-1, 2, 0.5)
    with pytest.raises(DomainError):
        predictor_weight_b(3, 2, 0.5, 0.1)
    with pytest.raises(DomainError):
        predictor_weight_b(0, 0, 0.5, 0.0)


# ---------------------------------------------------------------------------
# input validation

def test_system_spec_validation():
    rhs = lambda t, x: x
    with pytest.raises(DomainError):
        SystemSpec(alpha=0.0, dimension=1, rhs=rhs, initial_state=np.array([1.0]))
    with pytest.raises(DomainError):
        SystemSpec(alpha=1.5, dimension=1, rhs=rhs, initial_state=np.array([1.0]))
    with pytest.raises(DomainError):
        SystemSpec(alpha=0.5, dimension=0, rhs=rhs, initial_state=np.array([]))
    with pytest.raises(DomainError):
        SystemSpec(alpha=0.5, dimension=2, rhs=rhs, initial_state=np.array([1.0]))
    with pytest.raises(DomainError):
        SystemSpec(alpha=0.5, dimension=1, rhs=rhs, initial_state=np.array([math.nan]))


def test_power_law_rhs_validation():
    with pytest.raises(DomainError):
        PowerLawRhs(q=np.array([0.5]), exponents=np.array([[1.0, 2.0]]))
    with pytest.raises(DomainError):
        PowerLawRhs(q=np.array([0.5, 0.5]), exponents=np.array([[1.0]]))
    with pytest.raises(DomainError):
        PowerLawRhs(q=np.array([-0.5]), exponents=np.array([[1.0]]))
    with pytest.raises(DomainError):
        PowerLawRhs(q=np.array([0.5]), exponents=np.array([[-1.0]]))


def test_power_law_needs_positive_initial_state():
    rhs = PowerLawRhs(q=np.array([0.0]), exponents=np.array([[1.5]]))
    with pytest.raises(DomainError, match="positive initial data"):
        SystemSpec(alpha=0.5, dimension=1, rhs=rhs, initial_state=np.array([0.0]))


def test_solver_config_validation():
    with pytest.raises(DomainError):
        SolverConfig(T=0.0, N=16)
    with pytest.raises(DomainError):
        SolverConfig(T=1.0, N=0)
    with pytest.raises(DomainError):
        SolverConfig(T=1.0, N=16, overflow_threshold=0.0)


@pytest.mark.parametrize("n", [16.5, 16.0, "16", None])
def test_solver_config_rejects_non_integer_step_count(n):
    with pytest.raises(DomainError, match="step count"):
        SolverConfig(T=1.0, N=n)


def test_solver_config_accepts_numpy_step_count():
    cfg = SolverConfig(T=1.0, N=np.int64(16))
    assert cfg.N == 16 and type(cfg.N) is int
    traj = solve(scalar_spec(0.5, lambda t, x: x), cfg)
    assert traj.states.shape == (17, 1)


def test_rhs_shape_error():
    bad = lambda t, x: np.zeros(3)
    with pytest.raises(DomainError, match="shape"):
        solve(scalar_spec(0.5, bad), SolverConfig(T=1.0, N=4))


# ---------------------------------------------------------------------------
# basic solve behavior

def test_zero_rhs_keeps_initial_value():
    rhs = lambda t, x: np.zeros(1)
    traj = solve(scalar_spec(0.5, rhs, u0=3.25), SolverConfig(T=1.0, N=64))
    assert isinstance(traj.status, Completed)
    assert np.all(traj.states == 3.25)
    assert traj.states.shape == (65, 1)


def test_times_are_exact_grid_products():
    traj = solve(scalar_spec(0.7, lambda t, x: x), SolverConfig(T=0.8, N=40))
    h = 0.8 / 40
    assert np.array_equal(traj.times, np.arange(41) * h)


def test_trajectory_is_immutable():
    traj = solve(scalar_spec(0.5, lambda t, x: x), SolverConfig(T=1.0, N=8))
    with pytest.raises(ValueError):
        traj.states[0, 0] = 99.0
    with pytest.raises(ValueError):
        traj.times[0] = 99.0


def test_solve_is_deterministic():
    spec = system_spec(example_params(3, 0.6))
    cfg = SolverConfig(T=0.15, N=256)
    a, b = solve(spec, cfg), solve(spec, cfg)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)
    assert a.status == b.status


def test_callable_rhs_matches_power_law():
    params = example_params(3, 0.6)
    spec = system_spec(params)
    q = np.array([params.q1, params.q2])
    p = np.array([[params.p11, params.p12], [params.p21, params.p22]])
    manual = lambda t, x: t ** q * np.prod(x ** p, axis=1)
    spec2 = SystemSpec(alpha=0.6, dimension=2, rhs=manual,
                       initial_state=np.array([params.x0, params.y0]))
    cfg = SolverConfig(T=0.15, N=128)
    assert np.array_equal(solve(spec, cfg).states, solve(spec2, cfg).states)


def abm_by_hand(spec, T, N):
    """The ABM loop written out from predictor_weight_b and corrector_weight_a."""
    alpha, h, x0 = spec.alpha, T / N, spec.initial_state
    states, fvals = [x0], [spec.rhs(0.0, x0)]
    for n in range(N):
        t_next = (n + 1) * h
        pred = x0 + sum(predictor_weight_b(j, n, alpha, h) * fvals[j]
                        for j in range(n + 1)) / math.gamma(alpha)
        hist = sum(corrector_weight_a(j, n, alpha) * fvals[j] for j in range(n + 1))
        x_next = x0 + h ** alpha / math.gamma(alpha + 2.0) * (hist + spec.rhs(t_next, pred))
        states.append(x_next)
        fvals.append(spec.rhs(t_next, x_next))
    return np.array(states)


@pytest.mark.parametrize("alpha", [0.3, 0.8])
@pytest.mark.parametrize("kind", ["power_law", "callable"])
def test_solve_matches_abm_built_from_weight_functions(alpha, kind):
    # ties solve's reversed weight tables to the documented weights
    if kind == "power_law":
        rhs = PowerLawRhs(q=np.array([0.0, 0.5]),
                          exponents=np.array([[0.6, 0.3], [0.4, 0.5]]))
    else:
        rhs = lambda t, x: np.array([np.cos(3.0 * t) - 0.5 * x[0] * x[1], x[0] - x[1] ** 2])
    spec = SystemSpec(alpha=alpha, dimension=2, rhs=rhs,
                      initial_state=np.array([1.0, 0.5]))
    traj = solve(spec, SolverConfig(T=1.0, N=16))
    assert isinstance(traj.status, Completed)
    np.testing.assert_allclose(traj.states, abm_by_hand(spec, 1.0, 16), rtol=1e-13, atol=0.0)


def test_monotone_growth_on_power_law_system():
    traj = solve(system_spec(example_params(3, 0.6)), SolverConfig(T=0.15, N=512))
    assert isinstance(traj.status, Completed)
    diffs = np.diff(traj.states, axis=0)
    assert np.all(diffs >= 0.0)


def test_overflow_retains_offending_row():
    scenario_cfg = SolverConfig(T=0.25, N=2048, overflow_threshold=1e8)
    traj = solve(system_spec(example_params(3, 0.6)), scenario_cfg)
    assert isinstance(traj.status, Overflowed)
    assert traj.status.step == len(traj.times) - 1
    assert np.all(np.isfinite(traj.states))
    last = np.abs(traj.states[-1])
    assert last[traj.status.component] > 1e8
    assert np.all(last[: traj.status.component] <= 1e8)


def test_nonfinite_rhs_is_reported():
    def rhs(t, x):
        return np.array([math.nan]) if t > 0.5 else np.array([1.0])

    traj = solve(scalar_spec(0.5, rhs), SolverConfig(T=1.0, N=16))
    assert isinstance(traj.status, NonFinite)
    assert traj.status.step == len(traj.times)
    assert np.all(np.isfinite(traj.states))


# ---------------------------------------------------------------------------
# stop rules

@pytest.mark.parametrize("rhs, x0, rows", [
    # the predicted rhs overflows, so the corrected state is inf
    (PowerLawRhs(q=np.array([0.0]), exponents=np.array([[2.0]])), 1e100, 1),
    # the state stays finite and the rhs at the accepted state overflows
    (lambda t, x: np.where(x <= 1.0, t, np.inf), 1.0, 2),
])
def test_infinite_threshold_still_stops_on_overflow_to_inf(rhs, x0, rows):
    cfg = SolverConfig(T=1.0, N=4, overflow_threshold=math.inf)
    traj = solve(scalar_spec(0.5, rhs, u0=x0), cfg)
    assert traj.status == NonFinite(step=1)
    assert traj.states.shape == (rows, 1)
    assert np.all(np.isfinite(traj.states))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_state_is_not_an_overflow(bad):
    # the other component is far over the threshold in the same row
    def rhs(t, x):
        return np.array([1e12, bad]) if t > 0.0 else np.zeros(2)

    spec = SystemSpec(alpha=0.5, dimension=2, rhs=rhs, initial_state=np.ones(2))
    traj = solve(spec, SolverConfig(T=1.0, N=8, overflow_threshold=1e8))
    assert traj.status == NonFinite(step=1)
    assert traj.states.shape == (1, 2)


@pytest.mark.parametrize("x0", [(-3.0, 2.0), (1.0, 3.0)])
def test_state_at_the_threshold_is_not_an_overflow(x0):
    # a zero rhs keeps the state at x0 exactly
    spec = SystemSpec(alpha=0.5, dimension=2, rhs=lambda t, x: np.zeros(2),
                      initial_state=np.array(x0))
    traj = solve(spec, SolverConfig(T=1.0, N=8, overflow_threshold=3.0))
    assert traj.status == Completed()
    assert np.all(traj.states == np.array(x0))


def test_overflow_in_second_component_alone():
    spec = SystemSpec(alpha=0.5, dimension=2, rhs=lambda t, x: np.array([0.0, 10.0]),
                      initial_state=np.ones(2))
    traj = solve(spec, SolverConfig(T=1.0, N=64, overflow_threshold=5.0))
    assert isinstance(traj.status, Overflowed)
    assert traj.status.component == 1
    assert traj.status.step == len(traj.times) - 1
    assert traj.states[-1, 0] == 1.0
    assert traj.states[-1, 1] > 5.0
    assert np.all(traj.states[:-1, 1] <= 5.0)


@pytest.mark.parametrize("rhs, thr, status", [
    (lambda t, x: x, 1e8, Completed),
    (lambda t, x: np.array([0.0, 10.0]), 5.0, Overflowed),
    (lambda t, x: np.array([0.0, math.nan]) if t > 0.5 else np.zeros(2), 1e8, NonFinite),
    (lambda t, x: np.where(x <= 1.0, t, np.inf), math.inf, NonFinite),
])
def test_trajectory_owns_its_states(rhs, thr, status):
    # a trimmed run copies its rows, so the full N + 1 buffer is not kept alive
    spec = SystemSpec(alpha=0.5, dimension=2, rhs=rhs, initial_state=np.ones(2))
    traj = solve(spec, SolverConfig(T=1.0, N=64, overflow_threshold=thr))
    assert isinstance(traj.status, status)
    assert traj.states.base is None


# ---------------------------------------------------------------------------
# accuracy against analytic solutions

def test_linear_problem_matches_series_solution(linear_oracle_data):
    assert linear_oracle_data[0.5] <= 1e-4


def test_classical_limit_is_second_order(linear_oracle_data):
    assert linear_oracle_data[1.0] >= 1.9


def test_manufactured_polynomial_solution():
    # D^a u = -u + g with g chosen so u(t) = 1 + t^2 exactly
    alpha = 0.5

    def g(t):
        return 2.0 * t ** (2.0 - alpha) / math.gamma(3.0 - alpha) + 1.0 + t * t

    traj = solve(scalar_spec(alpha, lambda t, x: -x + g(t)),
                 SolverConfig(T=1.0, N=2048))
    exact = 1.0 + traj.times ** 2
    assert np.max(np.abs(traj.states[:, 0] - exact)) <= 1e-5


# ---------------------------------------------------------------------------
# L1 discrete derivative

def test_l1_constant_is_zero():
    out = l1_caputo(np.full(11, 7.5), 0.4, 0.1)
    assert np.array_equal(out, np.zeros(10))


def test_l1_exact_for_affine():
    h = 1e-3
    t = np.arange(0, 1001) * h
    out = l1_caputo(2.0 + 3.0 * t, 0.5, h)
    exact = 3.0 * t[1:] ** 0.5 / math.gamma(1.5)
    assert np.max(np.abs(out - exact)) <= 1e-12


def test_l1_quadratic_first_order():
    alpha = 0.3
    errs = []
    for h in (1e-3, 5e-4):
        t = np.arange(0, int(round(1.0 / h)) + 1) * h
        out = l1_caputo(t ** 2, alpha, h)
        exact = 2.0 * t[1:] ** (2.0 - alpha) / math.gamma(3.0 - alpha)
        errs.append(np.max(np.abs(out - exact)))
    assert errs[0] <= 5e-6
    assert errs[1] <= 1.5e-6
    # observed rate is h^(2-alpha), comfortably at least the claimed O(h)
    assert 2.0 <= errs[0] / errs[1] <= 4.0


def test_l1_columns_are_independent():
    h = 0.01
    t = np.arange(0, 101) * h
    u = np.column_stack([t, t ** 2])
    both = l1_caputo(u, 0.5, h)
    assert np.array_equal(both[:, 0], l1_caputo(t, 0.5, h))
    assert np.array_equal(both[:, 1], l1_caputo(t ** 2, 0.5, h))


def test_l1_domain_errors():
    with pytest.raises(DomainError):
        l1_caputo(np.array([1.0]), 0.5, 0.1)
    with pytest.raises(DomainError):
        l1_caputo(np.arange(5.0), 1.0, 0.1)
    with pytest.raises(DomainError):
        l1_caputo(np.arange(5.0), 0.5, 0.0)


# ---------------------------------------------------------------------------
# residual under refinement

def residual_curve(spec, T, N, alpha):
    traj = solve(spec, SolverConfig(T=T, N=N))
    assert isinstance(traj.status, Completed)
    d = l1_caputo(traj.states, alpha, T / N)
    f = np.array([spec.rhs(float(t), s)
                  for t, s in zip(traj.times[1:], traj.states[1:])])
    return traj.times[1:], np.max(np.abs(d - f), axis=1)


def test_residual_halves_on_manufactured_problem():
    alpha = 0.5

    def g(t):
        return 2.0 * t ** (2.0 - alpha) / math.gamma(3.0 - alpha) + 1.0 + t * t

    spec = scalar_spec(alpha, lambda t, x: -x + g(t))
    maxima = []
    for N in (256, 512, 1024):
        _, r = residual_curve(spec, 1.0, N, alpha)
        maxima.append(float(np.max(r)))
    assert maxima[0] / maxima[1] >= 2.0
    assert maxima[1] / maxima[2] >= 2.0


def test_residual_halves_on_benchmark_interior():
    # away from t=0 the t^alpha start-up layer no longer dominates
    spec = system_spec(example_params(3, 0.6))
    maxima = []
    for N in (256, 512, 1024):
        t, r = residual_curve(spec, 0.15, N, 0.6)
        maxima.append(float(np.max(r[t >= 0.15 / 4.0])))
    assert maxima[0] / maxima[1] >= 2.0
    assert maxima[1] / maxima[2] >= 2.0


@pytest.mark.xfail(
    reason="the solution's t^alpha start-up layer caps the full-range "
    "residual rate near h^(2 alpha - 1) for alpha < 1; the ratio at the "
    "first grid points is ~1.4, not 2",
    strict=True,
)
def test_residual_halves_over_full_range():
    spec = system_spec(example_params(3, 0.6))
    maxima = []
    for N in (256, 512, 1024):
        _, r = residual_curve(spec, 0.15, N, 0.6)
        maxima.append(float(np.max(r)))
    assert maxima[0] / maxima[1] >= 2.0
    assert maxima[1] / maxima[2] >= 2.0
