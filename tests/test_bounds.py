"""Blow-up bound tests: scalar bound, minimizer, and the case analysis.

The twelve benchmark certificates are pinned against published table
values (5e-3 absolute). Structural properties (scaling law in u0,
minimizer optimality, branch dispatch) are checked independently so a
table match cannot hide a formula error that happens to cancel.
"""

from __future__ import annotations

import math
from dataclasses import replace

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paper_tables import BENCH_ALPHAS, LAMBDA_REF, TAU_REF
from fracburst import (
    BracketingError,
    Branch,
    Completed,
    DomainError,
    NotApplicableError,
    OverflowRangeError,
    PowerLawParams,
    ScalarBoundProblem,
    SolverConfig,
    b_domain_lower,
    big_B,
    conjugate_index,
    example_params,
    solve,
    system_spec,
    tau_bound,
    theorem_bound,
)
from fracburst import bounds


# ---------------------------------------------------------------------------
# conjugate index

def test_conjugate_index_values():
    assert conjugate_index(2.0) == 2.0
    assert conjugate_index(3.0) == 1.5
    assert conjugate_index(1.5) == 3.0


@pytest.mark.parametrize("p", [1.0, 0.5, 0.0, -2.0])
def test_conjugate_index_domain(p):
    with pytest.raises(DomainError):
        conjugate_index(p)


@given(st.floats(min_value=1.0 + 1e-9, max_value=1e6))
def test_conjugate_identity(p):
    pt = conjugate_index(p)
    assert 1.0 / p + 1.0 / pt == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# scalar problem validation

def test_scalar_problem_accepts_benchmark_like_input():
    problem = ScalarBoundProblem(alpha=0.5, u0=1.2, q=1.5, p=5.42)
    assert problem.p_tilde == conjugate_index(5.42)


@pytest.mark.parametrize(
    "kwargs,match",
    [
        (dict(alpha=0.0, u0=1.0, q=0.0, p=2.0), "alpha"),
        (dict(alpha=1.0, u0=1.0, q=0.0, p=2.0), "alpha"),
        (dict(alpha=0.5, u0=0.0, q=0.0, p=2.0), "u0"),
        (dict(alpha=0.5, u0=-1.0, q=0.0, p=2.0), "u0"),
        (dict(alpha=0.5, u0=1.0, q=-0.1, p=2.0), "q must be nonnegative"),
        (dict(alpha=0.5, u0=1.0, q=0.0, p=1.0), "infinite conjugate index"),
        (dict(alpha=0.5, u0=1.0, q=0.0, p=0.7), "p must exceed 1"),
        (dict(alpha=0.5, u0=1.0, q=3.0, p=1.2), "inadmissible"),
        (dict(alpha=0.5, u0=math.inf, q=0.0, p=2.0), "u0 must be finite"),
        (dict(alpha=0.5, u0=math.nan, q=0.0, p=2.0), "u0 must be positive"),
        # an infinite q or p used to fail the admissibility test with
        # "q*p_tilde = inf" or "= nan", naming the wrong cause
        (dict(alpha=0.5, u0=1.0, q=math.inf, p=2.0), r"^q must be finite, got inf$"),
        (dict(alpha=0.5, u0=1.0, q=0.5, p=math.inf), r"^p must be finite, got inf$"),
    ],
)
def test_scalar_problem_rejects(kwargs, match):
    with pytest.raises(DomainError, match=match):
        ScalarBoundProblem(**kwargs)


def test_scalar_problem_rejects_p_tilde_rounded_to_one():
    # p/(p-1) is exactly 1.0 in double precision this far out
    with pytest.raises(DomainError, match="p_tilde must exceed 1, got 1.0"):
        tau_bound(ScalarBoundProblem(alpha=0.5, u0=1.0, q=0.0, p=2.0 ** 60))


# ---------------------------------------------------------------------------
# B and its domain

def test_big_b_hand_value():
    # alpha=1/2, p_tilde=2, q=0, lam=1:
    # B = G(2)*G(1)*G(3) / (G(1.5)^2 * G(2)) = 2/(pi/4) = 8/pi
    assert big_B(1.0, 0.5, 2.0, 0.0) == pytest.approx(8.0 / math.pi, rel=1e-12)


def test_b_domain_lower_formula():
    for alpha, pt, q in [(0.5, 2.0, 0.0), (0.1, 1.226, 1.5), (0.9, 7.0, 0.5)]:
        expected = max(alpha * pt - 1.0, pt * (q + alpha) - q - 2.0)
        assert b_domain_lower(alpha, pt, q) == expected


def test_big_b_raises_at_and_below_boundary():
    alpha, pt, q = 0.5, 2.0, 0.0
    lo = b_domain_lower(alpha, pt, q)
    with pytest.raises(DomainError):
        big_B(lo, alpha, pt, q)
    with pytest.raises(DomainError):
        big_B(lo - 0.5, alpha, pt, q)
    assert big_B(lo + 1e-3, alpha, pt, q) > 0.0


def test_big_b_overflow_raises():
    # ln B = 992.28, with its rounding near 3.5e-13
    with pytest.raises(OverflowRangeError, match=r"B\(50.0\) = exp\(992.28\) exceeds"):
        big_B(50.0, 0.5, 1.004, 200.0)


@pytest.mark.parametrize("lam", [0.5, 35.8, 1e3, 3e4, 9e4])
def test_big_b_within_rounding_tolerance_of_mpmath(lam):
    # Example 1, alpha = 0.9: ln B against 60 digits wherever big_B returns
    cert = theorem_bound(example_params(1, 0.9))
    alpha, pt, q = 0.9, cert.p_tilde_j, cert.q_j
    with mpmath.workdps(60):
        lg = lambda a: mpmath.loggamma(mpmath.mpf(a))
        exact = ((pt - 1) * lg(lam + 1) + lg(lam + 1 - alpha * pt) + lg(q + lam + 2)
                 - pt * lg(lam + 1 - alpha) - lg(q + lam + 2 - pt * (q + alpha)))
        assert float(abs(math.log(big_B(lam, alpha, pt, q)) - exact)) <= 1e-9


@pytest.mark.parametrize("lam", [1e5, 1e6, 1e9, 1e20])
def test_big_b_rejects_lambda_lost_to_rounding(lam):
    # the five ln gamma values are ~lam ln lam: unchecked, ln B is off by
    # 3e-9 at lam = 1e6 and by 5.6 at 1e15, and meaningless at 1e20
    cert = theorem_bound(example_params(1, 0.9))
    with pytest.raises(DomainError, match=r"is lost to rounding: .* above 1e-09"):
        big_B(lam, 0.9, cert.p_tilde_j, cert.q_j)


# ---------------------------------------------------------------------------
# minimizer

@pytest.mark.parametrize(
    "alpha,p,q",
    [(0.1, 5.42, 1.5), (0.5, 2.0, 0.0), (0.9, 7.0, 0.5)],
)
def test_minimize_probe_optimality(alpha, p, q):
    problem = ScalarBoundProblem(alpha=alpha, u0=1.0, q=q, p=p)
    pt = problem.p_tilde
    res = tau_bound(problem)
    lam_m, b_min = res.lambda_m, res.B_min
    assert b_min > 0.0
    assert lam_m > b_domain_lower(alpha, pt, q)
    for step in (1e-4, 1e-2):
        assert big_B(lam_m + step, alpha, pt, q) >= b_min
        left = lam_m - step
        if left > b_domain_lower(alpha, pt, q):
            assert big_B(left, alpha, pt, q) >= b_min
    assert big_B(lam_m, alpha, pt, q) == pytest.approx(b_min, rel=1e-12)


def test_minimize_matches_published_minimizers():
    # example-1 certificates: p = 5.42, q = 1.5; lambda_m does not depend on u0
    for alpha in BENCH_ALPHAS:
        res = tau_bound(ScalarBoundProblem(alpha=alpha, u0=1.2, q=1.5, p=5.42))
        assert res.lambda_m == pytest.approx(LAMBDA_REF[alpha], abs=5e-3)


def test_bracket_contains_minimizer():
    res = tau_bound(ScalarBoundProblem(alpha=0.6, u0=1.2, q=1.5, p=5.42))
    a, b = res.bracket
    assert a <= res.lambda_m <= b
    assert b_domain_lower(0.6, conjugate_index(5.42), 1.5) < a


# ---------------------------------------------------------------------------
# scalar bound

def test_tau_bound_scaling_in_u0():
    # tau(c u0) = tau(u0) * c^(-p/(pt(alpha+q))) straight from the formula
    alpha, q, p = 0.6, 0.5, 3.0
    pt = conjugate_index(p)
    base = tau_bound(ScalarBoundProblem(alpha=alpha, u0=1.0, q=q, p=p))
    for c in (0.5, 2.0, 10.0):
        scaled = tau_bound(ScalarBoundProblem(alpha=alpha, u0=c, q=q, p=p))
        predicted = base.tau_ub * c ** (-p / (pt * (alpha + q)))
        assert scaled.tau_ub == pytest.approx(predicted, rel=1e-9)
        assert scaled.lambda_m == base.lambda_m


def test_tau_bound_decreasing_in_u0():
    taus = [
        tau_bound(ScalarBoundProblem(alpha=0.4, u0=u0, q=0.0, p=2.5)).tau_ub
        for u0 in (0.5, 1.0, 2.0, 4.0)
    ]
    assert all(a > b for a, b in zip(taus, taus[1:]))


def test_tau_bound_deterministic():
    prob = ScalarBoundProblem(alpha=0.9, u0=1.2, q=1.5, p=5.42)
    r1, r2 = tau_bound(prob), tau_bound(prob)
    assert r1 == r2


def test_tau_bound_overflow():
    with pytest.raises(OverflowRangeError):
        tau_bound(ScalarBoundProblem(alpha=0.5, u0=1e-300, q=0.0, p=7.0))


# ln B stand-ins for the minimizer under ScalarBoundProblem(0.5, 1, 0, 3),
# whose domain starts at lo = -0.25; x = lam - lo
def _falling(lam, alpha, p_tilde, q):
    return -lam


def _dip_off_the_minimum(lam, alpha, p_tilde, q):
    x = lam + 0.25
    return (x - 1.0) ** 2 - (5.0 if abs(x - 1.5) < 0.05 else 0.0)


def _needle_beside_the_minimum(lam, alpha, p_tilde, q):
    x = lam + 0.25
    return (x - 1.0) ** 2 - (1e-3 if abs(x - 1.0 - 1e-6) < 1e-8 else 0.0)


@pytest.mark.parametrize(
    "ln_b,message",
    [
        (_falling, "no interior minimum of B"),
        (_dip_off_the_minimum, "B is not unimodal on the bracket"),
        (_needle_beside_the_minimum, "fails the local-minimum probe"),
    ],
)
def test_minimizer_bracketing_errors(monkeypatch, ln_b, message):
    problem = ScalarBoundProblem(alpha=0.5, u0=1.0, q=0.0, p=3.0)
    assert b_domain_lower(problem.alpha, problem.p_tilde, problem.q) == -0.25
    monkeypatch.setattr(bounds, "_ln_big_B", ln_b)
    with pytest.raises(BracketingError, match=message):
        tau_bound(problem)


# ---------------------------------------------------------------------------
# theorem case analysis on the benchmark systems

@pytest.mark.parametrize("example", [1, 2, 3])
@pytest.mark.parametrize("alpha", BENCH_ALPHAS)
def test_certificates_match_published_tables(example, alpha):
    cert = theorem_bound(example_params(example, alpha))
    assert cert.tau_ub == pytest.approx(TAU_REF[(example, alpha)], abs=5e-3)
    if example == 1:
        assert cert.scalar.lambda_m == pytest.approx(LAMBDA_REF[alpha], abs=5e-3)


def test_example1_branch():
    cert = theorem_bound(example_params(1, 0.6))
    assert cert.branch is Branch.DISTINCT_Q
    assert cert.j == 2
    assert cert.gamma_j == pytest.approx(2.05)
    assert cert.p_j == pytest.approx(5.42)
    assert cert.q_j == 1.5
    assert cert.u_j == 1.2


def test_example2_branch():
    cert = theorem_bound(example_params(2, 0.6))
    assert cert.branch is Branch.EQUAL_Q_BRANCH2
    assert cert.j == 2
    assert cert.gamma_j == pytest.approx(2.0)
    assert cert.p_j == pytest.approx(1.2)
    assert cert.q_j == 0.0


def test_example3_branch():
    cert = theorem_bound(example_params(3, 0.6))
    assert cert.branch is Branch.EQUAL_Q_BRANCH1
    assert cert.j == 1
    assert cert.gamma_j == pytest.approx(2.0)
    assert cert.p_j == pytest.approx(7.0)
    assert cert.q_j == 0.5


def test_all_ones_not_applicable():
    params = PowerLawParams(alpha=0.5, q1=1.0, q2=1.0, p11=1.0, p12=1.0,
                            p21=1.0, p22=1.0, x0=1.0, y0=1.0)
    with pytest.raises(NotApplicableError) as exc:
        theorem_bound(params)
    violations = exc.value.violations
    assert len(violations) == 4
    assert sum(v.startswith("branch 1: ") for v in violations) == 2
    assert sum(v.startswith("branch 2: ") for v in violations) == 2
    joined = "\n".join(violations)
    assert "p_22 >= 3 + p_11 fails" in joined
    assert "p_12 >= 3 + p_21 fails" in joined
    assert "admissibility" in joined



def test_equal_q_derived_exponent_at_most_one_is_listed():
    # all exponents 0: gamma_j = 1/2 and p_j = 0 on both branches
    params = PowerLawParams(alpha=0.5, q1=0.0, q2=0.0, p11=0.0, p12=0.0,
                            p21=0.0, p22=0.0, x0=1.0, y0=1.0)
    with pytest.raises(NotApplicableError) as exc:
        theorem_bound(params)
    violations = exc.value.violations
    for j in (1, 2):
        assert any(v.startswith(f"branch {j}: derived exponent p_{j} = 0.0 does not exceed 1")
                   for v in violations)
    assert not any("admissibility" in v for v in violations)


def test_example_params_rejects_unknown_example():
    with pytest.raises(DomainError, match="^unknown example 4, expected 1, 2 or 3$"):
        example_params(4, 0.5)

# D^a y = y^p22 decouples, so y exists for all t when p22 <= 1, and so does
# x = 1 + I^a(y^3); theorem_bound still certifies both systems through
# branch 2 of the equal-q case, with the tau_ub written beside each
NEVER_BLOW_UP = [(0.75, 3.1539), (1.0, 2.3493)]


def never_blow_up_params(p22):
    return PowerLawParams(alpha=0.5, q1=0.0, q2=0.0, p11=0.0, p12=3.0,
                          p21=0.0, p22=p22, x0=1.0, y0=1.0)


@pytest.mark.xfail(
    strict=True,
    reason="the reduction's exponent p_2 = p21 + p22 * gamma_2 = 2 * p22 "
    "exceeds 1 for p22 > 1/2, so the bound certifies blow-up of a global "
    "solution (ROADMAP item 1)",
)
@pytest.mark.parametrize("p22", [p22 for p22, _ in NEVER_BLOW_UP])
def test_bound_rejects_systems_that_never_blow_up(p22):
    with pytest.raises(NotApplicableError):
        theorem_bound(never_blow_up_params(p22))


@pytest.mark.parametrize("p22, tau_ub", NEVER_BLOW_UP)
def test_systems_that_never_blow_up_outlive_ten_bounds(p22, tau_ub):
    # the witness behind the xfail above: the run completes far past tau_ub
    config = SolverConfig(T=10.0 * tau_ub, N=2 ** 12, overflow_threshold=1e300)
    assert solve(system_spec(never_blow_up_params(p22)), config).status == Completed()


@pytest.mark.parametrize(
    "field", ["alpha", "q1", "q2", "p11", "p12", "p21", "p22", "x0", "y0"]
)
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_params_reject_non_finite(field, value):
    # an infinite x0 used to pass and certify tau_ub = 0.0
    fields = dict(zip(("q1", "q2", "p11", "p12", "p21", "p22", "x0", "y0"),
                      (0.5, 0.5, 1.0, 3.0, 2.0, 4.0, 1.0, 1.0)))
    fields.update({"alpha": 0.5, field: value})
    with pytest.raises(DomainError, match=field):
        PowerLawParams(**fields)


def test_params_keep_range_messages():
    base = example_params(3, 0.5)
    with pytest.raises(DomainError, match=r"^x0 must be positive, got 0\.0$"):
        replace(base, x0=0.0)
    with pytest.raises(DomainError, match=r"^p12 must be nonnegative, got -1\.0$"):
        replace(base, p12=-1.0)
    with pytest.raises(DomainError, match=r"^y0 must be finite, got inf$"):
        replace(base, y0=math.inf)


def test_alpha_one_builds_but_has_no_bound():
    # the classical limit is a valid system for the solver, but the
    # comparison theorem needs alpha < 1
    params = PowerLawParams(alpha=1.0, q1=0.5, q2=0.5, p11=1.0, p12=3.0,
                            p21=2.0, p22=4.0, x0=1.0, y0=1.0)
    with pytest.raises(DomainError, match=r"alpha must lie in \(0, 1\)"):
        theorem_bound(params)


def test_distinct_q_violations_have_no_branch_prefix():
    # distinct exponents, cross condition broken: one clean violation list
    params = PowerLawParams(alpha=0.5, q1=0.0, q2=1.0, p11=0.0, p12=2.0,
                            p21=0.0, p22=2.0, x0=1.0, y0=1.0)
    with pytest.raises(NotApplicableError) as exc:
        theorem_bound(params)
    violations = exc.value.violations
    assert violations
    assert all(not v.startswith("branch") for v in violations)
    assert any("p_12 >= 3 + p_21 fails" in v for v in violations)


def test_certificate_gamma_floor_on_benchmarks():
    # every applicable certificate carries gamma_j >= 2
    for example in (1, 2, 3):
        for alpha in BENCH_ALPHAS:
            assert theorem_bound(example_params(example, alpha)).gamma_j >= 2.0


# ---------------------------------------------------------------------------
# property: constructed applicable systems

@st.composite
def applicable_distinct_q(draw):
    """Systems built to satisfy the distinct-exponent branch by construction."""
    alpha = draw(st.floats(min_value=0.05, max_value=0.95))
    q1 = draw(st.floats(min_value=0.0, max_value=0.5))
    q2 = q1 + draw(st.floats(min_value=0.01, max_value=0.45))
    p21 = draw(st.floats(min_value=0.0, max_value=2.0))
    # keep the exponent gap strictly interior so roundoff in the derived
    # gamma_j cannot straddle the >= 2 floor at the boundary
    p12 = p21 + 3.0 + draw(st.floats(min_value=1e-6, max_value=3.0))
    p22 = draw(st.floats(min_value=1.0, max_value=2.0))
    p11 = p22 - 1.0 + draw(st.floats(min_value=0.0, max_value=2.0))
    x0 = draw(st.floats(min_value=0.1, max_value=10.0))
    y0 = draw(st.floats(min_value=0.1, max_value=10.0))
    return PowerLawParams(alpha=alpha, q1=q1, q2=q2, p11=p11, p12=p12,
                          p21=p21, p22=p22, x0=x0, y0=y0)


@settings(max_examples=60, deadline=None)
@given(applicable_distinct_q())
def test_applicable_certificates_are_sound(params):
    cert = theorem_bound(params)
    assert cert.branch is Branch.DISTINCT_Q
    assert cert.j == 2
    assert cert.gamma_j >= 2.0
    assert cert.p_j > 1.0
    assert math.isfinite(cert.tau_ub) and cert.tau_ub > 0.0
    assert cert.scalar.lambda_m > b_domain_lower(
        params.alpha, cert.p_tilde_j, cert.q_j
    )
    assert theorem_bound(params) == cert
    # the same system with its components exchanged reduces onto x (j = 1)
    # through the same arithmetic, so every number matches bit for bit
    exchanged = theorem_bound(PowerLawParams(
        alpha=params.alpha, q1=params.q2, q2=params.q1, p11=params.p22,
        p12=params.p21, p21=params.p12, p22=params.p11, x0=params.y0, y0=params.x0,
    ))
    assert exchanged.branch is Branch.DISTINCT_Q
    assert exchanged.j == 1
    assert exchanged.gamma_j == cert.gamma_j
    assert exchanged.p_j == cert.p_j
    assert exchanged.tau_ub == cert.tau_ub
    assert exchanged.scalar.lambda_m == cert.scalar.lambda_m
