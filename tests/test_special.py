"""Gamma-family and Mittag-Leffler contract tests.

Reference values were frozen from a 50-digit mpmath series oracle; the
oracle itself is re-run here only for cheap grids. Every guaranteed
raise boundary on the negative axis is pinned exactly, so a change
that silently widens or narrows the usable range fails loudly.
"""

from __future__ import annotations

import decimal
import math
import sys
import threading
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from fracburst import (
    DomainError,
    NonConvergenceError,
    OverflowRangeError,
    PrecisionLossError,
    gamma,
    ln_gamma,
    mittag_leffler,
)
from fracburst import special

mpmath.mp.dps = 50


def ml_oracle(alpha: float, beta: float, t: float, terms: int = 3000) -> float:
    """High-precision direct series sum, frozen-value generator."""
    with mpmath.workdps(120):
        s = mpmath.mpf(0)
        for k in range(terms):
            a = alpha * k + beta
            if a <= 0 and a == int(a):
                continue
            s += mpmath.mpf(t) ** k / mpmath.gamma(a)
        return float(s)


# ---------------------------------------------------------------------------
# gamma family

def test_ln_gamma_zeros():
    assert abs(ln_gamma(1.0)) <= 1e-13
    assert abs(ln_gamma(2.0)) <= 1e-13


@pytest.mark.parametrize("x", [1e-6, 0.1, 0.5, 0.999, 1.001, 1.5, 1.999, 2.001,
                               2.5, 3.0, 10.0, 100.5, 171.0, 1e4, 1e6])
def test_ln_gamma_against_mpmath(x):
    exact = float(mpmath.loggamma(x))
    assert abs(ln_gamma(x) - exact) <= 1e-13 * max(1.0, abs(exact))


def test_ln_gamma_domain():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            ln_gamma(bad)


def test_gamma_half():
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)


def test_gamma_overflow_boundary():
    # Gamma(171) ~ 7.26e306 is still a double; 172 is the first overflow
    assert math.isfinite(gamma(171.0))
    assert gamma(171.0) == pytest.approx(7.257415615307999e306, rel=1e-12)
    # the double range ends at x = 171.6243...
    assert math.isfinite(gamma(171.62))
    with pytest.raises(OverflowRangeError):
        gamma(171.63)
    with pytest.raises(OverflowRangeError):
        gamma(172.0)


def test_gamma_recurrence():
    for x in np.linspace(0.1, 50.0, 200):
        lhs = gamma(x + 1.0)
        rhs = x * gamma(x)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


# ---------------------------------------------------------------------------
# Mittag-Leffler: exact and frozen points

@pytest.mark.parametrize(
    "alpha,beta,t,expected",
    [
        (1.0, 1.0, 1.0, math.e),
        (0.5, 1.0, 0.0, 1.0),
        (0.5, 0.5, 0.0, 0.5641895835477563),  # 1/Gamma(0.5)
        (2.0, 1.0, 4.0, math.cosh(2.0)),  # E_{2,1}(z) = cosh(sqrt z)
        # frozen 50-digit oracle values
        (0.5, 1.0, -1.0, 0.4275835761558070),
        (0.5, 0.5, -1.0, 0.13660600739194928),
        # 2 * 0.3 - 0.6 == 0 exactly in doubles: a pole at k = 2 from a
        # non-integer alpha (mpmath rgamma series)
        (0.3, -0.6, -1.0, -0.116696363386766),
        (0.3, -0.6, 0.7, 0.371987368453063),
    ],
)
def test_mittag_leffler_values(alpha, beta, t, expected):
    assert mittag_leffler(alpha, beta, t) == pytest.approx(expected, rel=1e-13)


def test_mittag_leffler_negative_beta():
    # E_{1,-1}(t) = t^2 e^t via the 1/Gamma(nonpositive integer) = 0 rule
    t = 0.5
    assert mittag_leffler(1.0, -1.0, t) == pytest.approx(t * t * math.e**t, rel=1e-12)


def test_mittag_leffler_matches_oracle_on_mixed_grid():
    for alpha in (0.4, 0.7, 1.3):
        for t in (-2.0, -0.3, 0.7, 3.0):
            v = mittag_leffler(alpha, 1.0, t)
            assert v == pytest.approx(ml_oracle(alpha, 1.0, t), rel=5e-11)


def test_e11_is_exp():
    for t in np.linspace(-10.0, 10.0, 100):
        assert mittag_leffler(1.0, 1.0, float(t)) == pytest.approx(
            math.exp(t), rel=1e-12
        )


def test_mittag_leffler_domain():
    with pytest.raises(DomainError):
        mittag_leffler(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        mittag_leffler(-0.5, 1.0, 1.0)
    with pytest.raises(DomainError):
        mittag_leffler(0.5, math.nan, 1.0)
    with pytest.raises(DomainError):
        mittag_leffler(0.5, 1.0, math.inf)


@pytest.mark.parametrize("beta", [0.1, 0.3, 0.5, 0.8, 1.5, -0.7, -1.5])
def test_mittag_leffler_at_zero_is_rounded_rgamma(beta):
    # E_{alpha,beta}(0) = 1/Gamma(beta), formed at 36 digits and rounded
    # once, so it is within one rounding of the exact value
    exact = mpmath.rgamma(mpmath.mpf(beta))
    rel = abs((mittag_leffler(0.8, beta, 0.0) - exact) / exact)
    assert float(rel) <= 1.2e-16


@pytest.mark.parametrize("beta", [0.1, 0.3, 0.5, 0.8, 1.5, -0.7, -1.5])
def test_mittag_leffler_bound_at_zero_covers_rounding(beta):
    # the bound returned with E_{alpha,beta}(0) must cover the measured
    # error of the rounded value, not only that of the 36-digit one
    value, bound = special._evaluate(0.8, beta, 0.0)
    exact = mpmath.rgamma(mpmath.mpf(beta))
    assert bound >= float(abs((value - exact) / exact))


def test_mittag_leffler_positive_overflow():
    with pytest.raises(NonConvergenceError):
        mittag_leffler(0.5, 1.0, 1e9)


def outcome(fn, *args):
    """The value fn returns, or the type of the guarantee error it raises."""
    try:
        return fn(*args)
    except NonConvergenceError as exc:
        return type(exc)


def test_caller_decimal_context_is_ignored():
    # the series runs in its own 36-digit context; a coarse, truncating,
    # trapping caller context must change neither values nor raises
    points = [(0.5, 1.0, -1.0), (0.3, -0.6, 0.7), (0.5, -0.5, 0.0),
              (0.6, 2.0, -16.0), (0.4, 1.0, -4.5), (1.3, 1.0, 3.0)]
    # two points (alpha, lam, a, t) of the kernel E_{alpha,alpha}(lam (a-t)^alpha)
    kernels = [(0.6, -2.0, 1.0, 0.25), (0.3, -0.5, 2.0, 1.5)]
    points += [(alpha, alpha, lam * (a - t) ** alpha) for alpha, lam, a, t in kernels]

    def evaluate():
        return [outcome(mittag_leffler, *p) for p in points]

    expected = evaluate()
    caller = decimal.Context(prec=5, rounding=decimal.ROUND_DOWN)
    caller.traps[decimal.Inexact] = True
    with decimal.localcontext(caller):
        assert evaluate() == expected


# ---------------------------------------------------------------------------
# 36-digit helpers of the series, against a 50-digit oracle

@pytest.mark.parametrize(
    "x",
    [0.05, 0.1, 0.5, 1.0, 1.5, 2.0, 3.7, 10.0, 31.9, 32.0, 33.0, 171.0, 1e4,
     2.5e-5, 1e-3, 0.999, 7.5, 64.0, 1e8],
)
def test_ln_gamma_hp_against_mpmath(x):
    with decimal.localcontext(special._CTX):
        v = mpmath.mpf(str(special._ln_gamma_hp(Decimal(x))))
    exact = mpmath.loggamma(x)
    # lnGamma vanishes at 1 and 2, so measure against max(1, |value|)
    assert float(abs(v - exact)) <= 1e-28 * max(1.0, float(abs(exact)))


@pytest.mark.parametrize(
    "x,exact",
    [
        (0.5, 1.0),
        (1.0, 0.0),
        (0.25, None),
        (1.75, None),
        (2.0, 0.0),
        (-0.5, -1.0),
        (1e6, 0.0),
        (1 / 3, None),
        (-7 / 6, None),
        (-0.3, None),
        (2.5, 1.0),
        (-1.5, 1.0),
        (123456.75, None),
        (1e15 + 0.5, 1.0),
    ],
)
def test_sin_pi(x, exact):
    with decimal.localcontext(special._CTX):
        v = mpmath.mpf(str(special._sin_pi(Fraction(x))))
    ref = mpmath.sin(mpmath.pi * mpmath.mpf(x)) if exact is None else mpmath.mpf(exact)
    assert float(abs(v - ref)) <= 1e-31


def test_decimal_constants():
    assert float(abs(mpmath.mpf(str(special._PI)) - mpmath.pi)) <= 1e-58
    half_ln_2pi = mpmath.log(2 * mpmath.pi) / 2
    assert float(abs(mpmath.mpf(str(special._HALF_LN_2PI)) - half_ln_2pi)) <= 1e-35


def test_stirling_bernoulli_numbers():
    got = special._bernoulli_even(28)
    assert got[:4] == [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30)]
    for n, b in enumerate(got, start=1):
        num, den = mpmath.bernfrac(2 * n)
        assert b == Fraction(int(num), int(den))


def series_term(alpha, beta, t, k):
    """|T_k| of E_{alpha,beta}(t) with the arithmetic of special._evaluate.

    Returns the 36-digit term, the exact Gamma argument and the unit count
    that the error budget charges for it.
    """
    a = Fraction(alpha) * k + Fraction(beta)
    with decimal.localcontext(special._CTX):
        abs_t = Decimal(abs(t))
        power = Decimal(1)
        for _ in range(k):
            power *= abs_t
        lg_abs, recip = special._coefficient(alpha, beta, k)
        term = abs(power * recip)
    return term, a, abs(k * math.log(abs(t))) + lg_abs + 8.0


@pytest.mark.parametrize(
    "alpha,beta,t,k",
    [
        (0.5, 1.0, -6.0, 40),
        (0.3, 1.0, -3.0, 150),
        (0.9, 1.0, -20.0, 200),
        (0.1, 1.0, 1.0, 5),
        (1.5, 1.0, 1e3, 100),
        (0.05, 0.05, 1e-3, 3),
        (0.6, 2.0, -16.0, 120),
        (0.4, -1.3, -4.5, 399),
        # negative Gamma arguments: the reflection branch
        (0.3, -0.6, -1.0, 1),
        (0.3, -3.0, 2.0, 3),
        (0.7, -5.0, 0.5, 4),
    ],
)
def test_series_term_within_error_budget(alpha, beta, t, k):
    # the guarantee charges each term _EPS_UNIT per unit of ln-magnitude;
    # the 36-digit arithmetic must sit well inside that (measured ~6e-35)
    term, a, units = series_term(alpha, beta, t, k)
    exact = abs(mpmath.mpf(t) ** k * mpmath.rgamma(mpmath.mpf(a.numerator) / a.denominator))
    rel = float(abs(mpmath.mpf(str(term)) - exact) / exact)
    assert rel <= 1e-2 * special._EPS_UNIT * units


def error_charge(alpha, beta, t):
    """The series' error charges relative to |E_{alpha,beta}(t)|, in mpmath.

    Sums |T_k| (1e-31 (|k ln|t|| + |ln Gamma(alpha k + beta)| + 8) + 2**-100)
    over the terms that _evaluate adds (until two consecutive terms fall
    below 1e-15 of the partial sum), at 50 digits and without special.
    """
    with mpmath.workdps(50):
        lnt = mpmath.log(abs(mpmath.mpf(t)))
        total = charge = mpmath.mpf(0)
        small = 0
        for k in range(400):
            a = mpmath.mpf(alpha) * k + beta
            lg = mpmath.loggamma(a)
            term = mpmath.exp(k * lnt - lg)
            charge += term * (mpmath.mpf("1e-31") * (abs(k * lnt) + abs(lg) + 8) + mpmath.mpf(2) ** -100)
            total += -term if t < 0 and k % 2 else term
            small = small + 1 if term <= mpmath.mpf("1e-15") * abs(total) else 0
            if small == 2:
                return float(charge / abs(total))
    raise AssertionError("series did not truncate")


@pytest.mark.parametrize(
    "alpha,beta,t",
    # negative-axis points where the charges, not the 2e-15 tail floor,
    # set the bound; the 2**-100 charge is 3-7% of it, |ln Gamma| 36-40%
    [(0.5, 1.0, -6.0), (1.0, 1.0, -20.0), (0.6, 1.0, -8.5)],
)
def test_returned_bound_is_the_error_charge(alpha, beta, t):
    charge = error_charge(alpha, beta, t)
    _, bound = special._evaluate(alpha, beta, t)
    assert charge <= bound <= 1.01 * charge


@pytest.mark.parametrize(
    "b",
    [0.5, 1.0, 2.5, 10.0, 170.5,
     -0.5, -1.5, -2.3, -0.6, -0.999, -10.7, -33.2, -100.25],
)
def test_recip_gamma_against_mpmath(b):
    # E_{alpha,b}(0) = 1/Gamma(b)
    exact = mpmath.rgamma(mpmath.mpf(b))
    rel = float(abs((mittag_leffler(0.5, b, 0.0) - exact) / exact))
    # formed at 36 digits for either sign of b and rounded once to double
    assert rel <= 1.2e-16


@pytest.mark.parametrize("b", [0.0, -1.0, -5.0])
def test_recip_gamma_poles(b):
    assert mittag_leffler(0.5, b, 0.0) == 0.0


def test_recip_gamma_overflow():
    assert math.isfinite(mittag_leffler(0.5, -170.5, 0.0))
    with pytest.raises(OverflowRangeError):
        mittag_leffler(0.5, -200.5, 0.0)


# ---------------------------------------------------------------------------
# guaranteed-raise boundaries on the negative axis

@pytest.mark.parametrize(
    "alpha,last_ok,raise_type",
    [
        # alpha=0.1 needs more terms than the cap allows past t=1;
        # the larger alphas converge but cancel below the guarantee
        (0.1, 1.0, NonConvergenceError),
        (0.4, 4.0, PrecisionLossError),
        (0.6, 8.5, PrecisionLossError),
        (0.9, 20.0, None),
    ],
)
def test_negative_axis_raise_boundary(alpha, last_ok, raise_type):
    """The usable negative range ends exactly where the guarantee fails."""
    for t in np.arange(0.0, last_ok + 0.25, 0.5):
        assert mittag_leffler(alpha, 1.0, -float(t)) > 0.0
    if raise_type is not None:
        with pytest.raises(raise_type):
            mittag_leffler(alpha, 1.0, -(last_ok + 0.5))


@pytest.mark.parametrize(
    "alpha,beta,t",
    [
        (0.4, 1.0, -4.5),
        # the term cap fires here before the truncation test passes, but
        # cancellation has already spent the guarantee by then
        (0.6, 1.0, -13.5),
    ],
)
def test_raise_is_precision_loss_subclass(alpha, beta, t):
    # the cancellation raise must be catchable as the generic family too
    with pytest.raises(NonConvergenceError):
        mittag_leffler(alpha, beta, t)
    with pytest.raises(PrecisionLossError):
        mittag_leffler(alpha, beta, t)


@pytest.mark.parametrize(
    "alpha,beta,t",
    [(0.1, -1.5, 7.5), (0.1, -1.5, -7.5), (0.3, 2.0, 18.5), (0.3, 2.0, -18.5)],
)
def test_cap_near_double_range_is_plain_nonconvergence(alpha, beta, t):
    # terms near 1e305 charged ~1000 units each: the error budget must
    # stay finite there, so the cap, not a spent budget, decides the raise
    with pytest.raises(NonConvergenceError) as info:
        mittag_leffler(alpha, beta, t)
    assert type(info.value) is NonConvergenceError


@pytest.mark.parametrize(
    "alpha,beta,t,raise_type,message",
    [
        (0.5, 1.0, 1e5, NonConvergenceError, "partial sums exceed the double-precision range"),
        (2.0, 1.0, 1e300, NonConvergenceError, "partial sums exceed the double-precision range"),
        # term 0, 1/Gamma(-200.5) ~ 1e375, is already beyond the range
        (0.5, -200.5, 1.0, NonConvergenceError, "partial sums exceed the double-precision range"),
        (0.5, 1.0, -1e5, PrecisionLossError, "peak terms beyond the double range"),
    ],
)
def test_magnitude_guard_raises_before_terms_leave_the_double_range(
        alpha, beta, t, raise_type, message):
    with pytest.raises(NonConvergenceError, match=message) as info:
        mittag_leffler(alpha, beta, t)
    assert type(info.value) is raise_type


# ---------------------------------------------------------------------------
# coefficient cache: a call reads each term's coefficient from a shared,
# bounded cache, so its state must never show in a value

@pytest.mark.parametrize(
    "alpha,beta,small,large",
    [(0.5, 1.0, 0.25, -5.5), (0.3, 0.3, 0.01, 2.5), (0.8, -1.3, 1e-3, 14.0)],
)
def test_cold_and_warm_tables_give_equal_values(alpha, beta, small, large):
    held = lambda: special._coefficient.cache_info().currsize
    special._coefficient.cache_clear()
    small_cold = mittag_leffler(alpha, beta, small)
    small_terms = held()
    large_grown = mittag_leffler(alpha, beta, large)
    assert held() > small_terms  # computed on demand, not filled up front
    small_warm = mittag_leffler(alpha, beta, small)

    special._coefficient.cache_clear()
    large_cold = mittag_leffler(alpha, beta, large)
    small_after_large = mittag_leffler(alpha, beta, small)
    large_warm = mittag_leffler(alpha, beta, large)

    assert small_cold == small_warm == small_after_large
    assert large_cold == large_grown == large_warm


def test_warm_table_evaluates_no_gamma(monkeypatch):
    points = [(0.5, 1.0, -3.0), (0.3, -0.6, 0.7), (1.3, 1.0, 3.0)]
    expected = [mittag_leffler(*p) for p in points]

    def fail(a):
        raise AssertionError(f"ln 1/Gamma({a}) recomputed")

    monkeypatch.setattr(special, "_ln_gamma_hp", fail)
    assert [mittag_leffler(*p) for p in points] == expected


def test_table_keeps_at_most_its_bound_of_pairs():
    # one pair more than the bound, each summed to the term cap: the
    # cache must evict rather than grow
    special._coefficient.cache_clear()
    pairs = special._CACHED_TERMS // special._MAX_TERMS + 1
    for i in range(pairs):
        with pytest.raises(NonConvergenceError, match="within 400 terms"):
            mittag_leffler(0.1, 1.0 + i / 64.0, 1.5)
    info = special._coefficient.cache_info()
    assert info.misses == pairs * special._MAX_TERMS > info.maxsize
    assert info.maxsize == special._CACHED_TERMS
    assert info.currsize == info.maxsize


def test_threads_sharing_tables_match_a_sequential_run():
    points = [(alpha, beta, t)
              for alpha, beta in ((0.5, 1.0), (0.3, 0.3), (0.8, -1.3), (0.1, 1.0))
              for t in (1e-3, 0.7, -2.0, 2.5, -1.5)]
    special._coefficient.cache_clear()
    expected = [outcome(mittag_leffler, *p) for p in points]

    special._coefficient.cache_clear()
    results = [None] * 4

    def work(i):
        order = points if i % 2 == 0 else points[::-1]
        got = [outcome(mittag_leffler, *p) for p in order]
        results[i] = got if i % 2 == 0 else got[::-1]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * 4


# ---------------------------------------------------------------------------
# kernel of the linear equation: (a-t)^(alpha-1) E_{alpha,alpha}(lam (a-t)^alpha)
# for t < a; its power factor is positive, so its sign is that of E_{alpha,alpha}

@pytest.mark.parametrize(
    "alpha,lam,a,t,expected",
    [
        (1.0, 0.0, 1.0, 0.0, 1.0),
        (1.0, -2.0, 1.0, 0.0, math.exp(-2.0)),
    ],
)
def test_kernel_values(alpha, lam, a, t, expected):
    value = mittag_leffler(alpha, alpha, lam * (a - t) ** alpha)
    assert value == pytest.approx(expected, rel=1e-12)


def test_kernel_positive_for_nonpositive_lambda():
    for alpha in (0.3, 0.6, 1.0):
        for lam in (0.0, -0.5, -2.0):
            for a, t in ((1.0, 0.0), (2.0, 1.5), (0.7, 0.69)):
                assert mittag_leffler(alpha, alpha, lam * (a - t) ** alpha) > 0.0
