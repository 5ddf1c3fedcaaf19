"""Gamma-family and Mittag-Leffler evaluations.

The Mittag-Leffler series is the accuracy-critical piece: for negative
arguments it alternates with condition number ~ exp(|t|^(1/alpha)), so a
plain double-precision Taylor sum silently loses everything well inside
the argument ranges the rest of the package cares about. The series is
therefore summed once, in 36-digit decimal arithmetic (the standard
decimal module, in a private context, so the caller's decimal settings
never apply), with a running error budget and fixed truncation: stop
below 1e-15 of the partial sum, give up after 400 terms. An evaluation
either returns a value whose relative error is guaranteed below ~4e-11
or raises: the non-convergence error family, or the range error for a
value outside the normal double range. No path returns a value without
its guarantee.

The coefficient 1/Gamma(alpha k + beta) of term k depends on (alpha,
beta, k) only. Each one is memoized by functools.lru_cache, bounded at
32 pairs' worth of terms and shared by every caller; a term is then the
running 36-digit power t^k times the cached signed 1/Gamma (one upward
recurrence to Stirling's range on the whole line), so a call on known
terms evaluates no Gamma function, no exponential and no logarithm.

Typical usable ranges on the negative axis (raise beyond): alpha=0.3 up
to |t|~3, alpha=0.5 up to ~6, alpha=0.9 beyond 20. On the positive axis
the limits are the term cap and the double-precision range itself.
"""

from __future__ import annotations

import functools
import math
import sys
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from typing import Optional

from .errors import DomainError, NonConvergenceError, OverflowRangeError, PrecisionLossError

__all__ = [
    "ln_gamma",
    "gamma",
    "mittag_leffler",
]

_LN_MAX = math.log(sys.float_info.max)  # 709.78...

# Series truncation: stop once two consecutive non-pole terms fall below
# _REL_TOL of the partial sum; raise after _MAX_TERMS terms.
_REL_TOL = 1e-15
_REL_TOL_DEC = Decimal(_REL_TOL)  # the same double, exactly
_MAX_TERMS = 400

# Guaranteed relative accuracy of every returned Mittag-Leffler value.
# Chosen so that identities combining two evaluations stay below 1e-10
# even if both sides sit at the guarantee.
_REL_GUARANTEE = 4e-11

# Per-unit-of-ln-magnitude relative error charged to one term; the unit
# count is |k ln|t|| + |ln|G|| + 8. A term is 1/Gamma (36-digit Stirling
# and rising product: measured worst case ~9.2e-35 per unit, 3000 random
# coefficients and poles approached to 1e-6 against mpmath) times t^k
# formed by at most 400 multiplications rounded at 5e-36 relative each,
# 2e-33 in all. Both sit far below the floor 8 * 1e-31 that every term is
# charged, so the charge needs no term for the product. Each term is
# charged a further 2**-100 (~8e-31) of |T_k|, covering at most 400
# additions rounded at 5e-37 relative each. Both are wider than 36 digits
# need; they fix where the guarantee fails, and the tests pin them.
_EPS_UNIT = 1e-31

# Largest term the series may reach, e^5 inside the double range
_TERM_MAX = math.exp(_LN_MAX - 5.0)

# Coefficients memoized: 32 pairs (alpha, beta) that each reach the term
# cap (a coefficient costs about 0.2 ms to compute).
_CACHED_TERMS = 32 * _MAX_TERMS

_CTX = Context(prec=36)
# pi to 60 digits; a Decimal literal is exact, arithmetic rounds to _CTX
_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def ln_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0.

    Relative error is at most 1e-13 on [1e-6, 1e6], measured against
    max(1, |ln Gamma|) since ln Gamma vanishes at x = 1 and x = 2 where
    a strict relative bound is meaningless for any fixed-precision
    arithmetic. Non-positive, infinite or NaN x raises DomainError.
    """
    return math.lgamma(_positive("ln_gamma", x))


def gamma(x: float) -> float:
    """Gamma(x) for x > 0; overflow raises instead of returning inf."""
    x = _positive("gamma", x)
    try:
        return math.gamma(x)
    except OverflowError:
        raise OverflowRangeError(f"gamma({x}) exceeds the double-precision range") from None


def _positive(name: str, x: float) -> float:
    x = float(x)
    if not (x > 0.0) or math.isinf(x):
        raise DomainError(f"{name} requires finite x > 0, got {x}")
    return x


def mittag_leffler(alpha: float, beta: float, t: float) -> float:
    """E_{alpha,beta}(t) = sum_k t^k / Gamma(alpha k + beta).

    One 36-digit Taylor summation with fixed truncation: stop once the
    term magnitude falls below 1e-15 of |partial sum| for two consecutive
    non-pole terms, give up after 400 terms. Terms whose Gamma argument
    is a non-positive integer contribute zero and do not count toward the
    truncation test.

    Raises NonConvergenceError when the cap is hit (or when partial sums
    would leave the double range), and its PrecisionLossError subclass
    when cancellation pushes the guaranteed error bound above 4e-11.
    Raises OverflowRangeError when the value lies outside the normal
    double range, beyond it or below 2.2e-308 (subnormals and zero).
    """
    alpha = float(alpha)
    beta = float(beta)
    t = float(t)
    if not (alpha > 0.0) or not math.isfinite(alpha):
        raise DomainError(f"mittag_leffler requires alpha > 0, got {alpha}")
    if not math.isfinite(beta) or not math.isfinite(t):
        raise DomainError("mittag_leffler requires finite beta and t")
    value, rel_bound = _evaluate(alpha, beta, t)
    if rel_bound > _REL_GUARANTEE:
        raise PrecisionLossError(
            f"E_{{{alpha},{beta}}}({t}): cancellation leaves a guaranteed "
            f"relative error of only {rel_bound:.2e}, worse than the "
            f"{_REL_GUARANTEE:.0e} contract"
        )
    return value


def _raise_magnitude(t: float) -> NonConvergenceError:
    if t < 0.0:
        return PrecisionLossError(
            "alternating series with peak terms beyond the double range; "
            "no attainable precision recovers the sum"
        )
    return NonConvergenceError(
        "partial sums exceed the double-precision range before the "
        "truncation test is met"
    )


def _evaluate(alpha: float, beta: float, t: float) -> tuple[float, float]:
    """Sum the series; return (value, guaranteed relative error bound)."""
    if t == 0.0:
        # term 0, 1/Gamma(beta): one 36-digit value rounded once to double
        coef = _coefficient(alpha, beta, 0)
        if coef is None:
            return 0.0, 2.0 ** -52
        value = float(coef[1])
        if math.isinf(value):
            raise OverflowRangeError(f"1/gamma({beta}) exceeds the double-precision range")
        _check_normal(value, f"1/gamma({beta})")
        return value, 2.0 ** -52

    # T_k = t^k * 1/G, the signed 1/G from _coefficient times a running
    # 36-digit t^k (rounding is symmetric in sign). One double |T_k| serves
    # the magnitude guard (checked before T_k is added) and both error
    # charges; with |T_k| below _TERM_MAX and each charge factor below
    # 1e-20, 400 charges sum to under ~1e290, so the bound stays finite.
    # The truncation test compares the 36-digit values.
    abs_bound = 0.0
    consec = 0
    converged = False
    prev_abs = 0.0
    ratio = 0.0
    lnt = math.log(abs(t))
    with localcontext(_CTX):
        t_dec = Decimal(t)
        power = Decimal(1)
        total = Decimal(0)
        for k in range(_MAX_TERMS):
            if k:
                power *= t_dec
            coef = _coefficient(alpha, beta, k)
            if coef is None:
                continue  # pole: reciprocal gamma vanishes
            lg_abs, recip = coef
            term = power * recip
            abs_term = abs(float(term))
            if abs_term > _TERM_MAX:
                raise _raise_magnitude(t)
            total += term
            abs_bound += abs_term * (_EPS_UNIT * (abs(k * lnt) + lg_abs + 8.0) + 2.0 ** -100)
            if prev_abs > 0.0 and abs_term > 0.0:
                ratio = abs_term / prev_abs
            prev_abs = abs_term
            if term.copy_abs() <= _REL_TOL_DEC * total.copy_abs():
                consec += 1
                if consec == 2:
                    converged = True
                    break
            else:
                consec = 0
    value = float(total)
    if not converged:
        # when cancellation already spends the guarantee, that is the
        # real limit: more terms could not rescue the sum
        if abs_bound > _REL_GUARANTEE * abs(value):
            raise PrecisionLossError(
                f"E_{{{alpha},{beta}}}({t}): cancellation exceeds the "
                f"{_REL_GUARANTEE:.0e} contract before the {_MAX_TERMS}-term cap"
            )
        raise NonConvergenceError(
            f"series for E_{{{alpha},{beta}}}({t}) did not meet the "
            f"truncation test within {_MAX_TERMS} terms"
        )
    _check_normal(value, f"E_{{{alpha},{beta}}}({t})")
    if abs(value) <= abs_bound:
        return value, math.inf
    # discarded tail, bounded by a geometric extension of the last ratio
    r = min(ratio, 0.999)
    tail = 2.0 * _REL_TOL + (prev_abs / abs(value)) * r / (1.0 - r)
    return value, abs_bound / abs(value) + tail


def _check_normal(value: float, what: str) -> None:
    if abs(value) < sys.float_info.min:  # a subnormal keeps too few bits
        raise OverflowRangeError(f"{what} = {value!r} is below the normal double range")


@functools.lru_cache(maxsize=_CACHED_TERMS)
def _coefficient(alpha: float, beta: float, k: int) -> Optional[tuple[float, Decimal]]:
    """Coefficient of term k of E_{alpha,beta}, computed once and shared.

    None at a pole, else (|ln|Gamma(a)|| charged for it, 1/Gamma(a) as
    one signed 36-digit value) at a = alpha k + beta, formed exactly, by
    1/Gamma(a) = a (a+1) ... (a+m-1) / Gamma(a+m) with a + m >= 32. Each
    factor is an exact integer over the denominator of a, so nothing
    cancels next to a pole, and the product carries the sign. Below -500
    (532 factors) it is infinite: the first term that is no pole then
    exceeds 1e487 for any double t and alpha, so the guard raises anyway.
    """
    a = Fraction(alpha) * k + Fraction(beta)
    num, den = a.numerator, a.denominator
    if num <= 0 and den == 1:
        return None
    if num < -500 * den:
        return math.inf, Decimal("Infinity")
    m = max(0, -((num - _STIRLING_Z0 * den) // den))  # ceil(32 - a)
    with localcontext(_CTX):
        rising = Decimal(1)  # den^m a (a+1) ... (a+m-1)
        for factor in range(num, num + m * den, den):
            rising *= factor
        lg = _ln_gamma_hp(Decimal(num + m * den) / den)
        if m:
            lg -= (abs(rising) / Decimal(den) ** m).ln()
        recip = (-lg).exp()
        return abs(float(lg)), -recip if rising < 0 else recip


# ---------------------------------------------------------------------------
# 36-digit helpers; call them inside localcontext(_CTX)

def _bernoulli_even(count: int) -> list[Fraction]:
    """B_2, B_4, ..., B_2count by the standard recurrence."""
    out = []
    b = [Fraction(1)]
    for m in range(1, 2 * count + 1):
        acc = sum(math.comb(m + 1, k) * b[k] for k in range(m))
        b.append(-acc / (m + 1))
        if m % 2 == 0:
            out.append(b[m])
    return out


def _ln_gamma_hp(z: Decimal) -> Decimal:
    """ln Gamma(z) for z >= 32 at the working precision.

    Stirling with 16 exact-rational Bernoulli coefficients; at z >= 32
    the tail is below 8.2e-42 absolute.
    """
    w = 1 / (z * z)
    s = 0
    for c in reversed(_STIRLING_COEF):
        s = s * w + c
    return (z - _HALF) * z.ln() - z + _HALF_LN_2PI + s / z


_STIRLING_Z0 = 32
_HALF = Decimal("0.5")
with localcontext(_CTX):
    _HALF_LN_2PI = (2 * _PI).ln() / 2
    # B_2n / (2n (2n-1)), one correctly rounded division each
    _STIRLING_COEF = [
        Decimal(B.numerator) / (B.denominator * (2 * n) * (2 * n - 1))
        for n, B in enumerate(_bernoulli_even(16), start=1)
    ]
