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
or raises the non-convergence error family. No path returns a value
without its guarantee.

The coefficient 1/Gamma(alpha k + beta) of term k depends on (alpha,
beta, k) only. Each one is memoized by functools.lru_cache, bounded at
32 pairs' worth of terms and shared by every caller; a term is then the
running 36-digit power |t|^k times the cached |1/Gamma|, so a call on
known terms evaluates no Gamma function, no exponential and no
logarithm.

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
_MAX_TERMS = 400

# Guaranteed relative accuracy of every returned Mittag-Leffler value.
# Chosen so that identities combining two evaluations stay below 1e-10
# even if both sides sit at the guarantee.
_REL_GUARANTEE = 4e-11

# Per-unit-of-ln-magnitude relative error charged to one term; the unit
# count is |k ln|t|| + |ln G| + 8. A term is |1/Gamma| (36-digit
# ln_gamma, then exp: measured worst case ~6e-35 per unit, 3000 random
# coefficients against mpmath) times |t|^k formed by at most 400
# multiplications rounded at 5e-36 relative each, 2e-33 in all. Both
# sit far below the constant floor 8 * 1e-31 that every term is charged,
# so the charge needs no term for the product. Each term is charged a
# further 2**-100 (~8e-31) of |T_k|, covering at most 400 additions
# rounded at 5e-37 relative each. Both are wider than 36 digits need;
# they fix where the guarantee fails, and the tests pin those points.
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
        _, negative, mag = coef
        value = float(mag)
        if math.isinf(value):
            raise OverflowRangeError(f"1/gamma({beta}) exceeds the double-precision range")
        return (-value if negative else value), 2.0 ** -52

    # T_k = s * |t|^k * |1/G|, with |1/G| from _coefficient and |t|^k
    # a running 36-digit product. alpha k + beta is formed exactly, so the
    # pole test is exact too. One double |T_k| serves the magnitude guard
    # (checked before T_k is added) and both error charges; with |T_k|
    # below _TERM_MAX and each charge factor below 1e-20, 400 charges sum
    # to under ~1e290, so the bound stays finite.
    abs_bound = 0.0
    consec = 0
    converged = False
    prev_abs = 0.0
    ratio = 0.0
    lnt = math.log(abs(t))
    with localcontext(_CTX):
        abs_t = Decimal(abs(t))
        power = Decimal(1)
        total = Decimal(0)
        for k in range(_MAX_TERMS):
            if k:
                power *= abs_t
            coef = _coefficient(alpha, beta, k)
            if coef is None:
                continue  # pole: reciprocal gamma vanishes
            lg_abs, negative, recip = coef
            negative ^= t < 0.0 and k % 2 == 1
            term = power * recip
            abs_term = float(term)
            if abs_term > _TERM_MAX:
                raise _raise_magnitude(t)
            total += -term if negative else term
            abs_bound += abs_term * (_EPS_UNIT * (abs(k * lnt) + lg_abs + 8.0) + 2.0 ** -100)
            if prev_abs > 0.0 and abs_term > 0.0:
                ratio = abs_term / prev_abs
            prev_abs = abs_term
            if abs_term <= _REL_TOL * abs(float(total)):
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
    if abs(value) <= abs_bound:
        return value, math.inf
    # discarded tail, bounded by a geometric extension of the last ratio
    r = min(ratio, 0.999)
    tail = 2.0 * _REL_TOL + (prev_abs / abs(value)) * r / (1.0 - r)
    return value, abs_bound / abs(value) + tail


@functools.lru_cache(maxsize=_CACHED_TERMS)
def _coefficient(alpha: float, beta: float, k: int) -> Optional[tuple[float, bool, Decimal]]:
    """Coefficient of term k of E_{alpha,beta}, computed once and shared.

    None at a pole, else (|ln Gamma| charged for it, 1/Gamma(a) < 0,
    |1/Gamma(a)|) at a = alpha k + beta, formed exactly.
    """
    with localcontext(_CTX):
        recip = _ln_recip_gamma(Fraction(alpha) * k + Fraction(beta))
        if recip is None:
            return None
        ln_recip, lg, negative = recip
        return abs(float(lg)), negative, ln_recip.exp()


# ---------------------------------------------------------------------------
# 36-digit helpers; call them inside localcontext(_CTX)

def _ln_recip_gamma(a: Fraction) -> Optional[tuple[Decimal, Decimal, bool]]:
    """(ln|1/Gamma(a)|, the ln Gamma charged for it, 1/Gamma(a) < 0).

    None at a pole, where 1/Gamma(a) vanishes. Below zero by the
    reflection 1/Gamma(a) = Gamma(1-a) sin(pi a) / pi.
    """
    if a > 0:
        lg = _ln_gamma_hp(_dec(a))
        return -lg, lg, False
    if a.denominator == 1:
        return None
    spi = _sin_pi(a)
    lg = _ln_gamma_hp(_dec(1 - a))
    return lg + abs(spi).ln() - _LN_PI, lg, spi < 0


def _dec(x: Fraction) -> Decimal:
    return Decimal(x.numerator) / x.denominator


def _sin_pi(x: Fraction) -> Decimal:
    """sin(pi x) for an exact rational x, exactly zero at the integers."""
    n = round(x)
    u = _PI * _dec(x - n)  # |u| <= pi/2
    u2 = -u * u
    s = term = u
    prev = None
    m = 2
    while s != prev:
        prev = s
        term *= u2 / (m * (m + 1))
        s += term
        m += 2
    return -s if n % 2 else s


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
    """ln Gamma(z) for z > 0 at the working precision.

    Stirling with exact-rational Bernoulli coefficients after shifting the
    argument above 32; the truncated tail there is below 1e-40 absolute.
    """
    shift = 0
    if z < _STIRLING_Z0:
        m = math.ceil(_STIRLING_Z0 - z)
        prod = z
        for i in range(1, m):
            prod *= z + i
        shift = prod.ln()
        z += m
    w = 1 / (z * z)
    s = 0
    for c in reversed(_STIRLING_COEF):
        s = s * w + c
    return (z - _HALF) * z.ln() - z + _HALF_LN_2PI + s / z - shift


_STIRLING_Z0 = 32
_HALF = Decimal("0.5")
with localcontext(_CTX):
    _LN_PI = _PI.ln()
    _HALF_LN_2PI = (2 * _PI).ln() / 2
    # B_2n / (2n (2n-1))
    _STIRLING_COEF = [
        _dec(B / ((2 * n) * (2 * n - 1)))
        for n, B in enumerate(_bernoulli_even(28), start=1)
    ]
