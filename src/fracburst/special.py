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

The coefficients 1/Gamma(alpha k + beta) depend on (alpha, beta) only.
They are computed once per pair, as far as some call has needed them,
and kept in a small table of recently used pairs; a term is then the
running 36-digit power |t|^k times the stored |1/Gamma|, so a call on a
known pair evaluates no Gamma function and no exponential.

Typical usable ranges on the negative axis (raise beyond): alpha=0.3 up
to |t|~3, alpha=0.5 up to ~6, alpha=0.9 beyond 20. On the positive axis
the limits are the term cap and the double-precision range itself.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from typing import Optional

from .errors import DomainError, NonConvergenceError, OverflowRangeError, PrecisionLossError

__all__ = [
    "ln_gamma",
    "gamma",
    "mittag_leffler",
    "e_alpha_kernel",
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
# so the charge needs no term for the product. The companion charge of
# 2**-100 (~8e-31) of sum |T_k| covers at most 400 additions rounded at
# 5e-37 relative each. Both are wider than 36 digits need; they fix
# where the guarantee fails, and the tests pin those points.
_EPS_UNIT = 1e-31

# Coefficient tables: pairs (alpha, beta) kept, and terms added per growth.
# A small chunk keeps the first call on a pair near the cost of the
# terms it needs (a coefficient costs about 0.2 ms).
_TABLE_PAIRS = 32
_TABLE_CHUNK = 8

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
        # one 36-digit value rounded once to double
        return _recip_gamma(beta), 2.0 ** -52

    # T_k = s * |t|^k * |1/G|, with |1/G| from the pair's table and |t|^k
    # a running 36-digit product. alpha k + beta is formed exactly, so the
    # pole test is exact too. The magnitude guard reads the term's
    # logarithm k ln|t| + ln|1/G|. Both charges are accumulated on terms
    # scaled by 2**-100 (exact), so they stay finite for terms near the
    # double range.
    table = _coefficients(alpha, beta)
    coefs = table.terms
    condsum = 0.0
    errsum = 0.0
    consec = 0
    converged = False
    prev_abs = 0.0
    ratio = 0.0
    with localcontext(_CTX):
        abs_t = Decimal(abs(t))
        lnt = abs_t.ln()
        lnt_float = float(lnt)
        power = Decimal(1)
        total = Decimal(0)
        for k in range(_MAX_TERMS):
            if k:
                power *= abs_t
            if k == len(coefs):
                coefs = table.grow(k + 1)
            coef = coefs[k]
            if coef is None:
                continue  # pole: reciprocal gamma vanishes
            ln_recip, lg_abs, negative, recip = coef
            negative ^= t < 0.0 and k % 2 == 1
            if float(k * lnt + ln_recip) > _LN_MAX - 5.0:
                raise _raise_magnitude(t)
            term = power * recip
            total += -term if negative else term
            abs_term = float(term)
            scaled = abs_term * 2.0 ** -100
            condsum += scaled
            errsum += scaled * (abs(k * lnt_float) + lg_abs + 8.0)
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
    abs_bound = errsum * (_EPS_UNIT * 2.0 ** 100) + condsum
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


class _Coefficients:
    """Series coefficients of one (alpha, beta), computed on first use.

    `terms[k]` is None at a pole, else (ln|1/Gamma(a)|, |ln Gamma| charged
    for it, 1/Gamma(a) < 0, |1/Gamma(a)|) at a = alpha k + beta. A growth
    replaces the tuple whole, so a reader never sees a half-built one.
    """

    def __init__(self, alpha: float, beta: float):
        self._alpha = Fraction(alpha)
        self._beta = Fraction(beta)
        self._lock = threading.Lock()
        self.terms: tuple = ()

    def grow(self, n: int) -> tuple:
        """The table extended to at least n terms, in whole chunks."""
        with self._lock:
            terms = self.terms
            if len(terms) < n:
                stop = min(max(n, len(terms) + _TABLE_CHUNK), _MAX_TERMS)
                with localcontext(_CTX):
                    terms += tuple(_coefficient(self._alpha * k + self._beta)
                                   for k in range(len(terms), stop))
                self.terms = terms
            return terms


# the table of (alpha, beta), shared by every call on that pair
_coefficients = functools.lru_cache(maxsize=_TABLE_PAIRS)(_Coefficients)


def _recip_gamma(b: float) -> float:
    with localcontext(_CTX):
        coef = _coefficient(Fraction(b))
    if coef is None:
        return 0.0
    _, _, negative, mag = coef
    value = float(mag)
    if math.isinf(value):
        raise OverflowRangeError(f"1/gamma({b}) exceeds the double-precision range")
    return -value if negative else value


def e_alpha_kernel(alpha: float, lam: float, a: float, t: float) -> float:
    """(a-t)^(alpha-1) * E_{alpha,alpha}(lam (a-t)^alpha) for t < a.

    Strictly positive whenever lam <= 0; used as the comparison kernel in
    the positivity arguments behind the blow-up bound.
    """
    alpha = float(alpha)
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"e_alpha_kernel requires alpha in (0, 1], got {alpha}")
    if not (t < a):
        raise DomainError(f"e_alpha_kernel requires t < a, got t={t}, a={a}")
    gap = a - t
    arg = lam * gap ** alpha
    return gap ** (alpha - 1.0) * mittag_leffler(alpha, alpha, arg)


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


def _coefficient(a: Fraction) -> Optional[tuple[Decimal, float, bool, Decimal]]:
    recip = _ln_recip_gamma(a)
    if recip is None:
        return None
    ln_recip, lg, negative = recip
    return ln_recip, abs(float(lg)), negative, ln_recip.exp()


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
