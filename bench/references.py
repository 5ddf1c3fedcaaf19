"""References the benchmark checks fracburst against, made apart from it.

Three kinds:

* published values, transcribed from the paper's tables (tau_ub,
  lambda_m) and graph reads (t_num);
* closed forms: erfcx for the alpha = 1/2 Mittag-Leffler function and
  the alpha = 1/2 linear equation (exp for alpha = 1 is inline in the
  long_solve check);
* recomputations with other numerics: an mpmath high-precision series for
  E_{alpha,beta}, and a scipy (gammaln + minimize_scalar) recomputation of
  the blow-up bound tau_ub.

Nothing computed is stored: every computed reference is made at check time
from the formulas below. scipy and mpmath are imported inside the functions
that need them, so the timed part of a run never carries their memory.
"""

from __future__ import annotations

import math

# Published bound table, all three examples (compare within 5e-3).
TAU_PUBLISHED = {
    (1, 0.1): 0.720, (1, 0.4): 0.998, (1, 0.6): 1.169, (1, 0.9): 1.415,
    (2, 0.1): 8.899, (2, 0.4): 6.333, (2, 0.6): 7.297, (2, 0.9): 8.948,
    (3, 0.1): 1.228, (3, 0.4): 1.551, (3, 0.6): 1.726, (3, 0.9): 1.967,
}
# Published minimizer column of Example 1 (compare within 5e-3).
LAMBDA_PUBLISHED = {0.1: -0.802, 0.4: -0.358, 0.6: -0.083, 0.9: 0.315}
# Graph reads of the numerical blow-up time, on the rows where the
# package's acceptance gate holds the 15 percent band. Left out: the
# flagged row (1, 0.1), whose two published readings differ tenfold, and
# (2, 0.1), (2, 0.4), (2, 0.9), which sit 18-40 percent below their reads
# at every refinement (the criterion 3 strict xfail).
TNUM_GRAPH_READ = {
    (1, 0.4): 0.28, (1, 0.6): 0.44, (1, 0.9): 0.67,
    (2, 0.6): 5.1,
    (3, 0.1): 0.019, (3, 0.4): 0.11, (3, 0.6): 0.21, (3, 0.9): 0.42,
}
TABLE_TOL = 5e-3
TNUM_BAND = 0.15

# Exponents and initial data of the three systems in the paper,
# (q1, q2, p11, p12, p21, p22, x0, y0).
FAMILIES = {
    1: (0.5, 1.5, 1.5, 3.6, 0.5, 2.4, 1.0, 1.2),
    2: (0.0, 0.0, 0.0, 3.2, 0.2, 0.5, 0.5, 0.5),
    3: (0.5, 0.5, 1.0, 3.0, 2.0, 4.0, 1.0, 1.0),
}


def erfcx(x: float) -> float:
    """exp(x^2) erfc(x) for -26 < x < 26.

    On [-1, 10] it agrees with scipy.special.erfcx to 5e-16 relative; the
    standard library keeps scipy out of the timed part of a run.
    """
    return math.exp(x * x) * math.erfc(x)


def ml_closed_form(alpha: float, beta: float, z: float):
    """E_{alpha,beta}(z) where a closed form exists, else None.

    E_{1/2,1}(z) = erfcx(-z), and by E_{a,b}(z) = 1/Gamma(b) + z E_{a,a+b}(z),
    E_{1/2,1/2}(z) = 1/sqrt(pi) + z erfcx(-z).
    """
    if alpha == 0.5 and beta == 1.0:
        return erfcx(-z)
    if alpha == 0.5 and beta == 0.5:
        return 1.0 / math.sqrt(math.pi) + z * erfcx(-z)
    return None


def ml_series(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z) summed in mpmath at enough digits to absorb cancellation.

    The largest term is about exp(|z|^(1/alpha)); the working precision
    carries that many decimal digits on top of 30 significant ones, and
    the sum stops once the terms are past their peak and below 1e-30 of
    the partial sum.
    """
    import mpmath

    peak = abs(z) ** (1.0 / alpha)
    k_peak = peak / alpha + 2.0
    with mpmath.workdps(40 + int(peak / math.log(10.0))):
        a, b, x = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(z)
        total = mpmath.mpf(0)
        power = mpmath.mpf(1)
        tiny = mpmath.mpf(10) ** -30
        k = 0
        while True:
            term = power * mpmath.rgamma(a * k + b)
            total += term
            if k > k_peak and abs(term) <= tiny * abs(total):
                return float(total)
            power *= x
            k += 1


def ml_reference(alpha: float, beta: float, z: float) -> float:
    closed = ml_closed_form(alpha, beta, z)
    return ml_series(alpha, beta, z) if closed is None else closed


def _scalar_tau(alpha: float, u0: float, q: float, p: float) -> tuple[float, float]:
    """Scalar bound (tau, lambda_m): the gamma-ratio B minimized with scipy."""
    import numpy as np
    from scipy.optimize import minimize_scalar
    from scipy.special import gammaln

    pt = p / (p - 1.0)
    lo = max(alpha * pt - 1.0, pt * (q + alpha) - q - 2.0)

    def ln_b(lam):
        return ((pt - 1.0) * gammaln(lam + 1.0) + gammaln(lam + 1.0 - alpha * pt)
                + gammaln(q + lam + 2.0) - pt * gammaln(lam + 1.0 - alpha)
                - gammaln(q + lam + 2.0 - pt * (q + alpha)))

    # coarse log-spaced scan above the domain boundary, then bounded Brent
    # between the scan neighbours of the smallest sample
    lams = lo + np.logspace(-9.0, 6.0, 601) * max(1.0, abs(lo))
    values = ln_b(lams)
    i = int(np.argmin(values))
    if i == 0 or i == len(lams) - 1:
        raise ValueError("no interior minimum of B on the scanned half-line")
    res = minimize_scalar(ln_b, bounds=(lams[i - 1], lams[i + 1]), method="bounded",
                          options={"xatol": 1e-13})
    ln_b_min = float(res.fun)
    ln_tau = (gammaln(q * (1.0 - pt) + 1.0) - p * math.log(u0) - gammaln(q + 1.0)
              + ln_b_min) / (pt * (alpha + q))
    return math.exp(float(ln_tau)), float(res.x)


def tau_ub_reference(alpha, q1, q2, p11, p12, p21, p22, x0, y0) -> tuple[float, float]:
    """(tau_ub, lambda_m) of the two-component theorem, or ValueError off its hypotheses.

    The case analysis of the comparison theorem: with distinct time
    exponents the component with the larger one carries the scalar bound;
    with equal ones each applicable reduction is tried and the smaller
    bound wins.
    """
    def branch(p_ij, p_ji, p_ii, p_jj, u_j, q_j):
        if not (p_ij >= 3.0 + p_ji and p_ii + 1.0 >= p_jj):
            return None
        gamma_j = (p_ij + 1.0 - p_ji) / 2.0
        p_j = p_ji + p_jj * gamma_j
        if not p_j > 1.0 or not q_j + 1.0 > q_j * p_j / (p_j - 1.0):
            return None
        return _scalar_tau(alpha, u_j, q_j, p_j)

    if q1 < q2:
        found = [branch(p12, p21, p11, p22, y0, q2)]
    elif q2 < q1:
        found = [branch(p21, p12, p22, p11, x0, q1)]
    else:
        found = [branch(p22, p11, p21, p12, x0, q1), branch(p12, p21, p11, p22, y0, q2)]
    found = [f for f in found if f is not None]
    if not found:
        raise ValueError("outside the theorem's hypotheses")
    return min(found)
