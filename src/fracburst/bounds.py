"""Finite-time blow-up upper bounds for power-law Caputo systems.

Two steps: _reduce turns the two-component system into a scalar problem
D^a u >= t^q u^p, u(0) = u0, by a case analysis on the time exponents,
and tau_bound bounds it by minimizing the gamma-ratio function B over
its admissible half-line. Everything is evaluated in log space: B mixes
gamma values across hundreds of orders of magnitude.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .errors import BracketingError, DomainError, NotApplicableError, OverflowRangeError
from .special import _LN_MAX

__all__ = [
    "ScalarBoundProblem",
    "ScalarBoundResult",
    "PowerLawParams",
    "Branch",
    "BoundCertificate",
    "conjugate_index",
    "big_B",
    "b_domain_lower",
    "tau_bound",
    "theorem_bound",
]

_PROBE = 1e-6
_GS_TOL = 1e-10
_MAX_SPAN = 1e6
# Largest rounding error of ln B that big_B and the minimizer accept
_LN_B_TOL = 1e-9
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def conjugate_index(p: float) -> float:
    """Hoelder conjugate p/(p-1); requires p > 1."""
    p = float(p)
    if not (p > 1.0):
        raise DomainError(f"conjugate index requires p > 1, got {p}")
    return p / (p - 1.0)


@dataclass(frozen=True)
class ScalarBoundProblem:
    """One-component blow-up problem: D^alpha u >= K t^q u^p, u(0) = u0.

    Construction validates the inputs and derives p_tilde, the conjugate
    index of p, once; tau_bound reads it from here.
    """

    alpha: float
    u0: float
    q: float
    p: float
    p_tilde: float = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not (self.u0 > 0.0):
            raise DomainError(f"u0 must be positive, got {self.u0}")
        if not (self.q >= 0.0):
            raise DomainError(f"q must be nonnegative, got {self.q}")
        if self.p == 1.0:
            raise DomainError(
                "p = 1 needs an infinite conjugate index and is rejected"
            )
        if not (self.p > 1.0):
            raise DomainError(f"p must exceed 1, got {self.p}")
        # the checks above already reject nan and -inf
        for name in ("u0", "q", "p"):
            if math.isinf(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got inf")
        p_tilde = conjugate_index(self.p)
        if not (self.q + 1.0 > self.q * p_tilde):
            raise DomainError(
                f"inadmissible: q+1 = {self.q + 1} must exceed "
                f"q*p_tilde = {self.q * p_tilde}"
            )
        # p/(p-1) rounds to exactly 1 once p is near 2**53
        if not (p_tilde > 1.0):
            raise DomainError(f"p_tilde must exceed 1, got {p_tilde}")
        object.__setattr__(self, "p_tilde", p_tilde)


@dataclass(frozen=True)
class ScalarBoundResult:
    tau_ub: float
    lambda_m: float
    B_min: float
    bracket: tuple[float, float]


class Branch(enum.Enum):
    DISTINCT_Q = "distinct_q"
    EQUAL_Q_BRANCH1 = "equal_q_branch1"
    EQUAL_Q_BRANCH2 = "equal_q_branch2"


@dataclass(frozen=True)
class PowerLawParams:
    """The two-component system t^q1 x^p11 y^p12 / t^q2 x^p21 y^p22.

    alpha = 1 is the classical limit: it solves, but has no bound.
    """

    alpha: float
    q1: float
    q2: float
    p11: float
    p12: float
    p21: float
    p22: float
    x0: float
    y0: float

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise DomainError(f"alpha must lie in (0, 1], got {self.alpha}")
        for name in ("q1", "q2", "p11", "p12", "p21", "p22"):
            v = getattr(self, name)
            if not (v >= 0.0):
                raise DomainError(f"{name} must be nonnegative, got {v}")
        for name in ("x0", "y0"):
            v = getattr(self, name)
            if not (v > 0.0):
                raise DomainError(f"{name} must be positive, got {v}")
        # the checks above already reject nan and -inf
        for name in ("q1", "q2", "p11", "p12", "p21", "p22", "x0", "y0"):
            if math.isinf(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got inf")


@dataclass(frozen=True)
class BoundCertificate:
    """Applicable branch, its reduced problem and scalar = tau_bound(problem)."""

    branch: Branch
    j: int
    gamma_j: float
    problem: ScalarBoundProblem
    scalar: ScalarBoundResult

    @property
    def tau_ub(self) -> float:
        return self.scalar.tau_ub


def _ln_big_B(lam: float, alpha: float, p_tilde: float, q: float) -> float:
    a1 = lam + 1.0
    a2 = lam + 1.0 - alpha * p_tilde
    a3 = q + lam + 2.0
    a4 = lam + 1.0 - alpha
    a5 = q + lam + 2.0 - p_tilde * (q + alpha)
    for name, a in (("lam+1", a1), ("lam+1-alpha*p_tilde", a2),
                    ("q+lam+2", a3), ("lam+1-alpha", a4),
                    ("q+lam+2-p_tilde*(q+alpha)", a5)):
        if not (a > 0.0):
            raise DomainError(f"gamma argument {name} = {a} is not positive")
    try:
        g1, g2, g3 = math.lgamma(a1), math.lgamma(a2), math.lgamma(a3)
        g4, g5 = math.lgamma(a4), math.lgamma(a5)
    except OverflowError:  # ln Gamma leaves the double range past ~2.6e305
        g1 = g2 = g3 = g4 = g5 = math.inf
    # each ln Gamma is rounded at about 2**-52 of itself, and they grow
    # like lam ln lam while ln B grows like ln lam, so large lam leaves
    # only rounding; the minimizer's scan compares ln B at _LN_B_TOL too.
    # An infinite argument makes err inf, or nan where it meets a zero factor
    err = 2.0 ** -52 * (abs((p_tilde - 1.0) * g1) + abs(g2) + abs(g3)
                        + abs(p_tilde * g4) + abs(g5))
    if not err <= _LN_B_TOL:
        raise DomainError(
            f"ln B({lam}) is lost to rounding: its five ln gamma terms leave "
            f"an error up to {err:.1e}, above {_LN_B_TOL:.0e}"
        )
    return (p_tilde - 1.0) * g1 + g2 + g3 - p_tilde * g4 - g5


def big_B(lam: float, alpha: float, p_tilde: float, q: float) -> float:
    """The gamma-ratio function whose minimum enters the blow-up bound.

    ln B is a difference of five ln gamma values of size lam ln lam, so
    their rounding grows with lam. Where it could exceed 1e-9 in ln B
    (from lam = 3.4e4 to 9.9e4 on the paper's systems) this raises
    DomainError instead of returning a value made of rounding.
    """
    ln_b = _ln_big_B(lam, alpha, p_tilde, q)
    if ln_b > _LN_MAX:
        raise OverflowRangeError(
            f"B({lam}) = exp({ln_b:.2f}) exceeds the double-precision range"
        )
    return math.exp(ln_b)


def b_domain_lower(alpha: float, p_tilde: float, q: float) -> float:
    """Infimum of the lambda domain of big_B; B is defined for lambda above it."""
    return max(alpha * p_tilde - 1.0, p_tilde * (q + alpha) - q - 2.0)


def _minimize_ln_big_B(problem: ScalarBoundProblem):
    """Bracket and golden-section the log of B; returns full diagnostics."""
    alpha, p_tilde, q = problem.alpha, problem.p_tilde, problem.q
    lo = b_domain_lower(alpha, p_tilde, q)
    f = lambda lam: _ln_big_B(lam, alpha, p_tilde, q)

    # expand geometrically away from the boundary until B turns upward
    scale = max(1.0, abs(lo))
    step = 1e-7 * scale
    x_prev = lo + step
    f_prev = f(x_prev)
    a = lo + step * 2.0 ** -16
    b = None
    while True:
        step *= 2.0
        if step > _MAX_SPAN:
            raise BracketingError(
                f"no interior minimum of B within ({lo}, {lo + _MAX_SPAN}]"
            )
        x = lo + step
        fx = f(x)
        if fx >= f_prev:
            b = x
            break
        a = x_prev
        x_prev, f_prev = x, fx

    # golden-section on [a, b] down to an absolute width of 1e-10
    bracket = (a, b)
    h = b - a
    c = b - _INV_PHI * h
    d = a + _INV_PHI * h
    fc, fd = f(c), f(d)
    while h > _GS_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = b - _INV_PHI * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INV_PHI * h
            fd = f(d)
    lam_m, ln_b_min = (c, fc) if fc < fd else (d, fd)

    # unimodality of B along the half-line is observed, not proven, so
    # verify: local two-sided probe plus a coarse scan of the search interval
    left_ok = lam_m - _PROBE <= lo or f(lam_m - _PROBE) >= ln_b_min
    if not left_ok or f(lam_m + _PROBE) < ln_b_min:
        raise BracketingError(
            f"converged point lambda = {lam_m} fails the local-minimum probe"
        )
    span_lo, span_hi = bracket
    for i in range(100):
        x = span_lo + (span_hi - span_lo) * (i + 0.5) / 100.0
        if f(x) < ln_b_min - _LN_B_TOL:
            raise BracketingError(
                f"scan found B({x}) below the converged minimum; "
                "B is not unimodal on the bracket"
            )
    return lam_m, ln_b_min, bracket


def tau_bound(problem: ScalarBoundProblem) -> ScalarBoundResult:
    """Blow-up time upper bound for the scalar problem.

    tau = [Gamma(q(1-pt)+1) / (u0^p Gamma(q+1)) * B(lambda_m)]^(1/(pt(alpha+q)))
    evaluated in log space.
    """
    p_tilde = problem.p_tilde
    lam_m, ln_b_min, bracket = _minimize_ln_big_B(problem)
    ln_tau = (
        math.lgamma(problem.q * (1.0 - p_tilde) + 1.0)
        - problem.p * math.log(problem.u0)
        - math.lgamma(problem.q + 1.0)
        + ln_b_min
    ) / (p_tilde * (problem.alpha + problem.q))
    if ln_tau > _LN_MAX or ln_b_min > _LN_MAX:
        raise OverflowRangeError("blow-up bound exceeds the double-precision range")
    return ScalarBoundResult(
        tau_ub=math.exp(ln_tau),
        lambda_m=lam_m,
        B_min=math.exp(ln_b_min),
        bracket=bracket,
    )


# The case analysis, keyed by the sign of q1 - q2 (distinct q reduce onto
# the larger). Each row reduces onto component j, eliminating i = 3 - j:
# the PowerLawParams fields that play (p_ij, p_ji, p_ii, p_jj, u_j, q_j)
# and its violations' label. Equal-q branch 1 is j = 1 with the exponent
# columns exchanged.
_REDUCTIONS = {
    1: ((Branch.DISTINCT_Q, 1, ("p21", "p12", "p22", "p11", "x0", "q1"), ""),),
    -1: ((Branch.DISTINCT_Q, 2, ("p12", "p21", "p11", "p22", "y0", "q2"), ""),),
    0: ((Branch.EQUAL_Q_BRANCH1, 1, ("p22", "p11", "p21", "p12", "x0", "q1"), "branch 1: "),
        (Branch.EQUAL_Q_BRANCH2, 2, ("p12", "p21", "p11", "p22", "y0", "q2"), "branch 2: ")),
}


def _reduce(params: PowerLawParams, j: int, fields: tuple[str, ...]):
    """Reduce onto component j, eliminating i = 3 - j; bounds nothing.

    Returns (gamma_j, the problem D^a u >= t^q_j u^p_j, u(0) = u_j), or
    the list of violated hypotheses.
    """
    p_ij, p_ji, p_ii, p_jj, u_j, q_j = (getattr(params, f) for f in fields)
    l_ij, l_ji, l_ii, l_jj = (f"p_{f[1:]}" for f in fields[:4])
    gamma_j = (p_ij + 1.0 - p_ji) / 2.0
    p_j = p_ji + p_jj * gamma_j
    violations = []
    if not p_ij >= 3.0 + p_ji:
        violations.append(f"{l_ij} >= 3 + {l_ji} fails: {p_ij} < {3.0 + p_ji}")
    if not p_ii + 1.0 >= p_jj:
        violations.append(f"{l_ii} + 1 >= {l_jj} fails: {p_ii + 1.0} < {p_jj}")
    if p_j <= 1.0:
        violations.append(f"derived exponent p_{j} = {p_j} does not exceed 1, "
                          "so its conjugate index is undefined")
    else:
        p_tilde = conjugate_index(p_j)
        if not (q_j + 1.0 > q_j * p_tilde):
            violations.append(f"admissibility q_{j}+1 > q_{j}*p_tilde_{j} fails: "
                              f"{q_j + 1} <= {q_j * p_tilde}")
    if violations:
        return violations
    return gamma_j, ScalarBoundProblem(alpha=params.alpha, u0=u_j, q=q_j, p=p_j)


def theorem_bound(params: PowerLawParams) -> BoundCertificate:
    """Case analysis reducing the system to a scalar bound.

    Tries the rows of _REDUCTIONS for the sign of q1 - q2 in order and
    bounds the first reduced problem by tau_bound. At most one row can
    reduce: both equal-q rows' hypotheses hold only where p_11 >= 2**53,
    and there branch 1's p_1 - 1 rounds to p_1, so it never reduces.
    When no row's hypotheses hold the theorem says nothing and
    NotApplicableError carries every violated condition.
    """
    violations = []
    for branch, j, fields, label in _REDUCTIONS[(params.q1 > params.q2) - (params.q1 < params.q2)]:
        reduced = _reduce(params, j, fields)
        if isinstance(reduced, list):
            violations += [label + v for v in reduced]
        else:
            gamma_j, problem = reduced
            return BoundCertificate(branch, j, gamma_j, problem, tau_bound(problem))
    raise NotApplicableError(violations)
