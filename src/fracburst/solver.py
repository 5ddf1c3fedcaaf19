"""Adams-Bashforth-Moulton predictor-corrector for Caputo systems.

One predictor (fractional rectangle rule) plus one corrector pass
(fractional trapezoid rule) per step, applied to all components together.
History sums are exact O(N^2) convolutions evaluated as dot products
against precomputed weight tables; right-hand-side values are cached so
each accepted state is evaluated once.

On 2-vectors the per-step cost is numpy call overhead, not arithmetic,
so each step makes as few numpy calls as it can. The stop test is one
scalar pass, |x_k| <= min(threshold, float max) for every component k:
NaN and +-inf fail it even at an infinite threshold, and only the step
that fails it works out whether the run ended NonFinite or Overflowed.
One loop serves PowerLawRhs and plain callables alike.

Also carries the L1 discrete Caputo derivative used by the residual and
inequality tests.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import DomainError
from .special import gamma

__all__ = [
    "PowerLawRhs",
    "SystemSpec",
    "SolverConfig",
    "Completed",
    "Overflowed",
    "NonFinite",
    "Status",
    "Trajectory",
    "corrector_weight_a",
    "predictor_weight_b",
    "solve",
    "l1_caputo",
]


@dataclass(frozen=True)
class PowerLawRhs:
    """f_i(t, x) = t^(q_i) * prod_k x_k^(p_ik), all exponents >= 0."""

    q: np.ndarray
    exponents: np.ndarray

    def __post_init__(self):
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        p = np.asarray(self.exponents, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] != q.shape[0]:
            raise DomainError(
                f"exponent matrix must be (n, n) matching q, got {p.shape} vs {q.shape}"
            )
        if not (np.isfinite(q).all() and np.isfinite(p).all()):
            raise DomainError("power-law exponents must be finite")
        if np.any(q < 0.0) or np.any(p < 0.0):
            raise DomainError("power-law exponents must be nonnegative")
        q.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "exponents", p)

    def __call__(self, t: float, state: np.ndarray) -> np.ndarray:
        return t ** self.q * (state ** self.exponents).prod(axis=1)


RhsLike = Union[PowerLawRhs, Callable[[float, np.ndarray], np.ndarray]]


@dataclass(frozen=True)
class SystemSpec:
    alpha: float
    dimension: int
    rhs: RhsLike
    initial_state: np.ndarray

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise DomainError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.dimension < 1:
            raise DomainError(f"dimension must be >= 1, got {self.dimension}")
        x0 = np.atleast_1d(np.asarray(self.initial_state, dtype=float))
        if x0.shape != (self.dimension,):
            raise DomainError(
                f"initial state has shape {x0.shape}, expected ({self.dimension},)"
            )
        if not np.all(np.isfinite(x0)):
            raise DomainError("initial state must be finite")
        if isinstance(self.rhs, PowerLawRhs):
            if self.rhs.q.shape != (self.dimension,):
                raise DomainError("power-law rhs dimension mismatch")
            if np.any(x0 <= 0.0):
                raise DomainError(
                    "power-law systems need strictly positive initial data "
                    "(non-integer powers of nonpositive values are undefined)"
                )
        x0.setflags(write=False)
        object.__setattr__(self, "initial_state", x0)


@dataclass(frozen=True)
class SolverConfig:
    T: float
    N: int
    overflow_threshold: float = 1e8

    def __post_init__(self):
        if not (self.T > 0.0):
            raise DomainError(f"horizon T must be positive, got {self.T}")
        if math.isinf(self.T):
            raise DomainError(f"horizon T must be finite, got {self.T}")
        try:
            n = operator.index(self.N)
        except TypeError:
            raise DomainError(f"step count N must be an int, got {self.N!r}") from None
        if n < 1:
            raise DomainError(f"step count N must be >= 1, got {n}")
        object.__setattr__(self, "N", n)
        if not (self.overflow_threshold > 0.0):
            raise DomainError("overflow threshold must be positive")


@dataclass(frozen=True)
class Completed:
    pass


@dataclass(frozen=True)
class Overflowed:
    step: int
    component: int


@dataclass(frozen=True)
class NonFinite:
    step: int


Status = Union[Completed, Overflowed, NonFinite]


@dataclass(frozen=True)
class Trajectory:
    """Grid times (k*h exactly), states row-per-step, termination status.

    On Overflowed the offending row is retained (its values are finite,
    just above the threshold); on NonFinite the trajectory ends at the
    last finite step and `status.step` names the failed one.
    """

    times: np.ndarray
    states: np.ndarray
    status: Status

    def __post_init__(self):
        self.times.setflags(write=False)
        self.states.setflags(write=False)


def corrector_weight_a(j: int, n: int, alpha: float) -> float:
    """Trapezoidal (corrector) weight a_{j,n+1}."""
    if not (0 <= j <= n):
        raise DomainError(f"need 0 <= j <= n, got j={j}, n={n}")
    if j == 0:
        return n ** (alpha + 1.0) - (n - alpha) * (n + 1.0) ** alpha
    m = n - j
    return (m + 2.0) ** (alpha + 1.0) + m ** (alpha + 1.0) - 2.0 * (m + 1.0) ** (alpha + 1.0)


def predictor_weight_b(j: int, n: int, alpha: float, h: float) -> float:
    """Rectangle (predictor) weight b_{j,n+1}."""
    if not (0 <= j <= n):
        raise DomainError(f"need 0 <= j <= n, got j={j}, n={n}")
    if not (h > 0.0):
        raise DomainError(f"step size must be positive, got {h}")
    return h ** alpha / alpha * ((n + 1.0 - j) ** alpha - (n - j) ** alpha)


def _weight_tables(N: int, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Predictor and corrector history weights for solve, without the h-factors.

    Returns c1r (len N+1) and c2r (len N), reversed so the history dots
    run on contiguous slices, and a0 (len N) with a0[n] = a_{0,n+1}, formed
    with the float operations of corrector_weight_a.
    """
    idx = np.arange(N + 2, dtype=float)
    pw_a = idx ** alpha
    pw_a1 = idx ** (alpha + 1.0)
    c1r = (pw_a[1:] - pw_a[:-1])[::-1].copy()
    c2r = (pw_a1[2:] + pw_a1[:-2] - 2.0 * pw_a1[1:-1])[::-1].copy()
    a0 = pw_a1[:N] - (idx[:N] - alpha) * pw_a[1:N + 1]
    return c1r, c2r, a0


def solve(spec: SystemSpec, config: SolverConfig) -> Trajectory:
    """Integrate the system on the uniform grid t_n = n*h, h = T/N.

    Stops early when any component exceeds the overflow threshold in
    magnitude (Overflowed) or a state or right-hand side stops being
    finite (NonFinite).
    """
    n_dim = spec.dimension
    N = config.N
    h = config.T / N
    alpha = spec.alpha
    thr = config.overflow_threshold
    # one scalar test per step: NaN and +-inf fail it even when thr is inf
    bound = min(thr, sys.float_info.max)

    f = spec.rhs
    x0 = spec.initial_state
    c1r, c2r, a0 = _weight_tables(N, alpha)
    pred_coef = h ** alpha / alpha / gamma(alpha)
    corr_coef = h ** alpha / gamma(alpha + 2.0)

    states = np.empty((N + 1, n_dim))
    fvals = np.empty((N + 1, n_dim))
    states[0] = x0

    def finish(last: int, status: Status) -> Trajectory:
        times = np.arange(last + 1, dtype=float) * h
        kept = states if last == N else states[: last + 1].copy()
        return Trajectory(times=times, states=kept, status=status)

    with np.errstate(all="ignore"):
        fv = f(0.0, states[0])
        if np.shape(fv) != (n_dim,):
            raise DomainError(f"rhs returned shape {np.shape(fv)}, expected ({n_dim},)")
        if not np.isfinite(fv).all():
            return finish(0, NonFinite(step=0))
        fvals[0] = fv

        for n in range(N):
            t_next = (n + 1) * h
            hist_p = c1r[N - n:] @ fvals[: n + 1]
            f_pred = f(t_next, x0 + pred_coef * hist_p)
            hist_c = a0[n] * fvals[0]
            if n >= 1:
                hist_c = hist_c + c2r[N - n:] @ fvals[1: n + 1]
            # a non-finite f_pred makes x_next non-finite: one check covers both
            x_next = x0 + corr_coef * (hist_c + f_pred)
            if not all(abs(v) <= bound for v in x_next.tolist()):
                if not np.isfinite(x_next).all():
                    return finish(n, NonFinite(step=n + 1))
                states[n + 1] = x_next
                over = np.abs(x_next) > thr
                return finish(n + 1, Overflowed(step=n + 1, component=int(np.argmax(over))))
            states[n + 1] = x_next
            if n + 1 < N:
                fv = f(t_next, x_next)
                if not np.isfinite(fv).all():
                    return finish(n + 1, NonFinite(step=n + 1))
                fvals[n + 1] = fv

    return finish(N, Completed())


def l1_caputo(samples: np.ndarray, alpha: float, h: float) -> np.ndarray:
    """Discrete Caputo derivative (L1 scheme) at the interior grid points.

    samples[k] = u(k*h); returns the derivative at t_1, ..., t_M where
    M = len(samples) - 1. Exact for affine u up to roundoff. Columns of a
    2-D input are treated as independent components.
    """
    u = np.asarray(samples, dtype=float)
    if u.shape[0] < 2:
        raise DomainError("l1_caputo needs at least 2 samples")
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if not (h > 0.0):
        raise DomainError(f"step size must be positive, got {h}")
    m = u.shape[0] - 1
    g = np.arange(1, m + 1, dtype=float) ** (1.0 - alpha)
    g = np.concatenate(([g[0]], g[1:] - g[:-1]))  # g[m] = (m+1)^(1-a) - m^(1-a)
    coef = h ** -alpha / gamma(2.0 - alpha)
    du = np.diff(u.reshape(m + 1, -1), axis=0)
    out = np.empty_like(du)
    for c in range(du.shape[1]):
        out[:, c] = np.convolve(du[:, c], g)[:m]
    return (coef * out).reshape((m,) + u.shape[1:])
