"""Adams-Bashforth-Moulton predictor-corrector for Caputo systems.

One predictor (fractional rectangle rule) plus one corrector pass
(fractional trapezoid rule) per step, applied to all components together.
History sums are exact O(N^2) convolutions evaluated as dot products
against precomputed weight tables; right-hand-side values are cached so
each accepted state is evaluated once.

On 2-vectors the per-step cost is numpy call overhead, not arithmetic,
so each step is two BLAS dots over the history and two rhs calls. The
float arithmetic between them runs on Python floats from .tolist(), in
the IEEE order of the array expressions x0 + pred_coef * hist_p and
x0 + corr_coef * ((a0 * f0 + hist_c) + f_pred), so it rounds exactly as
they do. The stop test is one scalar pass, |x_k| <= min(threshold,
float max) for every component k: NaN and +-inf fail it even at an
infinite threshold, and only the step that fails it works out whether
the run ended NonFinite or Overflowed.

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

__all__ = [
    "SystemSpec",
    "SolverConfig",
    "Completed",
    "Overflowed",
    "NonFinite",
    "Status",
    "Trajectory",
    "solve",
    "l1_caputo",
]


@dataclass(frozen=True)
class SystemSpec:
    alpha: float
    dimension: int
    rhs: Callable[[float, np.ndarray], np.ndarray]
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


def _weight_tables(N: int, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Predictor and corrector history weights for solve, without the h-factors.

    With m = n - j, the rectangle weight b_{j,n+1} is (m+1)^a - m^a and the
    trapezoid weight a_{j,n+1} (0 < j <= n) is (m+2)^(a+1) + m^(a+1) -
    2 (m+1)^(a+1). Returns c1r (len N+1) and c2r (len N) of these, reversed
    so the history dots run on contiguous slices, and a0 (len N) with
    a0[n] = a_{0,n+1} = n^(a+1) - (n - a) (n+1)^a.
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
    # one scalar test per step: NaN and +-inf fail it even when thr is inf.
    # bound is a float, so bound.__ge__ answers for an int threshold too, and
    # the largest float <= thr, so |x| <= bound reads exactly as |x| <= thr
    thr = config.overflow_threshold
    bound = float(min(thr, sys.float_info.max))
    if bound > thr:
        bound = math.nextafter(bound, 0.0)

    f = spec.rhs
    x0 = spec.initial_state
    c1r, c2r, a0 = _weight_tables(N, alpha)
    # Gamma(a + 1) = a Gamma(a) and Gamma(a + 2) lie in [0.88, 2] for a in (0, 1],
    # so neither overflows where Gamma(a) of a subnormal a would
    pred_coef = h ** alpha / math.gamma(alpha + 1.0)
    corr_coef = h ** alpha / math.gamma(alpha + 2.0)

    states = np.empty((N + 1, n_dim))
    fvals = np.empty((N + 1, n_dim))
    states[0] = x0

    def finish(last: int, status: Status) -> Trajectory:
        times = np.arange(last + 1, dtype=float) * h
        kept = states if last == N else states[: last + 1].copy()
        return Trajectory(times=times, states=kept, status=status)

    x0s = x0.tolist()
    a0s = a0.tolist()
    with np.errstate(all="ignore"):
        # a copy, so an rhs that works on its argument in place keeps row 0
        fv = f(0.0, x0.copy())
        if np.shape(fv) != (n_dim,):
            raise DomainError(f"rhs returned shape {np.shape(fv)}, expected ({n_dim},)")
        if not np.isfinite(fv).all():
            return finish(0, NonFinite(step=0))
        fvals[0] = fv
        f0 = fvals[0].tolist()

        for n in range(N):
            t_next = (n + 1) * h
            hist_p = c1r[N - n:].dot(fvals[: n + 1]).tolist()
            # the predicted rhs waits in row n + 1 until the corrected one replaces it
            fvals[n + 1] = f(t_next, np.array([x + pred_coef * p for x, p in zip(x0s, hist_p)]))
            hist_c = c2r[N - n:].dot(fvals[1: n + 1]).tolist()
            a = a0s[n]
            # a non-finite predicted rhs makes x_next non-finite: one check covers both
            x_next = [x + corr_coef * ((a * g + c) + p)
                      for x, g, c, p in zip(x0s, f0, hist_c, fvals[n + 1].tolist())]
            if not all(map(bound.__ge__, map(abs, x_next))):
                if not np.isfinite(x_next).all():
                    return finish(n, NonFinite(step=n + 1))
                states[n + 1] = x_next
                over = np.abs(x_next) > bound
                return finish(n + 1, Overflowed(step=n + 1, component=int(np.argmax(over))))
            states[n + 1] = x_next
            if n + 1 < N:
                fvals[n + 1] = f(t_next, np.array(x_next))
                if not all(map(math.isfinite, fvals[n + 1].tolist())):
                    return finish(n + 1, NonFinite(step=n + 1))

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
    coef = h ** -alpha / math.gamma(2.0 - alpha)
    du = np.diff(u.reshape(m + 1, -1), axis=0)
    out = np.empty_like(du)
    for c in range(du.shape[1]):
        out[:, c] = np.convolve(du[:, c], g)[:m]
    return (coef * out).reshape((m,) + u.shape[1:])
