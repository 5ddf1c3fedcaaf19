"""Numerical blow-up time extraction by threshold crossing and grid doubling.

The crossing time is the first grid point where the component-magnitude sum
exceeds the configured overflow threshold. The grid is doubled until the
crossing settles to within one coarse cell or the refinement budget runs
out; the finest crossing and its step size are reported. The stop test
compares integer grid indices, never float times: the crossing index k on
N points against k' on N/2 points stops the ladder when |k - 2k'| <= 2,
so the rounding of T/N cannot decide it.
Every result also carries the finest level's trajectory, so a caller that
wants the trajectory itself need not solve that grid again.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import DomainError, NonConvergenceError
from .solver import NonFinite, SolverConfig, SystemSpec, Trajectory, solve

__all__ = [
    "RefinementPolicy",
    "DetectionReport",
    "crossing_time",
    "detect",
]


@dataclass(frozen=True)
class RefinementPolicy:
    """budget = maximum number of grid doublings after the base run."""

    budget: int = 5

    def __post_init__(self):
        message = f"refinement budget must be a nonnegative int, got {self.budget!r}"
        try:
            budget = operator.index(self.budget)
        except TypeError:
            raise DomainError(message) from None
        if budget < 0:
            raise DomainError(message)
        object.__setattr__(self, "budget", budget)


@dataclass(frozen=True)
class DetectionReport:
    """t_num is None when the finest grid does not cross the threshold."""

    t_num: Optional[float]
    uncertainty: float
    runs: tuple[tuple[int, Optional[float]], ...]
    converged: bool
    trajectory: Trajectory = field(compare=False, repr=False)


def _crossing_index(trajectory: Trajectory, threshold: float) -> Optional[int]:
    """First grid index where sum_i |x_i| exceeds threshold, None if never."""
    hit = np.abs(trajectory.states).sum(axis=1) > threshold
    if not np.any(hit):
        return None
    k = int(np.argmax(hit))
    if k == 0:
        raise DomainError("initial state already exceeds the detection threshold")
    return k


def crossing_time(trajectory: Trajectory, threshold: float) -> Optional[float]:
    """First grid time where sum_i |x_i| > threshold (pass a SolverConfig's), None if never."""
    k = _crossing_index(trajectory, threshold)
    return None if k is None else float(trajectory.times[k])


def detect(
    spec: SystemSpec,
    base_config: SolverConfig,
    policy: RefinementPolicy = RefinementPolicy(),
) -> DetectionReport:
    """Estimate the blow-up time of spec's system on [0, T].

    Runs solve at N, 2N, 4N, ... and stops once the crossing moves by at
    most one coarse cell: with crossing index k on the finer grid and k'
    on the coarser one, when |k - 2k'| <= 2 (inclusive, compared as
    integers). A completed finest run with no crossing yields a report
    with t_num None and converged False rather than an error.
    """
    runs: list[tuple[int, Optional[float]]] = []
    prev_k: Optional[int] = None
    converged = False

    for level in range(policy.budget + 1):
        n = base_config.N * 2 ** level
        trajectory = solve(spec, replace(base_config, N=n))
        k = _crossing_index(trajectory, base_config.overflow_threshold)
        crossing = None if k is None else float(trajectory.times[k])
        runs.append((n, crossing))
        if k is not None and prev_k is not None and abs(k - 2 * prev_k) <= 2:
            converged = True
            break
        prev_k = k

    if crossing is None and isinstance(trajectory.status, NonFinite):
        raise NonConvergenceError(
            "trajectory lost finiteness before any threshold crossing; "
            "the system may be outside the representable range"
        )
    return DetectionReport(
        t_num=crossing,
        uncertainty=base_config.T / runs[-1][0],
        runs=tuple(runs),
        converged=converged,
        trajectory=trajectory,
    )
