"""Built-in two-component benchmark scenarios and their detection settings.

Three power-law systems, each swept over four fractional orders. The
detection horizon is set a few percent above the theoretical bound so a
sound detector always has room to find the crossing below it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import BoundCertificate, PowerLawParams, theorem_bound
from .errors import DomainError
from .solver import SolverConfig, SystemSpec

__all__ = [
    "EXAMPLE_ALPHAS",
    "Scenario",
    "example_params",
    "system_spec",
    "detection_scenario",
]

EXAMPLE_ALPHAS = (0.1, 0.4, 0.6, 0.9)

# (q1, q2, p11, p12, p21, p22, x0, y0)
_EXAMPLES = {
    1: (0.5, 1.5, 1.5, 3.6, 0.5, 2.4, 1.0, 1.2),
    2: (0.0, 0.0, 0.0, 3.2, 0.2, 0.5, 0.5, 0.5),
    3: (0.5, 0.5, 1.0, 3.0, 2.0, 4.0, 1.0, 1.0),
}

# horizon margin over tau_ub; crossings land below tau_ub, so 5% headroom
# keeps the soundness comparison meaningful without wasting grid points
_HORIZON_MARGIN = 1.05


@dataclass(frozen=True)
class Scenario:
    name: str
    params: PowerLawParams
    certificate: BoundCertificate
    base_config: SolverConfig


def example_params(example: int, alpha: float) -> PowerLawParams:
    if example not in _EXAMPLES:
        raise DomainError(f"unknown example {example}, expected 1, 2 or 3")
    q1, q2, p11, p12, p21, p22, x0, y0 = _EXAMPLES[example]
    return PowerLawParams(alpha=alpha, q1=q1, q2=q2, p11=p11, p12=p12,
                          p21=p21, p22=p22, x0=x0, y0=y0)


def system_spec(params: PowerLawParams) -> SystemSpec:
    """Solver system for a two-component parameter set.

    Equation i reads f_i(t, x) = t^(q_i) * prod_k x_k^(p_ik): row i of the
    exponent matrix is (p_i1, p_i2).
    """
    # the six powers t^q1, x^p11, y^p12, t^q2, x^p21, y^p22 in one numpy call;
    # numpy's power, not Python's, which rounds differently and raises on overflow
    exponents = np.array([params.q1, params.p11, params.p12,
                          params.q2, params.p21, params.p22], dtype=float)

    def rhs(t, state):
        x, y = state.tolist()
        a, b, c, d, e, f = (np.array((t, x, y, t, x, y)) ** exponents).tolist()
        return np.array((a * (b * c), d * (e * f)))

    return SystemSpec(alpha=params.alpha, dimension=2, rhs=rhs,
                      initial_state=np.array([params.x0, params.y0]))


def detection_scenario(example: int, alpha: float, base_n: int = 4096) -> Scenario:
    """Scenario with horizon slightly above the certified blow-up bound.

    The crossing threshold is the SolverConfig default; run it with the
    default RefinementPolicy.
    """
    params = example_params(example, alpha)
    cert = theorem_bound(params)
    config = SolverConfig(T=_HORIZON_MARGIN * cert.tau_ub, N=base_n)
    return Scenario(
        name=f"example{example}_alpha{alpha:g}",
        params=params,
        certificate=cert,
        base_config=config,
    )
