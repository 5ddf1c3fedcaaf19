#!/usr/bin/env python3
"""End-to-end blow-up detection on one benchmark scenario.

Takes the third built-in system at alpha = 0.6 through the whole ladder:
certify the upper bound, watch a single solve overflow, refine the grid
until the threshold-crossing time settles, and check the detected time
against the certificate. Ends with the threshold-sensitivity experiment
that justifies reading the crossing as "numerical blow-up" rather than
"big number".
"""

from __future__ import annotations

from dataclasses import replace

from fracburst import (
    Overflowed,
    RefinementPolicy,
    detect,
    detection_scenario,
    solve,
    system_spec,
)


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def main() -> None:
    scenario = detection_scenario(3, 0.6)
    spec = system_spec(scenario.params)
    cert = scenario.certificate

    banner(f"{scenario.name}: the certificate")
    print(f"branch {cert.branch.name} applies with j = {cert.j}, "
          f"gamma_j = {cert.gamma_j:g}, p_j = {cert.p_j:g}")
    print(f"certified blow-up upper bound tau_ub = {cert.tau_ub:.6f}")
    print(f"detection horizon T = {scenario.base_config.T:.6f} "
          f"(a few percent above the bound)")

    banner("a single solve runs into the overflow guard")
    config = scenario.base_config
    traj = solve(spec, config)
    status = traj.status
    assert isinstance(status, Overflowed)
    t_stop = traj.times[status.step]
    print(f"N = {config.N}: overflow threshold {config.overflow_threshold:g} "
          f"tripped at step {status.step} (t = {t_stop:.6f})")
    print(f"last retained state: {traj.states[status.step]}")

    banner("grid-doubling refinement of the crossing time")
    report = detect(spec, config)
    for n, crossing in report.runs:
        label = "no crossing" if crossing is None else f"crossing t = {crossing:.8f}"
        print(f"  N = {n:6d}:  {label}")
    state = "converged" if report.converged else "budget exhausted"
    print(f"t_num = {report.t_num:.8f} +/- {report.uncertainty:.2e}  ({state})")

    banner("soundness against the certificate")
    print(f"t_num = {report.t_num:.6f}  <  tau_ub = {cert.tau_ub:.6f}: "
          f"{report.t_num < cert.tau_ub}")
    print("every level of the ladder sits below the bound:")
    for n, crossing in report.runs:
        if crossing is not None:
            print(f"  N = {n:6d}:  {crossing:.6f} < {cert.tau_ub:.6f}: "
                  f"{crossing < cert.tau_ub}")

    banner("the crossing time barely moves with the threshold")
    print("on one fixed fine grid, raising the threshold from 1e6 to 1e10")
    print("moves the crossing by at most a couple of grid cells, because the")
    print("solution covers four decades within a few steps near blow-up")
    n_fixed = 65536
    fixed = detection_scenario(3, 0.6, base_n=n_fixed)
    h = fixed.base_config.T / n_fixed
    crossings = {}
    for threshold in (1e6, 1e8, 1e10):
        config = replace(fixed.base_config, overflow_threshold=threshold)
        crossings[threshold] = detect(system_spec(fixed.params), config,
                                      RefinementPolicy(0)).t_num
        print(f"  threshold {threshold:.0e}:  crossing t = {crossings[threshold]:.8f}")
    spread = max(crossings.values()) - min(crossings.values())
    print(f"spread = {spread:.3e}  ({spread / h:.1f} grid cells of h = {h:.3e})")


if __name__ == "__main__":
    main()
