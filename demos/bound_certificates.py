#!/usr/bin/env python3
"""Blow-up bound certificates for the three built-in systems.

Prints the full certificate for each benchmark scenario: which branch of
the reduction applies, the derived scalar problem (gamma_j, p_j, q_j),
the minimizer of the gamma-ratio curve B(lambda), and the resulting
upper bound tau_ub on the blow-up time. Ends with a system the theorem
rejects and with the closed-form scaling of the bound in the initial
datum.
"""

from __future__ import annotations

from fracburst import (
    EXAMPLE_ALPHAS,
    NotApplicableError,
    PowerLawParams,
    ScalarBoundProblem,
    example_params,
    tau_bound,
    theorem_bound,
)


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def main() -> None:
    for example in (1, 2, 3):
        params = example_params(example, EXAMPLE_ALPHAS[0])
        banner(f"example {example}:  q=({params.q1:g}, {params.q2:g}), "
               f"p=[[{params.p11:g}, {params.p12:g}], "
               f"[{params.p21:g}, {params.p22:g}]], "
               f"u0=({params.x0:g}, {params.y0:g})")
        header = ("alpha", "branch", "j", "gamma_j", "p_j", "lambda_m", "B_min", "tau_ub")
        widths = (7, 17, 3, 9, 9, 11, 13, 10)
        print("  " + "".join(f"{h:>{w}s}" for h, w in zip(header, widths)))
        for alpha in EXAMPLE_ALPHAS:
            cert = theorem_bound(example_params(example, alpha))
            cells = (f"{alpha:g}", cert.branch.name, f"{cert.j}",
                     f"{cert.gamma_j:.4f}", f"{cert.problem.p:.4f}",
                     f"{cert.scalar.lambda_m:.6f}", f"{cert.scalar.B_min:.6f}",
                     f"{cert.tau_ub:.6f}")
            print("  " + "".join(f"{c:>{w}s}" for c, w in zip(cells, widths)))

    banner("a system outside the theorem")
    all_ones = PowerLawParams(alpha=0.5, q1=1.0, q2=1.0, p11=1.0, p12=1.0,
                              p21=1.0, p22=1.0, x0=1.0, y0=1.0)
    try:
        theorem_bound(all_ones)
        print("unexpected: certificate issued")
    except NotApplicableError as exc:
        print("all exponents equal to one is rejected, with every violated")
        print("hypothesis listed:")
        for violation in exc.violations:
            print(f"  - {violation}")

    banner("scaling in the initial datum")
    print("tau(c u0) = tau(u0) c^(-p / (p_tilde (alpha + q))), so doubling the")
    print("datum shrinks the bound by a known factor; the minimizer is unchanged.")
    base = ScalarBoundProblem(alpha=0.5, u0=1.0, q=0.5, p=3.0)
    r0 = tau_bound(base)
    print(f"  u0=1:  tau_ub = {r0.tau_ub:.6f}   lambda_m = {r0.lambda_m:.6f}")
    for c in (2.0, 10.0):
        scaled = ScalarBoundProblem(alpha=0.5, u0=c, q=0.5, p=3.0)
        r = tau_bound(scaled)
        p_tilde = 3.0 / 2.0
        predicted = r0.tau_ub * c ** (-3.0 / (p_tilde * (0.5 + 0.5)))
        print(f"  u0={c:g}:  tau_ub = {r.tau_ub:.6f}   predicted {predicted:.6f}   "
              f"lambda_m = {r.lambda_m:.6f}")


if __name__ == "__main__":
    main()
