#!/usr/bin/env python3
"""Tour of the special-function layer: gamma and Mittag-Leffler.

Walks through the accuracy guarantees the rest of the package leans on:
the log-gamma recurrence, the exponential limit E_{1,1} = exp, the
series shift identity, positivity on the negative axis, and the
raise-instead-of-garbage policy once cancellation eats the working
precision. Runs in a few seconds, prints to stdout only.
"""

from __future__ import annotations

import math

import numpy as np

from fracburst import (
    NonConvergenceError,
    gamma,
    ln_gamma,
    mittag_leffler,
)


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def main() -> None:
    banner("gamma and log-gamma")
    print(f"gamma(0.5)            = {gamma(0.5):.15f}   (sqrt(pi) = {math.sqrt(math.pi):.15f})")
    print(f"gamma(5)              = {gamma(5.0):.1f}   (4! = 24)")
    print(f"ln_gamma(100)         = {ln_gamma(100.0):.12f}")
    xs = np.linspace(0.1, 50.0, 500)
    worst = max(abs(gamma(x + 1.0) - x * gamma(x)) / gamma(x + 1.0) for x in xs)
    print(f"recurrence gamma(x+1) = x gamma(x): worst relative error on "
          f"[0.1, 50] is {worst:.2e}")

    banner("the exponential limit")
    ts = np.linspace(-10.0, 10.0, 100)
    worst = max(abs(mittag_leffler(1.0, 1.0, float(t)) - math.exp(t)) / math.exp(t)
                for t in ts)
    print(f"E_1,1(t) vs exp(t) on [-10, 10]: worst relative error {worst:.2e}")

    banner("series shift identity  E(a,b; t) = 1/gamma(b) + t E(a, b+a; t)")
    for alpha, beta, t in ((0.5, 1.0, -2.0), (0.9, 0.5, 3.0), (0.3, 2.0, 1.5)):
        lhs = mittag_leffler(alpha, beta, t)
        rhs = 1.0 / gamma(beta) + t * mittag_leffler(alpha, beta + alpha, t)
        print(f"alpha={alpha}, beta={beta}, t={t:5.1f}:  lhs={lhs:.15e}  "
              f"rel diff={abs(lhs - rhs) / abs(lhs):.2e}")

    banner("negative axis: positive, decreasing, and guaranteed digits")
    print("E_alpha(-t) stays positive and decreasing; once alternating-series")
    print("cancellation would leave garbage, the evaluation raises instead.")
    for alpha in (0.4, 0.6, 0.9):
        row = []
        for t in (0.0, 1.0, 2.0, 4.0, 8.0, 16.0):
            try:
                row.append(f"{mittag_leffler(alpha, 1.0, -t):9.6f}")
            except NonConvergenceError:
                row.append("  raised ")
        print(f"  alpha={alpha}:  " + "  ".join(row))
    try:
        mittag_leffler(0.4, 1.0, -8.0)
    except NonConvergenceError as exc:
        print(f"the raise carries the reason, e.g. alpha=0.4, t=-8:")
        print(f"  {exc}")


if __name__ == "__main__":
    main()
