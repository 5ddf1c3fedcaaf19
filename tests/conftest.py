"""Shared fixtures for the expensive end-to-end runs.

The twelve benchmark detection ladders, the fixed-grid threshold sweep,
and one captured reproduce run dominate suite runtime, so each is
computed once per session and shared. A terminal-summary hook prints one
line per acceptance criterion based on the recorded test outcomes.
"""

from __future__ import annotations

import io
import math
import re
import time
from contextlib import redirect_stdout
from dataclasses import replace

import pytest

from fracburst import (
    RefinementPolicy,
    crossing_time,
    detect,
    detection_scenario,
    system_spec,
)

BENCH_ALPHAS = (0.1, 0.4, 0.6, 0.9)
BENCH_EXAMPLES = (1, 2, 3)

# Reference values for the benchmark tables (truncated to the published
# precision). Bounds reproduce to within 5e-3; the blow-up times are
# graph reads with a 15 percent comparison band.
TAU_REF = {
    (1, 0.1): 0.720, (1, 0.4): 0.998, (1, 0.6): 1.169, (1, 0.9): 1.415,
    (2, 0.1): 8.899, (2, 0.4): 6.333, (2, 0.6): 7.297, (2, 0.9): 8.948,
    (3, 0.1): 1.228, (3, 0.4): 1.551, (3, 0.6): 1.726, (3, 0.9): 1.967,
}
LAMBDA_REF = {0.1: -0.802, 0.4: -0.358, 0.6: -0.083, 0.9: 0.315}
TNUM_REF = {
    (1, 0.4): 0.28, (1, 0.6): 0.44, (1, 0.9): 0.67,
    (2, 0.1): 0.35, (2, 0.4): 3.8, (2, 0.6): 5.1, (2, 0.9): 6.9,
    (3, 0.1): 0.019, (3, 0.4): 0.11, (3, 0.6): 0.21, (3, 0.9): 0.42,
}
# source-table inconsistency: the excluded row's two candidate readings
TNUM_FLAG_CANDIDATES = (0.085, 0.85)
# scenarios whose detected time sits outside the 15 percent band of the
# graph read; the deviation bands below pin today's behavior exactly
EXPECTED_TNUM_MISSES = {
    (2, 0.1): (0.30, 0.45),
    (2, 0.4): (0.15, 0.25),
    (2, 0.9): (0.15, 0.25),
}


@pytest.fixture(scope="session")
def linear_oracle_data():
    """Errors of the scheme on D^alpha u = u, u(0)=1, T=1, N=2^12.

    The exact solution E_alpha(t^alpha) is evaluated at every grid point
    with the package's own series; the guaranteed 4e-11 evaluation error
    is negligible against the 1e-4 comparison scale. Computed once: the
    series evaluation dominates (about 65 s for the three alphas, 4097
    calls each, on a 2-core x86 machine).
    """
    import numpy as np

    from fracburst import SolverConfig, SystemSpec, mittag_leffler, solve

    rhs = lambda t, x: x
    out = {}
    for alpha in (0.3, 0.5, 0.8):
        spec = SystemSpec(alpha=alpha, dimension=1, rhs=rhs,
                          initial_state=np.array([1.0]))
        traj = solve(spec, SolverConfig(T=1.0, N=4096))
        exact = np.array(
            [mittag_leffler(alpha, 1.0, float(t) ** alpha) for t in traj.times]
        )
        out[alpha] = float(np.max(np.abs(traj.states[:, 0] - exact)))

    # classical limit: alpha=1 collapses to one-step Adams (trapezoidal
    # PECE); measure the empirical order against e^t between 2^8 and 2^12
    errs = {}
    for n in (256, 4096):
        spec = SystemSpec(alpha=1.0, dimension=1, rhs=rhs,
                          initial_state=np.array([1.0]))
        traj = solve(spec, SolverConfig(T=1.0, N=n))
        errs[n] = float(np.max(np.abs(traj.states[:, 0] - np.exp(traj.times))))
    out[1.0] = math.log2(errs[256] / errs[4096]) / 4.0
    return out


@pytest.fixture(scope="session")
def detection_rows():
    """(example, alpha) -> (scenario, detection result) plus total wall time."""
    rows = {}
    t0 = time.perf_counter()
    for example in BENCH_EXAMPLES:
        for alpha in BENCH_ALPHAS:
            scenario = detection_scenario(example, alpha)
            result = detect(
                system_spec(scenario.params),
                scenario.base_config,
                RefinementPolicy(),
            )
            rows[(example, alpha)] = (scenario, result)
    elapsed = time.perf_counter() - t0
    return rows, elapsed


@pytest.fixture(scope="session")
def robustness_deltas():
    """Threshold sensitivity on one fixed fine grid.

    (example, alpha) -> (|t_num(1e10) - t_num(1e6)|, h). budget=0 pins a
    single N=2^16 grid so the numbers isolate threshold sensitivity from
    the refinement ladder's early-stopping level. Each row is solved once,
    at 1e10: the solver stops when the largest component passes its
    threshold, so the 1e10 trajectory equals the 1e6 one up to the 1e6
    stop and holds the 1e6 crossing of the component sum.
    """
    n_fixed = 65536
    out = {}
    for example in BENCH_EXAMPLES:
        for alpha in BENCH_ALPHAS:
            scenario = detection_scenario(example, alpha, base_n=n_fixed)
            config = replace(scenario.base_config, overflow_threshold=1e10)
            report = detect(system_spec(scenario.params), config, RefinementPolicy(0))
            t_num_1e6 = crossing_time(report.trajectory, 1e6)
            h = scenario.base_config.T / n_fixed
            out[(example, alpha)] = (abs(report.t_num - t_num_1e6), h)
    return out


@pytest.fixture(scope="session")
def reproduce_run(tmp_path_factory):
    """One cmd_reproduce run: (stdout text, out_dir, exit code, wall time)."""
    from fracburst import cli

    out_dir = tmp_path_factory.mktemp("reproduce")
    buf = io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(buf):
        code = cli.cmd_reproduce(out_dir=out_dir)
    elapsed = time.perf_counter() - t0
    return buf.getvalue(), out_dir, code, elapsed


def parse_reproduce_tables(text: str) -> dict:
    """(example, alpha) -> row dict from the printed reproduce tables."""
    rows = {}
    example = None
    for line in text.splitlines():
        header = re.match(r"Example (\d+)$", line.strip())
        if header:
            example = int(header.group(1))
            continue
        if example is None or not line.startswith("  "):
            continue
        cells = line.split()
        if not cells or cells[0] in ("alpha",):
            continue
        try:
            alpha = float(cells[0])
        except ValueError:
            continue
        flagged = cells[-1] == "*"
        if flagged:
            cells = cells[:-1]
        lambda_m = None
        rest = cells[1:]
        if example == 1:
            lambda_m, rest = rest[0], rest[1:]
        if rest[0] == "error":
            row = {"t_num": None, "tau_ub": None, "verdict": "error"}
        elif rest[0] == "no":  # "no crossing" splits into two tokens
            row = {"t_num": None, "tau_ub": float(rest[2]), "verdict": rest[3]}
        else:
            row = {"t_num": float(rest[0]), "tau_ub": float(rest[1]), "verdict": rest[2]}
        row["lambda_m"] = None if lambda_m in (None, "-") else float(lambda_m)
        row["flagged"] = flagged
        rows[(example, alpha)] = row
    return rows


@pytest.fixture(scope="session")
def reproduce_tables(reproduce_run):
    text, _, _, _ = reproduce_run
    return parse_reproduce_tables(text)


_CRITERIA = {
    1: "bound tables match all 12 reference cells within 5e-3, under 1 s",
    2: "minimizer table matches the 4 reference lambda_m values within 5e-3",
    3: "detected blow-up times within 15% of the reference values (11-of-12 bar)",
    4: "soundness: t_num < tau_ub at every refinement level of every scenario",
    5: "solver matches the linear-equation oracle (1e-4 bar; order 1.9 at alpha=1)",
    6: "manufactured-solution convergence order >= min(1+alpha,2) - 0.2",
    7: "discrete power inequality holds at all interior points with 10h slack",
    8: "special-function identity, positivity and recurrence grids",
    9: "applicability gate lists all violations; certificates have gamma_j >= 2",
}


def pytest_terminal_summary(terminalreporter):
    outcomes = {}
    for status in ("passed", "failed", "error", "xfailed", "xpassed", "skipped"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            match = re.search(r"test_acceptance\.py::test_criterion_(\d+)", nodeid)
            if match:
                outcomes.setdefault(int(match.group(1)), []).append(status)
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_CRITERIA):
        seen = outcomes.get(num)
        if seen is None:
            terminalreporter.write_line(f"criterion {num}: NOT RUN")
            continue
        if "failed" in seen or "error" in seen or "xpassed" in seen:
            status = "FAIL"
        elif "xfailed" in seen:
            # the literal bar is unattainable and encoded as a strict xfail;
            # the companion test locks the attained behavior green
            status = "FAIL (expected: stated bar unattainable, attained subset green)"
        elif "skipped" in seen:
            status = "SKIP"
        else:
            status = "PASS"
        terminalreporter.write_line(f"criterion {num}: {status} - {_CRITERIA[num]}")
