"""Command-line front end.

Subcommands: bound (certificate per alpha), solve (trajectory CSV + plot
script), detect (blow-up time report), b-curve (B(lambda) CSV + plot
script), reproduce (the three benchmark tables plus all trajectory CSVs).

Exit codes: 0 success, 2 configuration error, 3 blow-up theorem not
applicable, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .bounds import (
    BoundCertificate,
    b_domain_lower,
    big_B,
    theorem_bound,
)
from .config import ScenarioConfig, load_config
from .detect import detect
from .errors import (
    ConfigError,
    DomainError,
    FracburstError,
    NotApplicableError,
    OverflowRangeError,
)
from .scenarios import EXAMPLE_ALPHAS, detection_scenario, system_spec
from .solver import Completed, Overflowed, SolverConfig, Trajectory, solve

__all__ = ["main", "cmd_bound", "cmd_solve", "cmd_detect", "cmd_b_curve", "cmd_reproduce"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_APPLICABLE = 3
EXIT_NUMERIC = 4

_B_CURVE_POINTS = 400


def _solver_config(cfg: ScenarioConfig) -> SolverConfig:
    if cfg.solver is None:
        raise ConfigError("this command needs a [solver] section with T")
    return cfg.solver


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _write_columns(path: Path, header: str, *columns: np.ndarray) -> None:
    np.savetxt(path, np.column_stack(columns), fmt="%.11e", delimiter=",",
               header=header, comments="")


def _write_csv(path: Path, times: np.ndarray, states: np.ndarray) -> None:
    header = "t," + ",".join(f"x{i + 1}" for i in range(states.shape[1]))
    _write_columns(path, header, times, states)


def _write_plot(csv_path: Path, xlabel: str, n_series: int, *extra: str) -> None:
    """Write csv_path.plot: gnuplot draws columns 2 to n_series + 1 against 1.

    The extra commands go before the plot line.
    """
    series = ", ".join(
        [f"'{csv_path.name}' using 1:2 with lines"]
        + [f"'' using 1:{i + 2} with lines" for i in range(1, n_series)]
    )
    script = "\n".join([
        "set datafile separator ','",
        "set key autotitle columnhead",
        f"set xlabel '{xlabel}'",
        *extra,
        f"plot {series}",
        "",
    ])
    with open(csv_path.with_suffix(".plot"), "w", newline="") as fh:
        fh.write(script)


def _print_certificate(cert: BoundCertificate) -> None:
    branch = cert.branch.name
    print(f"  branch   = {branch} (j = {cert.j})")
    print(f"  gamma_j  = {_fmt(cert.gamma_j)}")
    print(f"  p_j      = {_fmt(cert.p_j)}")
    print(f"  lambda_m = {_fmt(cert.scalar.lambda_m)}")
    print(f"  tau_ub   = {_fmt(cert.tau_ub)}")


def cmd_bound(cfg: ScenarioConfig) -> int:
    code = EXIT_OK
    for params in cfg.systems:
        print(f"alpha = {params.alpha:g}")
        try:
            cert = theorem_bound(params)
        except (NotApplicableError, DomainError) as exc:
            print(f"  not applicable: {exc}")
            for violation in getattr(exc, "violations", ()):
                print(f"    {violation}")
            code = EXIT_NOT_APPLICABLE
            continue
        _print_certificate(cert)
    return code


def _status_line(alpha: float, trajectory: Trajectory) -> str:
    status = trajectory.status
    rows = trajectory.states.shape[0]
    if isinstance(status, Completed):
        return (f"alpha={alpha:g}: completed, final t = {_fmt(trajectory.times[-1])}, "
                f"{rows} rows")
    if isinstance(status, Overflowed):
        return (f"alpha={alpha:g}: overflowed at t = {_fmt(trajectory.times[-1])} "
                f"(component {status.component + 1}), {rows} rows")
    return f"alpha={alpha:g}: non-finite at step {status.step}, {rows} rows"


def cmd_solve(cfg: ScenarioConfig, out_dir: Path = Path(".")) -> int:
    solver_cfg = _solver_config(cfg)
    for params in cfg.systems:
        alpha = params.alpha
        trajectory = solve(system_spec(params), solver_cfg)
        csv_path = out_dir / f"{cfg.name}_alpha{alpha:g}.csv"
        _write_csv(csv_path, trajectory.times, trajectory.states)
        _write_plot(csv_path, "t", trajectory.states.shape[1])
        print(_status_line(alpha, trajectory))
        print(f"  wrote {csv_path} and {csv_path.with_suffix('.plot')}")
    return EXIT_OK


def cmd_detect(cfg: ScenarioConfig) -> int:
    solver_cfg = _solver_config(cfg)
    for params in cfg.systems:
        alpha = params.alpha
        result = detect(system_spec(params), solver_cfg, cfg.policy)
        if result.t_num is None:
            print(f"alpha={alpha:g}: no crossing in [0, {solver_cfg.T:g}] "
                  f"at finest N = {result.runs[-1][0]}")
            continue
        state = "converged" if result.converged else "budget exhausted"
        print(f"alpha={alpha:g}: t_num = {_fmt(result.t_num)} "
              f"+/- {result.uncertainty:.3g} ({state})")
        for n, crossing in result.runs:
            label = "no crossing" if crossing is None else f"crossing t = {_fmt(crossing)}"
            print(f"  N={n}: {label}")
    return EXIT_OK


def cmd_b_curve(
    cfg: ScenarioConfig,
    lambda_min: Optional[float] = None,
    lambda_max: Optional[float] = None,
    out_dir: Path = Path("."),
) -> int:
    code = EXIT_OK
    for params in cfg.systems:
        alpha = params.alpha
        try:
            cert = theorem_bound(params)
        except (NotApplicableError, DomainError) as exc:
            print(f"alpha={alpha:g}: not applicable: {exc}")
            code = EXIT_NOT_APPLICABLE
            continue
        pt, q = cert.p_tilde_j, cert.q_j
        lam_m = cert.scalar.lambda_m
        lo = b_domain_lower(alpha, pt, q)
        lmin = lambda_min if lambda_min is not None else lo + 1e-3 * max(1.0, abs(lo))
        lmax = lambda_max if lambda_max is not None else lam_m + 1.0
        if not (lo < lmin < lmax < np.inf):
            raise DomainError(
                f"lambda range [{lmin}, {lmax}] must be finite, increasing and above "
                f"the domain boundary {lo:.6g}"
            )
        grid = np.linspace(lmin, lmax, _B_CURVE_POINTS)
        values = []
        for lam in grid:
            try:
                values.append(big_B(float(lam), alpha, pt, q))
            except OverflowRangeError:
                values.append(float("inf"))
        csv_path = out_dir / f"{cfg.name}_alpha{alpha:g}_b.csv"
        _write_columns(csv_path, "lambda,B", grid, values)
        _write_plot(csv_path, "lambda", 1,
                    f"set arrow from {lam_m:.11e}, graph 0 to {lam_m:.11e}, "
                    "graph 1 nohead dashtype 2")
        print(f"alpha={alpha:g}: lambda_m = {_fmt(lam_m)}, B_min = {_fmt(cert.scalar.B_min)}")
        print(f"  wrote {csv_path} and {csv_path.with_suffix('.plot')}")
    return code


@dataclass
class _ReproRow:
    example: int
    alpha: float
    lambda_m: Optional[float] = None
    t_num: Optional[float] = None
    tau_ub: Optional[float] = None
    error: Optional[str] = None


_FLAGGED_ROW = (1, 0.1)
_FLAG_NOTE = ("flagged: source table reads 0.085 but its figure reads 0.85; "
              "detected value shown, row excluded from the pass tally")


def _reproduce_row(example: int, alpha: float, base_n: int, out_dir: Path) -> _ReproRow:
    row = _ReproRow(example=example, alpha=alpha)
    try:
        scenario = detection_scenario(example, alpha, base_n=base_n)
        row.tau_ub = scenario.certificate.tau_ub
        row.lambda_m = scenario.certificate.scalar.lambda_m
        result = detect(system_spec(scenario.params), scenario.base_config)
        row.t_num = result.t_num
        trajectory = result.trajectory
        csv_path = out_dir / f"{scenario.name}.csv"
        _write_csv(csv_path, trajectory.times, trajectory.states)
        _write_plot(csv_path, "t", trajectory.states.shape[1])
    except FracburstError as exc:
        row.error = f"{type(exc).__name__}: {exc}"
    return row


def cmd_reproduce(out_dir: Path = Path("."), base_n: int = 4096) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    by_example = {
        example: [_reproduce_row(example, alpha, base_n, out_dir) for alpha in EXAMPLE_ALPHAS]
        for example in (1, 2, 3)
    }

    any_error = False
    for example, rows in by_example.items():
        with_lambda = example == 1
        print(f"Example {example}")
        header = ["alpha"] + (["lambda_m"] if with_lambda else []) + ["t_num", "tau_ub", "t_num < tau_ub"]
        print("  " + "  ".join(f"{h:>14s}" for h in header))
        for row in rows:
            cells = [f"{row.alpha:g}"]
            if with_lambda:
                cells.append("-" if row.lambda_m is None else _fmt(row.lambda_m))
            if row.error is not None:
                cells += ["error", "-", "-"]
                any_error = True
            elif row.t_num is None:
                cells += ["no crossing", _fmt(row.tau_ub), "-"]
            else:
                sound = row.t_num < row.tau_ub
                cells += [_fmt(row.t_num), _fmt(row.tau_ub), "pass" if sound else "FAIL"]
            line = "  " + "  ".join(f"{c:>14s}" for c in cells)
            if (row.example, row.alpha) == _FLAGGED_ROW:
                line += "  *"
            print(line)
            if row.error is not None:
                print(f"    {row.error}")
        print()
    print(f"* {_FLAG_NOTE}")
    print(f"wrote trajectory CSVs and plot scripts to {out_dir}")
    return EXIT_NUMERIC if any_error else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracburst",
        description="Blow-up bounds and predictor-corrector solutions "
                    "for two-component Caputo power-law systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="print the blow-up bound certificate")
    p_bound.add_argument("config")

    p_solve = sub.add_parser("solve", help="integrate and write trajectory CSVs")
    p_solve.add_argument("config")

    p_detect = sub.add_parser("detect", help="estimate the numerical blow-up time")
    p_detect.add_argument("config")

    p_curve = sub.add_parser("b-curve", help="sample the B(lambda) curve to CSV")
    p_curve.add_argument("config")
    p_curve.add_argument("--lambda-min", type=float, default=None)
    p_curve.add_argument("--lambda-max", type=float, default=None)

    p_repro = sub.add_parser("reproduce", help="rebuild the three benchmark tables")
    p_repro.add_argument("--out-dir", type=Path, default=Path("."))
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "reproduce":
            return cmd_reproduce(out_dir=args.out_dir)
        cfg = load_config(args.config)
        if args.command == "bound":
            return cmd_bound(cfg)
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "detect":
            return cmd_detect(cfg)
        return cmd_b_curve(cfg, args.lambda_min, args.lambda_max)
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NotApplicableError as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return EXIT_NOT_APPLICABLE
    except FracburstError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
