"""The four benchmark workloads.

Each workload makes its inputs from the seed, runs one round of operations
(the timed part), and checks the outputs in two steps: `check_round` after
every round, with nothing heavier than numpy, and `check_final` once after
the timed part, against the references that need scipy or mpmath. Every
round repeats the same operations, so each run attempts whole rounds and
the share of failed operations is the same in every run.

The program is called through module attributes (`fb.solve`, `cli.cmd_reproduce`)
so that the traced run can wrap those calls from outside the program.
"""

from __future__ import annotations

import io
import itertools
import math
import re
from contextlib import redirect_stdout
from pathlib import Path
from typing import NamedTuple

import numpy as np

import fracburst as fb
from fracburst import cli

import references as ref

# Horizon margin over tau_ub, the same as the package's built-in scenarios.
HORIZON_MARGIN = 1.05


class Workload:
    """Inputs from the seed, one timed round, and the checks on its outputs."""

    name = ""

    def warm_up(self):
        raise NotImplementedError

    def run_round(self) -> "Outcome":
        raise NotImplementedError

    def check_round(self, out: "Outcome") -> list[str]:
        return []

    def check_final(self, outs: list["Outcome"]) -> list[str]:
        return []

    def layer_extras(self) -> dict[str, float]:
        return {"cli.csv_mb": 0.0}


class Outcome(NamedTuple):
    """What one round produced: counts plus the outputs to check."""

    attempted: int
    failed: int
    data: object


# ---------------------------------------------------------------------------
# reproduce: the paper's tables as a user makes them

_ROW = re.compile(r"^\s+(\d\S*)\s+(.*?)(\s+\*)?$")


def parse_tables(text: str) -> dict:
    """(example, alpha) -> {"lambda_m", "t_num", "tau_ub", "verdict"} from the printed tables."""
    rows, example = {}, None
    for line in text.splitlines():
        head = re.match(r"Example (\d)$", line.strip())
        if head:
            example = int(head.group(1))
            continue
        match = _ROW.match(line)
        if example is None or not match:
            continue
        cells = match.group(2).split()
        row = {"lambda_m": None, "t_num": None, "tau_ub": None, "verdict": None}
        if example == 1:
            row["lambda_m"] = None if cells[0] == "-" else float(cells[0])
            cells = cells[1:]
        if cells[0] == "error":
            row["verdict"] = "error"
        elif cells[0] == "no":
            row["tau_ub"], row["verdict"] = float(cells[2]), "no crossing"
        else:
            row["t_num"], row["tau_ub"], row["verdict"] = float(cells[0]), float(cells[1]), cells[2]
        rows[(example, float(match.group(1)))] = row
    return rows


def check_tables(rows: dict) -> list[str]:
    problems = []
    if set(rows) != set(ref.TAU_PUBLISHED):
        return [f"reproduce: table rows {sorted(rows)} are not the 12 published ones"]
    for key, row in rows.items():
        if row["verdict"] == "error":
            continue
        if abs(row["tau_ub"] - ref.TAU_PUBLISHED[key]) > ref.TABLE_TOL:
            problems.append(f"reproduce {key}: tau_ub {row['tau_ub']} vs published {ref.TAU_PUBLISHED[key]}")
        if key[0] == 1 and abs(row["lambda_m"] - ref.LAMBDA_PUBLISHED[key[1]]) > ref.TABLE_TOL:
            problems.append(f"reproduce {key}: lambda_m {row['lambda_m']} vs published {ref.LAMBDA_PUBLISHED[key[1]]}")
        if row["t_num"] is None or not row["t_num"] < row["tau_ub"] or row["verdict"] != "pass":
            problems.append(f"reproduce {key}: t_num {row['t_num']} is not below tau_ub {row['tau_ub']}")
        elif key in ref.TNUM_GRAPH_READ:
            read = ref.TNUM_GRAPH_READ[key]
            if abs(row["t_num"] - read) > ref.TNUM_BAND * read:
                problems.append(f"reproduce {key}: t_num {row['t_num']} outside 15% of graph read {read}")
    return problems


def check_csv(path: Path, horizon: float, initial: tuple[float, float], base_n: int) -> list[str]:
    """The CSV starts at the initial state, stays on the grid k*T/N and never drops below it."""
    with open(path) as fh:
        if fh.readline().strip() != "t,x1,x2":
            return [f"{path.name}: header is not t,x1,x2"]
        first = [float(c) for c in fh.readline().split(",")]
        if first != [0.0, *initial]:
            return [f"{path.name}: first row {first} is not (0, {initial[0]}, {initial[1]})"]
        second = fh.readline()
        if not second:
            return [f"{path.name}: has no step after the initial state"]
        n = round(horizon / float(second.split(",")[0]))
        if n < base_n or n % base_n or (n // base_n) & (n // base_n - 1):
            return [f"{path.name}: step count {n} is not a power-of-two multiple of {base_n}"]
        h = horizon / n
        for k, line in enumerate(itertools.chain([second], fh), start=1):
            t, x1, x2 = (float(c) for c in line.split(","))
            if abs(t - k * h) > 1e-11 * horizon:
                return [f"{path.name}: row {k} has t = {t!r}, grid says {k * h!r}"]
            if not (x1 >= initial[0] and x2 >= initial[1]):
                return [f"{path.name}: row {k} falls below the initial state"]
    return []


class Reproduce(Workload):
    """`cmd_reproduce` into a scratch directory, on ladders from N = 512.

    One operation is one table row; one round is one whole reproduce. The
    inputs are the paper's, so the seed does not change them. The shipped
    ladders (N = 4096 to 131072) make a round of about 30 s whose finest
    grids outgrow the L2 cache; from N = 512 a round takes about 4 s, the
    finest grid is 16384, and a run holds several rounds to take the
    median of.
    """

    name = "reproduce"
    base_n = 512

    def __init__(self, seed: int, workdir: Path):
        self.out_dir = workdir / "reproduce"
        self._horizons = None

    def warm_up(self):
        # the whole command on ladders 8 times coarser
        with redirect_stdout(io.StringIO()):
            cli.cmd_reproduce(out_dir=self.out_dir / "warm", base_n=self.base_n // 8)

    def run_round(self) -> Outcome:
        text = io.StringIO()
        with redirect_stdout(text):
            code = cli.cmd_reproduce(out_dir=self.out_dir, base_n=self.base_n)
        rows = parse_tables(text.getvalue())
        failed = sum(r["verdict"] == "error" for r in rows.values())
        return Outcome(len(ref.TAU_PUBLISHED), failed, (code, rows))

    def horizons(self) -> dict:
        if self._horizons is None:
            self._horizons = {key: fb.detection_scenario(*key).base_config.T
                              for key in ref.TAU_PUBLISHED}
        return self._horizons

    def check_round(self, out: Outcome) -> list[str]:
        code, rows = out.data
        problems = [] if code == 0 else [f"reproduce: exit code {code}"]
        problems += check_tables(rows)
        for (example, alpha), horizon in self.horizons().items():
            if rows.get((example, alpha), {}).get("verdict") == "error":
                continue
            path = self.out_dir / f"example{example}_alpha{alpha:g}.csv"
            if not path.is_file():
                problems.append(f"reproduce: {path.name} was not written")
                continue
            initial = ref.FAMILIES[example][6:]
            problems += check_csv(path, horizon, initial, self.base_n)
        return problems

    def layer_extras(self) -> dict[str, float]:
        return {"cli.csv_mb": sum(p.stat().st_size for p in self.out_dir.glob("*.csv")) / 1e6}


# ---------------------------------------------------------------------------
# long_solve: the O(N^2) history convolution at the largest steady N


def half_tolerance(lam: float, u0: float, h: float) -> float:
    """Max-norm error allowed for D^(1/2) u = -lam u on step h (see README)."""
    return 0.5 * lam ** 2 * h * u0


def one_tolerance(lam: float, u0: float, h: float) -> float:
    """Max-norm error allowed for u' = -lam u on step h (see README)."""
    return 0.2 * (lam * h) ** 2 * u0


class LongSolve(Workload):
    """Three full-horizon problems, each solved at N = 2^13 and 2^15.

    D^(1/2) u = -lam u (exact u0 erfcx(lam sqrt t)), u' = -lam u (exact
    u0 exp(-lam t)), and a two-component power-law system of the third
    family well short of its blow-up. The seed draws lam, u0, the horizons
    and the power-law order. One operation is one solve. The two grid
    sizes let the traced run split the solver's cost into a per-step and a
    history part.
    """

    name = "long_solve"
    grids = (2 ** 13, 2 ** 15)

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.half = (rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(1.0, 4.0))
        self.one = (rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(1.0, 4.0))
        self.power = make_params(3, rng.uniform(0.4, 0.9), 1.0)
        # a twentieth of the certified bound stays below the detected blow-up
        # time of the family for every order drawn (it is 7 percent at 0.4)
        self.power_t = 0.05 * fb.theorem_bound(self.power).tau_ub

    def _linear(self, alpha, lam, u0):
        return fb.SystemSpec(alpha=alpha, dimension=1, rhs=lambda t, x: -lam * x,
                             initial_state=np.array([u0]))

    def _solves(self, n):
        (lh, uh, th), (lo, uo, to) = self.half, self.one
        return [
            ("half", n, fb.solve(self._linear(0.5, lh, uh), fb.SolverConfig(T=th, N=n))),
            ("one", n, fb.solve(self._linear(1.0, lo, uo), fb.SolverConfig(T=to, N=n))),
            ("power-law", n, fb.solve(fb.system_spec(self.power),
                                      fb.SolverConfig(T=self.power_t, N=n))),
        ]

    def warm_up(self):
        self._solves(256)

    def run_round(self) -> Outcome:
        data = [s for n in self.grids for s in self._solves(n)]
        return Outcome(len(data), 0, data)

    def check_round(self, out: Outcome) -> list[str]:
        return [p for kind, n, traj in out.data for p in self.check_solve(kind, n, traj)]

    def check_solve(self, kind, n, traj) -> list[str]:
        where = f"long_solve {kind} N={n}"
        if not isinstance(traj.status, fb.Completed) or traj.states.shape[0] != n + 1:
            return [f"{where}: did not complete all {n} steps ({traj.status})"]
        if kind == "power-law":
            if not np.all(traj.states >= [self.power.x0, self.power.y0]):
                return [f"{where}: a component fell below its initial value"]
            return []
        if kind == "half":
            lam, u0, T = self.half
            exact = u0 * np.array([ref.erfcx(lam * math.sqrt(t)) for t in traj.times])
            tol = half_tolerance(lam, u0, T / n)
        else:
            lam, u0, T = self.one
            exact = u0 * np.exp(-lam * traj.times)
            tol = one_tolerance(lam, u0, T / n)
        err = float(np.max(np.abs(traj.states[:, 0] - exact)))
        return [] if err <= tol else [f"{where}: error {err:.3e} above {tol:.3e}"]


# ---------------------------------------------------------------------------
# param_sweep: certificates and coarse ladders for a seeded sample


def make_params(family: int, alpha: float, scale: float) -> fb.PowerLawParams:
    q1, q2, p11, p12, p21, p22, x0, y0 = ref.FAMILIES[family]
    return fb.PowerLawParams(alpha=float(alpha), q1=q1, q2=q2, p11=p11, p12=p12,
                             p21=p21, p22=p22, x0=scale * x0, y0=scale * y0)


class ParamSweep(Workload):
    """A seeded sample of systems: theorem_bound, then detect on a coarse ladder.

    Each system is one of the three families in the paper, all inside the
    theorem's hypotheses, with alpha uniform in [0.1, 0.9] and both initial
    values scaled by a log-uniform factor in [1/2, 2]. One operation is one
    system: its certificate plus a ladder N = 64, 128, 256 on the horizon
    1.05 tau_ub.
    """

    name = "param_sweep"
    size = 200
    base_n = 64
    budget = 2

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.systems = [
            make_params(int(rng.integers(1, 4)), rng.uniform(0.1, 0.9),
                        math.exp(rng.uniform(-math.log(2.0), math.log(2.0))))
            for _ in range(self.size)
        ]

    def _one(self, params):
        cert = fb.theorem_bound(params)
        config = fb.SolverConfig(T=HORIZON_MARGIN * cert.tau_ub, N=self.base_n)
        result = fb.detect(fb.system_spec(params), config, fb.RefinementPolicy(self.budget))
        return cert.tau_ub, cert.scalar.lambda_m, tuple(c for _, c in result.runs)

    def warm_up(self):
        self._one(self.systems[0])

    def run_round(self) -> Outcome:
        return Outcome(self.size, 0, [self._one(p) for p in self.systems])

    def check_round(self, out: Outcome) -> list[str]:
        return check_crossings(out.data)

    def check_final(self, outs) -> list[str]:
        refs = [ref.tau_ub_reference(p.alpha, p.q1, p.q2, p.p11, p.p12, p.p21, p.p22, p.x0, p.y0)
                for p in self.systems]
        problems = []
        for out in outs:
            problems += check_certificates(out.data, refs)
        return problems


def check_crossings(results) -> list[str]:
    """Every ladder crosses the threshold, and every crossing lies below tau_ub."""
    problems = []
    for i, (tau_ub, _, crossings) in enumerate(results):
        if crossings[-1] is None:
            problems.append(f"param_sweep system {i}: no crossing on the finest grid")
        for c in crossings:
            if c is not None and not c < tau_ub:
                problems.append(f"param_sweep system {i}: crossing {c} not below tau_ub {tau_ub}")
    return problems


def check_certificates(results, refs) -> list[str]:
    """tau_ub within 1e-9 and lambda_m within 1e-5 of the scipy recomputation."""
    problems = []
    for i, ((tau_ub, lambda_m, _), (tau_ref, lambda_ref)) in enumerate(zip(results, refs)):
        if not abs(tau_ub - tau_ref) <= 1e-9 * tau_ref:
            problems.append(f"param_sweep system {i}: tau_ub {tau_ub!r} vs scipy {tau_ref!r}")
        if not abs(lambda_m - lambda_ref) <= 1e-5 * max(1.0, abs(lambda_ref)):
            problems.append(f"param_sweep system {i}: lambda_m {lambda_m!r} vs scipy {lambda_ref!r}")
    return problems


# ---------------------------------------------------------------------------
# special_grid: mittag_leffler over the solver-oracle arguments

# Reach of the negative arguments, inside the range where the series keeps
# its 4e-11 guarantee for both betas (it raises from 3.0 / 6.0 / 16.75 on);
# the orders and the grid are those of the linear solver oracle
# D^alpha u = +-u on t_k = k/4096.
ML_NEGATIVE_REACH = {0.3: 2.5, 0.5: 5.5, 0.8: 15.0}
# Points beyond the validated range that raise for every term budget
# (ROADMAP item 4, the criterion 8 strict xfail). They fail on every run
# and are counted in `failed` until the negative axis is mended.
ML_FAULT_POINTS = ((0.1, 1.0, -1.5), (0.4, 1.0, -4.5), (0.6, 1.0, -9.0))
ML_REL_TOL = 4e-11


class SpecialGrid(Workload):
    """E_{alpha,beta} at z = t_k^alpha and z = -reach t_k^alpha.

    alpha in {0.3, 0.5, 0.8}, beta in {1, alpha}; the seed draws 20 grid
    indices k per (alpha, beta, sign). One operation is one call.
    """

    name = "special_grid"
    per_cell = 20

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.points = []
        for alpha, reach in ML_NEGATIVE_REACH.items():
            for beta in (1.0, alpha):
                for scale in (1.0, -reach):
                    k = rng.choice(np.arange(1, 4097), size=self.per_cell, replace=False)
                    self.points += [(alpha, beta, scale * (kk / 4096.0) ** alpha) for kk in k]
        self.points += list(ML_FAULT_POINTS)

    def warm_up(self):
        for alpha, beta in {(a, b) for a, b, _ in self.points}:
            fb.mittag_leffler(alpha, beta, 0.5)

    def run_round(self) -> Outcome:
        values = []
        for alpha, beta, z in self.points:
            try:
                values.append(fb.mittag_leffler(alpha, beta, z))
            except fb.NonConvergenceError:
                values.append(None)
        return Outcome(len(values), values.count(None), values)

    def check_final(self, outs) -> list[str]:
        refs = [ref.ml_reference(*p) for p in self.points]
        problems = []
        for out in outs:
            problems += check_ml_values(self.points, out.data, refs)
        return problems


def check_ml_values(points, values, refs) -> list[str]:
    problems = []
    for (alpha, beta, z), value, exact in zip(points, values, refs):
        if value is not None and not abs(value - exact) <= ML_REL_TOL * abs(exact):
            problems.append(f"special_grid E_{alpha},{beta}({z}) = {value!r}, reference {exact!r}")
    return problems


WORKLOADS = {w.name: w for w in (Reproduce, LongSolve, ParamSweep, SpecialGrid)}
