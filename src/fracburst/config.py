"""Flat key-value scenario configuration files.

Format: optional top-level `name = ...`, then `[system]` (required, exactly
once), `[solver]` and `[detection]` (optional). One `key = value` pair per
line, `#` starts a comment line (a `#` inside a value is an error, not
a trailing comment), blank lines ignored. Errors carry the offending
line number.

    name = demo
    [system]
    alpha = 0.4, 0.9
    q1 = 0.5
    q2 = 1.5
    p11 = 1.5
    p12 = 3.6
    p21 = 0.5
    p22 = 2.4
    x0 = 1.0
    y0 = 1.2
    [solver]
    T = 1.5
    N = 4096
    [detection]
    threshold = 1e8
    budget = 5

`alpha` accepts a single value in (0, 1] or a comma-separated sweep whose
file labels `{alpha:g}` differ; the bound command needs alpha < 1. `q1`
and `q2` default to 0 and `N` to 4096; `threshold` and `budget` default
to the `overflow_threshold` of `SolverConfig` and the `budget` of
`RefinementPolicy`, the only place those two defaults are written. `T`
has no default and is required by the solve and detect commands. Every
key and its range is one row of `_KEYS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .bounds import PowerLawParams
from .detect import RefinementPolicy
from .errors import ConfigError
from .solver import SolverConfig

__all__ = ["ScenarioConfig", "parse_config", "load_config"]

_REQUIRED = object()
_POSITIVE = ("be positive", lambda v: v > 0.0)
_NONNEGATIVE = ("be nonnegative", lambda v: v >= 0.0)
# the name prefixes output file names and is quoted in gnuplot scripts
_FILE_NAME = ("not contain /, \\, ' or NUL", lambda v: not set(v) & set("/\\'\0"))

# key: (section, type, default, (requirement, check)). Section None is
# the top level, type tuple a comma-separated sweep of floats, and a
# None default leaves the setting unset (no T: no solver).
_KEYS = {
    "name": (None, str, None, _FILE_NAME),
    "alpha": ("system", tuple, _REQUIRED, ("lie in (0, 1]", lambda v: 0.0 < v <= 1.0)),
    "q1": ("system", float, 0.0, _NONNEGATIVE),
    "q2": ("system", float, 0.0, _NONNEGATIVE),
    "p11": ("system", float, _REQUIRED, _NONNEGATIVE),
    "p12": ("system", float, _REQUIRED, _NONNEGATIVE),
    "p21": ("system", float, _REQUIRED, _NONNEGATIVE),
    "p22": ("system", float, _REQUIRED, _NONNEGATIVE),
    "x0": ("system", float, _REQUIRED, _POSITIVE),
    "y0": ("system", float, _REQUIRED, _POSITIVE),
    "T": ("solver", float, None, _POSITIVE),
    "N": ("solver", int, 4096, ("be >= 1", lambda v: v >= 1)),
    "threshold": ("detection", float, SolverConfig.overflow_threshold, _POSITIVE),
    "budget": ("detection", int, RefinementPolicy.budget, _NONNEGATIVE),
}
_SECTIONS = {section for section, *_ in _KEYS.values() if section}


@dataclass(frozen=True)
class ScenarioConfig:
    """One parameter set per swept alpha; solver is None without a T."""

    name: str
    systems: tuple[PowerLawParams, ...]
    solver: Optional[SolverConfig]
    policy: RefinementPolicy


def _sweep_label(alpha: float) -> str:
    """The alpha part of a sweep's output file names."""
    return f"{alpha:g}"


def _parse(kind: type, raw: str, key: str, line_no: int):
    if kind is str:
        return raw
    if kind is tuple:
        return tuple(_parse(float, part.strip(), key, line_no) for part in raw.split(","))
    try:
        value = kind(raw)
    except ValueError:
        noun = "a number" if kind is float else "an integer"
        raise ConfigError(f"line {line_no}: {key} is not {noun}: {raw!r}") from None
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"line {line_no}: {key} must be finite, got {raw!r}")
    return value


def parse_config(text: str, default_name: str = "scenario") -> ScenarioConfig:
    """Parse config text into a ScenarioConfig, validating field ranges."""
    section = None
    seen_sections: list[str] = []
    values: dict[str, tuple[str, int]] = {}

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"line {line_no}: unknown section [{section}]")
            if section in seen_sections:
                raise ConfigError(f"line {line_no}: duplicate section [{section}]")
            seen_sections.append(section)
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected key = value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not raw:
            raise ConfigError(f"line {line_no}: empty value for {key!r}")
        if "#" in raw:
            raise ConfigError(
                f"line {line_no}: '#' in the value of {key!r}; "
                "comments go on a line of their own"
            )
        if section is None and key != "name":
            raise ConfigError(
                f"line {line_no}: key {key!r} before any section (only 'name' may appear here)"
            )
        if key not in _KEYS or _KEYS[key][0] != section:
            raise ConfigError(f"line {line_no}: unknown key {key!r} in [{section}]")
        if key in values:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        values[key] = (raw, line_no)

    if "system" not in seen_sections:
        raise ConfigError("missing [system] section")

    settings = {}
    for key, (section, kind, default, requirement) in _KEYS.items():
        if key not in values:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key {key!r} in [{section}]")
            settings[key] = default
            continue
        raw, line_no = values[key]
        value = _parse(kind, raw, key, line_no)
        must, check = requirement
        for v in value if kind is tuple else (value,):
            if not check(v):
                raise ConfigError(f"line {line_no}: {key} must {must}, got {v!r}")
        if kind is tuple:  # each swept value names its own output files
            labels = [_sweep_label(v) for v in value]
            for i, label in enumerate(labels):
                if label in labels[:i]:
                    raise ConfigError(f"line {line_no}: {key} values {value[labels.index(label)]!r} "
                                      f"and {value[i]!r} share the file label {key}{label}")
        settings[key] = value

    name = settings["name"] or default_name
    must, check = _FILE_NAME
    if not check(name):  # a name key was checked above, with its line
        raise ConfigError(f"default name must {must}, got {name!r}; set name = ... in the file")

    shared = {key: settings[key] for key, row in _KEYS.items()
              if row[0] == "system" and key != "alpha"}
    solver = None
    if settings["T"] is not None:
        solver = SolverConfig(T=settings["T"], N=settings["N"],
                              overflow_threshold=settings["threshold"])
    return ScenarioConfig(
        name=name,
        systems=tuple(PowerLawParams(alpha=a, **shared) for a in settings["alpha"]),
        solver=solver,
        policy=RefinementPolicy(budget=settings["budget"]),
    )


def load_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, default_name=path.stem)
