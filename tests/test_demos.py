"""Every demo runs to completion against the package in src/, and the
demo configs describe the built-in systems.

The hygiene tests check that demo imports resolve; this runs each demo
in a subprocess, so a reshaped call in a demo body fails here too.
About 4 s for the four demos on a 2-core x86 machine.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from fracburst import EXAMPLE_ALPHAS, detection_scenario, example_params, load_config

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS, "no demos found"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run([sys.executable, str(path)], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("example", [1, 2, 3])
def test_demo_config_is_the_built_in_system(example):
    config = load_config(REPO / "demos" / "configs" / f"example{example}.cfg")
    assert config.systems == tuple(example_params(example, a) for a in EXAMPLE_ALPHAS)
    # long enough for every row's detection horizon
    assert all(config.solver.T >= detection_scenario(example, a).base_config.T
               for a in EXAMPLE_ALPHAS)
    assert (config.solver.N, config.solver.overflow_threshold, config.policy.budget) == (4096, 1e8, 5)
