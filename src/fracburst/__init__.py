"""Finite-time blow-up bounds and numerics for Caputo power-law systems.

The package has three layers: special-function kernels (ln_gamma,
mittag_leffler), the certified blow-up upper bound (theorem_bound and the
scalar machinery beneath it), and the predictor-corrector solver with
grid-doubling blow-up detection (solve, detect). scenarios wires the three
built-in benchmark systems through all layers; cli exposes them as a
command-line tool.

The public API is the union of the library modules' `__all__` lists, so
each public name is written once, in its own module. No two modules
export the same name; tests/test_hygiene.py checks that.
"""

from __future__ import annotations

from . import bounds, config, detect as _detect, errors, scenarios, solver, special
from .bounds import *
from .config import *
from .detect import *  # rebinds `detect` from the submodule to the function
from .errors import *
from .scenarios import *
from .solver import *
from .special import *

__version__ = "0.1.0"

__all__ = ["__version__", *bounds.__all__, *config.__all__, *_detect.__all__,
           *errors.__all__, *scenarios.__all__, *solver.__all__, *special.__all__]
