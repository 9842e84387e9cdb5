"""conjlab: desk-scale experiments around two famous conjectures.

Collatz side: budgeted range verification of the accelerated map,
parity-vector extraction and 2-adic realization, a computable
incompressibility proxy for parity vectors, and the multiplicative
random-walk heuristic for descent.

Riemann side: segmented Mobius/Mertens computation with the growth
statistic whose boundedness encodes the hypothesis, and Riemann-Siegel
evaluation of Z(t) with sign-change zero verification against the
analytic count.

Everything is deterministic: integer routines are exact, and all
randomness flows through per-task Philox streams keyed by (seed, index),
so results never depend on worker count or scheduling.

Importing the package loads none of its modules, and so not numpy.  A
module, ``cli`` included, loads on first use (``conjlab.zeta``, ``from
conjlab import zeta``); the first exported name looked up here (``conjlab.verify_range``,
``__all__``, ``from conjlab import *``) loads them all and binds their
exports, as the eager package did.  A CLI child therefore pays only for
the modules its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

# in the order of __all__
_MODULES = ("collatz", "parity", "stochastic", "mobius", "zeta", "rng")


def _bind_all() -> None:
    """Import every module and bind its exports here, with ``__all__``."""
    names = ["__version__"]
    for m in _MODULES:
        mod = importlib.import_module(f"{__name__}.{m}")
        globals().update((n, getattr(mod, n)) for n in mod.__all__)
        names += mod.__all__
    globals()["__all__"] = names


def __getattr__(name: str):
    if name in (*_MODULES, "cli"):
        return importlib.import_module(f"{__name__}.{name}")
    _bind_all()
    if name in globals():
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    _bind_all()
    return sorted(globals())
