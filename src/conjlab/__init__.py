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
"""

from . import collatz, mobius, parity, rng, stochastic, zeta
from .collatz import *
from .mobius import *
from .parity import *
from .rng import *
from .stochastic import *
from .zeta import *

__version__ = "0.1.0"

__all__ = ["__version__", *collatz.__all__, *parity.__all__, *stochastic.__all__,
           *mobius.__all__, *zeta.__all__, *rng.__all__]
