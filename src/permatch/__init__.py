"""permatch: matching noisy feature sets by permutation estimation.

Observation model, estimators (greedy, LSS, LSNS, LSL and variants), exact
assignment solvers, separation-rate formulas, symmetric-group packing
utilities, and a seeded Monte Carlo experiment harness with a CLI.

The package exports each module's ``__all__``, so a public name is declared
once, in its module; the CLI stays in ``permatch.cli``.
"""

from .assignment import *
from .estimators import *
from .harness import *
from .metrics import *
from .model import *
from .permgroup import *

__version__ = "0.1.0"
