"""Friedkin-Johnsen opinion dynamics with stubborn and non-stubborn media.

Simulation library plus CLI harness: closed-form equilibria on weighted
graphs, analytic bounds on the post-influence opinion sum, the multi-period
radicalization protocol, and reproducible seeded experiments.
"""

from . import fj, graph, harness, media, nonstubborn, numerics, periods
from .graph import *  # noqa: F401,F403
from .numerics import *  # noqa: F401,F403
from .media import *  # noqa: F401,F403
from .fj import *  # noqa: F401,F403
from .periods import *  # noqa: F401,F403
from .nonstubborn import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403

__version__ = "0.1.22"

# each module's __all__ declares its public names; the package exports them all
__all__ = [name for module in (graph, numerics, media, fj, periods, nonstubborn, harness)
           for name in module.__all__] + ["__version__"]
