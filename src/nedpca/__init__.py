"""Evaporation-deposition PCA on a ring: simulation, exact solving, closed forms.

The chain lives on binary configurations of n sites arranged in a cycle and
updates all sites synchronously. The window of length m starting at a site
decides its next value: an all-vacant window deposits with probability p1, a
window vacant except for an occupied final site deposits with probability
1 - p2, and any other window forces vacancy. The package provides the model
primitives (`model`), an exact transition-matrix oracle (`solver`), closed
forms for the stationary law, partition function and density (`closedforms`),
the nearest-neighbour analytic suite (`m2`), Monte Carlo sampling
(`montecarlo`), and a CLI (`nedpca`). Each module's `__all__` is its public
surface, and the package re-exports all of it.
"""

from . import errors, model, solver, closedforms, m2, montecarlo
from .errors import *
from .model import *
from .solver import *
from .closedforms import *
from .m2 import *
from .montecarlo import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name for module in (errors, model, solver, closedforms, m2, montecarlo) for name in module.__all__
]
