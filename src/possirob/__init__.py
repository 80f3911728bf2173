"""Robust optimization under possibilistic (fuzzy-interval) uncertainty.

The toolkit models uncertain linear constraint coefficients as symmetric
fuzzy intervals, limits how many of them may deviate at once through
per-row protection budgets, and offers five ways to pick a solution:

* a worst-case protected model over the coefficient supports,
* its slack-minimizing (lightly robust) relaxation under a cost budget,
* maximization of the degree to which a solution is certainly protected,
* the soft variant that also grades right-hand sides and the cost goal,
* the soft variant extended to an uncertain objective vector.

The degree-maximizing models bisect over the confidence level, checking one
linear feasibility system per probe; a combinatorial fast path handles 0/1
problems with uncertain costs through deterministic oracles (shortest path,
spanning tree, or any user-supplied solver).  A Monte Carlo lab generates
random instances and scores solutions on possibility-guided scenario samples.
"""

from .fuzzy import *
from .linsys import *
from .simplex import *
from .models import *
from .solver import *
from .combinatorial import *
from .experiment import *
from .instance_io import *
from . import (combinatorial, experiment, fuzzy, instance_io, linsys, models,
               simplex, solver)

__version__ = "0.1.0"

# Each module's ``__all__`` is the one declaration of its public names.
__all__ = [*fuzzy.__all__, *linsys.__all__, *simplex.__all__, *models.__all__,
           *solver.__all__, *combinatorial.__all__, *experiment.__all__,
           *instance_io.__all__]
