"""Coefficient-of-variation heterogeneity measures for meta-analysis.

Random-effects fitting (DerSimonian-Laird), the ratio measures built
from the between-study SD and the pooled effect, delta-method moments
on the logit scale, and several interval constructions: logit-Wald,
fixed-parameter corners, an alpha-adjusted product rule, and a
propagating-imprecision search, with a Q-profile interval for the
between-study variance itself.  A Monte Carlo engine reproduces the
coverage studies behind those constructions.

The package exports every name in the ``__all__`` of the modules below.
"""

__version__ = "0.1.0"

from . import core, errors, intervals, measures, simulator, datasets
from .core import *
from .errors import *
from .intervals import *
from .measures import *
from .simulator import *
from .datasets import *

__all__ = ["__version__"]
__all__ += core.__all__
__all__ += errors.__all__
__all__ += intervals.__all__
__all__ += measures.__all__
__all__ += simulator.__all__
__all__ += datasets.__all__
