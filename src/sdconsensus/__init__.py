"""Sampled-data consensus toolkit for double-integrator agent networks.

Gain synthesis from closed-form inequality limits, contraction certificates
over sampling-interval and eigenvalue ranges, and exact batch simulation
under nonuniform sampling with switching balanced topologies.  The package
re-exports each module's ``__all__``, the one list of its public names.
"""

from .certify import *
from .graph import *
from .numerics import *
from .sim import *
from .synthesis import *

__version__ = "0.1.0"
