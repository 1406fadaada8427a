"""Driven correlated two-particle trap model.

Static spectral structure of the pair's one-matrix, exact time evolution
under a finite confinement pulse via the Ermakov width equation, the
resulting sign-dependent energy shifts, overlaps and Berry connection, and
the sign effect as a function of projectile velocity at beta = v.

The package namespace is the union of its modules' ``__all__``.
"""

__version__ = "0.1.0"

from .model import *
from .dynamics import *
from .observables import *
from .collision import *

__all__ = ["__version__"]
__all__ += model.__all__
__all__ += dynamics.__all__
__all__ += observables.__all__
__all__ += collision.__all__
