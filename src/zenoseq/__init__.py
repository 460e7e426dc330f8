"""Convergent infinite event sequences, exactly and in binary64.

A fast pursuer chasing a slow leader generates an infinite sequence of
step events whose times form a geometric series; with speed ratio below
one they all fit before a finite catch-up instant. This package computes
those sequences with exact rational arithmetic, generalizes them to any
geometric event process (the halving walk, the bouncing ball), and
audits binary64 float evaluation of the same sums against the exact
oracle. The `zenoseq` command exposes everything on the command line.
"""

from .errors import *
from .floatsum import *
from .processes import *
from .race import *
from .rational import *

__version__ = "0.1.0"

__all__ = errors.__all__ + floatsum.__all__ + processes.__all__ + race.__all__ + rational.__all__
