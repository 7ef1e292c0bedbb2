"""Numerics for stable manifolds of normally parabolic invariant tori.

The package computes, to arbitrary finite order, the one-dimensional
whiskers of parabolic tori in skew-product maps and quasiperiodic vector
fields by solving the semiconjugacy F o K = K o R order by order, checks
the resulting invariance-error decay numerically, and reduces the
restricted planar (n+1)-body problem near parabolic infinity to this form.
"""

from .fourier import FourierSeries, FrequencyVector, diophantine_scan, sd_solve_map, sd_solve_flow
from .jet import Jet, SkewMap

__all__ = [
    "FourierSeries",
    "FrequencyVector",
    "diophantine_scan",
    "sd_solve_map",
    "sd_solve_flow",
    "Jet",
    "SkewMap",
]

__version__ = "0.1.0"
