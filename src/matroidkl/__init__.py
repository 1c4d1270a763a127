"""Exact Kazhdan-Lusztig and Z-polynomials of fan, square-of-path, wheel and
whirl matroids: brute-force lattice recursion, closed forms, recurrences,
generating functions and Sturm-sequence root certificates."""

from .poly import Poly
from .graphs import SimpleGraph, make_family
from .matroids import Flat, RankOracleMatroid, graphic_matroid, whirl_matroid
from .kl import (
    kl_closed,
    kl_poly,
    kl_recurrence,
    z_closed,
    z_poly,
)
from .series import TruncSeries, gf_expand
from .realroot import all_zeros_negative, interleaves

__version__ = "1.0.0"

__all__ = [
    "Poly",
    "SimpleGraph",
    "make_family",
    "Flat",
    "RankOracleMatroid",
    "graphic_matroid",
    "whirl_matroid",
    "kl_closed",
    "kl_poly",
    "kl_recurrence",
    "z_closed",
    "z_poly",
    "TruncSeries",
    "gf_expand",
    "all_zeros_negative",
    "interleaves",
    "__version__",
]
