"""Exact F_q point counts for exchange-equation varieties on trees and forests.

A forest T with a coefficient alpha_t per vertex, any field element, zero
included, defines the affine variety with one equation per vertex:

    x_t * x'_t = 1 + alpha_t * prod over neighbors s of x_s

The package counts its points over finite fields three independent ways
(brute-force enumeration, leaf-removal recursion, closed-form formulas for
the Dynkin families A/D/E), normalizes coefficients by domino-tiling flips,
locates singular points, and recovers count polynomials in q by exact
interpolation.  Brute force and the singular-point searches take any
coefficients; the methods that divide by one need it to be a unit: the
recursion needs units everywhere, a flip at the vertex it flips, and the
formulas units on the normal-form slots.
"""

from .coeffs import (CoeffMap, NormalForm, flip, leaf_removal_transforms,
                     normalize)
from .counting import (CountReport, EXTENSION_AVAILABLE, FibrationReport,
                       VarietyInstance, brute_count, brute_points,
                       check_z_fibration, count_Y, count_Z,
                       normal_form_instance)
from .forests import (DominoTiling, Forest, canonical_form, dynkin,
                      dynkin_tiling, leafy_tiling, normal_form_slots)
from .gf import Field, field_from_order, field_make

__version__ = "0.1.0"

__all__ = [
    "CoeffMap", "CountReport", "DominoTiling", "EXTENSION_AVAILABLE",
    "FibrationReport", "Field", "Forest", "NormalForm", "VarietyInstance",
    "brute_count", "brute_points", "canonical_form",
    "check_z_fibration", "count_Y", "count_Z", "dynkin", "dynkin_tiling",
    "field_from_order", "field_make", "flip", "leaf_removal_transforms",
    "leafy_tiling", "normal_form_instance", "normal_form_slots", "normalize",
]
