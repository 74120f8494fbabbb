"""Truncated coefficient-table representations of planar polyharmonic
mappings, with numeric verification of their geometric inequalities."""

from .core import (DilatationPair, PolyharmonicMap, dilatation, evaluate,
                   jacobian, quasiregularity_constant, scale_map, wirtinger)
from .geometry import (area_growth_excess, area_quadrature, area_series,
                       curve_length, diameter_estimate, sup_length)
from .certificates import (CheckReport, Margin, area_schwarz, arg_condition,
                           diameter_coefficient_bounds,
                           hadamard_three_circles, length_coefficient_bounds,
                           three_circles_area)
from .landau import LandauResult, landau_from_diameter, landau_from_length
from .metrics import (contraction_check, harmonic_lipschitz_check, j_metric,
                      mobius_j_distortion, psi_profile)
from .catalog import BUILTIN_NAMES, builtin
from .mapspec import MappingSpec, build_map, digest, from_map
from . import errors

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "errors",
    # core
    "DilatationPair", "PolyharmonicMap", "dilatation", "evaluate", "jacobian",
    "quasiregularity_constant", "scale_map", "wirtinger",
    # geometry
    "area_growth_excess", "area_quadrature", "area_series", "curve_length",
    "diameter_estimate", "sup_length",
    # certificates
    "CheckReport", "Margin", "area_schwarz", "arg_condition",
    "diameter_coefficient_bounds", "hadamard_three_circles",
    "length_coefficient_bounds", "three_circles_area",
    # landau
    "LandauResult", "landau_from_diameter", "landau_from_length",
    # metrics
    "contraction_check", "harmonic_lipschitz_check", "j_metric",
    "mobius_j_distortion", "psi_profile",
    # catalog / files
    "BUILTIN_NAMES", "builtin",
    "MappingSpec", "build_map", "digest", "from_map",
]
