"""Exact intersection-theoretic bookkeeping for Fano fourfolds.

Subpackages cover Schubert calculus on Grassmannians (:mod:`.schubert`),
Chern classes of homogeneous bundles and hypersurface sections (:mod:`.chern`),
blowup arithmetic and Riemann-Roch characteristics (:mod:`.blowup`),
derived numerical profiles (:mod:`.profiles`), the scenario report layer
(:mod:`.scenarios`) and the scenario language (:mod:`.dsl`).
"""

from .blowup import (
    BlowupModel,
    CurveCenter,
    Divisor,
    E,
    FourfoldProfile,
    H,
    NonIntegralCharacteristicError,
    SurfaceCenter,
    chi_riemann_roch,
    euler_blowup,
    quartic_number,
)
from .chern import TotalChernClass, section_chern, tangent_bundle, tensor_chern
from .dsl import Document, ParseError, parse
from .scenarios import Report, Scenario, builtin_scenarios, run
from .schubert import Grassmannian, SchubertCycle, dual_partition, grass_dim, grass_euler, sigma

__all__ = [
    "BlowupModel",
    "CurveCenter",
    "Divisor",
    "Document",
    "E",
    "FourfoldProfile",
    "Grassmannian",
    "H",
    "NonIntegralCharacteristicError",
    "ParseError",
    "Report",
    "Scenario",
    "SchubertCycle",
    "SurfaceCenter",
    "TotalChernClass",
    "builtin_scenarios",
    "chi_riemann_roch",
    "dual_partition",
    "euler_blowup",
    "grass_dim",
    "grass_euler",
    "parse",
    "quartic_number",
    "run",
    "section_chern",
    "sigma",
    "tangent_bundle",
    "tensor_chern",
]

__version__ = "1.0.0"
