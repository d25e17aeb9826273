"""Chow presentations and effective cycles of complexity-one torus varieties."""

from .build import (
    DowngradeInput,
    KlyachkoBundle,
    RayFiltration,
    bundle_rank2,
    downgrade,
    fixture,
)
from .chow import ChowPresentation, presentation, toric_chow_presentation
from .effcone import EffConeReport, eff_generators
from .fansy import (
    CycleGenerator,
    MarkedFansyDivisor,
    enumerate_generators,
    make_divisor,
    validate,
)
from .polyhedra import (
    Cone,
    Fan,
    PolyhedralComplex,
    Polyhedron,
    make_complex,
    make_cone,
    make_fan,
    make_polyhedron,
)

__all__ = [
    "ChowPresentation",
    "Cone",
    "CycleGenerator",
    "DowngradeInput",
    "EffConeReport",
    "Fan",
    "KlyachkoBundle",
    "MarkedFansyDivisor",
    "PolyhedralComplex",
    "Polyhedron",
    "RayFiltration",
    "bundle_rank2",
    "downgrade",
    "eff_generators",
    "enumerate_generators",
    "fixture",
    "make_complex",
    "make_cone",
    "make_divisor",
    "make_fan",
    "make_polyhedron",
    "presentation",
    "toric_chow_presentation",
    "validate",
]
