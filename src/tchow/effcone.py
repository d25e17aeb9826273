"""Generators of the pseudoeffective cones in presentation coordinates.

The k-th pseudoeffective cone is generated by the classes of the enumerated
invariant cycles: horizontal uncontracted cycles, fiber faces with
uncontracted tails, and contracted-cycle images.  This module reports those
classes through the reduced presentation; no convex-hull reduction is done,
since numerical equivalence is out of scope.
"""

from __future__ import annotations

from functools import lru_cache

from .chow import ChowPresentation, presentation
from .fansy import CycleGenerator, MarkedFansyDivisor
from .value import Value


class EffConeReport(Value):
    k: int
    presentation: ChowPresentation
    entries: tuple[tuple[CycleGenerator, tuple[int, ...]], ...]
    distinct_classes: tuple[tuple[tuple[int, ...], tuple[CycleGenerator, ...]], ...]

    @property
    def generator_count(self) -> int:
        return len(self.entries)


@lru_cache(maxsize=None, typed=True)
def eff_generators(x: MarkedFansyDivisor, k: int) -> EffConeReport:
    """Effective k-cycle generators with their classes, deduplicated.

    Each distinct class vector is listed once together with every generator
    mapping to it, so coincidences among the generators stay visible.  A
    table of a divisor and k, as :func:`~tchow.chow.presentation` is: every
    later call with an equal divisor and k returns the same report.
    """
    pres = presentation(x, k)
    entries = tuple(zip(pres.generators, pres.class_map))
    grouped: dict[tuple[int, ...], list[CycleGenerator]] = {}
    for gen, cls in entries:
        grouped.setdefault(cls, []).append(gen)
    distinct = tuple(
        (cls, tuple(gens)) for cls, gens in sorted(grouped.items())
    )
    return EffConeReport(k, pres, entries, distinct)
