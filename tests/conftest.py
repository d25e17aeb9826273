"""Shared test helpers: seeded random fans and bundles at desk scale."""

import random
from fractions import Fraction
from math import lcm

from tchow.build import KlyachkoBundle, RayFiltration
from tchow.build import _p1p1_fan as p1p1_fan, _p2_fan as p2_fan  # noqa: F401  (for the tests)
from tchow.exactlin import primitive_direction, vec
from tchow.polyhedra import Fan, make_cone, make_fan, make_polyhedron


def fraction_primitive(v):
    """Reference for ``exactlin.primitive``: clear denominators in Fraction arithmetic."""
    fv = [Fraction(x) for x in v]
    mu = lcm(*(f.denominator for f in fv))
    return tuple(int(f * mu) for f in fv), mu


def fan_document(fan: Fan) -> dict:
    """The CLI's fan document of ``fan``."""
    return {
        "rank": fan.ambient_rank,
        "maximal_cones": [[list(g) for g in c.generators] for c in fan.maximal_cones],
    }


def random_complete_fan(rng: random.Random, rank: int = 3, max_extra: int = 6) -> Fan:
    """Face fan of a random lattice polytope with the origin in its interior."""
    pts = set()
    for s in (1, -1):
        for i in range(rank):
            v = [0] * rank
            v[i] = s
            pts.add(tuple(v))
    for _ in range(rng.randint(1, max_extra)):
        p = tuple(rng.randint(-3, 3) for _ in range(rank))
        if any(p):
            pts.add(primitive_direction(vec(p)))
    hull = make_polyhedron(list(pts), [], rank)
    cones = []
    for u, rhs in hull.ineqs:
        tight = [v for v in hull.vertices if sum(a * b for a, b in zip(u, v)) == rhs]
        cones.append(make_cone(tight, rank))
    return make_fan(cones, rank)


def random_bundle(rng: random.Random, base: Fan) -> KlyachkoBundle:
    """Arbitrary rank-two filtration data on a smooth complete surface fan."""
    labels = ["0", "1", "inf"]
    filts = []
    for ray_cone in base.cones(1):
        ray = ray_cone.generators[0]
        a = rng.randint(-2, 2)
        if rng.random() < 0.35:
            filts.append((ray, RayFiltration(a)))
        else:
            filts.append(
                (ray, RayFiltration(a, rng.choice(labels), a + rng.randint(1, 2)))
            )
    return KlyachkoBundle(base, tuple(filts))

