"""The ridge certificate against the pairwise references.

``polyhedra._ridge_certificate`` must hold exactly when the conftest
references find no improper pair and the fan is complete (of a complex's
homogenized cells: when the reference finds no problem at all).  The inputs
are seeded fans of rank 2 to 4 and their sublattice images, their
downgrades' fibers and tail fans, the fixtures, perturbations of all of
these, and the catalogs of invalid fans and complexes.  Two 2-D fans show
that the opposite-sides test and the degree test are each needed.
"""

import random

from conftest import (
    SUBLATTICE_MATRICES,
    random_complete_fan,
    reference_complex_problems,
    reference_fan_is_complete,
    reference_fan_problems,
    sublattice_fan,
)
from test_validation_messages import COMPLEXES, FANS, fan
from test_validation_reference import subdivided_facet_fan, translate

from tchow.build import FIXTURE_NAMES, DowngradeInput, downgrade, fixture
from tchow.exactlin import dot
from tchow.fansy import sigma_as_complex
from tchow.polyhedra import (
    GeometryError,
    _ridge_certificate,
    _ridge_counts,
    fan_validate,
    make_complex,
    make_cone,
    make_fan,
    require_complete,
)


def fan_certified(f) -> bool:
    return _ridge_certificate(f.maximal_cones)


def complex_certified(s) -> bool:
    return _ridge_certificate(s.fan.maximal_cones, homogenized=True)


def random_vector(rng, n):
    while True:
        v = tuple(rng.randint(-3, 3) for _ in range(n))
        if any(v):
            return v


def fan_perturbations(rng, f):
    """``f`` with a cone dropped, a cone widened by a random ray, and a random cone added."""
    n, cones = f.ambient_rank, list(f.maximal_cones)
    i = rng.randrange(len(cones))
    yield make_fan(cones[:i] + cones[i + 1 :], n)
    for extra in (
        lambda: [make_cone(cones[i].generators + (random_vector(rng, n),), n)] + cones[:i] + cones[i + 1 :],
        lambda: cones + [make_cone([random_vector(rng, n) for _ in range(n)], n)],
    ):
        try:
            yield make_fan(extra(), n)
        except GeometryError:  # a widened or random cone that is not pointed
            pass


def complex_perturbations(rng, s):
    """``s`` with a cell dropped and with a cell shifted by a random vector."""
    n, cells = s.ambient_rank, list(s.maximal_cells)
    i = rng.randrange(len(cells))
    yield make_complex(cells[:i] + cells[i + 1 :], n)
    yield make_complex(cells[:i] + [translate(cells[i], random_vector(rng, n))] + cells[i + 1 :], n)


def test_certificate_matches_reference():
    rng = random.Random(36)
    fans = [random_complete_fan(random.Random(100 + s), rank, 4) for s in range(10) for rank in (2, 3)]
    fans += [random_complete_fan(random.Random(1000 + s), 4, 5) for s in range(4)]
    fans += [sublattice_fan(random_complete_fan(random.Random(200 + s), 3, 3), m) for s, m in enumerate(SUBLATTICE_MATRICES)]
    complexes = [c for name in FIXTURE_NAMES for c in fixture(name).complexes]
    fans += [fixture(name).tailfan for name in FIXTURE_NAMES]
    for f in list(fans):
        if f.ambient_rank > 1:
            x = downgrade(DowngradeInput(f))
            complexes += x.complexes
            fans.append(x.tailfan)
    fans += [p for f in list(fans) for _ in range(2) for p in fan_perturbations(rng, f)]
    complexes += [p for s in list(complexes) for _ in range(2) for p in complex_perturbations(rng, s)]
    fans += [build() for build in FANS.values()] + [subdivided_facet_fan()]
    complexes += [build() for build in COMPLEXES.values()] + [sigma_as_complex(f) for f in fans]
    seen = {True: 0, False: 0}
    for f in fans:
        expected = reference_fan_problems(f) == [] and reference_fan_is_complete(f)
        assert fan_certified(f) == expected, f
        seen[expected] += 1
    for s in complexes:
        expected = reference_complex_problems(s) == []
        assert complex_certified(s) == expected, s
        seen[expected] += 1
    assert min(seen.values()) > 50, seen


def assert_only_part_failing(f, point, opposite: bool, covered: int):
    """``f`` passes every test of the certificate but one, and is refused.

    Its cones are full-dimensional, each facet lies in exactly two of them,
    and the generic point ``point`` lies off every facet hyperplane.
    """
    cones = f.maximal_cones
    assert all(c.dim == 2 for c in cones) and set(_ridge_counts(cones).values()) == {2}
    assert all(dot(u, point) for c in cones for u in c.normals)
    sides = {}
    for c in cones:
        for u in c.normals:
            sides.setdefault(tuple(g for g in c.generators if not dot(u, g)), []).append(u)
    assert all(u == tuple(-x for x in v) for u, v in sides.values()) == opposite
    assert sum(all(dot(u, point) > 0 for u in c.normals) for c in cones) == covered
    assert not fan_certified(f)
    problems = fan_validate(f)
    assert problems and all(p.endswith("do not meet in a common face") for p in problems)
    assert problems == reference_fan_problems(f)


def test_opposite_sides_test_is_needed():
    # the quadrants, and three cones inside the first, each of whose rays
    # bounds two of them on the same side: (1, 2) lies in the first quadrant alone
    f = fan(
        [(1, 0), (0, 1)], [(0, 1), (-1, 0)], [(-1, 0), (0, -1)], [(0, -1), (1, 0)],
        [(6, 1), (3, 1)], [(3, 1), (2, 1)], [(6, 1), (2, 1)],
    )
    assert_only_part_failing(f, (1, 2), opposite=False, covered=1)


def test_degree_test_is_needed():
    # a pentagram: each cone joins every second ray, so the fan winds twice
    rays = [(1, 0), (1, 2), (-1, 1), (-2, -1), (1, -2)]
    f = fan(*([rays[i], rays[(i + 2) % 5]] for i in range(5)))
    assert_only_part_failing(f, (1, 3), opposite=True, covered=2)


def test_certificate_decides_completeness():
    # a valid fan is complete exactly when certified: require_complete agrees
    for f in [random_complete_fan(random.Random(s), 3, 4) for s in range(3)]:
        require_complete(f)
        cones = list(f.maximal_cones)
        part = make_fan(cones[1:], 3)
        assert fan_validate(part) == [] and not fan_certified(part)
