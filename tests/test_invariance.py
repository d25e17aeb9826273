"""Smith data of ``A_k`` depends on the variety, not on how its divisor is written.

Two rewritings of a marked fansy divisor keep the variety:

- a principal shift: the fiber over ``p`` translated by an integer vector
  ``v`` and the fiber over ``q`` by ``-v``.  The difference is the
  polyhedral divisor of a principal divisor (Altmann & Hausen, Math. Ann.
  334, 2006), so the shifted divisor validates and presents the same groups;
- a reordering of the special points, which moves the basepoint.

Inputs: the four fixtures, seeded rank-3 downgrades and seeded bundles over
P^1 x P^1 and P^2.
"""

import random
from itertools import permutations

from conftest import p1p1_fan, p2_fan, random_bundle, random_complete_fan, with_point_order

from tchow import (
    DowngradeInput,
    bundle_rank2,
    downgrade,
    fixture,
    make_complex,
    make_divisor,
    make_polyhedron,
    presentation,
    validate,
)
from tchow.build import FIXTURE_NAMES


def divisors():
    for name in FIXTURE_NAMES:
        yield name, fixture(name)
    for s in range(4):
        fan = random_complete_fan(random.Random(500 + s), 3, 5)
        yield f"downgrade Random({500 + s})", downgrade(DowngradeInput(fan))
    for s in range(6):
        base = p1p1_fan() if s % 2 == 0 else p2_fan()
        yield f"bundle Random({100 + s})", bundle_rank2(random_bundle(random.Random(100 + s), base))


def smith_data(x) -> list:
    return [presentation(x, k).smith for k in range(x.rank + 2)]


def translated(s, v):
    """The complex ``s`` moved by the integer vector ``v``."""
    n = s.ambient_rank
    cells = [
        make_polyhedron([tuple(a + b for a, b in zip(w, v)) for w in c.vertices], c.tail.generators, n)
        for c in s.maximal_cells
    ]
    return make_complex(cells, n)


def test_principal_shifts_keep_the_smith_data():
    rng = random.Random(23)
    shifts = 0
    for name, x in divisors():
        base = smith_data(x)
        for p, q in permutations(x.points, 2):
            v = (0,) * x.rank
            while not any(v):
                v = tuple(rng.randint(-2, 2) for _ in range(x.rank))
            minus = tuple(-a for a in v)
            fibers = [
                (r, translated(s, v) if r == p else translated(s, minus) if r == q else s)
                for r, s in zip(x.points, x.complexes)
            ]
            y = make_divisor(x.rank, fibers, x.marked)
            assert y != x and validate(y).ok, (name, p, q, v)
            assert smith_data(y) == base, (name, p, q, v)
            shifts += 1
    assert shifts >= 40, shifts


def test_every_point_order_keeps_the_smith_data():
    orders = 0
    for name, x in divisors():
        base = smith_data(x)
        for order in permutations(x.points):
            y = with_point_order(x, order)
            assert validate(y).ok, (name, order)
            assert smith_data(y) == base, (name, order)
            orders += 1
    assert orders >= 40, orders
