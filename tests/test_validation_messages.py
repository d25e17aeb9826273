"""Pinned messages for invalid inputs whose full-dimensional cones or cells overlap.

The expected lists were recorded before fan and complex validation started
to take meets from one side's extreme rays, so they pin both the findings
and their order.  Cells print their vertices in input notation: integers, or
``a/b``.
"""

from fractions import Fraction

from conftest import p2_fan

from tchow.build import fixture
from tchow.fansy import MarkedFansyDivisor, make_divisor, sigma_as_complex, validate
from tchow.polyhedra import complex_validate, fan_validate, make_complex, make_cone, make_fan, make_polyhedron

F = Fraction


def fan(*cones):
    rank = len(cones[0][0])
    return make_fan([make_cone(c, rank) for c in cones], rank)


def cell(verts, rays):
    return make_polyhedron(verts, rays, len(verts[0]))


def octants(replace=None):
    cones = [
        [(sx, 0, 0), (0, sy, 0), (0, 0, sz)]
        for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)
    ]
    if replace is not None:
        cones[0] = replace
    return cones


FANS = {
    # the four quadrants of the plane, one of them turned into a wider cone
    "quadrants": lambda: fan([(1, 0), (0, 1)], [(1, 1), (-1, 0)], [(-1, 0), (0, -1)], [(0, -1), (1, 0)]),
    "two_overlapping": lambda: fan([(1, 0), (0, 1)], [(1, 1), (1, -1)]),
    # two quadrants widened, each over its neighbour: two bad pairs sharing no cone
    "two_overlaps": lambda: fan([(1, 0), (0, 1)], [(1, 1), (-1, 0)], [(-1, 0), (0, -1)], [(-1, -1), (1, 0)]),
    # the positive octant widened across two of its walls
    "octants": lambda: fan(*octants([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 1, 1), (1, -1, 2)])),
}

COMPLEXES = {
    "segments": lambda: make_complex(
        [cell([(0,)], [(-1,)]), cell([(0,), (2,)], []), cell([(1,), (3,)], []), cell([(3,)], [(1,)])], 1
    ),
    # the p2 fan as a complex, with one cone translated across a wall
    "p2_shifted": lambda: make_complex(
        [
            cell([(F(1, 2), F(-1, 2))], [(1, 0), (0, 1)]),
            cell([(0, 0)], [(0, 1), (-1, -1)]),
            cell([(0, 0)], [(-1, -1), (1, 0)]),
        ],
        2,
    ),
    "half_line": lambda: make_complex([cell([(F(1, 2),)], [(1,)])], 1),
    # a square, a triangle and a wedge apart: every edge lies in one cell, listed
    # cell by cell, each cell's edges in poly_faces order
    "scattered_cells": lambda: make_complex(
        [cell([(0, 0), (1, 0), (0, 1), (1, 1)], []), cell([(2, 0), (3, 0), (F(5, 2), 1)], []), cell([(0, 2)], [(0, 1), (-1, 1)])],
        2,
    ),
    "flat_cell": lambda: make_complex([cell([(0, 0), (F(1, 3), 0)], [])], 2),
    # two overlapping tetrahedra and an unbounded cell
    "tetrahedra": lambda: make_complex(
        [
            cell([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], []),
            cell([(F(1, 4), F(1, 4), F(1, 4)), (1, 1, 0), (1, 0, 1), (0, 1, 1)], []),
            cell([(0, 0, 0)], [(-1, 0, 0), (0, -1, 0), (0, 0, -1)]),
        ],
        3,
    ),
}


def divisors():
    p2 = p2_fan()
    quadrants = FANS["quadrants"]()
    gr24 = fixture("gr24")
    top = max(gr24.marked, key=lambda c: c.sort_key())
    ray = make_cone([(1, 0)], 2)
    return {
        "overlapping_fiber": make_divisor([("0", sigma_as_complex(p2)), ("1", COMPLEXES["p2_shifted"]())], []),
        "overlapping_tailfan": MarkedFansyDivisor(
            ("0", "inf"), (sigma_as_complex(quadrants),) * 2, frozenset()
        ),
        "gr24_top_unmarked": MarkedFansyDivisor(gr24.points, gr24.complexes, gr24.marked - {top}),
        "ray_marked_alone": make_divisor([("0", sigma_as_complex(p2))], [ray]),
    }


EXPECTED_FAN = {
    'quadrants': [
        'cones ((-1, 0), (1, 1)) and ((0, 1), (1, 0)) do not meet in a common face',
    ],
    'two_overlapping': [
        'cones ((0, 1), (1, 0)) and ((1, -1), (1, 1)) do not meet in a common face',
    ],
    'two_overlaps': [
        'cones ((-1, -1), (1, 0)) and ((-1, 0), (0, -1)) do not meet in a common face',
        'cones ((-1, 0), (1, 1)) and ((0, 1), (1, 0)) do not meet in a common face',
    ],
    'octants': [
        'cones ((-1, 0, 0), (0, -1, 0), (0, 0, 1)) and ((-1, 1, 1), (0, 1, 0), (1, -1, 2), (1, 0, 0)) do not meet in a common face',
        'cones ((-1, 0, 0), (0, 0, 1), (0, 1, 0)) and ((-1, 1, 1), (0, 1, 0), (1, -1, 2), (1, 0, 0)) do not meet in a common face',
        'cones ((0, -1, 0), (0, 0, 1), (1, 0, 0)) and ((-1, 1, 1), (0, 1, 0), (1, -1, 2), (1, 0, 0)) do not meet in a common face',
    ],
}

EXPECTED_COMPLEX = {
    'segments': [
        'cells ((0,), (2,))+() and ((1,), (3,))+() do not meet in a common face',
    ],
    'p2_shifted': [
        'cells ((0, 0),)+((-1, -1), (1, 0)) and ((1/2, -1/2),)+((0, 1), (1, 0)) do not meet in a common face',
    ],
    'half_line': [
        'face ((1/2,),)+() lies in 1 cells; the complex does not cover the whole space',
    ],
    'scattered_cells': [
        'face ((0, 2),)+((-1, 1),) lies in 1 cells; the complex does not cover the whole space',
        'face ((0, 2),)+((0, 1),) lies in 1 cells; the complex does not cover the whole space',
        'face ((2, 0), (5/2, 1))+() lies in 1 cells; the complex does not cover the whole space',
        'face ((2, 0), (3, 0))+() lies in 1 cells; the complex does not cover the whole space',
        'face ((5/2, 1), (3, 0))+() lies in 1 cells; the complex does not cover the whole space',
        'face ((0, 0), (0, 1))+() lies in 1 cells; the complex does not cover the whole space',
        'face ((0, 0), (1, 0))+() lies in 1 cells; the complex does not cover the whole space',
        'face ((0, 1), (1, 1))+() lies in 1 cells; the complex does not cover the whole space',
        'face ((1, 0), (1, 1))+() lies in 1 cells; the complex does not cover the whole space',
    ],
    'flat_cell': [
        'maximal cell ((0, 0), (1/3, 0)) has dimension 1 != 2',
    ],
    'tetrahedra': [
        'cells ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))+() and ((0, 1, 1), (1/4, 1/4, 1/4), (1, 0, 1), (1, 1, 0))+() do not meet in a common face',
    ],
}

EXPECTED_VALIDATE = {
    'overlapping_fiber': [
        ('BAD_COMPLEX', 'fiber over 1: cells ((0, 0),)+((-1, -1), (1, 0)) and ((1/2, -1/2),)+((0, 1), (1, 0)) do not meet in a common face'),
    ],
    'overlapping_tailfan': [
        ('BAD_COMPLEX', 'fiber over 0: cells ((0, 0),)+((-1, 0), (1, 1)) and ((0, 0),)+((0, 1), (1, 0)) do not meet in a common face'),
        ('BAD_COMPLEX', 'fiber over inf: cells ((0, 0),)+((-1, 0), (1, 1)) and ((0, 0),)+((0, 1), (1, 0)) do not meet in a common face'),
    ],
    'gr24_top_unmarked': [
        ('MARKS_NOT_UPWARD_CLOSED', '((0, 0, -1),) is marked but the containing cone ((0, 0, -1), (0, 1, 0), (1, 0, 0), (1, 1, 1)) is not'),
        ('MARKS_NOT_UPWARD_CLOSED', '((0, 1, 0),) is marked but the containing cone ((0, 0, -1), (0, 1, 0), (1, 0, 0), (1, 1, 1)) is not'),
        ('MARKS_NOT_UPWARD_CLOSED', '((1, 1, 1),) is marked but the containing cone ((0, 0, -1), (0, 1, 0), (1, 0, 0), (1, 1, 1)) is not'),
        ('MARKS_NOT_UPWARD_CLOSED', '((0, 1, 0), (1, 1, 1)) is marked but the containing cone ((0, 0, -1), (0, 1, 0), (1, 0, 0), (1, 1, 1)) is not'),
        ('MARKS_NOT_UPWARD_CLOSED', '((1, 0, 0), (1, 1, 1)) is marked but the containing cone ((0, 0, -1), (0, 1, 0), (1, 0, 0), (1, 1, 1)) is not'),
        ('MARKS_NOT_UPWARD_CLOSED', '((1, 0, 0),) is marked but the containing cone ((0, 0, -1), (0, 1, 0), (1, 0, 0), (1, 1, 1)) is not'),
        ('MARKS_NOT_UPWARD_CLOSED', '((0, 0, -1), (0, 1, 0)) is marked but the containing cone ((0, 0, -1), (0, 1, 0), (1, 0, 0), (1, 1, 1)) is not'),
        ('MARKS_NOT_UPWARD_CLOSED', '((0, 0, -1), (1, 0, 0)) is marked but the containing cone ((0, 0, -1), (0, 1, 0), (1, 0, 0), (1, 1, 1)) is not'),
    ],
    'ray_marked_alone': [
        ('MARKS_NOT_UPWARD_CLOSED', '((1, 0),) is marked but the containing cone ((0, 1), (1, 0)) is not'),
        ('MARKS_NOT_UPWARD_CLOSED', '((1, 0),) is marked but the containing cone ((-1, -1), (1, 0)) is not'),
    ],
}


def test_fan_validate_messages():
    assert {name: fan_validate(build()) for name, build in FANS.items()} == EXPECTED_FAN


def test_complex_validate_messages():
    assert {name: complex_validate(build()) for name, build in COMPLEXES.items()} == EXPECTED_COMPLEX


def test_validate_violations():
    found = {
        name: [(v.code, v.message) for v in validate(x).violations]
        for name, x in divisors().items()
    }
    assert found == EXPECTED_VALIDATE
