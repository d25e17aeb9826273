"""Fan, complex and divisor validation against the pairwise references.

``fan_validate`` and ``complex_validate`` meet a pair by double description
only when no separating facet certifies it, and ``validate`` reads the
degree loci of a semiample marked cone off its cells' vertex minima.  The
references in ``conftest`` meet every pair and build every Minkowski sum;
each report must equal theirs, message for message.
"""

import random

import pytest
from conftest import (
    random_complete_fan,
    reference_complex_problems,
    reference_fan_problems,
    reference_violations,
)
from test_validation_messages import COMPLEXES, FANS, fan

from tchow.build import DowngradeInput, downgrade
from tchow.fansy import MarkedFansyDivisor, sigma_as_complex, validate
from tchow.polyhedra import Cone, Polyhedron, complex_validate, fan_validate, make_complex, make_polyhedron

MARKING_CODES = {"NOT_SEMIAMPLE", "MARKING_TOO_SMALL", "MARKING_TOO_LARGE", "DEGREE_MEETS_ORIGIN"}


def subdivided_facet_fan():
    """The eight coordinate octants, octant (1, 1, -1) split along (1, 1, 0).

    Each piece and octant (1, 1, 1) are separated by the plane z = 0, but
    the piece's wall there is not a face of the octant, nor the octant's of
    the piece: without the face lookup a separating facet alone would pass.
    """
    cones = [
        [(sx, 0, 0), (0, sy, 0), (0, 0, sz)]
        for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)
        if (sx, sy, sz) != (1, 1, -1)
    ]
    cones += [[(1, 0, 0), (1, 1, 0), (0, 0, -1)], [(1, 1, 0), (0, 1, 0), (0, 0, -1)]]
    return fan(*cones)


def assert_divisor_matches(x):
    assert fan_validate(x.tailfan) == reference_fan_problems(x.tailfan)
    for s in x.complexes:
        assert complex_validate(s) == reference_complex_problems(s)
    assert [(v.code, v.message) for v in validate(x).violations] == reference_violations(x)


@pytest.mark.parametrize(
    "seed, rank", [(500 + s, 3) for s in range(8)] + [(1000 + s, 4) for s in range(4)]
)
def test_downgrade_validation_matches_reference(seed, rank):
    f = random_complete_fan(random.Random(seed), rank, 5)
    assert fan_validate(f) == reference_fan_problems(f) == []
    x = downgrade(DowngradeInput(f))
    assert_divisor_matches(x)
    assert validate(x).ok


def test_improper_fans_match_reference():
    for f in [build() for build in FANS.values()] + [subdivided_facet_fan()]:
        assert fan_validate(f) == reference_fan_problems(f)
        s = sigma_as_complex(f)
        assert complex_validate(s) == reference_complex_problems(s)
    for build in COMPLEXES.values():
        assert complex_validate(build()) == reference_complex_problems(build())
    found = fan_validate(subdivided_facet_fan())
    assert found == [
        "cones ((0, 0, -1), (0, 1, 0), (1, 1, 0)) and ((0, 0, 1), (0, 1, 0), (1, 0, 0)) do not meet in a common face",
        "cones ((0, 0, -1), (1, 0, 0), (1, 1, 0)) and ((0, 0, 1), (0, 1, 0), (1, 0, 0)) do not meet in a common face",
    ]


def translate(p: Polyhedron, t) -> Polyhedron:
    """``p`` moved by the integer vector ``t``."""
    verts = [tuple(a + b for a, b in zip(v, t)) for v in p.vertices]
    return make_polyhedron(verts, p.tail.generators, p.ambient_rank)


def mutations(x):
    """Each divisor with one mark dropped, one cone marked or fiber "0" moved."""
    for m in sorted(x.marked, key=Cone.sort_key):
        yield MarkedFansyDivisor(x.rank, x.points, x.complexes, x.tailfan, x.marked - {m})
    for c in x.tailfan.all_cones():
        if c not in x.marked:
            yield MarkedFansyDivisor(x.rank, x.points, x.complexes, x.tailfan, x.marked | {c})
    i = x.points.index("0")
    for t in ((1, 0), (0, -1), (-2, 1)):
        moved = make_complex([translate(c, t) for c in x.complexes[i].maximal_cells], x.rank)
        complexes = x.complexes[:i] + (moved,) + x.complexes[i + 1 :]
        yield MarkedFansyDivisor(x.rank, x.points, complexes, x.tailfan, x.marked)


def test_mutated_downgrades_match_reference():
    codes = set()
    for s in range(8):
        x = downgrade(DowngradeInput(random_complete_fan(random.Random(500 + s), 3, 5)))
        for y in mutations(x):
            assert_divisor_matches(y)
            codes |= {v.code for v in validate(y).violations}
    assert MARKING_CODES <= codes
