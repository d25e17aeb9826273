"""Fan, complex and divisor validation against the pairwise references.

``fan_validate`` and ``complex_validate`` meet no pair when the ridge
certificate holds (every facet shared by two members on opposite sides, one
generic point covered once), and ``validate`` reads the degree loci of a
semiample marked cone off its cells' vertex minima.  The references in
``conftest`` meet every pair and build every Minkowski sum; each report must
equal theirs, message for message.
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

from tchow.build import DowngradeInput, downgrade, fixture
from tchow.fansy import MarkedFansyDivisor, sigma_as_complex, validate
from tchow.polyhedra import Cone, Polyhedron, complex_validate, fan_validate, make_complex, make_polyhedron

MARKING_CODES = {"NOT_SEMIAMPLE", "MARKING_TOO_SMALL", "MARKING_TOO_LARGE", "DEGREE_MEETS_ORIGIN"}


def subdivided_facet_fan():
    """The eight coordinate octants, octant (1, 1, -1) split along (1, 1, 0).

    Each piece and octant (1, 1, 1) are separated by the plane z = 0, but
    the piece's wall there is not a face of the octant, nor the octant's of
    the piece: a separating facet alone would pass the pair, while the ridge
    certificate finds each of those walls a facet of one cone only.
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


def same_side_fan():
    """The four quadrants and three cones inside the first one.

    Each ray of the three cones is a facet of two of them on the same side,
    and the generic point lies in the first quadrant alone: only the
    opposite-sides test of the ridge certificate refuses this fan.
    """
    quadrants = [[(1, 0), (0, 1)], [(0, 1), (-1, 0)], [(-1, 0), (0, -1)], [(0, -1), (1, 0)]]
    return fan(*quadrants, [(6, 1), (3, 1)], [(3, 1), (2, 1)], [(6, 1), (2, 1)])


def apart_at_height_zero():
    """Two cells that do not meet, though their tail cones overlap.

    The homogenized cones of A = cone(e1, e2, e3) and B = (-1, -1, 0) +
    cone((0, 1, 0), (-1, 1, 0), (0, 1, 1)) meet in cone((0, 1, 0, 0),
    (0, 1, 1, 0)) at height 0, which is no face of A's cone: the empty meet
    of the cells is allowed, and no pair is named.
    """
    a = make_polyhedron([(0, 0, 0)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    b = make_polyhedron([(-1, -1, 0)], [(0, 1, 0), (-1, 1, 0), (0, 1, 1)], 3)
    return make_complex([a, b], 3)


def test_improper_fans_match_reference():
    for f in [build() for build in FANS.values()] + [subdivided_facet_fan(), same_side_fan()]:
        assert fan_validate(f) == reference_fan_problems(f)
        s = sigma_as_complex(f)
        assert complex_validate(s) == reference_complex_problems(s)
    for build in COMPLEXES.values():
        assert complex_validate(build()) == reference_complex_problems(build())
    assert fan_validate(same_side_fan())  # the quadrant and the three cones inside it
    apart = apart_at_height_zero()
    found = complex_validate(apart)
    assert found == reference_complex_problems(apart)
    assert found and not any("do not meet in a common face" in problem for problem in found)
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
        yield MarkedFansyDivisor(x.points, x.complexes, x.marked - {m})
    for c in x.tailfan.all_cones():
        if c not in x.marked:
            yield MarkedFansyDivisor(x.points, x.complexes, x.marked | {c})
    i = x.points.index("0")
    for t in ((1, 0), (0, -1), (-2, 1)):
        moved = make_complex([translate(c, t) for c in x.complexes[i].maximal_cells], x.rank)
        complexes = x.complexes[:i] + (moved,) + x.complexes[i + 1 :]
        yield MarkedFansyDivisor(x.points, complexes, x.marked)


def not_semiample_cones(violations) -> set[str]:
    """The generators, as printed, of each marked cone reported not semiample."""
    prefix = "marked cone "
    return {
        v.message[len(prefix) : v.message.index(": evaluation")]
        for v in violations
        if v.code == "NOT_SEMIAMPLE"
    }


def test_mutated_downgrades_match_reference():
    codes = set()
    for s in range(8):
        x = downgrade(DowngradeInput(random_complete_fan(random.Random(500 + s), 3, 5)))
        for y in mutations(x):
            assert_divisor_matches(y)
            violations = validate(y).violations
            codes |= {v.code for v in violations}
            # one fault, one message: a cone that is not semiample has no marking messages
            for sigma in not_semiample_cones(violations):
                assert not any(
                    f" of {sigma} " in v.message
                    for v in violations
                    if v.code in MARKING_CODES - {"NOT_SEMIAMPLE"}
                ), (sigma, violations)
    assert MARKING_CODES <= codes


def test_moved_fiber_is_not_semiample_alone():
    # every vertex of p2_E's fiber "0" moved by (-2, 1): the degree loci leave
    # their marked cones, which is reported once per failing facet normal and
    # not again as a marking fault
    x = fixture("p2_E")
    i = x.points.index("0")
    moved = make_complex([translate(c, (-2, 1)) for c in x.complexes[i].maximal_cells], x.rank)
    y = MarkedFansyDivisor(x.points, x.complexes[:i] + (moved,) + x.complexes[i + 1 :], x.marked)
    assert [v.code for v in validate(y).violations] == ["NOT_SEMIAMPLE"] * 3
    assert [(v.code, v.message) for v in validate(y).violations] == reference_violations(y)
