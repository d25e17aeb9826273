from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tchow.polyhedra import (
    Cone,
    GeometryError,
    NonFanTailsError,
    complex_faces,
    complex_tailfan,
    complex_validate,
    cone_as_polyhedron,
    cone_faces,
    cone_intersect,
    dual_and_faces,
    empty_polyhedron,
    fan_is_complete,
    fan_validate,
    make_complex,
    make_cone,
    make_fan,
    make_polyhedron,
    minkowski_sum,
    poly_faces,
    poly_intersect,
    tailcone,
)

F = Fraction


def C(*gens):
    return make_cone(gens, len(gens[0]) if gens else 2)


def P(verts, rays, n=None):
    n = n if n is not None else len(verts[0])
    return make_polyhedron(verts, rays, n)


def test_dual_and_faces_quadrant():
    c = C((1, 0), (0, 1))
    normals, by_dim = dual_and_faces(c)
    assert sorted(normals) == [(0, 1), (1, 0)]
    assert [f.generators for f in by_dim[0]] == [()]
    assert sorted(f.generators for f in by_dim[1]) == [((0, 1),), ((1, 0),)]
    assert by_dim[2] == [c]


def test_dual_and_faces_skew():
    normals, _ = dual_and_faces(C((1, 2), (1, -2)))
    assert sorted(normals) == [(2, -1), (2, 1)]


def test_dual_and_faces_zero_cone():
    zero = make_cone([], 2)
    normals, by_dim = dual_and_faces(zero)
    assert normals == []
    assert by_dim == {0: [zero]}


def test_cone_canonicalization_drops_redundant():
    c = make_cone([(1, 0), (1, 1), (0, 1), (2, 2)], 2)
    assert c.generators == ((0, 1), (1, 0))


def test_cone_not_pointed_rejected():
    with pytest.raises(GeometryError):
        make_cone([(1, 0), (-1, 0)], 2)


def test_cone_round_trip_random():
    import random

    rng = random.Random(7)
    for _ in range(40):
        gens = [
            tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(rng.randint(1, 5))
        ]
        try:
            c = make_cone(gens, 3)
        except GeometryError:
            continue
        # V -> H -> V is the identity on canonical forms
        again = make_cone(c.generators, 3)
        assert again == c
        for g in gens:
            assert c.contains(g)


def test_tailcone_examples():
    # {(x,y): x >= 1/2, y >= x} has vertex (1/2,1/2) and recession Cone((0,1),(1,1))
    p = P([(F(1, 2), F(1, 2))], [(0, 1), (1, 1)])
    assert tailcone(p).generators == ((0, 1), (1, 1))
    seg = P([(0, 0), (1, 0)], [])
    assert tailcone(seg).is_zero()
    quad = cone_as_polyhedron(C((1, 0), (0, 1)))
    assert tailcone(quad) == C((1, 0), (0, 1))
    with pytest.raises(GeometryError):
        tailcone(empty_polyhedron(2))


def test_polyhedron_canonical_vertices():
    # midpoint and a non-extreme vertex are dropped
    p = P([(0, 0), (2, 0), (1, 0)], [])
    assert p.vertices == ((F(0), F(0)), (F(2), F(0)))
    p2 = P([(0, 0), (1, 1)], [(1, 1)])
    assert p2.vertices == ((F(0), F(0)),)


def test_minkowski_strip():
    seg = P([(0, 0), (1, 0)], [])
    ray = P([(0, 0)], [(0, 1)])
    s = minkowski_sum(seg, ray)
    assert s.vertices == ((F(0), F(0)), (F(1), F(0)))
    assert s.tail == C((0, 1))


def test_minkowski_identity_and_empty():
    delta = P([(0, 0), (1, 2)], [(1, 0)])
    origin = P([(0, 0)], [])
    assert minkowski_sum(delta, origin) == delta
    assert minkowski_sum(delta, empty_polyhedron(2)).is_empty


def test_minkowski_three_segments_parallelepiped():
    f23 = P([(0, 0, 0), (-1, -1, 0)], [])
    f12 = P([(0, 0, 0), (-1, 0, -1)], [])
    f13 = P([(1, 1, 1), (1, 0, 0)], [])
    s = minkowski_sum(minkowski_sum(f23, f12), f13)
    assert s.tail.is_zero()
    assert len(s.vertices) == 8
    expected = {
        (1, 1, 1), (1, 0, 0), (0, 1, 0), (0, 0, -1),
        (0, 0, 1), (0, -1, 0), (-1, 0, 0), (-1, -1, -1),
    }
    assert {tuple(int(x) for x in v) for v in s.vertices} == expected


segments2 = st.tuples(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
)


@settings(max_examples=60)
@given(segments2, segments2, segments2)
def test_minkowski_commutative_associative(sa, sb, sc):
    a, b, c = (P(list(s), []) for s in (sa, sb, sc))
    assert minkowski_sum(a, b) == minkowski_sum(b, a)
    assert minkowski_sum(minkowski_sum(a, b), c) == minkowski_sum(
        a, minkowski_sum(b, c)
    )


def test_tail_of_sum_is_join():
    a = P([(0, 0)], [(1, 0)])
    b = P([(3, 1)], [(0, 1)])
    s = minkowski_sum(a, b)
    assert s.tail == C((0, 1), (1, 0))


def test_poly_intersect():
    a = P([(0, 0), (2, 0)], [(0, 1)])
    b = P([(1, -1)], [(0, 1), (1, 1)])
    meet = poly_intersect(a, b)
    assert not meet.is_empty
    assert meet.contains((F(3, 2), F(5))) is meet.contains((F(3, 2), F(5)))
    disjoint = poly_intersect(P([(0, 0)], []), P([(1, 1)], []))
    assert disjoint.is_empty


def test_poly_faces_closed_under_faces():
    prism = P([(0, 0), (1, 0)], [(0, 1)])
    faces = poly_faces(prism)
    for f in faces:
        for sub in poly_faces(f):
            assert sub in faces


def p1_fan_complex():
    left = P([(0,)], [(-1,)], 1)
    right = P([(0,)], [(1,)], 1)
    return make_complex([left, right], 1)


def test_complex_faces_p1():
    s = p1_fan_complex()
    assert complex_validate(s) == []
    verts = complex_faces(s, 0)
    assert len(verts) == 1
    assert verts[0][0].vertices == ((F(0),),)
    assert verts[0][1] == (0, 1)


def test_complex_tailfan_translation_invariance():
    cells = [P([(5,)], [(-1,)], 1), P([(5,)], [(1,)], 1)]
    fan = complex_tailfan(make_complex(cells, 1))
    assert fan == make_fan([C((1,)), C((-1,))], 1)


def test_complex_validate_detects_overlap():
    a = P([(0,)], [(1,)], 1)
    b = P([(-1,)], [(1,)], 1)  # overlaps a in a half-line, not a common face
    s = make_complex([a, b], 1)
    problems = complex_validate(s)
    assert problems != []
    problems.clear()  # the stored result is not the caller's list
    assert complex_validate(s) != []


def test_complex_validate_detects_incompleteness():
    s = make_complex([P([(0,)], [(1,)], 1)], 1)
    assert any("cover" in msg for msg in complex_validate(s))


def test_fan_completeness_and_euler():
    fan = make_fan(
        [C((1, 0), (0, 1)), C((0, 1), (-1, -1)), C((-1, -1), (1, 0))], 2
    )
    assert fan_validate(fan) == []
    assert fan_is_complete(fan)
    assert len(fan.cones(1)) == len(fan.cones(2))
    incomplete = make_fan([C((1, 0), (0, 1))], 2)
    assert not fan_is_complete(incomplete)


def test_fan_validate_bad_pair():
    fan = make_fan([C((1, 0), (0, 1)), C((1, 1), (1, -1))], 2)
    problems = fan_validate(fan)
    assert problems != []
    problems.append("extra")
    assert fan_validate(fan) == problems[:-1]


def test_cone_intersect():
    a = C((1, 0), (0, 1))
    b = C((1, 1), (-1, 1))
    meet = cone_intersect(a, b)
    assert meet.generators == ((0, 1), (1, 1))


def test_cone_faces_count_cube_like():
    # cone over a square: 4 rays, 4 facets, 1 apex, itself
    c = make_cone([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)], 3)
    # not a square cone; use the standard one instead
    sq = make_cone([(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)], 3)
    faces = cone_faces(sq)
    dims = {}
    for f in faces:
        dims[f.dim] = dims.get(f.dim, 0) + 1
    assert dims == {0: 1, 1: 4, 2: 4, 3: 1}
