import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tchow.exactlin import dot, integer_kernel, primitive, primitive_direction
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
    _extreme_rays,
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


# ---------------------------------------------------------------------------
# test-only reference: V <-> H conversion by trying every (r-1)-subset


def brute_facets(gens, r):
    """Facet normals of the full-dimensional cone spanned by ``gens`` in Z^r."""
    if r == 0:
        return []
    normals = set()
    for subset in combinations(range(len(gens)), r - 1):
        kern = integer_kernel([list(gens[i]) for i in subset], r)
        if len(kern) != 1:
            continue
        u = kern[0]
        vals = [dot(u, g) for g in gens]
        if any(x > 0 for x in vals) and any(x < 0 for x in vals):
            continue
        if any(x < 0 for x in vals):
            u = tuple(-x for x in u)
        if any(x != 0 for x in vals):
            normals.add(u)
    return sorted(normals)


def brute_rays(rows, r):
    """Extreme rays of the pointed cone ``{y in Q^r : a . y >= 0}``."""
    if r == 0:
        return []
    int_rows = [primitive(a)[0] for a in rows]
    if integer_kernel([list(a) for a in int_rows], r):
        raise GeometryError("cone is not pointed")
    rays = set()
    for subset in combinations(range(len(int_rows)), r - 1):
        kern = integer_kernel([list(int_rows[i]) for i in subset], r)
        if len(kern) != 1:
            continue
        y = kern[0]
        vals = [dot(a, y) for a in int_rows]
        if any(x > 0 for x in vals) and any(x < 0 for x in vals):
            continue
        if any(x < 0 for x in vals):
            y = tuple(-x for x in y)
        rays.add(y)
    return sorted(rays)


def rays_or_error(f, rows, r):
    try:
        return f(rows, r)
    except GeometryError:
        return "not pointed"


def random_rows(rng, r):
    """Small integer rows with zero, repeated, negated and multiplied ones."""
    rows = [tuple(rng.randint(-3, 3) for _ in range(r)) for _ in range(rng.randint(0, 8))]
    if rows:
        for scale in (-1, 2, 3):
            if rng.random() < 0.3:
                rows.append(tuple(scale * x for x in rng.choice(rows)))
        if rng.random() < 0.2:
            rows.append(rng.choice(rows))
    rng.shuffle(rows)
    return rows


def test_extreme_rays_match_brute_force():
    rng = random.Random(3)
    pointed = 0
    for _ in range(1200):
        r = rng.randint(1, 5)
        rows = random_rows(rng, r)
        expected = rays_or_error(brute_rays, rows, r)
        assert rays_or_error(_extreme_rays, rows, r) == expected, (rows, r)
        pointed += expected != "not pointed"
    assert 300 < pointed < 1100  # both outcomes are well represented


def test_facets_match_brute_force():
    rng = random.Random(4)
    spanning = 0
    for _ in range(1200):
        r = rng.randint(1, 5)
        gens = [primitive_direction(g) for g in random_rows(rng, r) if any(g)]
        if not gens or integer_kernel(gens, r):  # not spanning: no dual to enumerate
            continue
        spanning += 1
        assert _extreme_rays(gens, r) == brute_facets(gens, r), (gens, r)
    assert spanning > 300


def test_extreme_rays_zero_cone():
    assert _extreme_rays([(1, 0), (0, 1), (-1, -1)], 2) == []
    assert _extreme_rays([(1, 0), (-1, 0), (0, 1), (0, -1)], 2) == []
    meet = cone_intersect(C((1, 0), (0, 1)), C((-1, 0), (0, -1)))
    assert meet.is_zero() and meet.dim == 0


def test_extreme_rays_lower_dimensional_cut():
    assert _extreme_rays([(1, 0), (0, 1), (-1, 0)], 2) == [(0, 1)]
    meet = cone_intersect(C((1, 0), (0, 1)), C((1, 0), (0, -1)))
    assert meet == C((1, 0)) and meet.dim == 1
    wall = cone_intersect(C((1, 0, 0), (0, 1, 0), (0, 0, 1)), C((1, 0, 0), (0, -1, 0), (0, 0, 1)))
    assert wall.generators == ((0, 0, 1), (1, 0, 0)) and wall.dim == 2


def test_extreme_rays_rank_one_and_zero():
    assert _extreme_rays([(2,)], 1) == [(1,)]
    assert _extreme_rays([(-3,), (-1,)], 1) == [(-1,)]
    assert _extreme_rays([(1,), (-1,)], 1) == []
    with pytest.raises(GeometryError):
        _extreme_rays([(0,)], 1)
    assert _extreme_rays([], 0) == []
    assert make_cone([(3,)], 1).generators == ((1,),)
    assert make_cone([(3,)], 1).normals == ((1,),)
