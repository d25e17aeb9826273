import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (
    assert_same_facets,
    complex_faces,
    extreme_rays,
    fraction_primitive,
    mat_mul,
    poly_contains,
    poly_is_face_of,
    polyhedron_hrep,
    reference_h_to_generators,
    reference_make_complex,
    reference_perp_lattice,
    reference_polyhedron_from_hrep,
    reference_project,
    reference_quotient_matrix,
    reference_snf_transforms,
    reference_vertices,
)

from tchow import exactlin, polyhedra
from tchow.build import FIXTURE_NAMES, fixture
from tchow.exactlin import (
    dot,
    integer_kernel,
    mat_vec,
    primitive,
    primitive_direction,
)
from tchow.polyhedra import (
    Cone,
    all_complex_faces,
    GeometryError,
    complex_validate,
    cone_as_polyhedron,
    cone_intersect,
    cut,
    empty_polyhedron,
    from_homogenized,
    fan_is_complete,
    fan_validate,
    make_complex,
    make_cone,
    make_fan,
    make_polyhedron,
    minkowski_sum,
    poly_faces,
    poly_intersect,
)
from tchow.value import canonical

F = Fraction


def C(*gens):
    return make_cone(gens, len(gens[0]) if gens else 2)


def P(verts, rays, n=None):
    n = n if n is not None else len(verts[0])
    return make_polyhedron(verts, rays, n)


def faces_by_dim(c):
    by_dim = {}
    for f in c.faces:
        by_dim.setdefault(f.dim, []).append(f)
    return by_dim


def test_cone_faces_quadrant():
    c = C((1, 0), (0, 1))
    by_dim = faces_by_dim(c)
    assert c.normals == ((0, 1), (1, 0))
    assert [f.generators for f in by_dim[0]] == [()]
    assert sorted(f.generators for f in by_dim[1]) == [((0, 1),), ((1, 0),)]
    assert by_dim[2] == [c]


def test_cone_normals_skew():
    assert C((1, 2), (1, -2)).normals == ((2, -1), (2, 1))


def test_cone_faces_zero_cone():
    zero = make_cone([], 2)
    assert zero.normals == ()
    assert faces_by_dim(zero) == {0: [zero]}


def test_zero_cone_h_data_is_derived_when_read():
    for n in range(5):
        zero = Cone(n, ())
        assert zero.span_eqs == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        assert (zero.normals, zero.dim, zero.faces) == ((), 0, (zero,))
        empty = empty_polyhedron(n)
        assert canonical(empty) is empty and empty.dim == -1
        if n:
            cube = lambda shift: P([(x + shift, *v) for x, *v in product((0, 1), repeat=n)], [], n)
            assert poly_intersect(cube(0), cube(2)).cone is empty.cone


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


def test_polyhedron_tail_examples():
    # {(x,y): x >= 1/2, y >= x} has vertex (1/2,1/2) and recession Cone((0,1),(1,1))
    p = P([(F(1, 2), F(1, 2))], [(0, 1), (1, 1)])
    assert p.tail.generators == ((0, 1), (1, 1))
    seg = P([(0, 0), (1, 0)], [])
    assert seg.tail.is_zero()
    quad = cone_as_polyhedron(C((1, 0), (0, 1)))
    assert quad.tail == C((1, 0), (0, 1))
    assert empty_polyhedron(2).tail.is_zero()


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


rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def polytopes_plus_tails(draw):
    """``(vertices, rays, n)``: rational points and a pointed tail in one orthant."""
    n = draw(st.integers(1, 3))
    verts = draw(st.lists(st.tuples(*[rationals] * n), min_size=1, max_size=6))
    signs = draw(st.tuples(*[st.sampled_from((1, -1))] * n))
    rays = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=3))
    return verts, [tuple(s * x for s, x in zip(signs, r)) for r in rays], n


@settings(max_examples=80)
@given(polytopes_plus_tails())
def test_vertices_and_tail_rebuild_the_polyhedron(data):
    verts, rays, n = data
    p = make_polyhedron(verts, rays, n)
    assert make_polyhedron(p.vertices, p.tail.generators, n) == p
    assert set(p.vertices) <= {tuple(map(F, v)) for v in verts}
    assert p.tail == make_cone(rays, n) and not p.is_empty


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
    assert poly_contains(meet, (F(3, 2), F(5))) and not poly_contains(meet, (F(1, 2), F(0)))
    disjoint = poly_intersect(P([(0, 0)], []), P([(1, 1)], []))
    assert disjoint.is_empty
    # parallel half-lines: their homogenized cones meet in a ray at last coordinate 0
    apart = poly_intersect(P([(0, 0)], [(0, 1)]), P([(1, 0)], [(0, 1)]))
    assert apart == empty_polyhedron(2) and apart.cone == Cone(3, ())
    assert (*polyhedron_hrep(apart), apart.dim) == ((), (), -1)
    assert not poly_is_face_of(empty_polyhedron(2), a)


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
    fan = make_complex(cells, 1).tail_fan
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
    faces = sq.faces
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
        assert rays_or_error(extreme_rays, rows, r) == expected, (rows, r)
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
        assert extreme_rays(gens, r) == brute_facets(gens, r), (gens, r)
    assert spanning > 300


def test_h_to_generators_match_brute_force():
    # without equations the rows go to the double description as they are;
    # with them, through coordinates of the lattice they cut out
    rng = random.Random(6)
    tally = {(False, False): 0, (False, True): 0, (True, False): 0, (True, True): 0}
    for _ in range(800):
        r = rng.randint(1, 5)
        rows = random_rows(rng, r)
        neqs = rng.choice((0, 0, 1, 2))
        eqs = [tuple(rng.randint(-2, 2) for _ in range(r)) for _ in range(neqs)]
        both_sides = rows + eqs + [tuple(-c for c in e) for e in eqs]
        expected = rays_or_error(brute_rays, both_sides, r)
        got = rays_or_error(lambda rows, r: reference_h_to_generators(rows, eqs, r), rows, r)
        assert got == expected, (rows, eqs, r)
        tally[bool(eqs), expected != "not pointed"] += 1
    assert min(tally.values()) > 50, tally


def test_extreme_rays_zero_cone():
    assert extreme_rays([(1, 0), (0, 1), (-1, -1)], 2) == []
    assert extreme_rays([(1, 0), (-1, 0), (0, 1), (0, -1)], 2) == []
    meet = cone_intersect(C((1, 0), (0, 1)), C((-1, 0), (0, -1)))
    assert meet.is_zero() and meet.dim == 0


def test_extreme_rays_lower_dimensional_cut():
    assert extreme_rays([(1, 0), (0, 1), (-1, 0)], 2) == [(0, 1)]
    meet = cone_intersect(C((1, 0), (0, 1)), C((1, 0), (0, -1)))
    assert meet == C((1, 0)) and meet.dim == 1
    wall = cone_intersect(C((1, 0, 0), (0, 1, 0), (0, 0, 1)), C((1, 0, 0), (0, -1, 0), (0, 0, 1)))
    assert wall.generators == ((0, 0, 1), (1, 0, 0)) and wall.dim == 2


def test_extreme_rays_rank_one_and_zero():
    assert extreme_rays([(2,)], 1) == [(1,)]
    assert extreme_rays([(-3,), (-1,)], 1) == [(-1,)]
    assert extreme_rays([(1,), (-1,)], 1) == []
    with pytest.raises(GeometryError):
        extreme_rays([(0,)], 1)
    assert extreme_rays([], 0) == []
    assert make_cone([(3,)], 1).generators == ((1,),)
    assert make_cone([(3,)], 1).normals == ((1,),)


# ---------------------------------------------------------------------------
# test-only reference: H-data built in Smith coordinates on the span's
# saturated basis from ``saturation``, with the span equations from a separate
# kernel and denominators cleared through Fractions.  Its normals of a
# lower-dimensional cone need not lie in the span, so they are compared with
# the library's by their values on the generators (``assert_same_facets``).


def fraction_direction(v):
    w, _ = fraction_primitive(v)
    g = gcd(*w)
    return tuple(x // g for x in w)


def saturation(rows, n):
    """Saturated lattice ``span_Q(rows) ∩ Z^n`` via a double perp."""
    return reference_perp_lattice(reference_perp_lattice(rows, n), n)


def span_lattice(gens, n):
    """Saturated basis ``B`` of the span of ``gens`` and coordinates ``x @ Q`` on it."""
    sat = saturation([list(g) for g in gens], n)
    r = len(sat)
    u, _, v = reference_snf_transforms([list(b) for b in sat])
    return sat, mat_mul([[v[i][j] for j in range(r)] for i in range(n)], u)


def reference_h_data(gens, n):
    """Sorted relative facet normals and span equations of the cone on ``gens``."""
    sat, q = span_lattice(gens, n)
    coords = [tuple(dot(g, col) for col in zip(*q)) for g in gens]
    normals = [tuple(dot(w, row) for row in q) for w in extreme_rays(coords, len(sat))]
    return sorted(normals), list(reference_perp_lattice(gens, n))


def reference_cone_h(gens, n):
    normals, eqs = reference_h_data([fraction_direction(g) for g in gens if any(g)], n)
    return tuple(normals), tuple(eqs)


def reference_homogenized_h(verts, rays, n):
    """Reference H-data of the homogenized cone of ``conv(verts) + cone(rays)``."""
    homog = [fraction_primitive(tuple(v) + (1,))[0] for v in verts]
    homog += [fraction_direction(r) + (0,) for r in rays if any(r)]
    normals, eqs = reference_h_data(homog, n + 1)
    return tuple(normals), tuple(eqs)


def assert_h_data(c, reference):
    normals, eqs = reference
    assert c.span_eqs == eqs, (c, eqs)
    assert c.normals == tuple(sorted(c.normals))
    assert_same_facets(c.normals, normals, c.generators, c.span_eqs)


def random_pointed_gens(rng, n):
    """Nonzero integer vectors of a random sublattice, on one side of a functional."""
    basis = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, n))]
    side = [rng.randint(-3, 3) for _ in range(n)]
    gens = []
    for _ in range(rng.randint(1, 6)):
        coeffs = [rng.randint(-2, 2) for _ in basis]
        g = tuple(sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(n))
        if dot(side, g) != 0:
            gens.append(g if dot(side, g) > 0 else tuple(-x for x in g))
    return gens


def random_v_data(rng, n):
    """Vertices and rays in rank ``n``: often lower-dimensional, often Fraction vertices."""
    base = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
    steps = [[F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)] for _ in range(rng.randint(0, n))]
    verts = [base] + [
        tuple(b + sum(rng.randint(-1, 2) * s[j] for s in steps) for j, b in enumerate(base))
        for _ in range(rng.randint(0, 5))
    ]
    rays = random_pointed_gens(rng, n) if rng.random() < 0.5 else []
    return verts, rays


def test_cone_h_data_matches_reference():
    rng = random.Random(41)
    lower = 0
    for _ in range(400):
        n = rng.randint(1, 4)
        gens = random_pointed_gens(rng, n)
        if not gens:
            continue
        c = make_cone(gens, n)
        assert_h_data(c, reference_cone_h(gens, n))
        lower += c.dim < n
    assert lower > 80


def test_polyhedron_h_data_matches_reference():
    rng = random.Random(42)
    lower = fractional = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        verts, rays = random_v_data(rng, n)
        p = make_polyhedron(verts, rays, n)
        assert_h_data(p.cone, reference_homogenized_h(verts, rays, n))
        assert_h_data(p.tail, reference_cone_h(p.tail.generators, n))
        lower += p.dim < n
        fractional += any(x.denominator > 1 for v in p.vertices for x in v)
    assert lower > 60 and fractional > 150


def test_vertices_are_ints_where_integral():
    """``Polyhedron.vertices`` equals the ``Fraction``-only reference entry by entry.

    Over the seeded polyhedra of ``test_polyhedron_h_data_matches_reference``
    and all their faces: the same vertices in the same order, each entry with
    the reference's ``str`` and hash, and an ``int`` exactly when its
    denominator is 1.  The faces sort as by the reference vertices.
    """
    rng = random.Random(42)
    seen = {int: 0, Fraction: 0}
    for _ in range(300):
        n = rng.randint(1, 4)
        p = make_polyhedron(*random_v_data(rng, n), n)
        faces = poly_faces(p)
        key = lambda f: (len(reference_vertices(f)), reference_vertices(f), f.tail.sort_key())
        assert list(faces) == sorted(faces, key=key)
        for f in faces:
            expected = reference_vertices(f)
            assert f.vertices == expected and len(f.vertices) == len(expected)
            for v, w in zip(f.vertices, expected):
                assert len(v) == len(w)
                for x, y in zip(v, w):
                    assert type(x) is (int if y.denominator == 1 else Fraction)
                    assert (x, str(x), hash(x)) == (y, str(y), hash(y))
                    seen[type(x)] += 1
    assert min(seen.values()) > 500, seen


def brute_cone(gens, n):
    """Extreme rays, facet normals and span equations of the cone on nonzero ``gens``.

    In coordinates of the span lattice, the facets are the brute-force facets
    of the generators and the rays the brute-force rays of those facets
    (``GeometryError`` when the cone is not pointed).
    """
    prims = sorted({fraction_direction(g) for g in gens if any(g)})
    sat, q = span_lattice(prims, n)
    r = len(sat)
    facets = brute_facets([tuple(dot(g, col) for col in zip(*q)) for g in prims], r)
    rays = [tuple(dot(y, col) for col in zip(*sat)) for y in brute_rays(facets, r)]
    normals = [tuple(dot(w, row) for row in q) for w in facets]
    return tuple(sorted(rays)), tuple(sorted(normals)), reference_perp_lattice(prims, n)


def cone_or_error(gens, n):
    try:
        c = make_cone(gens, n)
    except GeometryError as exc:
        return str(exc)
    return c.generators, c.normals, c.span_eqs


def test_make_cone_matches_brute_force():
    # duplicate, scaled, non-extreme (sums of others), zero and opposite generators
    rng = random.Random(44)
    seen = dict.fromkeys(["duplicate", "non-extreme", "not pointed", "lower", "full"], 0)
    for _ in range(500):
        n = rng.randint(1, 4)
        gens = random_pointed_gens(rng, n)
        if not gens:
            continue
        for _ in range(rng.randint(0, 3)):
            a, b = rng.choice(gens), rng.choice(gens)
            extra = rng.choice([a, tuple(2 * x for x in a), tuple(x + y for x, y in zip(a, b)), (0,) * n])
            gens.insert(rng.randint(0, len(gens)), extra)
        if rng.random() < 0.25:
            gens.append(tuple(-x for x in rng.choice(gens)))
        try:
            expected = brute_cone(gens, n)
        except GeometryError as exc:
            expected = str(exc)
        found = cone_or_error(gens, n)
        if isinstance(expected, str):
            assert found == expected, (gens, n)
            seen["not pointed"] += 1
            continue
        rays, normals, eqs = expected
        assert (found[0], found[2]) == (rays, eqs), (gens, n)
        assert_same_facets(found[1], normals, rays, eqs)
        distinct = {fraction_direction(g) for g in gens if any(g)}
        seen["duplicate"] += len(distinct) < sum(map(any, gens))
        seen["non-extreme"] += len(expected[0]) < len(distinct)
        seen["lower" if expected[2] else "full"] += 1
    assert min(seen.values()) > 40, seen


def random_full_gens(rng, n):
    """Integer vectors spanning Q^n, on the positive side of a functional."""
    side = [rng.randint(1, 3) for _ in range(n)]
    while True:
        gens = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(n, n + 3))]
        gens = [g if dot(side, g) > 0 else tuple(-x for x in g) for g in gens if dot(side, g)]
        if gens and not integer_kernel([list(g) for g in gens], n):
            return gens


def test_cone_intersect_matches_double_description():
    # a full-dimensional side seeds the meet with its own rays; the meet must
    # be the cone one double description of both sides' H-data gives
    rng = random.Random(45)
    tally = dict.fromkeys([(True, True), (True, False), (False, True), (False, False)], 0)
    for _ in range(600):
        n = rng.randint(1, 4)
        full = rng.random() < 0.3, rng.random() < 0.3
        gens = [random_full_gens(rng, n) if f else random_pointed_gens(rng, n) for f in full]
        if not all(gens):
            continue
        a, b = (make_cone(g, n) for g in gens)
        expected = reference_h_to_generators(a.normals + b.normals, a.span_eqs + b.span_eqs, n)
        meet = cone_intersect(a, b)
        assert meet.generators == tuple(sorted(expected)) == cone_intersect(b, a).generators, (a, b)
        tally[a.dim == n, b.dim == n] += 1
    assert min(tally.values()) > 40, tally


def test_cut_matches_reference():
    # a full-dimensional cone seeds the cut with its own rays, a lower-dimensional
    # one is cut in a basis of its generators; both must give the cone one double
    # description of its H-data and the rows gives
    rng = random.Random(46)
    tally = {True: 0, False: 0}
    for _ in range(600):
        n = rng.randint(1, 4)
        gens = random_full_gens(rng, n) if rng.random() < 0.4 else random_pointed_gens(rng, n)
        if not gens:
            continue
        c = make_cone(gens, n)
        rows = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(0, 3))]
        expected = reference_h_to_generators(c.normals + tuple(rows), c.span_eqs, n)
        assert cut(c, rows).generators == tuple(sorted(expected)), (c, rows)
        tally[c.dim == n] += 1
    assert min(tally.values()) > 150, tally


def test_one_span_kernel_per_construction(monkeypatch):
    """Construction takes no lattice kernel; a cone's ``span_eqs`` take one, on their first read."""
    calls = []
    for name in ("integer_kernel", "_extreme_rays"):
        real = getattr(polyhedra, name)
        # each call with its rank: the kernel's ambient rank, the size of the rays' basis
        rank = len if name == "_extreme_rays" else int
        spy = lambda rows, n, name=name, real=real, rank=rank: calls.append((name, rank(n))) or real(rows, n)
        monkeypatch.setattr(polyhedra, name, spy)
    c = make_cone([(1, 0, 0), (1, 2, 0)], 3)
    # a lower-dimensional span: facets in a basis of 2 generators, no equations yet
    assert calls == [("_extreme_rays", 2)]
    calls.clear()
    assert c.span_eqs == c.span_eqs == ((0, 0, 1),) and calls == [("integer_kernel", 3)]
    calls.clear()
    make_cone([(1, 0, 0), (1, 2, 0), (0, 0, 1), (1, 1, 0)], 3)
    assert calls == [("_extreme_rays", 3)]  # a full-dimensional span: no kernel
    calls.clear()
    p = make_polyhedron([(F(1, 2), 0, 0), (0, 1, 0), (0, 0, 1)], [], 3)
    # a polytope's tail is the zero cone, built without a kernel
    assert calls == [("_extreme_rays", 3)]
    calls.clear()
    assert p.cone.span_eqs == ((2, 1, 1, -1),) and calls == [("integer_kernel", 4)]
    calls.clear()
    p = make_polyhedron([(0, 0)], [(1, 0), (1, 1)], 2)
    assert calls == [("_extreme_rays", 3)]  # the tail is built from the polyhedron's extreme rays
    calls.clear()
    assert p.tail.normals == ((0, 1), (1, -1))
    assert calls == [("_extreme_rays", 2)]  # its H-data is derived when first read, once
    calls.clear()
    assert (p.tail.span_eqs, p.tail.normals, polyhedron_hrep(p)) == (p.tail.span_eqs, p.tail.normals, polyhedron_hrep(p))
    assert calls == []


def test_one_basis_per_cone(monkeypatch):
    """A cold cone eliminates its own generators once, across ``dim``, ``normals`` and a cut."""
    calls = []
    real = polyhedra._independent_rows
    monkeypatch.setattr(polyhedra, "_independent_rows", lambda rows, r: calls.append(tuple(rows)) or real(rows, r))
    cones = [
        (((1, 0, 0), (1, 2, 0)), 3, [(1, -1, 0)]),  # a lower-dimensional cut reads the basis
        (((0, 0, 1, 0), (1, 0, 1, 0), (1, 1, 1, 0)), 4, [(0, 1, -1, 0), (-1, 0, 1, 0)]),
        (((0, 1), (1, 2)), 2, [(1, -1)]),  # full-dimensional: the cut adds rows to the rays
    ]
    for gens, n, rows in cones:
        for order in ("dim", "normals", "cut"), ("cut", "normals", "dim"):
            c = Cone(n, gens)  # a fresh object: nothing derived yet
            calls.clear()
            read = {"dim": lambda: c.dim, "normals": lambda: c.normals, "cut": lambda: cut(c, rows)}
            for name in order:
                read[name]()
            assert calls.count(gens) == 1, (gens, order)


def test_span_eqs_take_one_kernel(monkeypatch):
    """A lower-dimensional cone's ``span_eqs`` are one kernel, read once; a full one's are ``()``."""
    calls = []
    real = polyhedra.integer_kernel
    monkeypatch.setattr(polyhedra, "integer_kernel", lambda *a: calls.append(a) or real(*a))
    for gens, n, eqs in (
        (((1, 1, 0),), 3, ((1, -1, 0), (0, 0, 1))),
        ((), 2, ((1, 0), (0, 1))),
        (((0, 1), (1, 2)), 2, ()),
    ):
        c = Cone(n, gens)  # a fresh object: nothing derived yet
        calls.clear()
        assert c.span_eqs == c.span_eqs == eqs
        assert calls == ([(gens, n)] if eqs else [])


def test_span_eqs_quotient_and_pairing():
    """``mat_vec(span_eqs, .)`` maps ``Z^n`` onto ``Z^(n - dim)`` with kernel the span."""
    c = make_cone([(1, 1, 0)], 3)
    assert c.span_eqs == reference_perp_lattice([(1, 1, 0)], 3) and (1, -1, 0) in c.span_eqs
    assert mat_vec(c.span_eqs, (2, 2, 0)) == (0, 0)
    images = [list(mat_vec(c.span_eqs, e)) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    assert exactlin.hnf_basis(images) == ((1, 0), (0, 1))  # onto Z^2
    rng = random.Random(5)
    dims = set()
    for _ in range(150):
        n = rng.randint(1, 5)
        order = rng.sample(range(n), n)
        # a positive first coordinate keeps the cone pointed; permuted, it lies anywhere
        raw = [[rng.randint(1, 3)] + [rng.randint(-3, 3) for _ in range(n - 1)] for _ in range(rng.randint(0, n))]
        c = make_cone([tuple(g[order[i]] for i in range(n)) for g in raw], n)
        q = len(c.span_eqs)
        assert q == n - c.dim and all(mat_vec(c.span_eqs, g) == (0,) * q for g in c.generators)
        if q:  # onto Z^q: every Smith invariant is 1
            d = reference_snf_transforms([list(e) for e in c.span_eqs])[1]
            assert [d[i][i] for i in range(q)] == [1] * q
        x = [rng.randint(-4, 4) for _ in range(n)]
        proj = reference_quotient_matrix(c.generators, n)
        assert mat_vec(c.span_eqs, x) == reference_project(proj, x)
        dims.add((c.dim, n))
    assert len(dims) > 12, dims


def test_lower_dimensional_normals_lie_in_the_span():
    c = make_cone([(1, 0, 1), (0, 1, 1)], 3)
    assert c.span_eqs == ((1, 1, -1),)
    assert c.normals == ((-1, 2, 1), (2, -1, 1))


def test_extreme_rays_take_no_kernel(monkeypatch):
    cases = [
        ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1), (2, -1, 1)], 3),
        ([(2, 1), (1, -3)], 2),  # a start cone of determinant -7
        ([(0, 1, 0), (1, 0, 0), (0, 0, 1), (1, 1, 1)], 3),  # first pivot needs a swap
    ]
    expected = [brute_rays(rows, r) for rows, r in cases]
    calls = []
    real = exactlin.integer_kernel
    monkeypatch.setattr(exactlin, "integer_kernel", lambda *a: calls.append(a) or real(*a))
    assert [extreme_rays(rows, r) for rows, r in cases] == expected
    assert calls == []


def test_faces_are_built_without_kernels(monkeypatch):
    x = fixture("gr24")
    cells = [c for p in x.points for c in x.complex_at(p).maximal_cells]
    cones = x.tailfan.maximal_cones
    for obj in cells + list(cones):  # the parents' own H-data, read up front
        obj.cone.normals if isinstance(obj, polyhedra.Polyhedron) else obj.normals
    calls = []

    def spy(name):
        real = getattr(polyhedra, name)

        def wrapped(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(polyhedra, name, wrapped)

    spy("integer_kernel")
    spy("_extreme_rays")
    faces = [polyhedra.Polyhedron.faces.func(c) for c in cells] + [Cone.faces.func(c) for c in cones]
    assert calls == []
    assert faces == [poly_faces(c) for c in cells] + [c.faces for c in cones]
    assert sum(map(len, faces)) > 100


# ---------------------------------------------------------------------------
# face queries against a linear scan


def test_face_queries_match_linear_scan():
    outcomes = set()
    for name in FIXTURE_NAMES:
        x = fixture(name)
        for p in x.points:
            cells = x.complex_at(p).maximal_cells
            candidates = {f for c in cells for f in poly_faces(c)}
            for cell in cells:
                scan = poly_faces(cell)
                for f in candidates:
                    found = any(f == g for g in scan)
                    assert poly_is_face_of(f, cell) == found
                    outcomes.add(("poly", found))
        cones = x.tailfan.all_cones()
        for c in cones:
            scan = c.faces
            for f in cones:
                found = any(f == g for g in scan)
                assert (f in c.face_set) == found
                outcomes.add(("cone", found))
    assert len(outcomes) == 4  # faces and non-faces of both kinds


def test_all_complex_faces_returns_a_fresh_list():
    s = fixture("p2_E").complex_at("0")
    first = all_complex_faces(s)
    expected = list(first)
    first.clear()
    assert all_complex_faces(s) == expected
    assert all_complex_faces(s) is not all_complex_faces(s)


# ---------------------------------------------------------------------------
# objects built from known extreme rays against make_cone / make_polyhedron


def assert_canonical_cone(c):
    again = make_cone(c.generators, c.ambient_rank)
    assert c == again and c.generators == again.generators
    assert (c.normals, c.span_eqs, c.dim) == (again.normals, again.span_eqs, again.dim)


def assert_canonical_polyhedron(p):
    again = make_polyhedron(p.vertices, p.tail.generators, p.ambient_rank)
    assert p == again and (p.vertices, p.tail) == (again.vertices, again.tail)
    assert (polyhedron_hrep(p), p.dim) == (polyhedron_hrep(again), again.dim)
    homogenized = [fraction_primitive(v + (1,))[0] for v in p.vertices]
    homogenized += [r + (0,) for r in p.tail.generators]
    assert p.cone == again.cone and p.cone.generators == tuple(sorted(homogenized))
    assert_canonical_cone(p.tail)


def random_polyhedron(rng, n):
    return make_polyhedron(*random_v_data(rng, n), n)


def test_built_from_extreme_rays_matches_make():
    rng = random.Random(43)
    seen = dict.fromkeys(["cone face", "poly face", "cone meet", "poly meet", "hrep", "lower", "fractional"], 0)
    for _ in range(150):
        n = rng.randint(1, 4)
        gens_a, gens_b = random_pointed_gens(rng, n), random_pointed_gens(rng, n)
        if gens_a and gens_b:
            a, b = make_cone(gens_a, n), make_cone(gens_b, n)
            for f in a.faces:
                assert_canonical_cone(f)
                seen["cone face"] += 1
            try:
                meet = cone_intersect(a, b)
            except GeometryError:
                pass
            else:
                assert_canonical_cone(meet)
                seen["cone meet"] += 1
                assert_canonical_polyhedron(cone_as_polyhedron(meet))
        p, q = random_polyhedron(rng, n), random_polyhedron(rng, n)
        for f in poly_faces(p):
            assert_canonical_polyhedron(f)
            seen["poly face"] += 1
            seen["lower"] += f.dim < p.dim < n
            seen["fractional"] += any(x.denominator > 1 for v in f.vertices for x in v)
        meet = poly_intersect(p, q)
        if not meet.is_empty:
            assert_canonical_polyhedron(meet)
            seen["poly meet"] += 1
        box = [(tuple(s * (i == j) for j in range(n)), F(-3)) for i in range(n) for s in (1, -1)]
        cuts = [
            (tuple(rng.randint(-2, 2) for _ in range(n)), F(rng.randint(-5, 5), rng.randint(1, 3)))
            for _ in range(rng.randint(0, 3))
        ]
        flats = [(tuple(rng.randint(-1, 1) for _ in range(n)), F(rng.randint(-2, 2), 2))] if rng.random() < 0.3 else []
        h = reference_polyhedron_from_hrep(box + cuts, flats, n)
        if not h.is_empty:
            assert_canonical_polyhedron(h)
            seen["hrep"] += 1
            assert all(poly_contains(h, v) for v in h.vertices)
    assert min(seen.values()) > 20, seen


def test_fixture_faces_match_make():
    for name in ("p2_E", "p1p1_bundle"):
        x = fixture(name)
        for p in x.points:
            for cell in x.complex_at(p).maximal_cells:
                for f in poly_faces(cell):
                    assert_canonical_polyhedron(f)
        for c in x.tailfan.maximal_cones:
            for f in c.faces:
                assert_canonical_cone(f)


# ---------------------------------------------------------------------------
# make_complex against the pairwise scan of homogenized cones


def junk_around(rng, cells, n):
    """``cells`` with duplicates, empty polyhedra, faces and inner pieces added, shuffled.

    An inner piece is a cell cut by a random affine row: inside the cell,
    and a face of it only by chance.  Also returns how many pieces are not faces.
    """
    out = list(cells) + [rng.choice(cells) for _ in range(rng.randint(1, 3))]
    out += [empty_polyhedron(n)] * rng.randint(1, 2)
    inner = 0
    for c in cells:
        out.append(rng.choice(c.faces))
        row = tuple(rng.randint(-2, 2) for _ in range(n)) + (rng.randint(-3, 3),)
        piece = from_homogenized(cut(c.cone, [row]))
        out.append(piece)
        inner += not piece.is_empty and piece != c and piece not in c.faces
    rng.shuffle(out)
    return out, inner


def test_make_complex_matches_pairwise_reference():
    rng = random.Random(67)
    inner = kept = 0
    for _ in range(80):
        n = rng.randint(1, 3)
        cells, pieces = junk_around(rng, [random_polyhedron(rng, n) for _ in range(rng.randint(1, 4))], n)
        inner += pieces
        s, expected = make_complex(cells, n), reference_make_complex(cells, n)
        assert s == expected and s.maximal_cells == expected.maximal_cells
        assert s is canonical(s) and make_complex(reversed(cells), n) is s
        kept += len(s.maximal_cells)
    assert inner > 40 and kept > 100, (inner, kept)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_make_complex_of_a_fiber_is_the_fiber(name):
    rng = random.Random(name)
    x = fixture(name)
    for s in x.complexes:
        n = s.ambient_rank
        assert make_complex(s.maximal_cells, n) is s
        cells, _ = junk_around(rng, list(s.maximal_cells), n)
        assert make_complex(cells, n) is s
        assert reference_make_complex(cells, n).maximal_cells == s.maximal_cells


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_complex_is_the_fan_of_its_cells(name):
    """A complex's one field is the fan of its cells' homogenized cones, one rank up."""
    for s in fixture(name).complexes:
        n = s.ambient_rank
        assert s.fan is make_fan((c.cone for c in s.maximal_cells), n + 1)
        assert s.fan.ambient_rank == n + 1 and s._fields == ("fan",)
        assert [from_homogenized(c) for c in s.fan.maximal_cones] == sorted(
            s.maximal_cells, key=lambda c: c.cone.sort_key()
        )


def test_make_complex_revisit_builds_no_polyhedron(monkeypatch):
    """A revisit looks the complex up by its fan: no cell is rebuilt from its cone."""
    fibers = [(s, list(s.maximal_cells)) for name in FIXTURE_NAMES for s in fixture(name).complexes]
    for s, cells in fibers:
        assert make_complex(cells, s.ambient_rank) is s
    calls = []
    real = polyhedra.from_homogenized
    monkeypatch.setattr(polyhedra, "from_homogenized", lambda c: calls.append(c) or real(c))
    for s, cells in fibers:
        assert make_complex(cells, s.ambient_rank) is s
    assert calls == [] and sum(len(cells) for _, cells in fibers) > 20
