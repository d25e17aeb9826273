import random
from fractions import Fraction

import pytest
from conftest import (
    complex_faces,
    cone_contains,
    deg_xi,
    fraction_mu_of_face,
    fraction_poly_min,
    fraction_s_sigma,
    p1p1_fan,
    p2_fan,
    poly_contains,
    poly_is_face_of,
    random_bundle,
    random_complete_fan,
    spy_certificates,
    with_extra_generic_point,
)

from tchow import fansy
from tchow.build import (
    FIXTURE_NAMES,
    DowngradeInput,
    bundle_rank2,
    downgrade,
    fixture,
    p2_projectivized_fan,
)
from tchow.exactlin import dot
from tchow.fansy import (
    MarkedFansyDivisor,
    NonUniqueFaceError,
    _poly_min,
    enumerate_generators,
    make_divisor,
    mu_of_face,
    s_sigma,
    sigma_as_complex,
    unique_face_over,
    validate,
)
from tchow.polyhedra import (
    all_complex_faces,
    make_complex,
    make_cone,
    make_fan,
    make_polyhedron,
)

F = Fraction


@pytest.fixture(scope="module")
def gr24():
    return fixture("gr24")


@pytest.fixture(scope="module")
def p1p1():
    return fixture("p1p1_bundle")


def test_gr24_valid(gr24):
    assert validate(gr24).ok


def test_gr24_missing_maximal_mark_violates_closure(gr24):
    smaller = frozenset(
        c for c in gr24.marked if c.dim < 3 or c != max(gr24.marked, key=lambda c: c.sort_key())
    )
    broken = MarkedFansyDivisor(gr24.points, gr24.complexes, smaller)
    report = validate(broken)
    assert any(v.code == "MARKS_NOT_UPWARD_CLOSED" for v in report.violations)
    assert_report_is_stable(broken, report)


def test_dangling_cell_breaks_completeness():
    # drop one cell of a complete fan-complex
    fan = make_fan(
        [
            make_cone([(1, 0), (0, 1)], 2),
            make_cone([(0, 1), (-1, -1)], 2),
            make_cone([(-1, -1), (1, 0)], 2),
        ],
        2,
    )
    cells = list(sigma_as_complex(fan).maximal_cells)[:2]
    broken_complex = make_complex(cells, 2)
    x = make_divisor([("0", sigma_as_complex(fan)), ("1", broken_complex)], [])
    report = validate(x)
    assert any(v.code == "BAD_COMPLEX" for v in report.violations)
    assert_report_is_stable(x, report)


def assert_report_is_stable(x, report):
    """A second validate, and one of an equal fresh divisor, find the same violations."""
    assert validate(x).violations == report.violations
    fresh = MarkedFansyDivisor(x.points, x.complexes, x.marked)
    assert fresh == x and fresh is not x
    assert validate(fresh).violations == report.violations
    with pytest.raises(AttributeError):
        report.violations = ()


def test_gr24_compact_edges(gr24):
    s0 = gr24.complex_at("0")
    compact_edges = [
        f for f, _ in complex_faces(s0, 1) if f.tail.is_zero()
    ]
    assert len(compact_edges) == 1
    assert compact_edges[0].vertices == ((F(-1), F(-1), F(0)), (F(0), F(0), F(0)))


def test_p1p1_fiber_vertices(p1p1):
    s0 = p1p1.complex_at("0")
    verts = [f for f, _ in complex_faces(s0, 0)]
    assert sorted(v.vertices[0] for v in verts) == [(F(0), F(0)), (F(1), F(0))]


def test_p1p1_tailfan_is_blowup(p1p1):
    rays = {c.generators[0] for c in p1p1.tailfan.cones(1)}
    assert rays == {(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, 1)}
    assert len(p1p1.tailfan.maximal_cones) == 6


def test_enumerate_counts_gr24(gr24):
    expected = {3: (0, 6, 0), 2: (0, 3, 8), 1: (0, 0, 12), 0: (0, 0, 6)}
    for k, counts in expected.items():
        assert enumerate_generators(gr24, k).counts == counts


def test_enumerate_top_k(gr24, p1p1):
    for x in (gr24, p1p1):
        top = enumerate_generators(x, x.rank + 1)
        assert top.counts == (1, 0, 0)
        assert top.r[0].cone.is_zero()


def test_enumerate_out_of_range(gr24):
    with pytest.raises(ValueError):
        enumerate_generators(gr24, -1)
    with pytest.raises(ValueError):
        enumerate_generators(gr24, 5)


def test_t_top_always_empty(gr24, p1p1):
    for x in (gr24, p1p1):
        assert enumerate_generators(x, x.rank).counts[2] == 0


def test_enumerate_partition(p1p1):
    # every tailfan cone of the relevant dimension is either an R generator
    # or marked; every fiber face with unmarked tail appears exactly once
    x = p1p1
    for k in range(x.rank + 2):
        gens = enumerate_generators(x, k)
        cones = x.tailfan.cones(x.rank + 1 - k)
        assert len(gens.r) == sum(1 for c in cones if not x.is_marked(c))
        seen = {(g.point, g.face) for g in gens.v}
        assert len(seen) == len(gens.v)


def test_unique_face_over_gr24(gr24):
    ray = make_cone([(1, 0, 0)], 3)
    face = unique_face_over(gr24, ray, "0")
    assert face.vertices == ((F(0), F(0), F(0)),)
    assert face.tail == ray


def test_unique_face_over_unmarked_errors(gr24):
    with pytest.raises(NonUniqueFaceError):
        unique_face_over(gr24, make_cone([], 3), "0")


def test_unique_face_over_downgrade_crossing():
    x = fixture("p2_E")
    ray = make_cone([(1, 0)], 2)
    assert x.is_marked(ray)
    f0 = unique_face_over(x, ray, "0")
    assert f0.vertices == ((F(1), F(0)),)
    assert f0.tail == ray


def test_unique_face_over_counts_the_faces():
    # an unvalidated divisor whose marks break uniqueness: the ray (0, 1) of
    # p2_E has three faces over 0, and the ray (1, 1) is in no fiber at all
    x = fixture("p2_E")
    several, none = make_cone([(0, 1)], 2), make_cone([(1, 1)], 2)
    y = MarkedFansyDivisor(x.points, x.complexes, x.marked | {several, none})
    with pytest.raises(NonUniqueFaceError, match="over 0, found 3"):
        unique_face_over(y, several, "0")
    with pytest.raises(NonUniqueFaceError, match="over 0, found 0"):
        unique_face_over(y, none, "0")


def test_mu_of_face_examples(gr24):
    # lattice vertices give multiplicity one
    edge = unique_face_over(gr24, make_cone([(1, 0, 0)], 3), "0")
    assert mu_of_face(edge) == 1
    ray_from_half = make_polyhedron([(F(1, 2), F(0))], [(1, 0)], 2)
    assert mu_of_face(ray_from_half) == 1
    half_vertex = make_polyhedron([(F(1, 2), F(0))], [], 2)
    assert mu_of_face(half_vertex) == 2


def test_s_sigma_gr24_all_one(gr24):
    for sigma in sorted(gr24.marked, key=lambda c: c.sort_key()):
        s = s_sigma(gr24, sigma)
        assert s == 1
        for p in gr24.points:
            assert s % mu_of_face(unique_face_over(gr24, sigma, p)) == 0


def quad_complex(shift):
    """Complete complex in the plane with a horizontal crease at height shift."""
    cells = [
        make_polyhedron([(F(0), shift)], [(1, 0), (0, 1)], 2),
        make_polyhedron([(F(0), shift)], [(0, 1), (-1, 0)], 2),
        make_polyhedron([(F(0), shift)], [(-1, 0), (0, -1)], 2),
        make_polyhedron([(F(0), shift)], [(0, -1), (1, 0)], 2),
    ]
    return make_complex(cells, 2)


def test_s_sigma_half_vertices():
    ray = make_cone([(1, 0)], 2)
    q1 = make_cone([(1, 0), (0, 1)], 2)
    q4 = make_cone([(0, -1), (1, 0)], 2)
    x = make_divisor(
        [("0", quad_complex(F(1, 2))), ("inf", quad_complex(F(-1, 2)))],
        [ray, q1, q4],
    )
    assert s_sigma(x, ray) == 2
    with pytest.raises(ValueError):
        s_sigma(x, make_cone([(0, 1)], 2))


def test_deg_xi_p1p1(p1p1):
    degs = deg_xi(p1p1)
    assert len(degs) == len([c for c in p1p1.tailfan.cones(2) if p1p1.is_marked(c)])
    point_in = lambda pt: any(poly_contains(d, pt) for _, d in degs)
    assert not point_in((0, -1))
    assert point_in((2, 0))
    assert point_in((0, 2))


def test_deg_xi_trivial_coefficients():
    fan = make_fan(
        [
            make_cone([(1, 0), (0, 1)], 2),
            make_cone([(0, 1), (-1, -1)], 2),
            make_cone([(-1, -1), (1, 0)], 2),
        ],
        2,
    )
    sigma = make_cone([(1, 0), (0, 1)], 2)
    x = make_divisor([("0", sigma_as_complex(fan)), ("inf", sigma_as_complex(fan))], [sigma])
    degs = dict(deg_xi(x))
    assert degs[sigma].vertices == ((F(0), F(0)),)
    assert degs[sigma].tail == sigma


def test_deg_xi_gr24_contained_in_cone(gr24):
    for sigma, deg in deg_xi(gr24):
        for v in deg.vertices:
            assert sigma.contains(v)
        assert deg.tail == sigma


def test_marking_biconditional_rederived(gr24, p1p1):
    # the stored marks match what the degree loci dictate
    from tchow.polyhedra import cone_as_polyhedron, poly_intersect

    for x in (gr24, p1p1):
        for sigma, deg in deg_xi(x):
            for tau in sigma.faces:
                if tau == sigma or tau.is_zero():
                    continue
                meets = not poly_intersect(deg, cone_as_polyhedron(tau)).is_empty
                assert meets == x.is_marked(tau)


def test_aux_point_padding():
    fan = make_fan([make_cone([(1,)], 1), make_cone([(-1,)], 1)], 1)
    x = make_divisor([("0", sigma_as_complex(fan))], [])
    assert x.points == ("0", "aux1")
    assert validate(x).ok
    y = with_extra_generic_point(x, "aux2")
    assert len(y.points) == 3
    assert validate(y).ok
    # the padding takes the labels not already in use
    for label, other in (("aux1", "aux2"), ("aux2", "aux1")):
        x = make_divisor([(label, sigma_as_complex(fan))], [])
        assert x.points == (label, other)
        assert validate(x).ok


def seeded_fans():
    """Seeded rank-3 and rank-4 fans."""
    fans = [random_complete_fan(random.Random(s)) for s in (1, 2)]
    fans.append(random_complete_fan(random.Random(1001), 4, 5))
    return fans


def seeded_divisors():
    """The fixtures, seeded bundles, and the downgrades of the seeded fans."""
    xs = [fixture(name) for name in FIXTURE_NAMES]
    rng = random.Random(5)
    bases = [p2_fan(), p1p1_fan()]
    xs += [bundle_rank2(random_bundle(rng, bases[i % 2])) for i in range(4)]
    xs += [downgrade(DowngradeInput(fan)) for fan in seeded_fans()]
    return xs


def assert_fan_cofaces_match_scan(fan):
    assert set(fan.cofaces) == set(fan.all_cones())
    assert fan.cofaces[fan.cones(0)[0]] == fan.cones(1)  # the zero cone's
    for tau in fan.all_cones():
        assert list(fan.cofaces[tau]) == [
            sigma for sigma in fan.cones(tau.dim + 1) if cone_contains(sigma, tau)
        ], tau


def test_context_indexes_match_linear_scans():
    # the fans the toric oracle reads: the seeded ones and the two p2 fans
    for fan in seeded_fans() + [p2_projectivized_fan(w) for w in "EF"]:
        assert_fan_cofaces_match_scan(fan)
    for x in seeded_divisors():
        assert_fan_cofaces_match_scan(x.tailfan)
        cones = set(x.tailfan.all_cones())
        for p in x.points:
            fiber = x.complex_at(p)
            faces = all_complex_faces(fiber)
            for d in range(x.rank + 1):
                assert list(fiber.by_dim.get(d, ())) == [f for f in faces if f.dim == d]
            assert set(fiber.by_tail) <= cones
            for c in cones:
                assert list(fiber.by_tail.get(c, ())) == [f for f in faces if f.tail == c]
            assert set(fiber.cofaces) == set(faces)
            for f in faces:
                assert list(fiber.cofaces[f]) == [
                    g for g in faces if g.dim == f.dim + 1 and poly_is_face_of(f, g)
                ], (p, f)


def test_fiber_tail_fans_reuse_the_tailfan_check(monkeypatch):
    certified, met = spy_certificates(monkeypatch)
    fan = p2_fan()
    x = make_divisor([("0", sigma_as_complex(fan)), ("inf", sigma_as_complex(fan))], [])
    assert validate(x).ok
    # both fibers' tail fans equal the tailfan: one certificate, no pair met
    fans = {key: n for key, n in certified.items() if not key[1]}
    assert fans == {(frozenset(x.tailfan.maximal_cones), False): 1} and met == []


NON_FAN = "cones ((0, 1),) and ((1, 0),) do not meet in a common face"


def report_non_fan(monkeypatch, fiber):
    """Have fan validation report the tail fan of ``fiber`` as not being a fan.

    Every fan is still validated, so its certificate is still asked for.
    """
    real = fansy.fan_validate

    def problems(fan):
        found = real(fan)
        return [NON_FAN] if fan == fiber.tail_fan else found

    monkeypatch.setattr(fansy, "fan_validate", problems)


@pytest.mark.parametrize("own, bad", [(True, True), (False, True), (False, False)])
def test_shared_tail_fan_messages(monkeypatch, own, bad):
    # the first fiber's tail fan is the tailfan, reported as not being a fan
    # or not; the second fiber's is that tailfan (own) or another complete fan,
    # compared with the tailfan only when the first fiber is valid
    fibers = (sigma_as_complex(p2_fan()), sigma_as_complex(p2_fan() if own else p1p1_fan()))
    certified, _ = spy_certificates(monkeypatch)
    if bad:
        report_non_fan(monkeypatch, fibers[0])
    x = MarkedFansyDivisor(("0", "inf"), fibers, frozenset())
    assert x.tailfan is fibers[0].tail_fan
    found = [(v.code, v.message) for v in validate(x).violations]
    expected = [("NON_FAN_TAILS", f"fiber over 0: {NON_FAN}")] if bad else []
    assert max(certified.values()) == 1  # each fan and complex certified once
    if own:
        expected.append(("NON_FAN_TAILS", f"fiber over inf: {NON_FAN}"))
        # one certificate for the fan both fibers share
        fans = {key: n for key, n in certified.items() if not key[1]}
        assert fans == {(frozenset(x.tailfan.maximal_cones), False): 1}
    elif not bad:
        expected.append(("TAILFAN_MISMATCH", "fiber over inf has a different tailfan"))
    assert found == expected


def test_divisor_is_its_fibers_and_marks():
    # the rank and the tailfan are the first fiber's, not fields of their own
    assert MarkedFansyDivisor._fields == ("points", "complexes", "marked")
    x = fixture("p2_E")
    with pytest.raises(TypeError):
        MarkedFansyDivisor(3, x.points, x.complexes, x.tailfan, x.marked)
    for y in seeded_divisors():
        assert y.rank == y.complexes[0].ambient_rank
        assert y.tailfan is y.complexes[0].tail_fan


def test_non_fan_tails_of_a_sole_fiber_are_reported_by_validate(monkeypatch):
    # make_divisor checks nothing: the padding fiber is the first fiber's
    # tail fan as a complex, whose faults are the first fiber's, reported once
    fiber = sigma_as_complex(p2_fan())
    report_non_fan(monkeypatch, fiber)
    x = make_divisor([("0", fiber)], [])
    assert x.points == ("0", "aux1")
    found = [(v.code, v.message) for v in validate(x).violations]
    assert found == [("NON_FAN_TAILS", f"fiber over 0: {NON_FAN}")]


def test_divisor_without_points_reports_too_few_points():
    # no fiber means no degree locus, nor a rank or a tailfan to read
    fan = p2_fan()
    marked = frozenset(c for c in fan.all_cones() if not c.is_zero())
    x = MarkedFansyDivisor((), (), marked)
    assert [v.code for v in validate(x).violations] == ["TOO_FEW_POINTS"]


def reference_divisors():
    """The fixtures, seeded rank-3 and rank-4 downgrades and seeded bundles."""
    xs = [fixture(name) for name in FIXTURE_NAMES]
    xs += [downgrade(DowngradeInput(random_complete_fan(random.Random(500 + s), 3, 5))) for s in range(4)]
    xs += [downgrade(DowngradeInput(random_complete_fan(random.Random(1000 + s), 4, 5))) for s in range(2)]
    rng = random.Random(4711)
    xs += [bundle_rank2(random_bundle(rng, (p2_fan(), p1p1_fan())[i % 2])) for i in range(6)]
    return xs


def test_integer_generator_reads_match_fraction_references():
    """``mu_of_face``, ``s_sigma`` and ``_poly_min`` read integer homogenized
    generators; each equals its ``Fraction`` reference."""
    seen = dict.fromkeys(["mu > 1", "s > 1", "fractional min"], 0)
    for x in reference_divisors():
        normals = {u for c in x.tailfan.maximal_cones for u in c.normals}
        normals |= {tuple(-a for a in u) for u in normals}
        fibers = [all_complex_faces(s) for s in x.complexes]
        for p, faces in zip(x.points, fibers):
            for f in faces:
                mu = mu_of_face(f)
                assert mu == fraction_mu_of_face(f), (p, f)
                seen["mu > 1"] += mu > 1
                for u in sorted(normals):
                    if any(dot(u, r) < 0 for r in f.tail.generators):
                        continue  # _poly_min needs u nonnegative on the tail
                    m = _poly_min(f, u)
                    assert m == fraction_poly_min(f, u), (f, u)
                    seen["fractional min"] += m.denominator > 1
        for sigma in x.marked:
            s = s_sigma(x, sigma)
            assert s == fraction_s_sigma(x, sigma), sigma
            seen["s > 1"] += s > 1
    assert min(seen.values()) > 0, seen
