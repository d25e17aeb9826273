import random
from collections import Counter
from fractions import Fraction

import pytest
from conftest import (
    classify_hij,
    p1p1_fan,
    p2_fan,
    p2_split_bundle,
    predicted_counts,
    random_bundle,
    random_complete_fan,
    reference_bundle_cells,
    reference_downgrade,
    reference_slice_at_height,
    spy_certificates,
)

from tchow.build import (
    FIXTURE_NAMES,
    DowngradeInput,
    IncompleteFanError,
    InconsistentFiltrationsError,
    KlyachkoBundle,
    NonSmoothBaseError,
    RayFiltration,
    _cone_lines,
    _insert_edge,
    _slice,
    bundle_rank2,
    downgrade,
    fixture,
    p2_projectivized_fan,
    projectivized_split_fan,
)
from tchow import chow, polyhedra
from tchow.chow import presentation
from tchow.fansy import enumerate_generators, validate
from tchow.exactlin import mat_vec
from tchow.polyhedra import make_complex, make_cone, make_fan, make_polyhedron

F = Fraction


def test_downgrade_p2_markings():
    # fan of the plane, sliced along the second coordinate
    fan = make_fan(
        [
            make_cone([(1, 0), (0, 1)], 2),
            make_cone([(0, 1), (-1, -1)], 2),
            make_cone([(-1, -1), (1, 0)], 2),
        ],
        2,
    )
    x = downgrade(DowngradeInput(fan))
    assert validate(x).ok
    assert x.points == ("0", "inf")
    # the cone through both half-spaces marks its section ray
    assert x.marked == frozenset({make_cone([(-1,)], 1)})
    # the flat ray contributes an uncontracted horizontal generator
    gens = enumerate_generators(x, 1)
    assert [g.cone.generators for g in gens.r] == [((1,),)]


def test_downgrade_incomplete_rejected():
    fan = make_fan([make_cone([(1, 0), (0, 1)], 2)], 2)
    with pytest.raises(IncompleteFanError):
        downgrade(DowngradeInput(fan))


def test_one_incomplete_fan_error():
    assert IncompleteFanError is chow.IncompleteFanError is polyhedra.IncompleteFanError
    with pytest.raises(IncompleteFanError, match="not complete"):
        polyhedra.require_complete(make_fan([make_cone([(1, 0), (0, 1)], 2)], 2))


def test_downgrade_then_validate_certifies_each_object_once(monkeypatch):
    # a valid fan, the fibers and the tail fan of its downgrade, and the
    # fixtures' are each certified once, and no pair of cones or cells is met
    certified, met = spy_certificates(monkeypatch)
    expected = Counter()
    seeded = [(7 + s, 3) for s in range(5)] + [(1000 + s, 4) for s in range(4)]
    for seed, rank in seeded:
        fan = random_complete_fan(random.Random(seed), rank, 5)
        x = downgrade(DowngradeInput(fan))
        assert validate(x).ok
        expected[frozenset(fan.maximal_cones), False] = 1
        expected[frozenset(x.tailfan.maximal_cones), False] = 1
        for fiber in x.complexes:
            expected[frozenset(fiber.fan.maximal_cones), True] = 1
    assert certified == expected and met == []
    for name in FIXTURE_NAMES:
        assert validate(fixture(name)).ok
    assert met == [] and max(certified.values()) == 1


def test_downgrade_basis_change():
    fan = make_fan(
        [
            make_cone([(1, 0), (0, 1)], 2),
            make_cone([(0, 1), (-1, -1)], 2),
            make_cone([(-1, -1), (1, 0)], 2),
        ],
        2,
    )
    swap = ((0, 1), (1, 0))
    x = downgrade(DowngradeInput(fan, swap))
    assert validate(x).ok
    with pytest.raises(ValueError):
        downgrade(DowngradeInput(fan, ((2, 0), (0, 1))))


def test_downgrade_trichotomy_random():
    # every fan cone lands in exactly one generator family at its level
    rng = random.Random(5)
    fan = random_complete_fan(rng)
    x = downgrade(DowngradeInput(fan))
    assert validate(x).ok
    n = fan.ambient_rank - 1
    for k in range(n + 2):
        cones = fan.cones(n + 1 - k)
        counts = enumerate_generators(x, k).counts
        assert sum(counts) == len(cones)


def random_unimodular(rng, n):
    """A product of a few elementary integer matrices."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3):
        a, b = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        m[a] = [x + k * y for x, y in zip(m[a], m[b])]
    return tuple(tuple(row) for row in m)


def test_downgrade_matches_hrep_reference():
    # cells cut from each cone equal its slices from H-data, and the marks read
    # off the tail fan equal the sections of the cones reaching both half-spaces
    for s in range(10):
        rng = random.Random(700 + s)
        rank = 3 if s < 6 else 4
        fan = random_complete_fan(rng, rank, 5 if rank == 3 else 3)
        change = random_unimodular(rng, rank) if s % 2 else None
        x = downgrade(DowngradeInput(fan, change))
        if change is not None:
            m = [list(r) for r in change]
            fan = make_fan([make_cone([mat_vec(m, g) for g in c.generators], rank) for c in fan.maximal_cones], rank)
        for height in (1, -1):
            expected = [reference_slice_at_height(c, height) for c in fan.all_cones()]
            assert [_slice(c, height) for c in fan.all_cones()] == expected
        zero, inf, marks = reference_downgrade(fan)
        assert x.complex_at("0") == make_complex(zero, rank - 1)
        assert x.complex_at("inf") == make_complex(inf, rank - 1)
        assert x.marked == frozenset(marks)


def test_bundle_cells_match_hrep_reference():
    # the pieces cut at each point's split level equal the three-case H-data pieces
    hirzebruch = make_fan(
        [make_cone(c, 2) for c in ([(1, 0), (0, 1)], [(0, 1), (-1, 1)], [(-1, 1), (0, -1)], [(0, -1), (1, 0)])], 2
    )
    bases = [p2_fan(), p1p1_fan(), hirzebruch]
    two_line_cones = 0
    for s in range(30):
        b = random_bundle(random.Random(800 + s), bases[s % 3])
        x = bundle_rank2(b)
        cells = reference_bundle_cells(b)
        assert x.points == tuple(cells)
        assert x.complexes == tuple(make_complex(cells[p], 2) for p in x.points)
        two_line_cones += sum(len(_cone_lines(b, c)) == 2 for c in b.base_fan.maximal_cones)
    assert two_line_cones >= 20


def test_bundle_p1p1_fixture_markings():
    x = fixture("p1p1_bundle")
    assert x.points == ("0", "1", "inf")
    for c in x.tailfan.maximal_cones:
        assert x.is_marked(c)
    marked_rays = {
        c.generators[0] for c in x.tailfan.cones(1) if x.is_marked(c)
    }
    assert marked_rays == {(1, 0), (0, 1), (-1, 0), (1, 1), (-1, 1)}


def test_bundle_trivial_filtrations():
    base = p1p1_fan()
    filts = tuple(
        (c.generators[0], RayFiltration(1)) for c in base.cones(1)
    )
    x = bundle_rank2(KlyachkoBundle(base, filts))
    assert validate(x).ok
    assert x.marked == frozenset()
    assert x.points == ("aux1", "aux2")
    b = KlyachkoBundle(base, filts)
    for k in range(2):
        assert predicted_counts(b, k)[2] == 0


def test_bundle_sole_line_padded_with_unused_labels():
    base = p1p1_fan()

    def sole_line(label):
        line = lambda g: RayFiltration(0, label, 1) if g == (1, 0) else RayFiltration(0)
        return KlyachkoBundle(base, tuple((c.generators[0], line(c.generators[0])) for c in base.cones(1)))

    xs = {label: bundle_rank2(sole_line(label)) for label in ("aux1", "aux2", "zzz")}
    assert [x.points for x in xs.values()] == [("aux1", "aux2"), ("aux2", "aux1"), ("zzz", "aux1")]
    smith = {label: [presentation(x, k).smith for k in range(4)] for label, x in xs.items()}
    assert smith["aux1"] == smith["aux2"] == smith["zzz"]


def test_bundle_nonsmooth_base_rejected():
    fan = make_fan(
        [make_cone([(1, 0), (1, 2)], 2), make_cone([(1, 2), (-1, 0)], 2),
         make_cone([(-1, 0), (0, -1)], 2), make_cone([(0, -1), (1, 0)], 2)],
        2,
    )
    filts = tuple((c.generators[0], RayFiltration(0)) for c in fan.cones(1))
    with pytest.raises(NonSmoothBaseError):
        bundle_rank2(KlyachkoBundle(fan, filts))


def test_classify_hij():
    b = p2_split_bundle("E")
    assert classify_hij(b, make_cone([(0, 1), (-1, -1)], 2)) == "H"
    assert classify_hij(b, make_cone([(1, 0), (0, 1)], 2)) == "J"
    f = p2_split_bundle("F")
    assert classify_hij(f, make_cone([(0, 1), (-1, -1)], 2)) == "I"
    assert classify_hij(f, make_cone([(1, 0), (0, 1)], 2)) == "J"
    p = fixture("p1p1_bundle")
    bb = __import__("tchow.build", fromlist=["p1p1_bundle"]).p1p1_bundle()
    assert classify_hij(bb, make_cone([(1, 0), (0, 1)], 2)) == "I"
    assert classify_hij(bb, make_cone([(0, -1)], 2)) == "H"
    assert classify_hij(bb, make_cone([(1, 0)], 2)) == "J"


def test_predicted_counts_table():
    # the two torus structures on the same variety: counts differ per family
    # but the totals (5, 9, 6) agree
    be, bf = p2_split_bundle("E"), p2_split_bundle("F")
    assert [predicted_counts(be, k) for k in (2, 1, 0)] == [
        (2, 3, 0),
        (1, 7, 1),
        (0, 4, 2),
    ]
    assert [predicted_counts(bf, k) for k in (2, 1, 0)] == [
        (0, 5, 0),
        (0, 4, 5),
        (0, 1, 5),
    ]
    for b in (be, bf):
        sums = [sum(predicted_counts(b, k)) for k in (2, 1, 0)]
        assert sums == [5, 9, 6]


def test_predicted_matches_enumerated_fixtures():
    for which in ("E", "F"):
        b = p2_split_bundle(which)
        x = bundle_rank2(b)
        for k in range(3):
            assert predicted_counts(b, k) == enumerate_generators(x, k).counts


def test_predicted_matches_enumerated_random():
    rng = random.Random(11)
    bases = [p2_fan(), p1p1_fan()]
    for trial in range(6):
        b = random_bundle(rng, bases[trial % 2])
        x = bundle_rank2(b)
        assert validate(x).ok
        for k in range(b.base_fan.ambient_rank + 1):
            assert predicted_counts(b, k) == enumerate_generators(x, k).counts, (
                trial,
                k,
            )


def test_count_sum_identity_random():
    # r+v+t = #Sigma(n-k+1) + 2 #Sigma(n-k), corrected by the number of
    # special points on the H-cones of dimension n-k
    rng = random.Random(13)
    for trial in range(4):
        b = random_bundle(rng, p2_fan())
        x = bundle_rank2(b)
        npoints = len(x.points)
        n = 2
        for k in range(n):
            r, v, t = enumerate_generators(x, k).counts
            h_low = sum(
                1 for c in b.base_fan.cones(n - k) if classify_hij(b, c) == "H"
            )
            expected = (
                len(b.base_fan.cones(n - k + 1))
                + 2 * len(b.base_fan.cones(n - k))
                + (npoints - 2) * h_low
            )
            assert r + v + t == expected


def test_split_bundle_matches_downgrade():
    for which in ("E", "F"):
        xb = bundle_rank2(p2_split_bundle(which))
        xd = downgrade(DowngradeInput(p2_projectivized_fan(which)))
        for k in range(4):
            assert (
                enumerate_generators(xb, k).counts
                == enumerate_generators(xd, k).counts
            )
            assert presentation(xb, k).smith == presentation(xd, k).smith


def test_projectivized_fan_shape():
    fan = projectivized_split_fan(p2_fan(), {(1, 0): 1})
    assert len(fan.maximal_cones) == 6
    assert len(fan.cones(1)) == 5


def test_fixture_unknown():
    with pytest.raises(ValueError):
        fixture("nope")


def test_gr24_fixture_fan_shape():
    x = fixture("gr24")
    assert len(x.tailfan.maximal_cones) == 6
    assert len(x.tailfan.cones(2)) == 12
    assert len(x.tailfan.cones(1)) == 8
    assert validate(x).ok


def test_insert_edge_cells_are_the_make_polyhedron_objects():
    """A cell built from its extreme rays is the object ``make_polyhedron`` returns.

    On gr24's fibers, and on random lattice edges in random complete rank-3
    fans, each cell on a cone ``c`` is the one the V-data conversion gives for
    ``b + c``, ``a + c`` or ``[a, b] + c``, whichever holds ``b - a``.
    """
    x = fixture("gr24")
    for p in x.points:
        for cell in x.complex_at(p).maximal_cells:
            assert make_polyhedron(cell.vertices, cell.tail.generators, 3) is cell
    rng = random.Random(337)
    seen = Counter()
    for _ in range(40):
        fan = random_complete_fan(rng, 3, 4)
        a, b = (tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(2))
        d = tuple(y - x for x, y in zip(a, b))
        cells = _insert_edge(fan, a, b)
        for c, cell in zip(fan.maximal_cones, cells, strict=True):
            ends = [b] if c.contains(d) else [a] if c.contains([-t for t in d]) else [a, b]
            seen[len(ends), ends[0] == a] += 1
            assert make_polyhedron(ends, c.generators, 3) is cell
    assert seen[2, True] and seen[1, True] and seen[1, False]


def test_p2_E_single_special_fiber():
    x = fixture("p2_E")
    from tchow.fansy import sigma_as_complex

    assert x.complex_at("inf") == sigma_as_complex(x.tailfan)
    assert x.complex_at("0") != sigma_as_complex(x.tailfan)


def test_bundles_with_fewer_than_two_lines_are_padded_by_make_divisor():
    """With no line or one, ``bundle_rank2`` leaves the second point to ``make_divisor``.

    On P1xP1 and P2, the divisor of the first fiber alone, padded there, is
    the very object ``bundle_rank2`` returns.
    """
    from tchow.fansy import make_divisor

    seen = Counter()
    for base in (p1p1_fan(), p2_fan()):
        rays = sorted(r.generators[0] for r in base.cones(1))
        for lines in ({}, {rays[0]: "0"}, {rays[0]: "L", rays[1]: "L"}, {rays[1]: "aux1"}):
            filtrations = tuple(
                (r, RayFiltration(0, lines[r], 2) if r in lines else RayFiltration(1)) for r in rays
            )
            x = bundle_rank2(KlyachkoBundle(base, filtrations))
            labels = sorted(set(lines.values()))
            assert x.points == tuple(labels + [a for a in ("aux1", "aux2") if a not in labels])[:2]
            assert make_divisor([(x.points[0], x.complexes[0])], x.marked) is x
            seen[len(labels), x.complexes[0] is x.complexes[1]] += 1
    assert seen == {(0, True): 2, (1, False): 6}
