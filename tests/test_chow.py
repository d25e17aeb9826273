import random
from fractions import Fraction

import pytest
from conftest import (
    assert_smith_certificate,
    cone_contains,
    face_pair_sides,
    p1p1_fan,
    poly_is_face_of,
    random_complete_fan,
    reference_snf_transforms,
    spy_certificates,
    with_extra_generic_point,
    with_point_order,
)

from tchow import chow
from tchow.build import (
    FIXTURE_NAMES,
    DowngradeInput,
    KlyachkoBundle,
    RayFiltration,
    bundle_rank2,
    downgrade,
    fixture,
)
from tchow.chow import (
    IncompleteFanError,
    presentation,
    relation_block_v,
    toric_chow_presentation,
)
from tchow.fansy import (
    CycleGenerator,
    MarkedFansyDivisor,
    enumerate_generators,
    mu_of_face,
    s_sigma,
    validate,
)
from tchow import polyhedra
from tchow.polyhedra import all_complex_faces, make_cone, make_fan

F = Fraction


@pytest.fixture(scope="module")
def gr24():
    return fixture("gr24")


def p2fan():
    return make_fan(
        [
            make_cone([(1, 0), (0, 1)], 2),
            make_cone([(0, 1), (-1, -1)], 2),
            make_cone([(-1, -1), (1, 0)], 2),
        ],
        2,
    )


def test_every_smith_form_is_certified(monkeypatch):
    """Each ``(u, d)`` the presentations and the oracle take from Smith is checked.

    On the four fixtures and seeded rank-3 and rank-4 downgrades, every
    matrix reaching ``snf_transforms`` gets the certificate of
    ``assert_smith_certificate``, and its ``(u, d)`` is the one the
    least-absolute-value pivot search of ``reference_snf_transforms`` gives.
    """
    taken = []
    real = chow.snf_transforms

    def spy(m):
        u, d = real(m)
        taken.append(([list(row) for row in m], u, d))
        return u, d

    monkeypatch.setattr(chow, "snf_transforms", spy)
    fans = [random_complete_fan(random.Random(500 + s), 3, 5) for s in range(4)]
    fans += [random_complete_fan(random.Random(1000 + s), 4, 5) for s in (0, 1)]
    divisors = [fixture(name) for name in FIXTURE_NAMES] + [downgrade(DowngradeInput(f)) for f in fans]
    press = [presentation(x, k) for x in divisors for k in range(x.rank + 2)]
    press += [toric_chow_presentation(f, k) for f in fans for k in range(f.ambient_rank + 1)]
    # one Smith form per presentation, a matrix with no relation columns among them
    assert len(taken) == len(press) and sum(1 for p in press if p.relations) > len(press) / 2
    for m, u, d in taken:
        assert_smith_certificate(m, u, d)
        assert (u, d) == reference_snf_transforms(m)[:2]


def test_each_span_kernel_is_taken_once(monkeypatch):
    """Every quotient reads a cone's ``span_eqs``, one kernel per cone value.

    Cold presentations at every k and the oracle, on the fixtures and seeded
    rank-3 downgrades, never take the same kernel twice; revisiting them, or
    rebuilding every presentation from the same cones, takes none.
    """
    from tchow import exactlin, fansy

    calls = []
    real = exactlin.integer_kernel
    spy = lambda rows, n: calls.append((tuple(map(tuple, rows)), n)) or real(rows, n)
    for module in (exactlin, polyhedra, fansy, chow):  # wherever the name is bound
        if hasattr(module, "integer_kernel"):
            monkeypatch.setattr(module, "integer_kernel", spy)
    fans = [random_complete_fan(random.Random(500 + s), 3, 5) for s in range(4)]

    def everything():
        divisors = [fixture(name) for name in FIXTURE_NAMES] + [downgrade(DowngradeInput(f)) for f in fans]
        press = [presentation(x, k) for x in divisors for k in range(x.rank + 2)]
        return press + [toric_chow_presentation(f, k) for f in fans for k in range(4)]

    cold = everything()
    assert len(calls) == len(set(calls)) > 100
    calls.clear()
    assert everything() == cold and calls == []
    for table in (presentation, toric_chow_presentation, fansy.s_sigma, fansy.enumerate_generators):
        table.cache_clear()
    assert everything() == cold and calls == []


def test_oracle_p2():
    fan = p2fan()
    assert toric_chow_presentation(fan, 1).smith == (1, ())
    assert toric_chow_presentation(fan, 0).smith == (1, ())
    assert toric_chow_presentation(fan, 2).smith == (1, ())


def test_oracle_requires_complete():
    fan = make_fan([make_cone([(1, 0), (0, 1)], 2)], 2)
    with pytest.raises(IncompleteFanError):
        toric_chow_presentation(fan, 0)


def test_oracle_validates_its_fan_once(monkeypatch):
    # a valid fan is certified once for every k, and no pair of its cones is met
    fan = random_complete_fan(random.Random(3))
    certified, met = spy_certificates(monkeypatch)
    for k in range(fan.ambient_rank + 1):
        toric_chow_presentation(fan, k)
    assert certified == {(frozenset(fan.maximal_cones), False): 1} and met == []


def test_oracle_torsion_surface():
    # a fake weighted projective plane: class group Z + Z/2
    fan = make_fan(
        [
            make_cone([(1, 2), (1, -2)], 2),
            make_cone([(1, 2), (-1, 0)], 2),
            make_cone([(-1, 0), (1, -2)], 2),
        ],
        2,
    )
    assert toric_chow_presentation(fan, 1).smith == (1, (2,))
    assert toric_chow_presentation(fan, 0).smith == (1, ())


def test_downgrade_matches_oracle_with_torsion():
    fan = make_fan(
        [
            make_cone([(1, 2), (1, -2)], 2),
            make_cone([(1, 2), (-1, 0)], 2),
            make_cone([(-1, 0), (1, -2)], 2),
        ],
        2,
    )
    x = downgrade(DowngradeInput(fan))
    for k in range(3):
        assert presentation(x, k).smith == toric_chow_presentation(fan, k).smith


def _vertex_generator(x, p, coords):
    target = tuple(F(c) for c in coords)
    for f in all_complex_faces(x.complex_at(p)):
        if f.dim == 0 and f.vertices[0] == target:
            return CycleGenerator("V", point=p, face=f)
    raise AssertionError("vertex not found")


def test_gr24_vertex_relations_match_worked_example(gr24):
    # rows at the origin vertex of the fiber over 0, in ray coordinates:
    # the first character pairs +1 with two marked rays and -1 with the edge
    source = _vertex_generator(gr24, "0", (0, 0, 0))
    block = relation_block_v(gr24, source)
    assert len(block.rows) == 3
    readable = []
    for row in block.rows:
        entry = {}
        for gen, coeff in row:
            key = gen.cone.generators[0] if gen.kind == "T" else "edge"
            entry[key] = coeff
        readable.append(entry)
    assert {(1, 0, 0): 1, (1, 1, 1): 1, "edge": -1} in readable
    assert {(0, 1, 0): 1, (1, 1, 1): 1, "edge": -1} in readable
    # the third character sees the two remaining rays with opposite signs
    third = [
        e for e in readable if "edge" not in e
    ]
    assert len(third) == 1
    assert sorted(third[0].items()) == [((0, 0, -1), -1), ((1, 1, 1), 1)] or sorted(
        third[0].items()
    ) == [((0, 0, -1), 1), ((1, 1, 1), -1)]


def test_gr24_chow_groups(gr24):
    expected_ranks = [1, 1, 2, 1, 1]
    for k, rank in enumerate(expected_ranks):
        pres = presentation(gr24, k)
        assert pres.free_rank == rank
        assert pres.torsion == ()


def test_gr24_a2_single_relation_after_identifications(gr24):
    pres = presentation(gr24, 2)
    classes = set(pres.class_map)
    assert len(classes) == 3
    by_class = {}
    for gen, cls in zip(pres.generators, pres.class_map):
        by_class.setdefault(cls, set()).add(gen.kind)
    # two classes of contracted rays, one class of compact edges, summing up
    kinds = sorted(tuple(sorted(v)) for v in by_class.values())
    assert kinds == [("T",), ("T",), ("V",)]
    (edge_cls,) = [c for c, kinds in by_class.items() if kinds == {"V"}]
    t_classes = [c for c, kinds in by_class.items() if kinds == {"T"}]
    summed = tuple(a + b for a, b in zip(*t_classes))
    assert summed == edge_cls


def test_relation_rows_map_to_zero(gr24):
    # self-consistency: every relation row dies in the reduced presentation
    for k in range(gr24.rank + 2):
        pres = presentation(gr24, k)
        for row in pres.relations:
            combo = [0] * len(pres.moduli)
            for j, coeff in enumerate(row):
                for i, c in enumerate(pres.class_map[j]):
                    combo[i] += coeff * c
            for value, modulus in zip(combo, pres.moduli):
                assert value % modulus == 0 if modulus else value == 0


def test_fundamental_class(gr24):
    pres = presentation(gr24, 4)
    assert len(pres.generators) == 1
    assert pres.relations == ()
    assert pres.smith == (1, ())


def test_point_class_rank_one():
    for name in ("gr24", "p1p1_bundle", "p2_E", "p2_F"):
        x = fixture(name)
        assert presentation(x, 0).smith == (1, ())
        assert presentation(x, x.rank + 1).smith == (1, ())


def test_basepoint_independence(gr24):
    orders = [
        ("1", "inf", "0"),
        ("inf", "0", "1"),
    ]
    base = [presentation(gr24, k).smith for k in range(5)]
    for order in orders:
        y = with_point_order(gr24, order)
        assert [presentation(y, k).smith for k in range(5)] == base


def test_aux_point_invariance():
    for name in ("p2_E", "p1p1_bundle"):
        x = fixture(name)
        y = with_extra_generic_point(x, "extra")
        assert validate(y).ok
        for k in range(x.rank + 2):
            assert presentation(x, k).smith == presentation(y, k).smith


def test_ap_level_relations_shape():
    # at the divisor level the only relation sources are the zero cone's
    # character lattice and the point differences
    x = fixture("p2_E")
    n = x.rank
    level = enumerate_generators(x, n + 1)
    assert level.counts == (1, 0, 0)
    pres = presentation(x, n)
    expected_rows = (len(x.points) - 1) + n
    assert len(pres.relations) == expected_rows


def _collapsed_faces(x, p):
    return [
        f
        for f in all_complex_faces(x.complex_at(p))
        if not f.is_empty and f.dim == f.tail.dim
    ]


def test_multiplicity_step_identity_fixtures():
    for name in ("gr24", "p1p1_bundle", "p2_E", "p2_F"):
        x = fixture(name)
        checked = 0
        for p in x.points:
            faces = _collapsed_faces(x, p)
            for small in faces:
                for big in faces:
                    if (
                        big.dim == small.dim + 1
                        and poly_is_face_of(small, big)
                        and cone_contains(big.tail, small.tail)
                    ):
                        lhs, rhs = face_pair_sides(small, big)
                        assert lhs == rhs, (name, p, small, big)
                        checked += 1
        assert checked > 0, name


def test_multiplicity_step_identity_random_downgrades():
    rng = random.Random(77)
    for _ in range(3):
        fan = random_complete_fan(rng)
        x = downgrade(DowngradeInput(fan))
        for p in x.points:
            faces = _collapsed_faces(x, p)
            for small in faces:
                for big in faces:
                    if (
                        big.dim == small.dim + 1
                        and poly_is_face_of(small, big)
                        and cone_contains(big.tail, small.tail)
                    ):
                        lhs, rhs = face_pair_sides(small, big)
                        assert lhs == rhs


def test_presentation_is_built_once_and_shared(monkeypatch):
    from tchow import chow
    from tchow.effcone import eff_generators

    x = fixture("p2_E")
    first = [presentation(x, k) for k in range(x.rank + 2)]
    calls = []
    real = chow.relation_blocks
    monkeypatch.setattr(chow, "relation_blocks", lambda *a: calls.append(a) or real(*a))
    for k, pres in enumerate(first):
        assert presentation(x, k) is pres
        assert eff_generators(x, k).presentation is pres
    assert calls == []
    assert fixture("p2_E") is x  # an equal divisor built again is the same object
    presentation(fixture("p2_E"), 1)
    # one built directly by the class constructor is not canonical, but it is
    # equal, so it finds the presentation built for its value
    copy = MarkedFansyDivisor(*(getattr(x, f) for f in x._fields))
    assert copy is not x and presentation(copy, 1) is first[1]
    assert calls == []


def test_s_sigma_once_per_divisor_and_marked_cone(monkeypatch):
    from tchow import chow, fansy

    calls = []
    real = fansy.s_sigma
    spy = lambda x, sigma: calls.append((x, sigma)) or real(x, sigma)
    monkeypatch.setattr(chow, "s_sigma", spy)
    xs = [fixture(name) for name in ("gr24", "p1p1_bundle", "p2_E", "p2_F")]
    for x in xs:
        for k in range(x.rank + 2):
            presentation(x, k)
    # the spy sees every request; the cache computes each distinct pair once
    info = real.cache_info()
    assert calls and info.misses == len(set(calls)) < len(calls) == info.misses + info.hits


def test_step_image_once_per_source_and_coface(monkeypatch):
    from tchow import chow

    calls = []
    real = chow._cone_image_ray
    monkeypatch.setattr(chow, "_cone_image_ray", lambda *a: calls.append(a) or real(*a))
    several = 0
    for x in (fixture("gr24"), fixture("p1p1_bundle")):
        for k in range(x.rank + 1):
            for source in enumerate_generators(x, k + 1).v:
                calls.clear()
                block = relation_block_v(x, source)
                cofaces = x.complex_at(source.point).cofaces[source.face]
                assert len(calls) == len(cofaces)
                several += len(block.rows) > 1 and len(cofaces) > 0
    assert several


def test_redirect_factor_above_one():
    # a nonsplit bundle over P1xP1 whose face over inf with tail (-1,-1) has
    # stabilizer order 2 and multiplicity 1, so V rows redirect onto that
    # contracted cycle with factor 2; the projective bundle formula gives
    # A_k = A_k(P1xP1) + A_(k-1)(P1xP1), free of ranks 1, 3, 3, 1
    b = KlyachkoBundle(
        p1p1_fan(),
        (
            ((-1, 0), RayFiltration(1, "1", 3)),
            ((0, -1), RayFiltration(2, "0", 4)),
            ((0, 1), RayFiltration(-1, "1", 1)),
            ((1, 0), RayFiltration(0, "inf", 1)),
        ),
    )
    x = bundle_rank2(b)
    assert validate(x).ok
    tail = make_cone([(-1, -1)], 2)
    (face,) = x.complex_at("inf").by_tail[tail]
    assert (s_sigma(x, tail), mu_of_face(face)) == (2, 1)
    assert [presentation(x, k).smith for k in range(4)] == [(r, ()) for r in (1, 3, 3, 1)]


# seeds 0, 17, 28, 32, 36, 46 and 58 have contracted-cycle relations whose
# character lattice is a proper sublattice of the perp lattice
@pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 6, 0, 28, 17, 32, 36, 46, 58])
def test_random_rank4_downgrade_matches_oracle(s):
    fan = random_complete_fan(random.Random(1000 + s), 4, 5)
    x = downgrade(DowngradeInput(fan))
    for k in range(fan.ambient_rank + 1):
        assert presentation(x, k).smith == toric_chow_presentation(fan, k).smith, k


COORDINATE_PERMUTATIONS = [(3, 0, 1, 2), (0, 3, 2, 1), (2, 1, 3, 0)]


@pytest.mark.parametrize("perm", COORDINATE_PERMUTATIONS)
@pytest.mark.parametrize("s", [0, 28])
def test_rank4_downgrade_is_independent_of_the_splitting(s, perm):
    # the coordinate split off by the downgrade changes, the variety does not
    fan = random_complete_fan(random.Random(1000 + s), 4, 5)
    change = tuple(tuple(int(j == i) for j in range(4)) for i in perm)
    x = downgrade(DowngradeInput(fan, change))
    for k in range(fan.ambient_rank + 1):
        assert presentation(x, k).smith == toric_chow_presentation(fan, k).smith, k


def test_random_downgrade_oracle_equivalence_small():
    rng = random.Random(99)
    for _ in range(3):
        fan = random_complete_fan(rng, max_extra=4)
        x = downgrade(DowngradeInput(fan))
        for k in range(fan.ambient_rank + 1):
            assert presentation(x, k).smith == toric_chow_presentation(fan, k).smith
