import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (
    assert_smith_certificate,
    fraction_primitive,
    lattice_index,
    mat_mul,
    minimal_lattice_multiple,
    reference_hnf,
    reference_integer_kernel,
    reference_project,
    reference_snf_transforms,
    solve_left,
    vec,
)

from tchow.exactlin import (
    bareiss_inverse,
    det,
    dot,
    hnf,
    hnf_basis,
    identity_matrix,
    integer_kernel,
    perp_lattice,
    primitive,
    primitive_direction,
    project,
    quotient_matrix,
    snf_transforms,
)
from tchow import exactlin

small_matrices = st.integers(1, 4).flatmap(
    lambda rows: st.integers(1, 4).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
)


def test_hnf_example():
    h, u = hnf([[2, 4], [6, 8]])
    assert h == [[2, 0], [0, 4]]
    assert mat_mul(u, [[2, 4], [6, 8]]) == h
    assert abs(det(u)) == 1


def test_hnf_identity_and_zero():
    h, u = hnf([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert h == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert u == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    h, u = hnf([[0, 0], [0, 0]])
    assert h == [[0, 0], [0, 0]]
    assert u == [[1, 0], [0, 1]]


@settings(max_examples=150)
@given(small_matrices)
def test_hnf_transform_property(m):
    h, u = hnf(m)
    assert mat_mul(u, m) == h
    assert abs(det(u)) == 1
    # echelon shape: pivot columns strictly increase
    pivots = [next((j for j, x in enumerate(row) if x != 0), None) for row in h]
    nz = [p for p in pivots if p is not None]
    assert nz == sorted(nz) and len(set(nz)) == len(nz)


def snf_diagonal(m):
    _, d = snf_transforms(m)
    return [d[i][i] for i in range(min(len(d), len(d[0])))]


def test_snf_examples():
    assert snf_diagonal([[2, 4], [6, 8]]) == [2, 4]
    assert snf_diagonal([[1, 0], [0, 1]]) == [1, 1]
    assert snf_diagonal([[0, 0]]) == [0]


@settings(max_examples=150)
@given(small_matrices)
def test_snf_transforms_property(m):
    u, d = snf_transforms(m)
    assert_smith_certificate(m, u, d)
    assert d == reference_snf_transforms(m)[1]


def seeded_matrix(rng: random.Random) -> tuple[str, list[list[int]]]:
    """An integer matrix of up to 12 x 12 and its kind.

    ``units`` draws entries from -3..3, so most hold a ±1; ``no units`` from
    multiples of 2 and 3, so the first pivots are not units; ``repeated`` is
    a ``units`` matrix with some rows and columns copied or zeroed; and
    ``rank-deficient`` is a sum of fewer rank-one products than it has rows
    or columns.
    """
    nr, nc = rng.randint(1, 12), rng.randint(1, 12)
    kind = rng.choice(("units", "no units", "repeated", "rank-deficient"))
    if kind == "rank-deficient":
        r = rng.randrange(min(nr, nc))
        a = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(nr)]
        b = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(r)]
        return kind, [[sum(a[i][k] * b[k][j] for k in range(r)) for j in range(nc)] for i in range(nr)]
    entries = [-9, -6, -4, -3, -2, 0, 0, 2, 3, 4, 6, 9] if kind == "no units" else range(-3, 4)
    m = [[rng.choice(entries) for _ in range(nc)] for _ in range(nr)]
    if kind == "repeated":
        for _ in range(rng.randint(1, 3)):
            i, src = rng.randrange(nr), rng.randrange(nr)
            m[i] = list(m[src]) if rng.random() < 0.5 else [0] * nc
            j, src = rng.randrange(nc), rng.randrange(nc)
            zero = rng.random() < 0.5
            for row in m:
                row[j] = 0 if zero else row[src]
    return kind, m


def test_unit_pivot_smith_matches_reference():
    """``(u, d)`` equals the full-scan, always-divisibility-checked reference.

    Over 1,200 seeded matrices of every kind of :func:`seeded_matrix`, with
    the pivot rule's two cases counted: a ±1 present at the start, and none.
    """
    rng = random.Random(2001)
    seen = dict.fromkeys(["units", "no units", "repeated", "rank-deficient", "has ±1", "no ±1", "12 x 12"], 0)
    for _ in range(1200):
        kind, m = seeded_matrix(rng)
        u, d = snf_transforms(m)
        ref_u, ref_d, _ = reference_snf_transforms(m)
        assert (u, d) == (ref_u, ref_d), m
        assert_smith_certificate(m, u, d)
        seen[kind] += 1
        seen["has ±1" if any(x in (1, -1) for row in m for x in row) else "no ±1"] += 1
        seen["12 x 12"] += len(m) == len(m[0]) == 12
    assert min(seen.values()) >= 5 and seen["no ±1"] > 250, seen


def test_dot_refuses_unequal_lengths():
    assert dot((1, -2, 3), (4, 5, 6)) == 12 and dot((), ()) == 0
    for u, v in (((1, 2), (1, 2, 3)), ((), (1,)), ([1], [])):
        with pytest.raises(ValueError, match="dimension mismatch"):
            dot(u, v)


def test_kernels_match_reference():
    """``project``, ``hnf`` and ``integer_kernel`` equal their pre-builtin copies."""
    assert project([[], [], []], (1, 2, 3)) == () and project([], ()) == ()
    rng = random.Random(2002)
    for _ in range(400):
        nr, nc = rng.randint(0, 7), rng.randint(1, 7)
        m = [[rng.choice((-4, -1, 0, 0, 1, 2, 5)) for _ in range(nc)] for _ in range(nr)]
        assert hnf(m) == reference_hnf(m)
        assert integer_kernel(m, nc) == reference_integer_kernel(m, nc)
        x = [rng.randint(-5, 5) for _ in range(nr)]
        assert project(m, x) == reference_project(m, x)
        assert project([row[:0] for row in m], x) == ()


def test_primitive():
    assert primitive(vec([Fraction(1, 2), Fraction(3, 2)])) == ((1, 3), 2)
    assert primitive(vec([-1, -1, 0])) == ((-1, -1, 0), 1)
    assert primitive(vec([0, 0])) == ((0, 0), 1)


@given(st.lists(st.fractions(max_denominator=12), min_size=1, max_size=4))
def test_primitive_property(entries):
    v = vec(entries)
    w, mu = primitive(v)
    assert tuple(Fraction(x, mu) for x in w) == v
    if any(w):
        # the content of w is coprime to mu, so mu is genuinely minimal
        assert gcd(gcd(*(abs(x) for x in w)), mu) == 1


# the library passes ints and Fractions; "a/b" strings are read by cli._rat
rational_entries = st.one_of(st.integers(-50, 50), st.fractions(max_denominator=12))


@given(st.lists(rational_entries, max_size=5))
def test_primitive_matches_fraction_reference(entries):
    w, mu = primitive(entries)
    assert (w, mu) == fraction_primitive(entries)
    assert all(type(x) is int for x in w) and type(mu) is int


def test_primitive_direction():
    assert primitive_direction(vec([2, 2])) == (1, 1)
    assert primitive_direction(vec([Fraction(-1, 2), Fraction(-3, 2)])) == (-1, -3)
    assert primitive_direction(vec([0, 0, 0])) == (0, 0, 0)


def full_lattice(n):
    return hnf_basis(identity_matrix(n))


def test_perp_lattice():
    assert perp_lattice([vec([1, 1, 0])], 3) == ((1, -1, 0), (0, 0, 1))
    assert perp_lattice([vec([Fraction(1, 2), 0, Fraction(1, 3)])], 3) == ((2, 0, -3), (0, 1, 0))
    assert perp_lattice([], 3) == full_lattice(3)
    assert perp_lattice([vec([1, 0]), vec([0, 1])], 2) == ()


def test_lattice_index():
    z2 = full_lattice(2)
    assert lattice_index(hnf_basis([[2, 0], [1, 3]]), z2) == 6
    assert lattice_index(z2, z2) == 1
    assert lattice_index(hnf_basis([[2, 0], [0, 2]]), z2) == 4
    assert lattice_index((), ()) == 1


def test_lattice_index_errors():
    z2 = full_lattice(2)
    with pytest.raises(ValueError):
        lattice_index(hnf_basis([[1, 0]]), z2)
    with pytest.raises(ValueError):
        lattice_index(z2, hnf_basis([[2, 0], [0, 2]]))


@settings(max_examples=60)
@given(
    st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=3, max_size=3),
    st.integers(1, 4),
)
def test_lattice_index_multiplicative(rows, scale):
    outer = hnf_basis(rows)
    if len(outer) != 3:
        return
    mid = hnf_basis([[scale * x for x in r] for r in outer])
    inner = hnf_basis([[2 * scale * x for x in r] for r in outer])
    assert lattice_index(inner, mid) * lattice_index(mid, outer) == lattice_index(
        inner, outer
    )


def face_character_lattice(span, vertex, n):
    """Characters integral on ``vertex + span``: the first n coordinates of the
    quotient columns of the homogenized point plus span."""
    gens = [tuple(v) + (0,) for v in span] + [tuple(vertex) + (1,)]
    return tuple(col[:n] for col in zip(*quotient_matrix(gens, n + 1)))


def test_face_character_lattice():
    lat = face_character_lattice([], vec([Fraction(1, 2)]), 1)
    assert lat == ((2,),)
    assert face_character_lattice([], vec([5]), 1) == full_lattice(1)
    lat = face_character_lattice(
        [vec([0, 0, 1])], vec([Fraction(1, 2), 0, 0]), 3
    )
    assert lat == ((2, 0, 0), (0, 1, 0))
    m0 = perp_lattice([vec([0, 0, 1])], 3)
    assert lattice_index(lat, m0) == 2


@given(
    st.lists(st.fractions(max_denominator=6), min_size=3, max_size=3),
)
def test_face_character_lattice_index_is_mu(vertex):
    v = vec(vertex)
    lat = face_character_lattice([], v, 3)
    _, mu = primitive(v)
    assert lattice_index(lat, full_lattice(3)) == mu


def test_integer_kernel_saturated():
    kern = integer_kernel([[2, 4]], 2)
    assert kern == ((2, -1),)
    kern = integer_kernel([[1, 1, 1], [1, -1, 0]], 3)
    assert len(kern) == 1
    assert gcd(*(abs(x) for x in kern[0])) == 1


def test_solve_left():
    assert solve_left([[1, 0], [0, 1]], [3, 4]) == (Fraction(3), Fraction(4))
    assert solve_left([[1, 1]], [1, 0]) is None
    sol = solve_left([[2, 0], [1, 1]], [3, 1])
    assert sol == (Fraction(1), Fraction(1))


def fraction_inverse(m):
    """Reference inverse by Gauss–Jordan elimination in Fractions; None if singular."""
    n = len(m)
    aug = [[Fraction(x) for x in m[i]] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def test_bareiss_inverse():
    m = [[1, 2], [0, 1]]
    s, adj = bareiss_inverse(m)
    assert s == 1 and mat_mul(m, adj) == [[1, 0], [0, 1]]
    assert bareiss_inverse([[2, 0], [0, 1]]) == (2, [[1, 0], [0, 2]])
    assert bareiss_inverse([[0, 1], [1, 0]]) == (-1, [[0, -1], [-1, 0]])  # row swap
    assert bareiss_inverse([]) == (1, [])
    with pytest.raises(ValueError):
        bareiss_inverse([[1, 2], [2, 4]])


def test_bareiss_inverse_matches_fraction_reference():
    rng = random.Random(6)
    swaps = big = singular = 0
    for _ in range(400):
        r = rng.randint(1, 6)
        m = [[rng.choice([0, 0, 1, -1, rng.randint(-9, 9)]) for _ in range(r)] for _ in range(r)]
        ref = fraction_inverse(m)
        if ref is None:
            singular += 1
            with pytest.raises(ValueError):
                bareiss_inverse(m)
            continue
        s, adj = bareiss_inverse(m)
        assert s == det(m)
        assert adj == [[s * x for x in row] for row in ref]
        assert all(type(x) is int for row in adj for x in row)
        swaps += m[0][0] == 0
        big += abs(s) > 1
    assert swaps > 20 and big > 100 and singular > 20


def test_quotient_matrix_and_pairing():
    p = quotient_matrix([vec([1, 1, 0])], 3)
    assert project(p, (1, 1, 0)) == (0, 0)
    assert project(p, (2, 2, 0)) == (0, 0)
    # the projection hits all of Z^2
    img = hnf_basis([list(project(p, e)) for e in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]])
    assert img == full_lattice(2)
    # the image coordinates are the pairings with the perp lattice's basis
    chars = perp_lattice([vec([1, 1, 0])], 3)
    assert (1, -1, 0) in chars  # kills (1,1,0)
    assert project(p, (1, 0, 0)) == tuple(dot_check(m, (1, 0, 0)) for m in chars)
    rng = random.Random(5)
    for _ in range(150):
        n = rng.randint(1, 5)
        span = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))]
        span = [vec(Fraction(x, rng.randint(1, 3)) for x in row) for row in span]
        p = quotient_matrix(span, n)
        q = len(p[0])
        dim = len(hnf_basis([primitive(v)[0] for v in span])) if span else 0
        assert len(p) == n and q == n - dim
        assert all(project(p, v) == (0,) * q for v in span)
        if q:  # onto Z^q: every Smith invariant of P is 1
            _, d = snf_transforms(p)
            assert [d[i][i] for i in range(q)] == [1] * q
        x = [rng.randint(-4, 4) for _ in range(n)]
        assert project(p, x) == tuple(dot_check(m, x) for m in perp_lattice(span, n))


def test_quotient_matrix_takes_one_kernel(monkeypatch):
    calls = []
    for name in ("integer_kernel", "snf_transforms"):
        real = getattr(exactlin, name)
        monkeypatch.setattr(
            exactlin, name, lambda *a, name=name, real=real: calls.append(name) or real(*a)
        )
    for span, n in (([vec([1, 1, 0])], 3), ([], 2), ([vec([1, 2]), vec([0, 1])], 2)):
        calls.clear()
        quotient_matrix(span, n)
        assert calls == ["integer_kernel"]


def dot_check(u, v):
    return sum(a * b for a, b in zip(u, v))


def rational_lattice_inverse(rows):
    """``(s, A)`` with ``L^-1 = A / s`` for the lattice with rational basis ``rows``."""
    d = lcm(*(Fraction(x).denominator for row in rows for x in row))
    s, adj = bareiss_inverse([[int(Fraction(x) * d) for x in row] for row in rows])
    return s, [[d * x for x in row] for row in adj]


def test_minimal_lattice_multiple():
    lat = rational_lattice_inverse([vec([2, 0]), vec([0, 1])])
    assert minimal_lattice_multiple(vec([1, 0]), lat) == (Fraction(2), Fraction(0))
    assert minimal_lattice_multiple(vec([1, 1]), lat) == (Fraction(2), Fraction(2))
    half = rational_lattice_inverse([vec([Fraction(1, 2), 0]), vec([0, 1])])
    assert minimal_lattice_multiple(vec([1, 0]), half) == (Fraction(1, 2), Fraction(0))
    assert minimal_lattice_multiple(vec([0, 0]), half) == (0, 0)
    rng = random.Random(7)
    for _ in range(200):
        q = rng.randint(1, 4)
        rows = [vec(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(q)) for _ in range(q)]
        if det([primitive(r)[0] for r in rows]) == 0:
            continue
        v = vec(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(q))
        coords = solve_left(rows, v)  # the Fraction reference
        b = lcm(*(c.denominator for c in coords))
        g = gcd(*(int(c * b) for c in coords)) or b
        assert minimal_lattice_multiple(v, rational_lattice_inverse(rows)) == tuple(
            Fraction(b, g) * x for x in v
        )
