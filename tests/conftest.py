"""Shared test helpers: seeded random fans and bundles at desk scale, and the
oracles and identities the tests check the library against, which the
pipeline itself does not use.  Each test starts with empty one-object-per-value
tables, so what a test counts does not depend on the tests run before it."""

import random
import sys
from collections import Counter
from collections.abc import Sequence
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from unittest import mock

import pytest

from tchow.build import (
    AUX_LABELS,
    InconsistentFiltrationsError,
    KlyachkoBundle,
    RayFiltration,
    _cone_delta,
    _cone_lines,
    bundle_labels,
)
from tchow.build import _p1p1_fan as p1p1_fan, _p2_fan as p2_fan  # noqa: F401  (for the tests)
from tchow.exactlin import (
    bareiss_inverse,
    det,
    dot,
    hnf_basis,
    identity_matrix,
    integer_kernel,
    primitive,
    primitive_direction,
)
from tchow import fansy, polyhedra
from tchow.fansy import MarkedFansyDivisor, mu_of_face, sigma_as_complex, unique_face_over
from tchow.polyhedra import (
    Cone,
    Fan,
    GeometryError,
    PolyhedralComplex,
    Polyhedron,
    cone_as_polyhedron,
    cone_intersect,
    make_cone,
    make_fan,
    make_polyhedron,
    poly_faces,
    poly_intersect,
    _cone_on_rays,
    _extreme_rays,
    _independent_rows,
    _rays_in,
    _vertex_text,
    from_homogenized,
)


def forget_values():
    """Forget every value-keyed cache of the loaded ``tchow`` modules.

    That is each module attribute with a ``cache_clear``: the canonical
    objects, the memoized constructors and the derived tables.
    """
    for name, module in list(sys.modules.items()):
        if name == "tchow" or name.startswith("tchow."):
            for table in list(vars(module).values()):
                if hasattr(table, "cache_clear"):
                    table.cache_clear()


@pytest.fixture(autouse=True)
def fresh_value_tables():
    forget_values()


def vec(entries) -> tuple[Fraction, ...]:
    return tuple(Fraction(e) for e in entries)


def fraction_primitive(v):
    """Reference for ``exactlin.primitive``: clear denominators in Fraction arithmetic."""
    fv = [Fraction(x) for x in v]
    mu = lcm(*(f.denominator for f in fv))
    return tuple(int(f * mu) for f in fv), mu


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch in matrix product")
    bt = list(zip(*b)) if b else []
    return [[dot(row, col) for col in bt] for row in a]


# Reference copies of the exact kernels as they were before their inner
# loops ran in builtins: index arithmetic, in-place row operations and, for
# the Smith form, the pivot of least absolute value found by a full scan.


def reference_row_sub(m: list[list[int]], i: int, j: int, q: int) -> None:
    if q:
        mi, mj = m[i], m[j]
        for c in range(len(mi)):
            mi[c] -= q * mj[c]


def reference_project(p_matrix: Sequence[Sequence[int]], x: Sequence) -> tuple:
    cols = len(p_matrix[0]) if p_matrix else 0
    return tuple(sum(x[i] * p_matrix[i][j] for i in range(len(x))) for j in range(cols))


def reference_hnf(m: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Row Hermite normal form ``(h, u)``, ``u @ m == h``; ``exactlin.hnf`` returns ``h`` alone."""
    nr = len(m)
    nc = len(m[0]) if nr else 0
    h = [list(map(int, row)) for row in m]
    u = identity_matrix(nr)
    row = 0
    for col in range(nc):
        if row == nr:
            break
        while True:
            nz = [i for i in range(row, nr) if h[i][col] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(h[i][col]))
            if piv != row:
                h[row], h[piv] = h[piv], h[row]
                u[row], u[piv] = u[piv], u[row]
            clean = True
            for i in range(row + 1, nr):
                if h[i][col] != 0:
                    q = h[i][col] // h[row][col]
                    reference_row_sub(h, i, row, q)
                    reference_row_sub(u, i, row, q)
                    if h[i][col] != 0:
                        clean = False
            if clean:
                break
        if h[row][col] != 0:
            if h[row][col] < 0:
                h[row] = [-x for x in h[row]]
                u[row] = [-x for x in u[row]]
            for i in range(row):
                q = h[i][col] // h[row][col]
                reference_row_sub(h, i, row, q)
                reference_row_sub(u, i, row, q)
            row += 1
    return h, u


def reference_hnf_basis(rows: Sequence[Sequence[int]]) -> tuple:
    if not rows:
        return ()
    h, _ = reference_hnf(rows)
    return tuple(tuple(r) for r in h if any(x != 0 for x in r))


def reference_integer_kernel(rows: Sequence[Sequence[int]], ncols: int) -> tuple:
    if not rows:
        return reference_hnf_basis(identity_matrix(ncols))
    at = [[row[i] for row in rows] for i in range(ncols)]
    h, u = reference_hnf(at)
    kernel = [u[i] for i in range(ncols) if all(x == 0 for x in h[i])]
    return reference_hnf_basis(kernel)


def reference_perp_lattice(span: Sequence[Sequence], n: int) -> tuple:
    """HNF basis of the saturated lattice of characters that vanish on rational vectors ``span``.

    The test-side reference for ``Cone.span_eqs``, with which it shares no code.
    """
    rows = [w for w in (fraction_primitive(v)[0] for v in span) if any(w)]
    return reference_integer_kernel(rows, n)


def reference_quotient_matrix(span: Sequence[Sequence], n: int) -> list[list[int]]:
    """Test-side ``Z^n -> Z^n / span``: an n x q matrix whose columns are the perp lattice's basis.

    The image of ``x`` is ``reference_project(P, x)``, its pairings with them.
    """
    basis = reference_perp_lattice(span, n)
    return [[b[i] for b in basis] for i in range(n)]


def reference_image_ray(proj, gens) -> tuple:
    """Primitive generator of the one ray that a cone on ``gens`` projects to under ``proj``."""
    images = {primitive_direction(im) for im in (reference_project(proj, g) for g in gens) if any(im)}
    assert len(images) == 1, images
    return images.pop()


def reference_snf_transforms(
    m: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form with transforms: returns ``(u, d, v)``, ``u@m@v == d``.

    ``u`` and ``v`` are unimodular and ``d`` is diagonal with nonnegative
    entries satisfying ``d[i] | d[i+1]``.  Each step pivots on the entry
    ``min((abs(d[i][j]), i, j))`` of the block still to reduce, found by a
    full scan, and runs the divisibility scan after every pivot.  Reference
    for ``exactlin.snf_transforms``, which builds no ``v``: ``(u, d)`` must be
    the same.
    """
    nr = len(m)
    nc = len(m[0]) if nr else 0
    d = [list(map(int, row)) for row in m]
    u = identity_matrix(nr)
    v = identity_matrix(nc)

    def col_sub(j: int, t: int, q: int) -> None:
        if q:
            for r in range(nr):
                d[r][j] -= q * d[r][t]
            for r in range(nc):
                v[r][j] -= q * v[r][t]

    def col_swap(j: int, t: int) -> None:
        for r in range(nr):
            d[r][j], d[r][t] = d[r][t], d[r][j]
        for r in range(nc):
            v[r][j], v[r][t] = v[r][t], v[r][j]

    t = 0
    while t < min(nr, nc):
        entries = [
            (abs(d[i][j]), i, j)
            for i in range(t, nr)
            for j in range(t, nc)
            if d[i][j] != 0
        ]
        if not entries:
            break
        _, pi, pj = min(entries)
        if pi != t:
            d[pi], d[t] = d[t], d[pi]
            u[pi], u[t] = u[t], u[pi]
        if pj != t:
            col_swap(pj, t)
        dirty = False
        for i in range(t + 1, nr):
            if d[i][t] != 0:
                q = d[i][t] // d[t][t]
                reference_row_sub(d, i, t, q)
                reference_row_sub(u, i, t, q)
                if d[i][t] != 0:
                    dirty = True
        for j in range(t + 1, nc):
            if d[t][j] != 0:
                q = d[t][j] // d[t][t]
                col_sub(j, t, q)
                if d[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        pivot = d[t][t]
        off = next(
            (
                (i, j)
                for i in range(t + 1, nr)
                for j in range(t + 1, nc)
                if d[i][j] % pivot != 0
            ),
            None,
        )
        if off is not None:
            i, _ = off
            reference_row_sub(d, t, i, -1)
            reference_row_sub(u, t, i, -1)
            continue
        if pivot < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return u, d, v


def assert_smith_certificate(m, u, d) -> None:
    """``(u, d)`` is a Smith normal form of ``m`` with its row transform.

    ``u`` is unimodular; ``u@m@v == d`` for a unimodular ``v`` exactly when
    the columns of ``u@m`` and of ``d`` span the same lattice, that is, have
    equal HNF bases; and ``d`` is diagonal with nonnegative entries, each
    dividing the next.
    """
    assert abs(det(u)) == 1
    columns = lambda a: [list(c) for c in zip(*a)]
    assert hnf_basis(columns(mat_mul(u, m))) == hnf_basis(columns(d))
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0 if a else b == 0
    assert all(x == 0 for i, row in enumerate(d) for j, x in enumerate(row) if i != j)


def reference_vertices(p: Polyhedron) -> tuple[tuple[Fraction, ...], ...]:
    """``p.vertices`` as ``Fraction`` tuples only, sorted: the reference for its ``int`` entries."""
    n = p.ambient_rank
    return tuple(sorted(tuple(Fraction(x, g[n]) for x in g[:n]) for g in p.cone.generators if g[n]))


def polyhedron_hrep(p: Polyhedron) -> tuple[tuple, tuple]:
    """``(ineqs, eqs)`` of ``p``, read off its homogenized cone.

    Sorted pairs ``(a, b)``, meaning ``a . x >= b`` and ``a . x == b``; an
    empty polyhedron has no equations.
    """
    n = p.ambient_rank
    ineqs = tuple(sorted((u[:n], -u[n]) for u in p.cone.normals))
    eqs = () if p.is_empty else tuple(sorted((e[:n], -e[n]) for e in p.cone.span_eqs))
    return ineqs, eqs


def assert_same_facets(normals, expected, generators, span_eqs):
    """``normals`` cut the same facets of the cone on ``generators`` as ``expected``.

    Each normal is compared by its values on the generators, up to a positive
    factor, and must be primitive and orthogonal to every span equation: a
    normal in the span is pinned by those values.
    """
    def values(us):
        return sorted(primitive_direction([dot(u, g) for g in generators]) for u in us)

    assert values(normals) == values(expected), (normals, expected, generators)
    for u in normals:
        assert gcd(*u) == 1 and all(dot(e, u) == 0 for e in span_eqs), (u, span_eqs)


def cone_contains(big: Cone, small: Cone) -> bool:
    """Whether ``small`` lies in ``big``: each of its generators does."""
    return all(big.contains(g) for g in small.generators)


def poly_contains(p: Polyhedron, x: Sequence) -> bool:
    """Whether the point ``x`` lies in ``p``: ``(x, 1)`` lies in its homogenized cone."""
    return not p.is_empty and p.cone.contains(tuple(x) + (1,))


def poly_is_face_of(f: Polyhedron, p: Polyhedron) -> bool:
    """Whether ``f`` is a nonempty face of ``p``: its homogenized cone is a face of ``p``'s."""
    return not f.is_empty and f.cone in p.cone.face_set


def reference_make_complex(cells: Sequence[Polyhedron], ambient_rank: int) -> PolyhedralComplex:
    """Reference for ``make_complex``: a pairwise scan of the cells' homogenized cones.

    The empty cells dropped and the cones deduped, a cone is kept unless it
    is a face of another one; the complex is the fan of the kept cones, in
    ``Cone.sort_key`` order, one rank up.
    """
    cones = {c.cone for c in cells if not c.is_empty}
    maximal = [k for k in cones if not any(k != o and k in o.face_set for o in cones)]
    return PolyhedralComplex(Fan(ambient_rank + 1, tuple(sorted(maximal, key=Cone.sort_key))))


def reference_fan_problems(fan: Fan) -> list[str]:
    """Reference for ``fan_validate``: every pair of maximal cones met by ``cone_intersect``."""
    problems = []
    cones = fan.maximal_cones
    for i, a in enumerate(cones):
        for b in cones[i + 1 :]:
            meet = cone_intersect(a, b)
            if not (meet in a.face_set and meet in b.face_set):
                problems.append(
                    f"cones {a.generators} and {b.generators} do not meet in a common face"
                )
    return problems


def reference_fan_is_complete(fan: Fan) -> bool:
    """Reference completeness of a valid fan: it has cones, all full-dimensional, and
    every facet lies in exactly two of them."""
    tally = Counter(f for c in fan.maximal_cones for f in c.faces if f.dim == c.dim - 1)
    n = fan.ambient_rank
    return bool(fan.maximal_cones) and all(c.dim == n for c in fan.maximal_cones) and set(tally.values()) <= {2}


def spy_certificates(monkeypatch) -> tuple[Counter, list]:
    """Spy on ``polyhedra._ridge_certificate`` and ``polyhedra.cone_intersect``.

    Returns a counter of the certificates asked for, keyed by the set of
    members and the ``homogenized`` flag, and the list of pairs met.
    """
    certified, met = Counter(), []
    real_certificate, real_meet = polyhedra._ridge_certificate, polyhedra.cone_intersect

    def certificate(cones, homogenized=False):
        certified[frozenset(cones), homogenized] += 1
        return real_certificate(cones, homogenized)

    monkeypatch.setattr(polyhedra, "_ridge_certificate", certificate)
    monkeypatch.setattr(polyhedra, "cone_intersect", lambda a, b: met.append((a, b)) or real_meet(a, b))
    return certified, met


def reference_complex_problems(s: PolyhedralComplex) -> list[str]:
    """Reference for ``complex_validate``: every pair of maximal cells met by ``poly_intersect``."""
    problems = []
    n = s.ambient_rank
    cells = s.maximal_cells
    if not cells:
        return ["complex has no cells"]
    for c in cells:
        if c.dim != n:
            problems.append(f"maximal cell {_vertex_text(c)} has dimension {c.dim} != {n}")
    for i, a in enumerate(cells):
        for b in cells[i + 1 :]:
            meet = poly_intersect(a, b)
            if meet.is_empty:
                continue
            if not (poly_is_face_of(meet, a) and poly_is_face_of(meet, b)):
                problems.append(
                    f"cells {_vertex_text(a)}+{a.tail.generators} and "
                    f"{_vertex_text(b)}+{b.tail.generators} do not meet in a common face"
                )
    if problems:
        return problems
    if n >= 1:
        tally: dict[Polyhedron, int] = {}
        for c in cells:
            for f in poly_faces(c):
                if f.dim == n - 1:
                    tally[f] = tally.get(f, 0) + 1
        for f, count in tally.items():
            if count != 2:
                problems.append(
                    f"face {_vertex_text(f)}+{f.tail.generators} lies in {count} cells; "
                    "the complex does not cover the whole space"
                )
    return problems


def reference_degree_meets(sigma: Cone, cells: Sequence[Polyhedron]):
    """Reference for ``fansy._degree_locus_meets``: the Minkowski sum, met with each face."""
    deg = reduce(fraction_minkowski_sum, cells)
    return lambda tau: not poly_intersect(deg, cone_as_polyhedron(tau)).is_empty


def reference_violations(x: MarkedFansyDivisor) -> list[tuple[str, str]]:
    """Reference for ``validate``: ``(code, message)`` pairs, found afresh.

    The divisor's checks run with the three references above in place of
    fan and complex validation and of the degree-locus meets, and with
    :func:`fraction_poly_min` in place of ``_poly_min``.
    """
    with mock.patch.multiple(
        fansy,
        fan_validate=reference_fan_problems,
        complex_validate=reference_complex_problems,
        _degree_locus_meets=reference_degree_meets,
        _poly_min=fraction_poly_min,
    ):
        return [(v.code, v.message) for v in fansy._violations(x)]


def fan_document(fan: Fan) -> dict:
    """The CLI's fan document of ``fan``."""
    return {
        "rank": fan.ambient_rank,
        "maximal_cones": [[list(g) for g in c.generators] for c in fan.maximal_cones],
    }


def random_complete_fan(rng: random.Random, rank: int = 3, max_extra: int = 6) -> Fan:
    """Face fan of a random lattice polytope with the origin in its interior."""
    pts = set()
    for s in (1, -1):
        for i in range(rank):
            v = [0] * rank
            v[i] = s
            pts.add(tuple(v))
    for _ in range(rng.randint(1, max_extra)):
        p = tuple(rng.randint(-3, 3) for _ in range(rank))
        if any(p):
            pts.add(primitive_direction(vec(p)))
    hull = make_polyhedron(list(pts), [], rank)
    cones = []
    for u, rhs in polyhedron_hrep(hull)[0]:
        tight = [v for v in hull.vertices if sum(a * b for a, b in zip(u, v)) == rhs]
        cones.append(make_cone(tight, rank))
    return make_fan(cones, rank)


# integer matrices of determinant 2 or 3 for sublattice_fan
SUBLATTICE_MATRICES = (
    ((2, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((1, 1, 0), (0, 2, 0), (0, 0, 1)),
    ((2, 1, 0), (1, 2, 0), (0, 0, 1)),
    ((1, 0, 1), (0, 1, 1), (0, 0, 3)),
)


def sublattice_fan(fan: Fan, matrix: Sequence[Sequence[int]]) -> Fan:
    """The image of ``fan`` under ``matrix`` (determinant ±2 or ±3), its rays made primitive.

    A complete fan again, read in a lattice that contains the image of the
    old one with index ``|det matrix|``, so its class group may gain torsion.
    """
    n = fan.ambient_rank

    def image(g):
        w = [sum(a * b for a, b in zip(row, g)) for row in matrix]
        d = gcd(*w)
        return tuple(c // d for c in w)

    return make_fan([make_cone([image(g) for g in c.generators], n) for c in fan.maximal_cones], n)


def random_bundle(rng: random.Random, base: Fan) -> KlyachkoBundle:
    """Arbitrary rank-two filtration data on a smooth complete surface fan."""
    labels = ["0", "1", "inf"]
    filts = []
    for ray_cone in base.cones(1):
        ray = ray_cone.generators[0]
        a = rng.randint(-2, 2)
        if rng.random() < 0.35:
            filts.append((ray, RayFiltration(a)))
        else:
            filts.append(
                (ray, RayFiltration(a, rng.choice(labels), a + rng.randint(1, 2)))
            )
    return KlyachkoBundle(base, tuple(filts))


def p2_split_bundle(which: str) -> KlyachkoBundle:
    """The two split rank-two bundles on P^2 giving the same variety."""
    if which == "E":
        # O(D1) + O: one line, supported on the first ray
        filts = (
            ((1, 0), RayFiltration(0, "0", 1)),
            ((0, 1), RayFiltration(0)),
            ((-1, -1), RayFiltration(0)),
        )
    elif which == "F":
        # O(D1 + D2) + O(D0): two lines
        filts = (
            ((1, 0), RayFiltration(0, "0", 1)),
            ((0, 1), RayFiltration(0, "0", 1)),
            ((-1, -1), RayFiltration(0, "1", 1)),
        )
    else:
        raise ValueError("which must be 'E' or 'F'")
    return KlyachkoBundle(p2_fan(), filts)


def classify_hij(b: KlyachkoBundle, c: Cone) -> str:
    """H/I/J sign class of the summand character difference on a cone.

    Non-maximal cones inherit the class from any containing maximal cone;
    agreement across containing cones is checked.
    """
    classes = set()
    for top in b.base_fan.maximal_cones:
        if cone_contains(top, c):
            delta = _cone_delta(b, top)
            vals = [dot(delta, g) for g in c.generators]
            if all(v == 0 for v in vals):
                classes.add("H")
            elif any(v > 0 for v in vals) and any(v < 0 for v in vals):
                classes.add("I")
            else:
                classes.add("J")
    if len(classes) != 1:
        raise InconsistentFiltrationsError(
            f"sign class of cone {c.generators} differs between containing cones"
        )
    return classes.pop()


def predicted_counts(b: KlyachkoBundle, k: int) -> tuple[int, int, int]:
    """Generator counts of the projectivized bundle from sign classes alone.

    Counts H/J/I base cones by dimension; the fiber contribution of an
    H-cone appears once per special point.
    """
    n = b.base_fan.ambient_rank
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in [0, {n}]")
    tallies: dict[tuple[int, str], int] = {}
    for c in b.base_fan.all_cones():
        key = (c.dim, classify_hij(b, c))
        tallies[key] = tallies.get(key, 0) + 1

    def count(d: int, cls: str) -> int:
        return tallies.get((d, cls), 0)

    npoints = max(2, len(bundle_labels(b)))
    r = count(n - k + 1, "H")
    v = count(n - k + 1, "J") + count(n - k, "J") + npoints * count(n - k, "H")
    t = count(n - k + 1, "I") + count(n - k, "J") + 2 * count(n - k, "I")
    return (r, v, t)


# ---------------------------------------------------------------------------
# exact linear algebra oracles


def solve_left(a, b):
    """Solve ``x @ a == b`` exactly over the rationals; None if inconsistent.

    ``a`` has ``len(a)`` rows; the solution has one coordinate per row.  When
    the rows are dependent an arbitrary consistent solution is returned.
    """
    rows = [vec(r) for r in a]
    target = vec(b)
    nr = len(rows)
    nc = len(target)
    if any(len(r) != nc for r in rows):
        raise ValueError("dimension mismatch")
    # Gaussian elimination on [a^T | b^T], tracking row combinations.
    aug = [[rows[i][c] for i in range(nr)] + [target[c]] for c in range(nc)]
    pivots = []
    r = 0
    for c in range(nr):
        piv = next((i for i in range(r, nc) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = Fraction(1) / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(nc):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append((r, c))
        r += 1
    for i in range(r, nc):
        if aug[i][nr] != 0:
            return None
    x = [Fraction(0)] * nr
    for row, col in pivots:
        x[col] = aug[row][nr]
    return tuple(x)


def lattice_index(inner, outer) -> int:
    """Index ``[outer : inner]`` of nested lattices of equal rank, given by bases."""
    if len(inner) != len(outer):
        raise ValueError("lattice_index requires equal ranks")
    change = []
    for row in inner:
        c = solve_left(outer, row) if outer else None
        if c is None or any(f.denominator != 1 for f in c):
            raise ValueError("inner lattice is not contained in outer lattice")
        change.append([int(f) for f in c])
    d = det(change)
    if d == 0:
        raise ValueError("inner basis is degenerate")
    return abs(d)


# ---------------------------------------------------------------------------
# complexes and divisors: independent listings, identities and invariances


def complex_faces(s, d: int):
    """All d-faces of a complex with the indices of the maximal cells containing each."""
    found = {}
    for i, c in enumerate(s.maximal_cells):
        for f in poly_faces(c):
            if f.dim == d:
                found.setdefault(f, []).append(i)
    return [
        (f, tuple(idx)) for f, idx in sorted(found.items(), key=lambda kv: kv[0].sort_key())
    ]


def deg_xi(x: MarkedFansyDivisor):
    """Per marked full-dimensional cone, the Minkowski sum of its fiber cells."""
    out = []
    for sigma in x.tailfan.cones(x.rank):
        if not x.is_marked(sigma):
            continue
        total = None
        for p in x.points:
            cell = unique_face_over(x, sigma, p)
            total = cell if total is None else fraction_minkowski_sum(total, cell)
        out.append((sigma, total))
    return out


def vsub(u: Sequence, v: Sequence) -> tuple:
    return tuple(a - b for a, b in zip(u, v))


def minimal_lattice_multiple(
    q_vec: Sequence, inverse: tuple[int, Sequence[Sequence[int]]]
) -> tuple:
    """Smallest positive multiple of ``q_vec`` lying in a full-rank lattice ``L``.

    ``inverse`` is ``(s, A)`` with integer ``A`` and ``L^-1 = A / s`` (``L``
    written as a matrix of basis rows), so the lattice coordinates of
    ``q_vec`` are ``q_vec @ A / s``.
    """
    w, mu = primitive(q_vec)
    s, a = inverse
    g = gcd(*(dot(w, col) for col in zip(*a)))
    if g == 0:
        return vec(q_vec)
    # the coordinates are (w @ A) / (mu * s), and w @ A has content g
    c = abs(Fraction(mu * s, g))
    return tuple(c * a for a in vec(q_vec))


def _face_directions(face: Polyhedron, base) -> list:
    dirs = [vsub(v, base) for v in face.vertices if v != base]
    dirs += face.tail.generators
    return dirs


def _quotient_lattice_inverse(proj, vertex) -> tuple[int, list[list[int]]]:
    """``(s, A)`` with ``L^-1 = A / s`` for ``L = Z^q + Z*vbar`` in ``N/span``.

    ``vbar`` is the image of ``vertex`` under ``proj``, so ``L`` is the image of
    ``Z^n + Z*vertex``.  With ``vbar = w / mu`` the lattice is ``M / mu`` for the
    integer HNF basis ``M`` of ``mu*Z^q + Z*w``; one fraction-free inverse of
    ``M`` serves every face step of a relation block.
    """
    w, mu = primitive(reference_project(proj, vertex))
    q = len(w)
    rows = [[mu if i == j else 0 for j in range(q)] for i in range(q)] + [list(w)]
    s, adj = bareiss_inverse(hnf_basis(rows))
    return s, [[mu * x for x in row] for row in adj]


def _step_image(proj, lattice_inverse, big_face: Polyhedron, base):
    """Primitive generator (in the quotient lattice) of a face-step direction.

    ``big_face`` exceeds the projected-out span by one dimension; its image
    is a ray, and the result is that ray's first lattice point, on the side
    of ``big_face``.
    """
    for d in _face_directions(big_face, base):
        image = reference_project(proj, d)
        if any(image):
            return minimal_lattice_multiple(image, lattice_inverse)
    raise AssertionError("face does not step out of the projected span")


def face_pair_sides(small, big):
    """Both sides of the multiplicity identity for a nested tail-collapsed pair.

    For faces ``small < big`` of one fiber whose dimensions equal their tails',
    returns ``mu(small) * v_{small,big}`` and ``mu(big) * v_{tail,tail}`` in
    the quotient modulo the tail span of ``small``, both oriented toward
    ``big``.  The two agree on every valid divisor.
    """
    base = small.vertices[0]
    span = _face_directions(small, base)
    proj = reference_quotient_matrix(span, small.ambient_rank)
    lattice = _quotient_lattice_inverse(proj, base)
    step = _step_image(proj, lattice, big, base)
    mu_small = mu_of_face(small)
    lhs = tuple(mu_small * c for c in vec(step))
    sigma_image = reference_image_ray(proj, big.tail.generators)
    mu_big = mu_of_face(big)
    rhs = tuple(Fraction(mu_big * c) for c in sigma_image)
    return lhs, rhs


def with_extra_generic_point(x: MarkedFansyDivisor, label: str) -> MarkedFansyDivisor:
    """The same variety presented with one more generic fiber marked special."""
    return MarkedFansyDivisor(
        x.points + (label,), x.complexes + (sigma_as_complex(x.tailfan),), x.marked
    )


def with_point_order(x: MarkedFansyDivisor, order) -> MarkedFansyDivisor:
    """Reorder the special points (changing which one is the basepoint)."""
    if sorted(order) != sorted(x.points):
        raise ValueError("order must be a permutation of the points")
    return MarkedFansyDivisor(tuple(order), tuple(x.complex_at(p) for p in order), x.marked)


# ---------------------------------------------------------------------------
# Fraction references for what the library reads off homogenized generators


def fraction_minkowski_sum(a: Polyhedron, b: Polyhedron) -> Polyhedron:
    """The Minkowski sum, from pairwise sums of Fraction vertices and both tails' rays."""
    if a.ambient_rank != b.ambient_rank:
        raise ValueError("ambient rank mismatch")
    if a.is_empty or b.is_empty:
        return make_polyhedron([], [], a.ambient_rank)
    verts = [tuple(x + y for x, y in zip(u, v)) for u in a.vertices for v in b.vertices]
    rays = list(a.tail.generators) + list(b.tail.generators)
    return make_polyhedron(verts, rays, a.ambient_rank)


def fraction_poly_min(face: Polyhedron, u: Sequence):
    """Reference for ``fansy._poly_min``: ``u`` dotted with the Fraction vertices."""
    return min(dot(u, v) for v in face.vertices)


def fraction_mu_of_face(face: Polyhedron) -> int:
    """Reference for ``fansy.mu_of_face``: the Fraction vertices' images, made primitive."""
    q = reference_quotient_matrix(face.tail.generators, face.ambient_rank)
    if not q or not q[0]:
        return 1
    images = {reference_project(q, v) for v in face.vertices}
    return lcm(*(primitive(im)[1] for im in images))


def fraction_s_sigma(x: MarkedFansyDivisor, sigma: Cone) -> int:
    """Reference for ``fansy.s_sigma``: denominators of the first Fraction vertex's image."""
    if not x.is_marked(sigma):
        raise ValueError("s_sigma is defined for marked cones only")
    q = reference_quotient_matrix(sigma.generators, x.rank)
    r = len(q[0]) if q else 0
    if r == 0:
        return 1
    vbars = []
    for p in x.points:
        face = unique_face_over(x, sigma, p)
        vbars.append(vec(reference_project(q, face.vertices[0])))
    d = lcm(*(f.denominator for vb in vbars for f in vb)) if vbars else 1
    if d == 1:
        return 1
    rows = [[d if i == j else 0 for j in range(r)] for i in range(r)]
    rows += [[int(f * d) for f in vb] for vb in vbars]
    basis = hnf_basis(rows)
    covolume = 1
    for i, row in enumerate(basis):
        covolume *= row[i]
    return d**r // covolume


# ---------------------------------------------------------------------------
# H-input references for cells the library builds by cutting a cone


def extreme_rays(rows, r: int) -> list:
    """``polyhedra._extreme_rays`` of integer rows in Q^r, their independent rows found here.

    GeometryError unless the rows span Q^r, that is, unless the cone is pointed.
    """
    basis = _independent_rows(rows, r)
    if len(basis) < r:
        raise GeometryError("cone is not pointed")
    return _extreme_rays(rows, basis)


def reference_h_to_generators(ineq_rows, eq_rows, n: int) -> list:
    """Primitive extreme rays of ``{x : ineq . x >= 0, eq . x = 0}``; pointed only.

    Without equations this is one double-description pass on the rows; with
    them it is the same pass in a basis of the lattice they cut out.
    """
    int_ineqs = [primitive(a)[0] for a in ineq_rows]
    if not eq_rows:
        return extreme_rays(int_ineqs, n)
    return _rays_in(integer_kernel([primitive(e)[0] for e in eq_rows], n), int_ineqs)


def reference_polyhedron_from_hrep(ineqs, eqs, ambient_rank: int) -> Polyhedron:
    """The polyhedron ``{x : a.x >= b, c.x == d}`` from exact (vector, rhs) pairs."""
    n = ambient_rank
    ineq_rows = [tuple(u) + (-rhs,) for u, rhs in ineqs]
    ineq_rows.append((0,) * n + (1,))
    eq_rows = [tuple(u) + (-rhs,) for u, rhs in eqs]
    return from_homogenized(_cone_on_rays(reference_h_to_generators(ineq_rows, eq_rows, n + 1), n + 1))


def reference_slice_at_height(c: Cone, height: int) -> Polyhedron:
    """``{x : (x, height) in c}`` from the H-data of ``c``."""
    n = c.ambient_rank - 1
    ineqs = [(a[:n], -height * a[n]) for a in c.normals]
    eqs = [(e[:n], -height * e[n]) for e in c.span_eqs]
    return reference_polyhedron_from_hrep(ineqs, eqs, n)


def reference_downgrade(fan: Fan):
    """Reference for ``build.downgrade`` on a complete fan: ``(cells at +1, cells at -1, marks)``.

    The marks are the sections at height 0 of the cones whose generators
    reach both open half-spaces, each read off its slice at height 1.
    """
    def crosses(c):
        last = [g[-1] for g in c.generators]
        return any(x > 0 for x in last) and any(x < 0 for x in last)

    zero = [reference_slice_at_height(c, 1) for c in fan.maximal_cones]
    inf = [reference_slice_at_height(c, -1) for c in fan.maximal_cones]
    marks = {reference_slice_at_height(c, 1).tail for c in fan.all_cones() if crosses(c)}
    return zero, inf, marks


def reference_bundle_cells(b: KlyachkoBundle) -> dict:
    """Reference for the cells of ``build.bundle_rank2``: each point's cells, by case.

    Per maximal cone with no line, one line or two lines, the pieces are
    cut from its H-data at levels -1, 0 and +1 of the character difference.
    """
    n = b.base_fan.ambient_rank
    labels = bundle_labels(b)
    aux = [a for a in AUX_LABELS if a not in labels]
    while len(labels) < 2:
        labels.append(aux.pop(0))
    cells = {p: [] for p in labels}

    def piece(c, delta, sign, level):
        ineqs = [(a, 0) for a in c.normals]
        ineqs.append((tuple(sign * d for d in delta), level))
        eqs = [(e, 0) for e in c.span_eqs]
        return reference_polyhedron_from_hrep(ineqs, eqs, n)

    for c in b.base_fan.maximal_cones:
        lines = _cone_lines(b, c)
        delta = _cone_delta(b, c)
        if not lines:
            for p in labels:
                cells[p].append(cone_as_polyhedron(c))
        elif len(lines) == 1:
            v1 = lines[0]
            for p in labels:
                if p == v1:
                    cells[p].append(piece(c, delta, 1, 1))
                    cells[p].append(piece(c, delta, -1, -1))
                else:
                    cells[p].append(cone_as_polyhedron(c))
        else:
            v1, v2 = lines
            for p in labels:
                if p == v1:
                    cells[p].append(piece(c, delta, 1, 1))
                    cells[p].append(piece(c, delta, -1, -1))
                elif p == v2:
                    cells[p].append(piece(c, delta, -1, 1))
                    cells[p].append(piece(c, delta, 1, -1))
                else:
                    cells[p].append(piece(c, delta, 1, 0))
                    cells[p].append(piece(c, delta, -1, 0))
    return cells
