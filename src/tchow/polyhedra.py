"""Exact rational cones, polyhedra, fans, and complete polyhedral complexes.

V-representations are primary; H-representations are derived at construction
time and carried along (excluded from equality).  Conversion both ways is one
exact integer double-description routine, :func:`_extreme_rays`: facets of a
cone are the extreme rays of its dual.  Face enumeration still tries every
subset of facets, which keeps the package at ambient rank <= 4.

Cones and polyhedra with lineality (a contained line) are rejected at
construction; every object in a fan or complete complex is pointed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import gcd
from typing import Iterable, Sequence

from .exactlin import (
    IVec,
    Vec,
    dot,
    identity_matrix,
    integer_kernel,
    mat_mul,
    perp_lattice,
    primitive,
    primitive_direction,
    saturation,
    snf_transforms,
    vadd,
    vec,
)


class GeometryError(ValueError):
    """Raised for inputs outside the supported geometry (e.g. lineality)."""


class NonFanTailsError(GeometryError):
    """Tailcones of a complex fail to form a fan."""


class EmptyPolyhedronError(GeometryError):
    """An operation required a non-empty polyhedron."""


class IncompleteFanError(GeometryError):
    """The fan must be a valid complete fan."""


# ---------------------------------------------------------------------------
# span coordinates and the double description


def _span_coords(int_gens: Sequence[IVec], n: int):
    """Saturated basis ``B`` of the span and coordinate map ``Q``.

    ``coords(x) = x @ Q`` identifies the span lattice with Z^r; ``x = c @ B``
    maps back.
    """
    sat = saturation([list(g) for g in int_gens], n)
    b = [list(r) for r in sat.basis]
    r = len(b)
    if r == 0:
        return [], [], 0
    u, _, v = snf_transforms(b)
    q = mat_mul([[v[i][j] for j in range(r)] for i in range(n)], u)
    return b, q, r


def _coords(q, x: Sequence) -> tuple:
    return tuple(sum(x[i] * q[i][j] for i in range(len(x))) for j in range(len(q[0])))


def _uncoords(b, c: Sequence) -> tuple:
    return tuple(sum(c[i] * b[i][j] for i in range(len(c))) for j in range(len(b[0])))


def _independent_rows(rows: Sequence[IVec], r: int) -> list[int]:
    """Indices of up to ``r`` independent rows, taken greedily in input order.

    Fraction-free elimination: each row is reduced against the pivots kept so
    far, and kept when something nonzero is left.
    """
    pivots: list[tuple[int, list[int]]] = []
    chosen = []
    for i, a in enumerate(rows):
        x = list(a)
        for c, p in pivots:
            if x[c]:
                x = [p[c] * xj - x[c] * pj for xj, pj in zip(x, p)]
        col = next((c for c, xc in enumerate(x) if xc), None)
        if col is None:
            continue
        g = gcd(*x)
        pivots.append((col, [xj // g for xj in x]))
        chosen.append(i)
        if len(chosen) == r:
            break
    return chosen


def _extreme_rays(rows: Sequence[IVec], r: int) -> list[IVec]:
    """Primitive extreme rays, sorted, of the cone ``{y in Q^r : a . y >= 0}``.

    The rows are integer vectors and must span Q^r, that is, the cone must be
    pointed; otherwise GeometryError.  The same call gives facets: the facet
    normals of the full-dimensional cone spanned by generators ``g`` in Z^r
    are the extreme rays of its dual ``{u : u . g >= 0}``, so
    ``_extreme_rays(gens, r)`` returns them provided the generators span Q^r.

    Double description (Motzkin et al. 1953): start from the simplicial cone
    of ``r`` independent rows and add the other rows in input order.  A ray
    carries the bitmask of the rows it is tight on; a (+, -) pair is joined on
    the new hyperplane only when adjacent, which by the combinatorial test
    (Fukuda & Prodon 1996) means no other ray is tight on every row both are.
    """
    if r == 0:
        return []
    basis = _independent_rows(rows, r)
    if len(basis) < r:
        raise GeometryError("cone is not pointed")
    basis_mask = sum(1 << i for i in basis)
    rays = []
    for i in basis:
        (y,) = integer_kernel([rows[j] for j in basis if j != i], r)
        if dot(rows[i], y) < 0:
            y = tuple(-x for x in y)
        rays.append((y, basis_mask & ~(1 << i)))
    for i, a in enumerate(rows):
        if basis_mask >> i & 1:
            continue
        bit = 1 << i
        kept, pos, neg = [], [], []
        for y, mask in rays:
            v = dot(a, y)
            if v > 0:
                kept.append((y, mask))
                pos.append((y, mask, v))
            elif v < 0:
                neg.append((y, mask, v))
            else:
                kept.append((y, mask | bit))
        for yp, mp, vp in pos:
            for yn, mn, vn in neg:
                common = mp & mn
                if common.bit_count() < r - 2:  # a 2-face needs r - 2 tight rows
                    continue
                if sum(1 for _, mask in rays if mask & common == common) > 2:
                    continue
                z = [vp * b - vn * c for b, c in zip(yn, yp)]
                g = gcd(*z)
                kept.append((tuple(x // g for x in z), common | bit))
        rays = kept
    return sorted(y for y, _ in rays)


def _h_to_generators(
    ineq_rows: Sequence[Sequence], eq_rows: Sequence[Sequence], n: int
) -> list[IVec]:
    """Generators of ``{x : ineq . x >= 0, eq . x = 0}``; pointed only."""
    int_eqs = [list(primitive(e)[0]) for e in eq_rows]
    w_basis = integer_kernel(int_eqs, n) if int_eqs else tuple(
        tuple(r) for r in identity_matrix(n)
    )
    w = len(w_basis)
    if w == 0:
        return []
    int_ineqs = [primitive(a)[0] for a in ineq_rows]
    restricted = [tuple(dot(a, wr) for wr in w_basis) for a in int_ineqs]
    rays_c = _extreme_rays(restricted, w)
    return [_uncoords([list(r) for r in w_basis], y) for y in rays_c]


# ---------------------------------------------------------------------------
# cones


@dataclass(frozen=True)
class Cone:
    """A pointed rational polyhedral cone in canonical V-representation.

    ``generators`` are the primitive extreme rays, sorted; the zero cone has
    no generators.  ``normals`` (relative facet normals) and ``span_eqs``
    (equations cutting out the linear span) are derived data.
    """

    ambient_rank: int
    generators: tuple[IVec, ...]
    normals: tuple[IVec, ...] = field(compare=False, repr=False, default=())
    span_eqs: tuple[IVec, ...] = field(compare=False, repr=False, default=())

    @property
    def dim(self) -> int:
        return self.ambient_rank - len(self.span_eqs)

    def is_zero(self) -> bool:
        return not self.generators

    def contains(self, x: Sequence) -> bool:
        return all(dot(e, x) == 0 for e in self.span_eqs) and all(
            dot(u, x) >= 0 for u in self.normals
        )

    def contains_cone(self, other: "Cone") -> bool:
        return all(self.contains(g) for g in other.generators)

    def sort_key(self):
        return (len(self.generators), self.generators)


def zero_cone(ambient_rank: int) -> Cone:
    eqs = tuple(tuple(r) for r in identity_matrix(ambient_rank))
    return Cone(ambient_rank, (), (), eqs)


def make_cone(generators: Iterable[Sequence], ambient_rank: int) -> Cone:
    """Canonicalize arbitrary generators into a Cone (raises if not pointed)."""
    prims = []
    for g in generators:
        d = primitive_direction(vec(g))
        if any(d):
            prims.append(d)
    if not prims:
        return zero_cone(ambient_rank)
    b, q, r = _span_coords(prims, ambient_rank)
    gens_c = [_coords(q, g) for g in prims]
    normals_c = _extreme_rays(gens_c, r)
    rays_c = _extreme_rays(normals_c, r)
    gens = tuple(sorted(_uncoords(b, y) for y in rays_c))
    normals = tuple(
        sorted(tuple(sum(w[i] * q[j][i] for i in range(r)) for j in range(ambient_rank)) for w in normals_c)
    )
    eqs = perp_lattice([vec(p) for p in prims], ambient_rank).basis
    return Cone(ambient_rank, gens, normals, eqs)


@lru_cache(maxsize=None)
def cone_faces(c: Cone) -> tuple[Cone, ...]:
    """All faces of ``c`` (including itself and the zero cone), canonical."""
    seen: dict[tuple, Cone] = {}
    for size in range(len(c.normals) + 1):
        for subset in combinations(c.normals, size):
            sel = tuple(
                g for g in c.generators if all(dot(u, g) == 0 for u in subset)
            )
            if sel not in seen:
                seen[sel] = make_cone(sel, c.ambient_rank)
    return tuple(sorted(seen.values(), key=Cone.sort_key))


def cone_is_face_of(f: Cone, c: Cone) -> bool:
    return f in cone_faces(c)


def cone_intersect(a: Cone, b: Cone) -> Cone:
    if a.ambient_rank != b.ambient_rank:
        raise ValueError("ambient rank mismatch")
    gens = _h_to_generators(
        [vec(u) for u in a.normals + b.normals],
        [vec(e) for e in a.span_eqs + b.span_eqs],
        a.ambient_rank,
    )
    return make_cone(gens, a.ambient_rank)


def dual_and_faces(c: Cone):
    """Facet normals (relative to the span) and faces grouped by dimension."""
    by_dim: dict[int, list[Cone]] = {}
    for f in cone_faces(c):
        by_dim.setdefault(f.dim, []).append(f)
    return list(c.normals), by_dim


# ---------------------------------------------------------------------------
# polyhedra


@dataclass(frozen=True)
class Polyhedron:
    """A rational polyhedron ``conv(vertices) + tail``; empty iff no vertices.

    ``ineqs`` are pairs ``(a, b)`` meaning ``a . x >= b``; ``eqs`` are pairs
    ``(a, b)`` meaning ``a . x == b``.  Both are derived, canonical data.
    """

    ambient_rank: int
    vertices: tuple[Vec, ...]
    tail: Cone
    ineqs: tuple[tuple[IVec, int], ...] = field(compare=False, repr=False, default=())
    eqs: tuple[tuple[IVec, int], ...] = field(compare=False, repr=False, default=())

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    @property
    def dim(self) -> int:
        if self.is_empty:
            return -1
        return self.ambient_rank - len(self.eqs)

    def contains(self, x: Sequence) -> bool:
        if self.is_empty:
            return False
        p = vec(x)
        return all(dot(a, p) == b for a, b in self.eqs) and all(
            dot(a, p) >= b for a, b in self.ineqs
        )

    def is_compact(self) -> bool:
        return not self.is_empty and self.tail.is_zero()

    def translate(self, t: Sequence) -> "Polyhedron":
        tv = vec(t)
        return make_polyhedron([vadd(v, tv) for v in self.vertices],
                               self.tail.generators, self.ambient_rank)

    def sort_key(self):
        return (len(self.vertices), self.vertices, self.tail.sort_key())


def empty_polyhedron(ambient_rank: int) -> Polyhedron:
    return Polyhedron(ambient_rank, (), zero_cone(ambient_rank))


def make_polyhedron(
    vertices: Iterable[Sequence], rays: Iterable[Sequence], ambient_rank: int
) -> Polyhedron:
    """Canonicalize V-data; an empty vertex list yields the empty polyhedron."""
    vlist = [vec(v) for v in vertices]
    if not vlist:
        return empty_polyhedron(ambient_rank)
    n = ambient_rank
    homog = []
    for v in vlist:
        w, _ = primitive(tuple(v) + (Fraction(1),))
        homog.append(w)
    for r in rays:
        d = primitive_direction(vec(r))
        if any(d):
            homog.append(d + (0,))
    b, q, rk = _span_coords(homog, n + 1)
    gens_c = [_coords(q, g) for g in homog]
    normals_c = _extreme_rays(gens_c, rk)
    rays_c = _extreme_rays(normals_c, rk)
    verts_out = []
    tail_gens = []
    for y in rays_c:
        g = _uncoords(b, y)
        if g[n] > 0:
            verts_out.append(tuple(Fraction(x, g[n]) for x in g[:n]))
        elif g[n] == 0:
            tail_gens.append(g[:n])
        else:
            raise AssertionError("negative homogenizing coordinate")
    ineqs = []
    for w in normals_c:
        u = tuple(sum(w[i] * q[j][i] for i in range(rk)) for j in range(n + 1))
        ineqs.append((u[:n], -u[n]))
    eqs = []
    for e in perp_lattice([vec(h) for h in homog], n + 1).basis:
        eqs.append((e[:n], -e[n]))
    return Polyhedron(
        n,
        tuple(sorted(verts_out)),
        make_cone(tail_gens, n),
        tuple(sorted(ineqs)),
        tuple(sorted(eqs)),
    )


def cone_as_polyhedron(c: Cone) -> Polyhedron:
    zero = (Fraction(0),) * c.ambient_rank
    return make_polyhedron([zero], c.generators, c.ambient_rank)


def tailcone(p: Polyhedron) -> Cone:
    if p.is_empty:
        raise EmptyPolyhedronError("empty polyhedron has no tailcone")
    return p.tail


def minkowski_sum(a: Polyhedron, b: Polyhedron) -> Polyhedron:
    """Minkowski sum; the empty polyhedron is absorbing."""
    if a.ambient_rank != b.ambient_rank:
        raise ValueError("ambient rank mismatch")
    if a.is_empty or b.is_empty:
        return empty_polyhedron(a.ambient_rank)
    verts = [vadd(u, v) for u in a.vertices for v in b.vertices]
    rays = list(a.tail.generators) + list(b.tail.generators)
    return make_polyhedron(verts, rays, a.ambient_rank)


def polyhedron_from_hrep(
    ineqs: Sequence[tuple[Sequence, object]],
    eqs: Sequence[tuple[Sequence, object]],
    ambient_rank: int,
) -> Polyhedron:
    """The polyhedron ``{x : a.x >= b, c.x == d}`` from exact (vector, rhs) pairs."""
    n = ambient_rank
    ineq_rows = [vec(u) + (-Fraction(rhs),) for u, rhs in ineqs]
    ineq_rows.append(vec([0] * n) + (Fraction(1),))
    eq_rows = [vec(u) + (-Fraction(rhs),) for u, rhs in eqs]
    gens = _h_to_generators(ineq_rows, eq_rows, n + 1)
    verts, rays = [], []
    for g in gens:
        if g[n] > 0:
            verts.append(tuple(Fraction(x, g[n]) for x in g[:n]))
        elif g[n] == 0:
            rays.append(g[:n])
    return make_polyhedron(verts, rays, n)


def poly_intersect(a: Polyhedron, b: Polyhedron) -> Polyhedron:
    if a.ambient_rank != b.ambient_rank:
        raise ValueError("ambient rank mismatch")
    if a.is_empty or b.is_empty:
        return empty_polyhedron(a.ambient_rank)
    return polyhedron_from_hrep(a.ineqs + b.ineqs, a.eqs + b.eqs, a.ambient_rank)


@lru_cache(maxsize=None)
def poly_faces(p: Polyhedron) -> tuple[Polyhedron, ...]:
    """All nonempty faces of ``p`` (including itself), canonical."""
    if p.is_empty:
        return ()
    seen: dict[tuple, Polyhedron] = {}
    constraints = list(p.ineqs)
    for size in range(len(constraints) + 1):
        for subset in combinations(constraints, size):
            vs = tuple(
                v
                for v in p.vertices
                if all(dot(a, v) == rhs for a, rhs in subset)
            )
            if not vs:
                continue
            rs = tuple(
                r
                for r in p.tail.generators
                if all(dot(a, r) == 0 for a, _ in subset)
            )
            key = (vs, rs)
            if key not in seen:
                seen[key] = make_polyhedron(vs, rs, p.ambient_rank)
    return tuple(sorted(seen.values(), key=Polyhedron.sort_key))


def poly_is_face_of(f: Polyhedron, p: Polyhedron) -> bool:
    return f in poly_faces(p)


# ---------------------------------------------------------------------------
# fans


@dataclass(frozen=True)
class Fan:
    """A fan given by its maximal cones.

    Its validity is computed on first use by :func:`fan_validate` and kept on
    the object, outside the dataclass fields, so equality and hashing ignore
    it.
    """

    ambient_rank: int
    maximal_cones: tuple[Cone, ...]

    @cached_property
    def _problems(self) -> tuple[str, ...]:
        return tuple(_fan_problems(self))

    def cones(self, d: int) -> tuple[Cone, ...]:
        return fan_cones(self).get(d, ())

    def all_cones(self) -> tuple[Cone, ...]:
        return tuple(c for cs in fan_cones(self).values() for c in cs)

    def contains(self, c: Cone) -> bool:
        return c in set(self.cones(c.dim))


def make_fan(cones: Iterable[Cone], ambient_rank: int) -> Fan:
    """Normalize a generating list of cones: dedupe and drop non-maximal ones."""
    uniq = sorted(set(cones), key=Cone.sort_key)
    maximal = [
        c
        for c in uniq
        if not any(other is not c and other.contains_cone(c) for other in uniq)
    ]
    return Fan(ambient_rank, tuple(sorted(maximal, key=Cone.sort_key)))


@lru_cache(maxsize=None)
def fan_cones(fan: Fan) -> dict:
    by_dim: dict[int, list[Cone]] = {}
    seen = set()
    for c in fan.maximal_cones:
        for f in cone_faces(c):
            if f not in seen:
                seen.add(f)
                by_dim.setdefault(f.dim, []).append(f)
    return {d: tuple(sorted(cs, key=Cone.sort_key)) for d, cs in sorted(by_dim.items())}


def _fan_problems(fan: Fan) -> list[str]:
    problems = []
    cones = fan.maximal_cones
    for i, a in enumerate(cones):
        for b in cones[i + 1 :]:
            try:
                meet = cone_intersect(a, b)
            except GeometryError as exc:
                problems.append(f"intersection failed for {a.generators} and {b.generators}: {exc}")
                continue
            if not (cone_is_face_of(meet, a) and cone_is_face_of(meet, b)):
                problems.append(
                    f"cones {a.generators} and {b.generators} do not meet in a common face"
                )
    return problems


def fan_validate(fan: Fan) -> list[str]:
    """Structural violations: non-pointed cones or improper intersections.

    Checked once per fan object; every call returns a fresh list.
    """
    return list(fan._problems)


def fan_is_complete(fan: Fan) -> bool:
    """Completeness via ridge pairing: every facet lies in exactly two cones."""
    n = fan.ambient_rank
    if not fan.maximal_cones:
        return False
    if any(c.dim != n for c in fan.maximal_cones):
        return False
    if n == 0:
        return True
    tally: dict[Cone, int] = {}
    for c in fan.maximal_cones:
        for f in cone_faces(c):
            if f.dim == n - 1:
                tally[f] = tally.get(f, 0) + 1
    return all(v == 2 for v in tally.values())


def require_complete(fan: Fan) -> None:
    """Raise :class:`IncompleteFanError` unless ``fan`` is a valid complete fan."""
    problems = fan_validate(fan)
    if problems:
        raise IncompleteFanError("; ".join(problems))
    if not fan_is_complete(fan):
        raise IncompleteFanError("fan is not complete")


# ---------------------------------------------------------------------------
# polyhedral complexes


@dataclass(frozen=True)
class PolyhedralComplex:
    """A polyhedral complex given by its maximal cells.

    Like :class:`Fan`, it keeps what :func:`complex_validate` finds and the
    fan :func:`complex_tailfan` builds, computed on first use.
    """

    ambient_rank: int
    maximal_cells: tuple[Polyhedron, ...]

    @cached_property
    def _problems(self) -> tuple[str, ...]:
        return tuple(_complex_problems(self))

    @cached_property
    def _tailfan(self) -> Fan:
        return make_fan((c.tail for c in self.maximal_cells), self.ambient_rank)


def make_complex(cells: Iterable[Polyhedron], ambient_rank: int) -> PolyhedralComplex:
    """Dedupe cells and drop any cell contained in another."""
    uniq = sorted(
        {c for c in cells if not c.is_empty}, key=Polyhedron.sort_key
    )
    maximal = []
    for c in uniq:
        contained = False
        for other in uniq:
            if other is c:
                continue
            if all(other.contains(v) for v in c.vertices) and all(
                other.tail.contains(r) for r in c.tail.generators
            ):
                if other != c:
                    contained = True
                    break
        if not contained:
            maximal.append(c)
    return PolyhedralComplex(ambient_rank, tuple(maximal))


def _complex_problems(s: PolyhedralComplex) -> list[str]:
    problems = []
    n = s.ambient_rank
    cells = s.maximal_cells
    if not cells:
        return ["complex has no cells"]
    for c in cells:
        if c.dim != n:
            problems.append(f"maximal cell {c.vertices} has dimension {c.dim} != {n}")
    for i, a in enumerate(cells):
        for b in cells[i + 1 :]:
            try:
                meet = poly_intersect(a, b)
            except GeometryError as exc:
                problems.append(f"cells fail to intersect properly: {exc}")
                continue
            if meet.is_empty:
                continue
            if not (poly_is_face_of(meet, a) and poly_is_face_of(meet, b)):
                problems.append(
                    f"cells {a.vertices}+{a.tail.generators} and "
                    f"{b.vertices}+{b.tail.generators} do not meet in a common face"
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
                    f"face {f.vertices}+{f.tail.generators} lies in {count} cells; "
                    "the complex does not cover the whole space"
                )
    return problems


def complex_validate(s: PolyhedralComplex) -> list[str]:
    """Violations of the complex axioms and of completeness.

    Checked once per complex object; every call returns a fresh list.
    """
    return list(s._problems)


def complex_faces(s: PolyhedralComplex, d: int) -> list[tuple[Polyhedron, tuple[int, ...]]]:
    """All d-faces with the indices of the maximal cells containing each."""
    found: dict[Polyhedron, list[int]] = {}
    for i, c in enumerate(s.maximal_cells):
        for f in poly_faces(c):
            if f.dim == d:
                found.setdefault(f, []).append(i)
    return [
        (f, tuple(idx)) for f, idx in sorted(found.items(), key=lambda kv: kv[0].sort_key())
    ]


def all_complex_faces(s: PolyhedralComplex) -> list[Polyhedron]:
    out = set()
    for c in s.maximal_cells:
        out.update(poly_faces(c))
    return sorted(out, key=Polyhedron.sort_key)


def complex_tailfan(s: PolyhedralComplex) -> Fan:
    """Fan of tailcones of all cells; raises NonFanTails if it is not a fan.

    Built once per complex object, so its own validity is checked once too.
    """
    fan = s._tailfan
    problems = fan_validate(fan)
    if problems:
        raise NonFanTailsError("; ".join(problems))
    return fan
