"""Exact rational cones, polyhedra, fans, and complete polyhedral complexes.

A cone or a polyhedron stores its V-representation only: primitive extreme
rays, vertices and tail, sorted, which equality, hashing and ``repr`` use.
Its H-representation (facet normals and span equations) is derived from that
V-data when first read, once per object, and kept on it.  Conversion both
ways is one exact integer double-description routine, :func:`_extreme_rays`:
facets of a cone are the extreme rays of its dual.  Each conversion takes one
lattice kernel of its generators, which gives both the span equations and the
span's saturated basis.

:func:`make_cone` and :func:`make_polyhedron` canonicalize arbitrary input and
keep the H-data they computed on the way.  Everything whose extreme rays are
already known is built from them directly, with no kernel: faces (from the
vertex/ray-facet incidences of the parent, closed under intersection, in the
spirit of Kaibel & Pfetsch 2002), intersections and H-described polyhedra
(whose double description yields extreme rays), tails, and cones as
polyhedra.

Face queries are answered from hashed sets.  The faces of a cone or a
polyhedron, and the set :func:`cone_is_face_of` / :func:`poly_is_face_of`
test membership in, are held in global caches keyed by value, so a rebuilt
but equal object still hits them.  A complex lists the faces of all its cells
once, on the object (see :func:`all_complex_faces`).  The coface map of a
fan or of a complex, from each face to the faces one dimension up that
contain it, is read off vertex/ray inclusion (:func:`inclusion_cofaces`);
a fan keeps its map on the object (``Fan.cofaces``).

Cones and polyhedra with lineality (a contained line) are rejected at
construction; every object in a fan or complete complex is pointed.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd

from .exactlin import (
    IVec,
    Vec,
    bareiss_inverse,
    dot,
    identity_matrix,
    integer_kernel,
    mat_mul,
    mat_vec,
    perp_lattice,
    primitive,
    primitive_direction,
    project,
    snf_transforms,
    vadd,
    vec,
)
from .value import Value


class GeometryError(ValueError):
    """Raised for inputs outside the supported geometry (e.g. lineality)."""


class NonFanTailsError(GeometryError):
    """Tailcones of a complex fail to form a fan."""


class IncompleteFanError(GeometryError):
    """The fan must be a valid complete fan."""


# ---------------------------------------------------------------------------
# span coordinates and the double description


def _span_coords(int_gens: Sequence[IVec], n: int):
    """Span equations ``E``, saturated basis ``B`` of the span, coordinate map ``Q``.

    ``E`` is the HNF basis of the integer equations vanishing on the
    generators, and ``B`` that of the lattice they cut out, so one kernel of
    the generators serves both.  ``coords(x) = x @ Q`` identifies the span
    lattice with Z^r; ``x = c @ B`` maps back.
    """
    eqs = perp_lattice(int_gens, n)
    b = [list(r) for r in perp_lattice(eqs, n)]
    r = len(b)
    if r == 0:
        return eqs, [], [], 0
    u, _, v = snf_transforms(b)
    q = mat_mul([[v[i][j] for j in range(r)] for i in range(n)], u)
    return eqs, b, q, r


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
    of ``r`` independent rows, whose rays are the columns of the adjugate of
    those rows (one fraction-free inverse) made primitive, and add the other
    rows in input order.  A ray carries the bitmask of the rows it is tight
    on; a (+, -) pair is joined on the new hyperplane only when adjacent,
    which by the combinatorial test (Fukuda & Prodon 1996) means no other ray
    is tight on every row both are.
    """
    if r == 0:
        return []
    basis = _independent_rows(rows, r)
    if len(basis) < r:
        raise GeometryError("cone is not pointed")
    basis_mask = sum(1 << i for i in basis)
    _, adj = bareiss_inverse([rows[i] for i in basis])
    rays = []
    for i, col in zip(basis, zip(*adj)):
        g = gcd(*col)
        y = tuple(x // g for x in col)
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
    """Primitive extreme rays of ``{x : ineq . x >= 0, eq . x = 0}``; pointed only.

    Without equations this is one double-description pass on the rows.  The
    equations cut out a saturated lattice, so rays primitive in its
    coordinates are primitive in Z^n.
    """
    int_ineqs = [primitive(a)[0] for a in ineq_rows]
    if not eq_rows:
        return _extreme_rays(int_ineqs, n)
    w_basis = integer_kernel([list(primitive(e)[0]) for e in eq_rows], n)
    w = len(w_basis)
    if w == 0:
        return []
    restricted = [tuple(dot(a, wr) for wr in w_basis) for a in int_ineqs]
    rays_c = _extreme_rays(restricted, w)
    return [project([list(r) for r in w_basis], y) for y in rays_c]


def _span_facets(gens: Sequence[IVec], n: int):
    """Span equations, span basis ``B``, coordinate map ``Q`` and facets of a cone.

    ``gens`` are integer generators of the cone; the facet normals are
    returned in span coordinates (``mat_vec(Q, w)`` lifts one to Z^n).
    """
    eqs, b, q, r = _span_coords(gens, n)
    return eqs, b, q, _extreme_rays([project(q, g) for g in gens], r)


def _keep(obj, **derived):
    """Store derived data a constructor has already computed on ``obj``.

    The names are those of the object's lazy properties, which then never run.
    """
    obj.__dict__.update(derived)
    return obj


def _face_masks(incidence: Sequence[int], full: int, need: int) -> set[int]:
    """Every face, as the bitmask of the generators it contains.

    ``incidence`` holds the mask of the generators on each facet.  The faces
    are ``full`` and every intersection of facets: the closure of ``full``
    under intersecting with a facet, keeping only sets that meet ``need``
    (the vertices of a polyhedron, whose faces are nonempty) when it is set.
    """
    seen = {full}
    todo = [full]
    while todo:
        s = todo.pop()
        for m in incidence:
            t = s & m
            if t not in seen and (t & need or not need):
                seen.add(t)
                todo.append(t)
    return seen


def _masked(items: Sequence, mask: int) -> tuple:
    return tuple(x for i, x in enumerate(items) if mask >> i & 1)


# ---------------------------------------------------------------------------
# cones


class Cone(Value):
    """A pointed rational polyhedral cone in canonical V-representation.

    ``generators`` are the primitive extreme rays, sorted; the zero cone has
    no generators.  ``normals`` (relative facet normals, sorted) and
    ``span_eqs`` (the HNF basis of the equations cutting out the linear span)
    are derived from the generators when first read.
    """

    ambient_rank: int
    generators: tuple[IVec, ...]

    @cached_property
    def _h_data(self) -> tuple[tuple[IVec, ...], tuple[IVec, ...]]:
        eqs, _, q, normals_c = _span_facets(self.generators, self.ambient_rank)
        return tuple(sorted(mat_vec(q, w) for w in normals_c)), eqs

    @cached_property
    def normals(self) -> tuple[IVec, ...]:
        return self._h_data[0]

    @cached_property
    def span_eqs(self) -> tuple[IVec, ...]:
        return self._h_data[1]

    @cached_property
    def dim(self) -> int:
        return len(_independent_rows(self.generators, self.ambient_rank))

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
    return _keep(Cone(ambient_rank, ()), normals=(), span_eqs=eqs, dim=0)


def _cone_on_rays(rays: Iterable[IVec], ambient_rank: int) -> Cone:
    """The cone whose primitive extreme rays are exactly ``rays``, in any order.

    The precondition is not checked: callers already hold the extreme rays (a
    face's subset of its parent's generators, or a double-description
    output).  Nothing is computed here; the H-data is derived when first read.
    """
    gens = tuple(sorted(rays))
    return Cone(ambient_rank, gens) if gens else zero_cone(ambient_rank)


def make_cone(generators: Iterable[Sequence], ambient_rank: int) -> Cone:
    """Canonicalize arbitrary generators into a Cone (raises if not pointed)."""
    prims = []
    for g in generators:
        d = primitive_direction(g)
        if any(d):
            prims.append(d)
    if not prims:
        return zero_cone(ambient_rank)
    eqs, b, q, normals_c = _span_facets(prims, ambient_rank)
    rays_c = _extreme_rays(normals_c, len(b))
    c = _cone_on_rays((project(b, y) for y in rays_c), ambient_rank)
    normals = tuple(sorted(mat_vec(q, w) for w in normals_c))
    return _keep(c, normals=normals, span_eqs=eqs, dim=len(b))


@lru_cache(maxsize=None)
def cone_faces(c: Cone) -> tuple[Cone, ...]:
    """All faces of ``c`` (including itself and the zero cone), canonical."""
    gens = c.generators
    incidence = [
        sum(1 << i for i, g in enumerate(gens) if dot(u, g) == 0) for u in c.normals
    ]
    full = (1 << len(gens)) - 1
    faces = [
        c if mask == full else _cone_on_rays(_masked(gens, mask), c.ambient_rank)
        for mask in _face_masks(incidence, full, 0)
    ]
    return tuple(sorted(faces, key=Cone.sort_key))


@lru_cache(maxsize=None)
def _cone_face_set(c: Cone) -> frozenset[Cone]:
    return frozenset(cone_faces(c))


def cone_is_face_of(f: Cone, c: Cone) -> bool:
    return f in _cone_face_set(c)


def cone_intersect(a: Cone, b: Cone) -> Cone:
    if a.ambient_rank != b.ambient_rank:
        raise ValueError("ambient rank mismatch")
    gens = _h_to_generators(a.normals + b.normals, a.span_eqs + b.span_eqs, a.ambient_rank)
    return _cone_on_rays(gens, a.ambient_rank)


# ---------------------------------------------------------------------------
# polyhedra


class Polyhedron(Value):
    """A rational polyhedron ``conv(vertices) + tail``; empty iff no vertices.

    ``ineqs`` are pairs ``(a, b)`` meaning ``a . x >= b``; ``eqs`` are pairs
    ``(a, b)`` meaning ``a . x == b``.  Both are canonical data derived from
    the vertices and the tail when first read.
    """

    ambient_rank: int
    vertices: tuple[Vec, ...]
    tail: Cone

    def _homogenized(self) -> list[IVec]:
        """Primitive generators of the cone over ``self`` at last coordinate 1."""
        return [primitive(v + (1,))[0] for v in self.vertices] + [
            g + (0,) for g in self.tail.generators
        ]

    @cached_property
    def _h_data(self):
        if self.is_empty:
            return (), ()
        n = self.ambient_rank
        span_eqs, _, q, normals_c = _span_facets(self._homogenized(), n + 1)
        return _affine_h(span_eqs, q, normals_c, n)

    @cached_property
    def ineqs(self) -> tuple[tuple[IVec, int], ...]:
        return self._h_data[0]

    @cached_property
    def eqs(self) -> tuple[tuple[IVec, int], ...]:
        return self._h_data[1]

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    @cached_property
    def dim(self) -> int:
        if self.is_empty:
            return -1
        return len(_independent_rows(self._homogenized(), self.ambient_rank + 1)) - 1

    def contains(self, x: Sequence) -> bool:
        if self.is_empty:
            return False
        p = vec(x)
        return all(dot(a, p) == b for a, b in self.eqs) and all(
            dot(a, p) >= b for a, b in self.ineqs
        )

    def translate(self, t: Sequence) -> "Polyhedron":
        tv = vec(t)
        return make_polyhedron([vadd(v, tv) for v in self.vertices],
                               self.tail.generators, self.ambient_rank)

    def sort_key(self):
        return (len(self.vertices), self.vertices, self.tail.sort_key())


def _affine_h(span_eqs, q, normals_c, n: int):
    """``(ineqs, eqs)`` of a polyhedron from the H-data of its homogenized cone."""
    ineqs = []
    for w in normals_c:
        u = mat_vec(q, w)
        ineqs.append((u[:n], -u[n]))
    return tuple(sorted(ineqs)), tuple(sorted((e[:n], -e[n]) for e in span_eqs))


def empty_polyhedron(ambient_rank: int) -> Polyhedron:
    return Polyhedron(ambient_rank, (), zero_cone(ambient_rank))


def _polyhedron_on_rays(vertices: Iterable[Vec], tail: Cone) -> Polyhedron:
    """``conv(vertices) + tail``, where ``vertices`` are exactly its vertices.

    The precondition is not checked: callers already hold the vertices, in
    any order, and a tail built from its extreme rays.  Nothing is computed
    here; the H-data is derived when first read.
    """
    return Polyhedron(tail.ambient_rank, tuple(sorted(vertices)), tail)


def _from_homogenized(rays: Iterable[IVec], n: int) -> Polyhedron:
    """The polyhedron whose homogenized cone has the primitive extreme ``rays``.

    Rays with a positive last coordinate give the vertices, those with last
    coordinate 0 the tail; with no vertex the polyhedron is empty.
    """
    verts, tail_gens = [], []
    for g in rays:
        if g[n] > 0:
            verts.append(tuple(Fraction(x, g[n]) for x in g[:n]))
        elif g[n] == 0:
            tail_gens.append(g[:n])
        else:
            raise AssertionError("negative homogenizing coordinate")
    if not verts:
        return empty_polyhedron(n)
    return _polyhedron_on_rays(verts, _cone_on_rays(tail_gens, n))


def make_polyhedron(
    vertices: Iterable[Sequence], rays: Iterable[Sequence], ambient_rank: int
) -> Polyhedron:
    """Canonicalize V-data; an empty vertex list yields the empty polyhedron."""
    homog = [primitive(tuple(v) + (1,))[0] for v in vertices]
    if not homog:
        return empty_polyhedron(ambient_rank)
    n = ambient_rank
    for r in rays:
        d = primitive_direction(r)
        if any(d):
            homog.append(d + (0,))
    span_eqs, b, q, normals_c = _span_facets(homog, n + 1)
    rays_c = _extreme_rays(normals_c, len(b))
    p = _from_homogenized((project(b, y) for y in rays_c), n)
    ineqs, eqs = _affine_h(span_eqs, q, normals_c, n)
    return _keep(p, ineqs=ineqs, eqs=eqs, dim=len(b) - 1)


def cone_as_polyhedron(c: Cone) -> Polyhedron:
    return _polyhedron_on_rays([(Fraction(0),) * c.ambient_rank], c)


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
    ineq_rows = [tuple(u) + (-rhs,) for u, rhs in ineqs]
    ineq_rows.append((0,) * n + (1,))
    eq_rows = [tuple(u) + (-rhs,) for u, rhs in eqs]
    return _from_homogenized(_h_to_generators(ineq_rows, eq_rows, n + 1), n)


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
    verts, rays = p.vertices, p.tail.generators
    incidence = [
        sum(1 << i for i, v in enumerate(verts) if dot(a, v) == rhs)
        | sum(1 << (len(verts) + i) for i, r in enumerate(rays) if dot(a, r) == 0)
        for a, rhs in p.ineqs
    ]
    vertex_bits = (1 << len(verts)) - 1
    full = (1 << (len(verts) + len(rays))) - 1
    faces = []
    for mask in _face_masks(incidence, full, vertex_bits):
        if mask == full:
            faces.append(p)
            continue
        rs = _masked(rays, mask >> len(verts))
        tail = p.tail if rs == rays else _cone_on_rays(rs, p.ambient_rank)
        faces.append(_polyhedron_on_rays(_masked(verts, mask), tail))
    return tuple(sorted(faces, key=Polyhedron.sort_key))


@lru_cache(maxsize=None)
def _poly_face_set(p: Polyhedron) -> frozenset[Polyhedron]:
    return frozenset(poly_faces(p))


def poly_is_face_of(f: Polyhedron, p: Polyhedron) -> bool:
    return f in _poly_face_set(p)


# ---------------------------------------------------------------------------
# fans


def inclusion_cofaces(by_dim: dict[int, Sequence[tuple[object, frozenset]]]) -> dict:
    """Map each face to the faces one dimension up that contain it.

    ``by_dim`` lists the faces of each dimension, each face with the set of
    its vertices and rays.  In a fan or a polyhedral complex one face lies in
    another exactly when its set is a subset of the other's, so the map needs
    no H-data.  The sets must tell a vertex from a ray with equal entries
    (``Fraction(1)`` equals ``1``), so the caller tags them apart.  Each
    face's cofaces keep the order of their dimension's list.
    """
    up: dict = {}
    for d, smaller in by_dim.items():
        # each face is indexed under one of its elements, or None when it has none
        by_element: dict = {}
        for f, elements in smaller:
            up[f] = []
            by_element.setdefault(next(iter(elements), None), []).append((f, elements))
        for g, g_elements in by_dim.get(d + 1, ()):
            for e in (None, *g_elements):
                for f, elements in by_element.get(e, ()):
                    if elements <= g_elements:
                        up[f].append(g)
    return {f: tuple(gs) for f, gs in up.items()}


class Fan(Value):
    """A fan given by its maximal cones.

    Its validity is computed on first use by :func:`fan_validate` and kept on
    the object, next to its fields but not among them, so equality and
    hashing ignore it; so is its coface map.
    """

    ambient_rank: int
    maximal_cones: tuple[Cone, ...]

    @cached_property
    def _problems(self) -> tuple[str, ...]:
        return tuple(_fan_problems(self))

    @cached_property
    def cofaces(self) -> dict[Cone, tuple[Cone, ...]]:
        """Each cone mapped to the cones one dimension up that contain it.

        Read off ray inclusion by :func:`inclusion_cofaces`, with no H-data.
        """
        rays = {d: [(c, frozenset(c.generators)) for c in cs] for d, cs in fan_cones(self).items()}
        return inclusion_cofaces(rays)

    def cones(self, d: int) -> tuple[Cone, ...]:
        return fan_cones(self).get(d, ())

    def all_cones(self) -> tuple[Cone, ...]:
        return tuple(c for cs in fan_cones(self).values() for c in cs)


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


class PolyhedralComplex(Value):
    """A polyhedral complex given by its maximal cells.

    Like :class:`Fan`, it keeps what :func:`complex_validate` finds, the fan
    its cells' tail cones generate (``tail_fan``, not validated; see
    :func:`complex_tailfan`) and the faces :func:`all_complex_faces` lists,
    each computed on first use.
    """

    ambient_rank: int
    maximal_cells: tuple[Polyhedron, ...]

    @cached_property
    def _problems(self) -> tuple[str, ...]:
        return tuple(_complex_problems(self))

    @cached_property
    def tail_fan(self) -> Fan:
        return make_fan((c.tail for c in self.maximal_cells), self.ambient_rank)

    @cached_property
    def _faces(self) -> tuple[Polyhedron, ...]:
        faces = {f for c in self.maximal_cells for f in poly_faces(c)}
        return tuple(sorted(faces, key=Polyhedron.sort_key))


def make_complex(cells: Iterable[Polyhedron], ambient_rank: int) -> PolyhedralComplex:
    """Dedupe cells and drop any cell contained in another."""
    uniq = sorted(
        {c for c in cells if not c.is_empty}, key=Polyhedron.sort_key
    )
    maximal = [
        c
        for c in uniq
        if not any(
            other is not c
            and all(other.contains(v) for v in c.vertices)
            and all(other.tail.contains(r) for r in c.tail.generators)
            for other in uniq
        )
    ]
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


def all_complex_faces(s: PolyhedralComplex) -> list[Polyhedron]:
    """Every face of every cell, sorted.

    Listed once per complex object; every call returns a fresh list.
    """
    return list(s._faces)


def complex_tailfan(s: PolyhedralComplex) -> Fan:
    """Fan of tailcones of all cells; raises NonFanTails if it is not a fan.

    Built once per complex object, so its own validity is checked once too.
    """
    fan = s.tail_fan
    problems = fan_validate(fan)
    if problems:
        raise NonFanTailsError("; ".join(problems))
    return fan
