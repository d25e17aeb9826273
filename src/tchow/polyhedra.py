"""Exact rational cones, polyhedra, fans, and complete polyhedral complexes.

A cone or a polyhedron stores its V-representation only: primitive extreme
rays, vertices and tail, sorted, which equality, hashing and ``repr`` use.
A polyhedron ``P`` is read through its homogenized cone, the cone over
``P x {1}`` plus ``tail x {0}`` (``Polyhedron.cone``): its H-data, faces,
meets, containment and dimension are those of that cone.  A cone's
H-representation (facet normals and span equations) is derived from its
V-data when first read, once per object, and kept on it.  Conversion both
ways is one exact integer double description, :func:`_extreme_rays` (which
starts from a simplicial cone and adds rows with :func:`_add_rows`): facets
of a cone are the extreme rays of its dual.  A full-dimensional cone is
converted as it is, with no lattice kernel.  A lower-dimensional one takes
one, its span equations, and is converted in a basis of its own independent
generators (:func:`_rays_in`): its facet normals are the primitive ones that
lie in its span.  H-described cones with equations are converted the same
way, in a basis of the lattice the equations cut out.

:func:`make_cone` and :func:`make_polyhedron` canonicalize arbitrary input and
keep the H-data they computed on the way: one double description finds the
facets, and the extreme rays are the generators whose facet incidences no
other generator's contain.  Everything whose extreme rays are already known
is built from them directly, with no kernel: faces (from the ray-facet
incidences of the cone, closed under intersection, in the spirit of Kaibel &
Pfetsch 2002; a polyhedron's faces are its cone's faces that hold a vertex),
intersections and H-described polyhedra (whose double description yields
extreme rays; a meet with a full-dimensional cone starts from that cone's
rays), tails, and cones as polyhedra.

Face queries are answered from hashed sets.  The faces of a cone or a
polyhedron, and the set :func:`cone_is_face_of` tests membership in, are held
in global caches keyed by value, so a rebuilt but equal object still hits
them.  :func:`make_fan` and :func:`make_complex` return one object per value
(:func:`~tchow.value.canonical`), so a fan or a complex built again is the
object built first, with its validity, faces and coface map.  A complex
lists the faces of all its cells once, on the object (see
:func:`all_complex_faces`).  The coface map of a fan or of a complex, from
each face to the faces one dimension up that contain it, is read off ray
inclusion (:func:`inclusion_cofaces`); a fan keeps its map on the object
(``Fan.cofaces``).

A fan or a complex is valid only if every two of its maximal cones (or of
its cells' homogenized cones) meet in a common face.  Most pairs are proved
so without a meet (:func:`_certified_meet`): a facet normal ``u`` of one side
that is nonpositive on the other side's generators confines the meet to the
other side's face on the ``u``-tight generators, and when that face is in
the first side's face set it is the meet.  Only the pairs with no such
certificate are met by double description, and they alone write problems.

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
    perp_lattice,
    primitive,
    primitive_direction,
    project,
    vadd,
    vec,
)
from .value import Value, canonical


class GeometryError(ValueError):
    """Raised for inputs outside the supported geometry (e.g. lineality)."""


class NonFanTailsError(GeometryError):
    """Tailcones of a complex fail to form a fan."""


class IncompleteFanError(GeometryError):
    """The fan must be a valid complete fan."""


# ---------------------------------------------------------------------------
# span coordinates and the double description


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
    rows in input order with :func:`_add_rows`.
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
    return _add_rows(rays, [(i, a) for i, a in enumerate(rows) if not basis_mask >> i & 1], r)


def _add_rows(
    rays: list[tuple[IVec, int]], rows: Iterable[tuple[int, IVec]], r: int
) -> list[IVec]:
    """Cut a pointed cone in Q^r by more rows; its primitive extreme rays, sorted.

    ``rays`` are the extreme rays of the cone so far, each with the bitmask of
    the rows it is tight on, and ``rows`` the pairs ``(bit, a)`` still to
    add, each meaning ``a . y >= 0``.  A (+, -) pair of rays is joined on the
    new hyperplane only when adjacent, which by the combinatorial test
    (Fukuda & Prodon 1996) means no other ray is tight on every row both are.
    """
    for i, a in rows:
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


def _rays_in(basis: Sequence[IVec], rows: Sequence[IVec]) -> list[IVec]:
    """Primitive extreme rays of ``{y in span(basis) : a . y >= 0}``, ``a`` in ``rows``.

    ``basis`` holds independent integer vectors and the cone must be pointed.
    Written as ``y = c @ basis``, it is ``{c in Q^r : (b . a for b in basis) . c
    >= 0}``: one double description in Q^r, each ray lifted back to Z^n.
    """
    restricted = [tuple(dot(b, a) for b in basis) for a in rows]
    return [primitive_direction(project(basis, c)) for c in _extreme_rays(restricted, len(basis))]


def _h_to_generators(
    ineq_rows: Sequence[Sequence], eq_rows: Sequence[Sequence], n: int
) -> list[IVec]:
    """Primitive extreme rays of ``{x : ineq . x >= 0, eq . x = 0}``; pointed only.

    Without equations this is one double-description pass on the rows; with
    them it is the same pass in a basis of the lattice they cut out.
    """
    int_ineqs = [primitive(a)[0] for a in ineq_rows]
    if not eq_rows:
        return _extreme_rays(int_ineqs, n)
    return _rays_in(integer_kernel([primitive(e)[0] for e in eq_rows], n), int_ineqs)


def _span_facets(gens: Sequence[IVec], n: int):
    """Span equations, dimension and facet normals of the cone on ``gens``.

    ``gens`` are nonzero integer vectors.  When ``n`` of them are independent
    the span is Q^n: there are no equations, and the facets come from the
    generators as they are, with no lattice kernel.  Otherwise one kernel
    gives the span equations (its HNF basis), and the facets are read in a
    basis of independent generators: each normal is the primitive one that
    lies in the span.  The normals are returned sorted.
    """
    basis = [gens[i] for i in _independent_rows(gens, n)]
    if len(basis) == n:
        return (), n, tuple(_extreme_rays(gens, n))
    return perp_lattice(gens, n), len(basis), tuple(sorted(_rays_in(basis, gens)))


def _tight(normals: Sequence[IVec], y: Sequence) -> int:
    """Bitmask of the normals that vanish on ``y``."""
    return sum(1 << j for j, u in enumerate(normals) if dot(u, y) == 0)


def _keep(obj, **derived):
    """Store derived data a constructor has already computed on ``obj``.

    The names are those of the object's lazy properties, which then never run.
    """
    obj.__dict__.update(derived)
    return obj


def _face_masks(incidence: Sequence[int], full: int) -> set[int]:
    """Every face, as the bitmask of the generators it contains.

    ``incidence`` holds the mask of the generators on each facet.  The faces
    are ``full`` and every intersection of facets: the closure of ``full``
    under intersecting with a facet.
    """
    seen = {full}
    todo = [full]
    while todo:
        s = todo.pop()
        for m in incidence:
            t = s & m
            if t not in seen:
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
    no generators.  ``normals`` (the primitive facet normals that lie in the
    cone's linear span, sorted) and ``span_eqs`` (the HNF basis of the
    equations cutting out that span) are derived from the generators when
    first read.
    """

    ambient_rank: int
    generators: tuple[IVec, ...]

    @cached_property
    def _h_data(self) -> tuple[tuple[IVec, ...], tuple[IVec, ...]]:
        eqs, _, normals = _span_facets(self.generators, self.ambient_rank)
        return normals, eqs

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
    """Canonicalize arbitrary generators into a Cone (raises if not pointed).

    The extreme rays are read off the facet incidences: they are among the
    primitive generators, and as every face is an intersection of facets, a
    generator is extreme unless another one is tight on every facet it is.
    The cone is pointed iff its facet normals have rank its dimension.
    """
    gens = sorted({d for d in map(primitive_direction, generators) if any(d)})
    if not gens:
        return zero_cone(ambient_rank)
    eqs, r, normals = _span_facets(gens, ambient_rank)
    if len(_independent_rows(normals, r)) < r:
        raise GeometryError("cone is not pointed")
    masks = [_tight(normals, g) for g in gens]
    rays = tuple(
        g
        for i, (g, m) in enumerate(zip(gens, masks))
        if not any(o & m == m for j, o in enumerate(masks) if j != i)
    )
    return _keep(Cone(ambient_rank, rays), normals=normals, span_eqs=eqs, dim=r)


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
        for mask in _face_masks(incidence, full)
    ]
    return tuple(sorted(faces, key=Cone.sort_key))


@lru_cache(maxsize=None)
def _cone_face_set(c: Cone) -> frozenset[Cone]:
    return frozenset(cone_faces(c))


def cone_is_face_of(f: Cone, c: Cone) -> bool:
    return f in _cone_face_set(c)


def cone_intersect(a: Cone, b: Cone) -> Cone:
    """The meet of two cones, canonical.

    When one side is full-dimensional its extreme rays, with their tight
    facets, are already a double description of it: the other side's facets
    and span equations (each as a pair of opposite rows) are added to that.
    """
    if a.ambient_rank != b.ambient_rank:
        raise ValueError("ambient rank mismatch")
    n = a.ambient_rank
    if a.span_eqs and not b.span_eqs:
        a, b = b, a
    if a.span_eqs:
        return _cone_on_rays(_h_to_generators(a.normals + b.normals, a.span_eqs + b.span_eqs, n), n)
    seed = [(g, _tight(a.normals, g)) for g in a.generators]
    rows = b.normals + b.span_eqs + tuple(tuple(-x for x in e) for e in b.span_eqs)
    return _cone_on_rays(_add_rows(seed, enumerate(rows, len(a.normals)), n), n)


def _certified_meet(a: Cone, b: Cone) -> Cone | None:
    """The meet of ``a`` and ``b`` when a separating facet shows it is a face of both.

    Let ``u`` be a facet normal of one side ``x`` with ``u . g <= 0`` on every
    generator ``g`` of the other side ``y``.  The meet then lies in ``u``'s
    facet of ``x`` and in ``y``'s face ``G`` on the ``u``-tight generators.
    When ``G`` is also a face of ``x`` it lies in the meet, so it is the meet:
    a face of both, and the canonical cone :func:`cone_intersect` returns.
    None when no facet of either side gives such a ``G``.
    """
    if a.ambient_rank != b.ambient_rank:
        return None  # cone_intersect reports the mismatch
    for x, y in ((a, b), (b, a)):
        for u in x.normals:
            tight = []
            for g in y.generators:
                v = dot(u, g)
                if v > 0:
                    break
                if v == 0:
                    tight.append(g)
            else:
                face = _cone_on_rays(tight, a.ambient_rank)
                if face in _cone_face_set(x):
                    return face
    return None


def _pair_meet(a: Cone, b: Cone) -> tuple[Cone, bool]:
    """The meet of two cones and whether it is a face of both.

    Certified by :func:`_certified_meet` when it can be; otherwise met by
    :func:`cone_intersect` and looked up in both face sets.
    """
    meet = _certified_meet(a, b)
    if meet is not None:
        return meet, True
    meet = cone_intersect(a, b)
    return meet, cone_is_face_of(meet, a) and cone_is_face_of(meet, b)


# ---------------------------------------------------------------------------
# polyhedra


class Polyhedron(Value):
    """A rational polyhedron ``conv(vertices) + tail``; empty iff no vertices.

    Every H-side question is answered by ``cone``, the homogenized cone in
    rank n+1 spanned by ``(v, 1)`` for each vertex ``v`` and ``(r, 0)`` for
    each tail ray ``r``: the polyhedron is its slice at last coordinate 1.
    """

    ambient_rank: int
    vertices: tuple[Vec, ...]
    tail: Cone

    @cached_property
    def cone(self) -> Cone:
        """Primitive generators ``(v, 1)`` and ``(r, 0)``; the zero cone when empty."""
        return _cone_on_rays(
            [primitive(v + (1,))[0] for v in self.vertices]
            + [g + (0,) for g in self.tail.generators],
            self.ambient_rank + 1,
        )

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    @cached_property
    def dim(self) -> int:
        return self.cone.dim - 1

    def contains(self, x: Sequence) -> bool:
        return not self.is_empty and self.cone.contains(tuple(x) + (1,))

    def translate(self, t: Sequence) -> "Polyhedron":
        tv = vec(t)
        return make_polyhedron([vadd(v, tv) for v in self.vertices],
                               self.tail.generators, self.ambient_rank)

    def sort_key(self):
        return (len(self.vertices), self.vertices, self.tail.sort_key())


def empty_polyhedron(ambient_rank: int) -> Polyhedron:
    return Polyhedron(ambient_rank, (), zero_cone(ambient_rank))


def _polyhedron_on_rays(vertices: Iterable[Vec], tail: Cone) -> Polyhedron:
    """``conv(vertices) + tail``, where ``vertices`` are exactly its vertices.

    The precondition is not checked: callers already hold the vertices, in
    any order, and a tail built from its extreme rays.  Nothing is computed
    here; the H-data is derived when first read.
    """
    return Polyhedron(tail.ambient_rank, tuple(sorted(vertices)), tail)


def _from_homogenized(c: Cone) -> Polyhedron:
    """The polyhedron whose homogenized cone is ``c``, which it keeps.

    Rays with a positive last coordinate give the vertices, those with last
    coordinate 0 the tail.  With no vertex the polyhedron is empty and keeps
    nothing: a cone at last coordinate 0 is not the empty polyhedron's.
    """
    n = c.ambient_rank - 1
    verts, tail_gens = [], []
    for g in c.generators:
        if g[n] > 0:
            verts.append(tuple(Fraction(x, g[n]) for x in g[:n]))
        elif g[n] == 0:
            tail_gens.append(g[:n])
        else:
            raise AssertionError("negative homogenizing coordinate")
    if not verts:
        return empty_polyhedron(n)
    return _keep(_polyhedron_on_rays(verts, _cone_on_rays(tail_gens, n)), cone=c)


def make_polyhedron(
    vertices: Iterable[Sequence], rays: Iterable[Sequence], ambient_rank: int
) -> Polyhedron:
    """Canonicalize V-data; an empty vertex list yields the empty polyhedron."""
    homog = [tuple(v) + (1,) for v in vertices]
    if not homog:
        return empty_polyhedron(ambient_rank)
    homog += [tuple(r) + (0,) for r in rays]
    return _from_homogenized(make_cone(homog, ambient_rank + 1))


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
    return _from_homogenized(_cone_on_rays(_h_to_generators(ineq_rows, eq_rows, n + 1), n + 1))


def poly_intersect(a: Polyhedron, b: Polyhedron) -> Polyhedron:
    return _from_homogenized(cone_intersect(a.cone, b.cone))


@lru_cache(maxsize=None)
def poly_faces(p: Polyhedron) -> tuple[Polyhedron, ...]:
    """All nonempty faces of ``p`` (including itself), canonical.

    They are the faces of ``p.cone`` with a generator at last coordinate 1.
    """
    n = p.ambient_rank
    faces = [
        _from_homogenized(f) for f in cone_faces(p.cone) if any(g[n] for g in f.generators)
    ]
    return tuple(sorted(faces, key=Polyhedron.sort_key))


# ---------------------------------------------------------------------------
# fans


def inclusion_cofaces(by_dim: dict[int, Sequence[tuple[object, frozenset]]]) -> dict:
    """Map each face to the faces one dimension up that contain it.

    ``by_dim`` lists the faces of each dimension, each face with the set of
    its rays: a cone's generators, or those of a polyhedron's homogenized
    cone.  In a fan or a polyhedral complex one face lies in another exactly
    when its set is a subset of the other's, so the map needs no H-data.
    Each face's cofaces keep the order of their dimension's list.
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
    hashing ignore it; so are its coface map and the oracle presentation of
    each k (filled in by :func:`tchow.chow.toric_chow_presentation`).
    """

    ambient_rank: int
    maximal_cones: tuple[Cone, ...]

    @cached_property
    def _problems(self) -> tuple[str, ...]:
        return tuple(_fan_problems(self))

    @cached_property
    def toric_presentations(self) -> dict:
        return {}

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
    """Normalize a generating list of cones: dedupe and drop non-maximal ones; one object per value."""
    uniq = sorted(set(cones), key=Cone.sort_key)
    maximal = [
        c
        for c in uniq
        if not any(other is not c and other.contains_cone(c) for other in uniq)
    ]
    return canonical(Fan(ambient_rank, tuple(sorted(maximal, key=Cone.sort_key))))


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
                _, proper = _pair_meet(a, b)
            except GeometryError as exc:
                problems.append(f"intersection failed for {a.generators} and {b.generators}: {exc}")
                continue
            if not proper:
                problems.append(
                    f"cones {a.generators} and {b.generators} do not meet in a common face"
                )
    return problems


def fan_validate(fan: Fan) -> list[str]:
    """Structural violations: non-pointed cones or improper intersections.

    Each pair of maximal cones is proved proper by a separating facet whose
    tight face on the other side is a face of both, or else met by double
    description (:func:`_pair_meet`).  Checked once per fan object (per value
    for fans from :func:`make_fan`); every call returns a fresh list.
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
    """Dedupe cells and drop any cell contained in another; one object per value."""
    uniq = sorted(
        {c for c in cells if not c.is_empty}, key=Polyhedron.sort_key
    )
    maximal = [
        c
        for c in uniq
        if not any(other is not c and other.cone.contains_cone(c.cone) for other in uniq)
    ]
    return canonical(PolyhedralComplex(ambient_rank, tuple(maximal)))


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
                meet, proper = _pair_meet(a.cone, b.cone)
            except GeometryError as exc:
                problems.append(f"cells fail to intersect properly: {exc}")
                continue
            # a meet with no vertex is empty: it lies at last coordinate 0
            if not proper and any(g[n] for g in meet.generators):
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

    Each pair of maximal cells is checked as :func:`fan_validate` checks a
    pair of cones, on their homogenized cones; a meet with no vertex is
    empty and proper.  Checked once per complex object; every call returns a
    fresh list.
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
