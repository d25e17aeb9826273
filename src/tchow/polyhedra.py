"""Exact rational cones, polyhedra, fans, and complete polyhedral complexes.

A cone stores its V-representation only: its primitive extreme rays, sorted,
which equality, hashing and ``repr`` use.  A polyhedron ``P`` is its
homogenized cone alone, the cone over ``P x {1}`` plus ``tail x {0}``
(``Polyhedron.cone``): its H-data, faces, meets, dimension, vertices and tail
are read off that cone's integer generators.  A cone's basis (the indices of
independent generators, taken greedily), facet normals and span equations are
lazy attributes, each derived when first read, once per object, and kept on
it; its dimension and its normals read the one basis.  Conversion is one exact
integer double description, :func:`_extreme_rays`, which starts from the
simplicial cone on independent rows its caller found and adds the others with
:func:`_add_rows`: facets of a cone are the extreme rays of its dual.  It takes
no lattice kernel: a full-dimensional cone is converted as it is, a
lower-dimensional one in its basis (:func:`_rays_in`), its facet normals being
the primitive ones that lie in its span.  The span equations are one
:func:`~tchow.exactlin.integer_kernel` of the generators, and every quotient
of the pipeline by a cone's span reads them.  No constructor takes
inequalities: a meet, a slice or a piece of a cone is a cone already held cut
by more rows (:func:`cut`), from its own rays at any dimension.

:func:`make_cone` and :func:`make_polyhedron` canonicalize arbitrary input and
keep the facet normals and dimension they computed on the way
(:func:`~tchow.value.keep`): one double description finds the facets, and the
extreme rays are the generators whose facet incidences no other generator's
contain.  Everything whose extreme rays are already known is built from them
directly, with no kernel: faces (from the ray-facet incidences of the cone,
closed under intersection, in the spirit of Kaibel & Pfetsch 2002; a
polyhedron's faces are its cone's faces that hold a vertex), cuts and meets
(whose double description yields extreme rays), tails, and cones as polyhedra.

Every cone is interned where it is made, by :func:`_cone_on_rays`, which
looks up its sorted rays and rank before it builds one, and every polyhedron
by :func:`from_homogenized`, keyed by its canonical cone; a fan or a complex
by :func:`make_fan` or :func:`make_complex` (:func:`~tchow.value.canonical`).
An object built again is the object built first, with its H-data, faces
(``faces``, and a cone's ``face_set`` that face queries look up), validity
and coface map, each computed once per value.  A cone is converted once
per set of primitive generator directions.  A fan selects its maximal cones
once per set of cones (:func:`_make_fan`): a cone is dropped when it is a
face of another, and only a cone whose rays are among another's is tested,
so a fan with no such pair reads no H-data.  A complex is stored as the fan
of its cells' homogenized cones one rank up, as a polyhedron is as its
homogenized cone, its cells read off that fan's maximal cones.  A fan indexes its cones by
dimension; a complex lists the faces of all its cells
(:func:`all_complex_faces`) and indexes them by dimension and by tail cone.
Both read their coface maps off ray inclusion (:func:`_cofaces`).

A fan is checked on its maximal cones and a complex on its cells'
homogenized cones by one ridge certificate (:func:`_ridge_certificate`),
linear in the members: each facet is shared by two members on opposite
sides, and one generic point is covered once (of cells, facets at height 0
are the boundary).  It holds exactly for a complete fan or complex.  Only
when it fails is every pair met (:func:`_improper_pairs`, a complex
allowing a meet at height 0) and every ridge counted (:func:`_ridge_counts`),
and only these write messages.  Cones and polyhedra with lineality (a
contained line) are rejected at construction, so every member of a fan or
complex is pointed and every meet is defined.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache
from itertools import count
from math import gcd

from .exactlin import (
    IVec,
    bareiss_inverse,
    dot,
    integer_kernel,
    primitive_direction,
    project,
    ratio,
)
from .value import Value, canonical, keep, lazy


class GeometryError(ValueError):
    """Raised for inputs outside the supported geometry (e.g. lineality)."""


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
        x = a
        for c, p in pivots:
            xc = x[c]
            if xc:
                pc = p[c]
                x = [pc * xj - xc * pj for xj, pj in zip(x, p)]
        lead = next(filter(None, x), 0)
        if not lead:
            continue
        g = gcd(*x)
        pivots.append((x.index(lead), x if g == 1 else [xj // g for xj in x]))
        chosen.append(i)
        if len(chosen) == r:
            break
    return chosen


def _extreme_rays(rows: Sequence[IVec], basis: Sequence[int]) -> list[IVec]:
    """Primitive extreme rays, sorted, of the cone ``{y in Q^r : a . y >= 0}``.

    ``basis`` indexes ``r`` independent integer rows, which the caller found:
    the rows span Q^r, so the cone is pointed.  The same call gives facets:
    the facet normals of the full-dimensional cone on generators ``g`` in Z^r
    are the extreme rays of its dual ``{u : u . g >= 0}``.

    Double description (Motzkin et al. 1953): start from the simplicial cone
    of the ``basis`` rows, whose rays are the columns of the adjugate of
    those rows (one fraction-free inverse) made primitive, and add the other
    rows in input order with :func:`_add_rows`.
    """
    if not basis:
        return []
    basis_mask = sum(1 << i for i in basis)
    _, adj = bareiss_inverse([rows[i] for i in basis])
    rays = []
    for i, col in zip(basis, zip(*adj)):
        g = gcd(*col)
        y = tuple(x // g for x in col)
        if dot(rows[i], y) < 0:
            y = tuple(-x for x in y)
        rays.append((y, basis_mask & ~(1 << i)))
    return _add_rows(rays, [(i, a) for i, a in enumerate(rows) if not basis_mask >> i & 1], len(basis))


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

    ``basis`` holds ``r`` independent integer vectors.  Written as ``y = c @
    basis``, the cone is ``{c in Q^r : (b . a for b in basis) . c >= 0}``: one
    double description in Q^r, each ray lifted back to Z^n.  GeometryError
    unless the restricted rows span Q^r, that is, unless the cone is pointed.
    """
    restricted = [tuple(dot(b, a) for b in basis) for a in rows]
    independent = _independent_rows(restricted, len(basis))
    if len(independent) < len(basis):
        raise GeometryError("cone is not pointed")
    return [primitive_direction(project(basis, c)) for c in _extreme_rays(restricted, independent)]


def _span_facets(gens: Sequence[IVec], basis: Sequence[int], n: int) -> tuple[IVec, ...]:
    """Facet normals, sorted, of the cone on ``gens``, ``basis`` the indices of independent ones.

    ``gens`` are nonzero integer vectors.  When ``n`` of them are independent
    the facets come from the generators as they are.  Otherwise they are
    read in the basis: each normal is the primitive one that lies in the
    span.  No lattice kernel is taken.
    """
    if len(basis) == n:
        return tuple(_extreme_rays(gens, basis))
    return tuple(sorted(_rays_in([gens[i] for i in basis], gens)))


def _tight(normals: Sequence[IVec], y: Sequence) -> int:
    """Bitmask of the normals that vanish on ``y``."""
    return sum(1 << j for j, u in enumerate(normals) if dot(u, y) == 0)


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
    cone's linear span, sorted), ``span_eqs`` (the HNF basis of the
    equations cutting out that span; the identity rows for the zero cone) and
    the faces are derived from the generators when first read.
    """

    ambient_rank: int
    generators: tuple[IVec, ...]

    @lazy
    def basis(self) -> tuple[int, ...]:
        """Indices of independent generators, taken greedily: a basis of the span."""
        return tuple(_independent_rows(self.generators, self.ambient_rank))

    @lazy
    def normals(self) -> tuple[IVec, ...]:
        return _span_facets(self.generators, self.basis, self.ambient_rank)

    @lazy
    def span_eqs(self) -> tuple[IVec, ...]:
        """The basis characters of the quotient by the span: one row each.

        A vector's image in ``Z^n / span`` has the coordinates
        ``mat_vec(span_eqs, v)``, and that map is onto, the lattice being
        saturated.
        """
        if self.dim == self.ambient_rank:
            return ()
        return integer_kernel(self.generators, self.ambient_rank)

    @lazy
    def dim(self) -> int:
        return len(self.basis)

    @lazy
    def faces(self) -> tuple[Cone, ...]:
        """All faces (itself and the zero cone among them), sorted, canonical."""
        gens = self.generators
        incidence = [
            sum(1 << i for i, g in enumerate(gens) if dot(u, g) == 0) for u in self.normals
        ]
        full = (1 << len(gens)) - 1
        faces = [
            self if mask == full else _cone_on_rays(_masked(gens, mask), self.ambient_rank)
            for mask in _face_masks(incidence, full)
        ]
        return tuple(sorted(faces, key=Cone.sort_key))

    @lazy
    def face_set(self) -> frozenset[Cone]:
        return frozenset(self.faces)

    def is_zero(self) -> bool:
        return not self.generators

    def contains(self, x: Sequence) -> bool:
        return all(dot(e, x) == 0 for e in self.span_eqs) and all(
            dot(u, x) >= 0 for u in self.normals
        )

    def sort_key(self):
        return (len(self.generators), self.generators)


def _cone_on_rays(rays: Iterable[IVec], ambient_rank: int) -> Cone:
    """The canonical cone whose primitive extreme rays are exactly ``rays``, in any order.

    The precondition is not checked: callers already hold the extreme rays (a
    face's subset of its parent's generators, or a double-description
    output).  Nothing is computed here; the H-data is derived when first read.
    """
    return _interned_cone(tuple(sorted(rays)), ambient_rank)


@lru_cache(maxsize=None)
def _interned_cone(rays: tuple[IVec, ...], ambient_rank: int) -> Cone:
    """The one cone on the sorted ``rays``: looked up by its key, built on a miss alone."""
    return Cone(ambient_rank, rays)


def make_cone(generators: Iterable[Sequence], ambient_rank: int) -> Cone:
    """Canonicalize arbitrary generators into a Cone (raises if not pointed).

    The extreme rays are read off the facet incidences: they are among the
    primitive generators, and as every face is an intersection of facets, a
    generator is extreme unless another one is tight on every facet it is.
    The cone is pointed iff its facet normals have rank its dimension.
    Converted once per set of primitive directions; one object per value.
    """
    gens = tuple(sorted({d for d in map(primitive_direction, generators) if any(d)}))
    return _make_cone(gens, ambient_rank)


@lru_cache(maxsize=None)
def _make_cone(gens: tuple[IVec, ...], ambient_rank: int) -> Cone:
    basis = _independent_rows(gens, ambient_rank)
    r, normals = len(basis), _span_facets(gens, basis, ambient_rank)
    if len(_independent_rows(normals, r)) < r:
        raise GeometryError("cone is not pointed")
    masks = [_tight(normals, g) for g in gens]
    rays = tuple(
        g
        for i, (g, m) in enumerate(zip(gens, masks))
        if not any(o & m == m for j, o in enumerate(masks) if j != i)
    )
    cone = _cone_on_rays(rays, ambient_rank)
    if rays == gens:  # no generator is redundant: the basis found above is the cone's
        keep(cone, basis=tuple(basis))
    return keep(cone, normals=normals, dim=r)


def cut(c: Cone, rows: Sequence[IVec]) -> Cone:
    """The cone ``{y in c : a . y >= 0 for a in rows}``, canonical.

    The double description starts from ``c``'s own rays, tight on its facets,
    at any dimension: the rays span ``c``'s span, in which ``c`` is a pointed
    cone of dimension ``c.dim``, so every 2-face has ``c.dim - 2`` tight rows.
    """
    seed = [(g, _tight(c.normals, g)) for g in c.generators]
    return _cone_on_rays(_add_rows(seed, enumerate(rows, len(c.normals)), c.dim), c.ambient_rank)


def cone_intersect(a: Cone, b: Cone) -> Cone:
    """The meet of two cones, canonical: ``a`` cut by ``b``'s facets and span equations.

    Each equation is a pair of opposite rows.
    """
    if a.ambient_rank != b.ambient_rank:
        raise ValueError("ambient rank mismatch")
    return cut(a, b.normals + b.span_eqs + tuple(tuple(-x for x in e) for e in b.span_eqs))


# ---------------------------------------------------------------------------
# polyhedra


class Polyhedron(Value):
    """A rational polyhedron, stored as its homogenized cone in rank n+1.

    A primitive generator ``(w, h)`` of ``cone`` is a vertex ``w / h`` when
    ``h > 0`` and a tail ray ``w`` when ``h == 0``; the polyhedron is the
    slice at last coordinate 1, and the zero cone is the empty polyhedron's.
    """

    cone: Cone

    @property
    def ambient_rank(self) -> int:
        return self.cone.ambient_rank - 1

    @lazy
    def vertices(self) -> tuple[tuple, ...]:
        """The vertices, sorted: ``int`` coordinates, or ``Fraction`` where not integral."""
        n = self.ambient_rank
        verts = (tuple(ratio(x, g[n]) for x in g[:n]) for g in self.cone.generators if g[n])
        return tuple(sorted(verts))

    @lazy
    def tail(self) -> Cone:
        n = self.ambient_rank
        return _cone_on_rays([g[:n] for g in self.cone.generators if not g[n]], n)

    @property
    def is_empty(self) -> bool:
        return self.cone.is_zero()

    @lazy
    def dim(self) -> int:
        return self.cone.dim - 1

    @lazy
    def faces(self) -> tuple[Polyhedron, ...]:
        """All nonempty faces (itself among them), sorted, canonical.

        They are the faces of ``cone`` with a generator at last coordinate 1.
        """
        n = self.ambient_rank
        faces = [from_homogenized(f) for f in self.cone.faces if any(g[n] for g in f.generators)]
        return tuple(sorted(faces, key=Polyhedron.sort_key))

    def sort_key(self):
        return (len(self.vertices), self.vertices, self.tail.sort_key())


def _vertex_text(p: Polyhedron) -> str:
    """The vertices of ``p`` as a tuple display in input notation, as ``((0, 1/2),)``."""

    def display(items: list[str]) -> str:
        return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"

    return display([display([str(c) for c in v]) for v in p.vertices])


@lru_cache(maxsize=None)
def from_homogenized(c: Cone) -> Polyhedron:
    """The canonical polyhedron whose homogenized cone is ``c``; empty when ``c`` has no vertex.

    Looked up by the cone, canonical itself, so a polyhedron is built once per value.
    """
    n = c.ambient_rank - 1
    if any(g[n] < 0 for g in c.generators):
        raise AssertionError("negative homogenizing coordinate")
    if c.generators and not any(g[n] for g in c.generators):
        return from_homogenized(_cone_on_rays((), n + 1))
    return Polyhedron(c)


def make_polyhedron(
    vertices: Iterable[Sequence], rays: Iterable[Sequence], ambient_rank: int
) -> Polyhedron:
    """Canonicalize V-data; an empty vertex list yields the empty polyhedron.

    One object per value, on the cone :func:`make_cone` converts once.
    """
    homog = [tuple(v) + (1,) for v in vertices]
    if homog:
        homog += [tuple(r) + (0,) for r in rays]
    return from_homogenized(make_cone(homog, ambient_rank + 1))


def cone_as_polyhedron(c: Cone) -> Polyhedron:
    n = c.ambient_rank
    return from_homogenized(_cone_on_rays([(0,) * n + (1,)] + [g + (0,) for g in c.generators], n + 1))


def poly_intersect(a: Polyhedron, b: Polyhedron) -> Polyhedron:
    return from_homogenized(cone_intersect(a.cone, b.cone))


def poly_faces(p: Polyhedron) -> tuple[Polyhedron, ...]:
    """All nonempty faces of ``p`` (including itself): :attr:`Polyhedron.faces`."""
    return p.faces


# ---------------------------------------------------------------------------
# fans


def _ridge_certificate(cones: Sequence[Cone], homogenized: bool = False) -> bool:
    """Whether ``cones`` are the maximal cones of a complete fan (of cells'
    ``homogenized`` cones: whether the cells form a complete complex).

    True exactly when (1) every member is full-dimensional and every facet
    (of cells, off height 0) is a facet of exactly two members, (2) with
    opposite inward normals, and (3) the point ``p = (1, t, ..., t^(n-1))``
    (of cells, ``(t, ..., t^(n-1), 1)``), ``t >= 2`` the least that puts it
    off every facet hyperplane, lies inside exactly one member (De Loera,
    Rambau & Santos, *Triangulations*, ch. 4).  Proof for pointed members:
    along a path between points off every facet hyperplane (of cells, at
    height > 0) that misses the faces of codimension 2, each crossing is at
    relative interior points of facets, where by (1) and (2) the members met
    pair up, one entered and one left.  So the number of members holding a
    point inside is constant, by (3) 1: the interiors tile the space (the
    half-space).  Let ``x`` lie in the relative interior of a face ``G`` (at
    height > 0).  A facet through ``G`` is shared with a member that has
    ``G`` as a face, so the same argument on these members' tangent cones at
    ``G`` shows that they cover a neighbourhood of ``x``; a member through
    ``x`` shares inner points with one of them, so is one and has ``G`` as a
    face.  With ``x`` in the relative interior of a meet ``a ∩ b`` and ``G``
    the face of ``a`` carrying it, ``a ∩ b`` lies in ``G`` and ``G`` in
    ``a ∩ b``: every meet (of cells, off height 0) is a common face.  A
    complete fan or complex passes all three.
    """
    n = cones[0].ambient_rank if cones else 0  # no member: the point is covered by none
    if any(c.dim != n for c in cones):
        return False
    sides: dict = {}  # each facet's rays, mapped to the inward normals of the members holding it
    for c in cones:
        for u in c.normals:
            facet = tuple(g for g in c.generators if not dot(u, g))
            if not homogenized or any(g[-1] for g in facet):
                sides.setdefault(facet, []).append(u)
    if any(len(us) != 2 for us in sides.values()):
        return False
    if any(u != tuple(-x for x in v) for u, v in sides.values()):
        return False
    normals = {u for c in cones for u in c.normals}
    for t in count(2):  # a normal vanishes at fewer than n values of t; of cells, t^0 goes last
        p = [t ** ((i + homogenized) % n) for i in range(n)]
        if all(dot(u, p) for u in normals):
            return sum(all(dot(u, p) > 0 for u in c.normals) for c in cones) == 1


def _improper_pairs(cones: Sequence[Cone], homogenized: bool = False):
    """Each pair ``(i, j)``, ``i < j``, of ``cones`` whose meet is not a face of both.

    Of cells' ``homogenized`` cones, a meet at height 0 is allowed: the cells
    do not meet.  The cones are pointed, so every meet is defined.
    """
    for i, a in enumerate(cones):
        for j in range(i + 1, len(cones)):
            meet = cone_intersect(a, cones[j])
            proper = meet in a.face_set and meet in cones[j].face_set
            if not proper and (not homogenized or any(g[-1] for g in meet.generators)):
                yield i, j


def _ridge_counts(members: Sequence) -> dict:
    """How many ``members`` hold each facet, in order of first appearance.

    The members are a fan's cones or a complex's cells, whose ``faces`` are
    those of their homogenized cones off height 0.
    """
    tally: dict = {}
    for c in members:
        for f in c.faces:
            if f.dim == c.dim - 1:
                tally[f] = tally.get(f, 0) + 1
    return tally


class Fan(Value):
    """A fan given by its maximal cones.

    Its certificate and validity are computed on first use (:func:`require_complete`,
    :func:`fan_validate`) and kept on the object, next to its fields but not
    among them, so equality and hashing ignore them; so are its cones by
    dimension and its coface map.
    """

    ambient_rank: int
    maximal_cones: tuple[Cone, ...]

    @lazy
    def _complete(self) -> bool:
        return _ridge_certificate(self.maximal_cones)

    @lazy
    def _problems(self) -> tuple[str, ...]:
        return tuple(_fan_problems(self))

    @lazy
    def by_dim(self) -> dict[int, tuple[Cone, ...]]:
        """Its cones by dimension, ascending, each tuple sorted."""
        cones = sorted({f for c in self.maximal_cones for f in c.faces}, key=Cone.sort_key)
        return dict(sorted(_group(cones, lambda c: c.dim).items()))

    @lazy
    def cofaces(self) -> dict[Cone, tuple[Cone, ...]]:
        """Each cone mapped to the cones one dimension up that contain it, in ``by_dim`` order."""
        return _cofaces(self.by_dim, lambda c: c.generators)

    def cones(self, d: int) -> tuple[Cone, ...]:
        return self.by_dim.get(d, ())

    def all_cones(self) -> tuple[Cone, ...]:
        return tuple(c for cs in self.by_dim.values() for c in cs)


def _cofaces(by_dim: dict, rays_of) -> dict:
    """Each member of ``by_dim`` mapped to the members one dimension up that contain it.

    The members are the cones of a fan, or the faces of a complex's cells
    with ``rays_of`` their homogenized cones' rays.  In a fan a cone lies in
    another exactly when its rays are among the other's, so the map is read
    off ray inclusion, with no H-data; each coface tuple keeps ``by_dim`` order.
    """
    up = {}
    for d, members in by_dim.items():
        by_ray: dict = {}  # the members one dimension up with their rays, under None and each ray
        for g in by_dim.get(d + 1, ()):
            rays = frozenset(rays_of(g))
            for r in (None, *rays):
                by_ray.setdefault(r, []).append((g, rays))
        for f in members:  # looked up under its first ray, the zero cone under None
            above = by_ray.get(next(iter(rays_of(f)), None), ())
            up[f] = tuple(g for g, rays in above if rays.issuperset(rays_of(f)))
    return up


def make_fan(cones: Iterable[Cone], ambient_rank: int) -> Fan:
    """Dedupe cones and drop faces of others, once per set of cones; one object per value."""
    return _make_fan(frozenset(cones), ambient_rank)


@lru_cache(maxsize=None)
def _make_fan(cones: frozenset[Cone], ambient_rank: int) -> Fan:
    """The fan on the cones that are not a face of another one, sorted.

    A face's rays are among its parent's, so only a cone whose rays are among
    another's is looked up in that one's faces, which reads H-data; the zero
    cone is a face of every cone.  A cone in another but not a face of it is
    kept: validation reports the pair.
    """
    ordered = sorted(cones, key=Cone.sort_key)
    rays = [frozenset(c.generators) for c in ordered]
    maximal = [
        c
        for c, r in zip(ordered, rays)
        if not any(r < s and (not r or c in o.face_set) for o, s in zip(ordered, rays))
    ]
    return canonical(Fan(ambient_rank, tuple(maximal)))


def _fan_problems(fan: Fan) -> list[str]:
    if fan._complete:
        return []
    cones = fan.maximal_cones
    return [
        f"cones {cones[i].generators} and {cones[j].generators} do not meet in a common face"
        for i, j in _improper_pairs(cones)
    ]


def fan_validate(fan: Fan) -> list[str]:
    """Each pair of maximal cones that do not meet in a common face.

    A fan that passes :func:`_ridge_certificate` is valid, and no pair is met;
    otherwise every pair is.  Checked once per fan object (per value for fans
    from :func:`make_fan`); every call returns a fresh list.
    """
    return list(fan._problems)


def require_complete(fan: Fan) -> None:
    """Raise :class:`IncompleteFanError` unless ``fan`` is a valid complete fan.

    That is, unless it passes :func:`_ridge_certificate`; the message names
    the pairs :func:`fan_validate` finds, if any.
    """
    if not fan._complete:
        raise IncompleteFanError("; ".join(fan_validate(fan)) or "fan is not complete")


# ---------------------------------------------------------------------------
# polyhedral complexes


class PolyhedralComplex(Value):
    """A polyhedral complex, stored as the fan of its cells' homogenized cones in rank n+1.

    Each maximal cone ``c`` of ``fan`` is a maximal cell, ``from_homogenized(c)``.
    Like :class:`Fan`, it keeps what :func:`complex_validate` finds, its
    maximal cells, the fan its cells' tail cones generate (``tail_fan``,
    which :func:`fan_validate` checks), and its faces with their indexes
    (``by_dim``, ``by_tail``, ``cofaces``), each computed on first use.
    """

    fan: Fan

    @property
    def ambient_rank(self) -> int:
        return self.fan.ambient_rank - 1

    @lazy
    def maximal_cells(self) -> tuple[Polyhedron, ...]:
        """The cells of the fan's maximal cones, sorted."""
        return tuple(sorted(map(from_homogenized, self.fan.maximal_cones), key=Polyhedron.sort_key))

    @lazy
    def _problems(self) -> tuple[str, ...]:
        return tuple(_complex_problems(self))

    @lazy
    def tail_fan(self) -> Fan:
        return make_fan((c.tail for c in self.maximal_cells), self.ambient_rank)

    @lazy
    def _faces(self) -> tuple[Polyhedron, ...]:
        faces = {f for c in self.maximal_cells for f in poly_faces(c)}
        return tuple(sorted(faces, key=Polyhedron.sort_key))

    @lazy
    def by_dim(self) -> dict[int, tuple[Polyhedron, ...]]:
        """Its faces by dimension, each tuple sorted."""
        return _group(all_complex_faces(self), lambda f: f.dim)

    @lazy
    def by_tail(self) -> dict[Cone, tuple[Polyhedron, ...]]:
        """Its faces by tail cone, each tuple sorted."""
        return _group(all_complex_faces(self), lambda f: f.tail)

    @lazy
    def cofaces(self) -> dict[Polyhedron, tuple[Polyhedron, ...]]:
        """Each face mapped to the faces one dimension up that contain it, sorted."""
        return _cofaces(self.by_dim, lambda f: f.cone.generators)


def _group(items: Iterable, key) -> dict:
    """``items`` grouped by ``key``, each group a tuple in the items' order."""
    groups: dict = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return {k: tuple(g) for k, g in groups.items()}


def make_complex(cells: Iterable[Polyhedron], ambient_rank: int) -> PolyhedralComplex:
    """Dedupe cells, drop the empty ones and any face of another cell; one object per value.

    One nonempty cell is a face of another exactly when its homogenized cone
    is, so the complex is the :func:`make_fan` of the homogenized cones, whose
    maximal cones are selected once per set of cones.
    """
    cones = (c.cone for c in cells if not c.is_empty)
    return canonical(PolyhedralComplex(make_fan(cones, ambient_rank + 1)))


def _complex_problems(s: PolyhedralComplex) -> list[str]:
    n = s.ambient_rank
    cells = s.maximal_cells
    if not cells:
        return ["complex has no cells"]
    if _ridge_certificate(s.fan.maximal_cones, homogenized=True):
        return []
    problems = [
        f"maximal cell {_vertex_text(c)} has dimension {c.dim} != {n}" for c in cells if c.dim != n
    ]
    for i, j in _improper_pairs([c.cone for c in cells], homogenized=True):
        a, b = cells[i], cells[j]
        problems.append(
            f"cells {_vertex_text(a)}+{a.tail.generators} and "
            f"{_vertex_text(b)}+{b.tail.generators} do not meet in a common face"
        )
    if problems:
        return problems
    return [
        f"face {_vertex_text(f)}+{f.tail.generators} lies in {count} cells; "
        "the complex does not cover the whole space"
        for f, count in _ridge_counts(cells).items()
        if count != 2
    ]


def complex_validate(s: PolyhedralComplex) -> list[str]:
    """Violations of the complex axioms and of completeness.

    As for a fan, on the cells' homogenized cones, where a meet or a facet at
    height 0 (no vertex) is allowed.  Checked once per complex object; every
    call returns a fresh list.
    """
    return list(s._problems)


def all_complex_faces(s: PolyhedralComplex) -> list[Polyhedron]:
    """Every face of every cell, sorted.

    Listed once per complex object; every call returns a fresh list.
    """
    return list(s._faces)
