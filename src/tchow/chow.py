"""Relation matrices and Smith presentations of the k-cycle class groups.

For each k the generators are the invariant-cycle classes enumerated by
:mod:`tchow.fansy`; the relations are divisors of eigenfunctions on the
invariant (k+1)-cycles, assembled block by block.  An independent classical
presentation for complete toric varieties (orbit closures modulo divisors of
characters) serves as a cross-check through the downgrade construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .exactlin import (
    IVec,
    dot,
    hnf_basis,
    minimal_lattice_multiple,
    pair_through_quotient,
    perp_lattice,
    face_character_lattice,
    primitive,
    primitive_direction,
    project,
    quotient_matrix,
    snf_transforms,
    vec,
    vsub,
)
from .fansy import (
    CycleGenerator,
    MarkedFansyDivisor,
    enumerate_generators,
    mu_of_face,
    s_sigma,
)
from .polyhedra import (
    Cone,
    Fan,
    IncompleteFanError,  # re-exported: raised by toric_chow_presentation
    Polyhedron,
    all_complex_faces,
    poly_is_face_of,
    require_complete,
)


class NonIntegralRedirectError(ArithmeticError):
    """A contracted-cycle redirect coefficient failed to be an integer."""


@dataclass(frozen=True)
class RelationBlock:
    """Rows contributed by one (k+1)-dimensional cycle, as generator->coeff maps."""

    source: CycleGenerator
    rows: tuple[tuple[tuple[CycleGenerator, int], ...], ...]


@dataclass(frozen=True)
class ChowPresentation:
    """Generators, integer relation rows, and the reduced (Smith) data.

    ``moduli`` has one entry per reduced coordinate: the torsion modulus for
    torsion coordinates, 0 for free ones.  ``class_map[i]`` is the class of
    ``generators[i]`` in those reduced coordinates.
    """

    k: int
    generators: tuple[CycleGenerator, ...]
    relations: tuple[IVec, ...]
    free_rank: int
    torsion: tuple[int, ...]
    moduli: tuple[int, ...]
    class_map: tuple[IVec, ...]

    @property
    def smith(self) -> tuple[int, tuple[int, ...]]:
        return (self.free_rank, self.torsion)


def _as_int(value) -> int:
    f = Fraction(value)
    if f.denominator != 1:
        raise AssertionError(f"expected an integer coefficient, got {value}")
    return int(f)


def _face_directions(face: Polyhedron, base) -> list:
    dirs = [vsub(v, base) for v in face.vertices if v != base]
    dirs += face.tail.generators
    return dirs


def _nv_lattice_rows(vertex, n: int) -> list:
    """Rational basis rows of the lattice Z^n + Z*vertex."""
    w, mu = primitive(vertex)
    rows = [[mu if i == j else 0 for j in range(n)] for i in range(n)]
    rows.append(list(w))
    return [vec(Fraction(x, mu) for x in row) for row in hnf_basis(rows)]


def _lattice_basis_rational(rows) -> list:
    """Independent basis of the lattice generated by rational rows."""
    if not rows:
        return []
    d = lcm(*(f.denominator for row in rows for f in row)) if rows else 1
    scaled = [[int(f * d) for f in row] for row in rows]
    return [vec(Fraction(x, d) for x in row) for row in hnf_basis(scaled)]


def _step_image(proj, lattice_basis, big_face: Polyhedron, base):
    """Primitive generator (in the quotient lattice) of a face-step direction.

    ``big_face`` exceeds the projected-out span by one dimension; its image
    is a ray, and the result is that ray's first lattice point, on the side
    of ``big_face``.
    """
    for d in _face_directions(big_face, base):
        image = project(proj, d)
        if any(image):
            return minimal_lattice_multiple(image, lattice_basis)
    raise AssertionError("face does not step out of the projected span")


def relation_block_v(
    x: MarkedFansyDivisor, k: int, source: CycleGenerator, base_vertex: int = 0
) -> RelationBlock:
    """Divisors of characters on one fiber face of dimension n-k-1.

    One row per basis character of the face's (possibly finite-index)
    character lattice.  Coefficients land on the dimension-(n-k) fiber faces
    above it; faces with marked tails are redirected onto the contracted
    generator with the stabilizer-to-multiplicity ratio as multiplier.

    ``base_vertex`` selects the fiber component the rows are written in
    (faces with several vertices lie in several components); any choice
    presents the same quotient, and the default is the first, i.e.
    lexicographically smallest, vertex.
    """
    n = x.rank
    p, face = source.point, source.face
    base = face.vertices[base_vertex]
    span = _face_directions(face, base)
    characters = face_character_lattice(span, base, n).basis
    proj = quotient_matrix(span, n)
    lattice = _lattice_basis_rational(
        [vec(project(proj, row)) for row in _nv_lattice_rows(base, n)]
    )
    bigger = [
        g
        for g in all_complex_faces(x.complex_at(p))
        if g.dim == n - k and poly_is_face_of(face, g)
    ]
    rows = []
    for m in characters:
        entries: dict[CycleGenerator, int] = {}
        for g in bigger:
            step = _step_image(proj, lattice, g, base)
            coeff = _as_int(pair_through_quotient(m, proj, step))
            if coeff == 0:
                continue
            if not x.is_marked(g.tail):
                gen = CycleGenerator("V", point=p, face=g)
                entries[gen] = entries.get(gen, 0) + coeff
            else:
                s = s_sigma(x, g.tail)
                mu = mu_of_face(x, p, g)
                if s % mu != 0:
                    raise NonIntegralRedirectError(
                        f"stabilizer order {s} is not divisible by multiplicity {mu}"
                    )
                gen = CycleGenerator("T", cone=g.tail)
                entries[gen] = entries.get(gen, 0) + coeff * (s // mu)
        rows.append(tuple(entries.items()))
    return RelationBlock(source, tuple(rows))


def _tail_translates(x: MarkedFansyDivisor, p: str, tau: Cone) -> list[Polyhedron]:
    return [
        f
        for f in all_complex_faces(x.complex_at(p))
        if f.tail == tau and f.dim == tau.dim
    ]


def relation_block_r(
    x: MarkedFansyDivisor, k: int, source: CycleGenerator
) -> RelationBlock:
    """Relations on one horizontal uncontracted cycle of dimension k+1.

    Fiber-difference rows (one per special point away from the basepoint)
    plus one row per basis character of the cone's perp lattice.  The
    character rows sum the weighted vertex pairings over every special point
    and add the horizontal ray pairings; containing cones that are marked
    contribute nothing, since contraction drops their dimension by two.
    """
    n = x.rank
    tau = source.cone
    proj = quotient_matrix(tau.generators, n)
    per_point: dict[str, list[tuple[Polyhedron, int]]] = {}
    for p in x.points:
        per_point[p] = [
            (f, mu_of_face(x, p, f)) for f in _tail_translates(x, p, tau)
        ]
    rows = []
    basepoint = x.points[-1]
    for p in x.points[:-1]:
        entries: dict[CycleGenerator, int] = {}
        for f, mu in per_point[p]:
            gen = CycleGenerator("V", point=p, face=f)
            entries[gen] = entries.get(gen, 0) + mu
        for f, mu in per_point[basepoint]:
            gen = CycleGenerator("V", point=basepoint, face=f)
            entries[gen] = entries.get(gen, 0) - mu
        rows.append(tuple(entries.items()))
    horizontal = [
        c
        for c in x.tailfan.cones(n + 1 - k)
        if c.contains_cone(tau) and not x.is_marked(c)
    ]
    for m in perp_lattice(tau.generators, n).basis:
        entries = {}
        for p in x.points:
            for f, mu in per_point[p]:
                coeff = _as_int(mu * dot(m, f.vertices[0]))
                if coeff:
                    gen = CycleGenerator("V", point=p, face=f)
                    entries[gen] = entries.get(gen, 0) + coeff
        for sigma in horizontal:
            image = _cone_image_ray(proj, sigma)
            coeff = _as_int(pair_through_quotient(m, proj, image))
            if coeff:
                gen = CycleGenerator("R", cone=sigma)
                entries[gen] = entries.get(gen, 0) + coeff
        rows.append(tuple(entries.items()))
    return RelationBlock(source, tuple(rows))


def _cone_image_ray(proj, sigma: Cone) -> IVec:
    """Primitive generator of the image of a cone that projects to a ray."""
    images = [
        primitive_direction(project(proj, g))
        for g in sigma.generators
        if any(project(proj, g))
    ]
    if not images:
        raise AssertionError("cone projects to zero")
    first = images[0]
    if any(im != first for im in images):
        raise AssertionError("cone does not project onto a single ray")
    return first


def relation_block_t(
    x: MarkedFansyDivisor, k: int, source: CycleGenerator
) -> RelationBlock:
    """Rational equivalences among contracted cycles from one marked cone."""
    n = x.rank
    tau = source.cone
    proj = quotient_matrix(tau.generators, n)
    above = [
        c for c in x.tailfan.cones(n - k) if c.contains_cone(tau)
    ]
    rows = []
    for m in perp_lattice(tau.generators, n).basis:
        entries: dict[CycleGenerator, int] = {}
        for sigma in above:
            if not x.is_marked(sigma):
                raise AssertionError(
                    "marks are not upward closed; validate the divisor first"
                )
            image = _cone_image_ray(proj, sigma)
            coeff = _as_int(pair_through_quotient(m, proj, image))
            if coeff:
                gen = CycleGenerator("T", cone=sigma)
                entries[gen] = entries.get(gen, 0) + coeff
        rows.append(tuple(entries.items()))
    return RelationBlock(source, tuple(rows))


def face_pair_sides(
    x: MarkedFansyDivisor, p: str, small: Polyhedron, big: Polyhedron
):
    """Both sides of the multiplicity identity for a nested tail-collapsed pair.

    For faces ``small < big`` of one fiber whose dimensions equal their tails',
    returns ``mu(small) * v_{small,big}`` and ``mu(big) * v_{tail,tail}`` in
    the quotient modulo the tail span of ``small``, both oriented toward
    ``big``.  The two agree on every valid divisor.
    """
    base = small.vertices[0]
    span = _face_directions(small, base)
    proj = quotient_matrix(span, x.rank)
    lattice = _lattice_basis_rational(
        [vec(project(proj, row)) for row in _nv_lattice_rows(base, x.rank)]
    )
    step = _step_image(proj, lattice, big, base)
    mu_small = mu_of_face(x, p, small)
    lhs = tuple(mu_small * c for c in vec(step))
    sigma_image = _cone_image_ray(proj, big.tail)
    mu_big = mu_of_face(x, p, big)
    rhs = tuple(Fraction(mu_big * c) for c in sigma_image)
    return lhs, rhs


def relation_blocks(x: MarkedFansyDivisor, k: int) -> list[RelationBlock]:
    n = x.rank
    if k + 1 > n + 1:
        return []
    level = enumerate_generators(x, k + 1)
    blocks = []
    for f in level.v:
        blocks.append(relation_block_v(x, k, f))
    for c in level.r:
        blocks.append(relation_block_r(x, k, c))
    for c in level.t:
        blocks.append(relation_block_t(x, k, c))
    return blocks


def _smith_presentation(k, generators, rows) -> ChowPresentation:
    g = len(generators)
    index = {gen: i for i, gen in enumerate(generators)}
    matrix = []
    for row in rows:
        v = [0] * g
        for gen, coeff in row:
            v[index[gen]] += coeff
        matrix.append(tuple(v))
    # cokernel of the transpose: generators are the columns of the relations
    mt = [[matrix[r][i] for r in range(len(matrix))] for i in range(g)]
    if matrix:
        u, d, _ = snf_transforms(mt)
        diag = [d[i][i] for i in range(min(g, len(matrix)))]
    else:
        u = [[1 if i == j else 0 for j in range(g)] for i in range(g)]
        diag = []
    nonzero = [x for x in diag if x != 0]
    rank = len(nonzero)
    torsion = tuple(x for x in nonzero if x > 1)
    torsion_index = [i for i, x in enumerate(nonzero) if x > 1]
    moduli = tuple(nonzero[i] for i in torsion_index) + (0,) * (g - rank)
    class_map = []
    for j in range(g):
        col = [u[i][j] for i in range(g)]
        reduced = tuple(col[i] % nonzero[i] for i in torsion_index) + tuple(
            col[rank:]
        )
        class_map.append(reduced)
    return ChowPresentation(
        k,
        tuple(generators),
        tuple(tuple(r) for r in matrix),
        g - rank,
        torsion,
        moduli,
        tuple(class_map),
    )


def presentation(x: MarkedFansyDivisor, k: int) -> ChowPresentation:
    """The full k-cycle class group presentation of the divisor's variety."""
    n = x.rank
    if not 0 <= k <= n + 1:
        raise ValueError(f"k must lie in [0, {n + 1}]")
    gens = enumerate_generators(x, k).ordered()
    rows = [row for block in relation_blocks(x, k) for row in block.rows]
    return _smith_presentation(k, gens, rows)


def toric_chow_presentation(fan: Fan, k: int) -> ChowPresentation:
    """Classical k-cycle presentation of a complete toric variety.

    Generators are the orbit closures (cones of codimension k); relations are
    divisors of characters on the one-dimension-larger orbit closures.  This
    is the independent oracle the downgrade construction is checked against.
    """
    require_complete(fan)
    n = fan.ambient_rank
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in [0, {n}]")
    gens = [CycleGenerator("R", cone=c) for c in fan.cones(n - k)]
    rows = []
    for tau in fan.cones(n - k - 1):
        proj = quotient_matrix(tau.generators, n)
        above = [c for c in fan.cones(n - k) if c.contains_cone(tau)]
        for m in perp_lattice(tau.generators, n).basis:
            entries = []
            for sigma in above:
                image = _cone_image_ray(proj, sigma)
                coeff = _as_int(pair_through_quotient(m, proj, image))
                if coeff:
                    entries.append((CycleGenerator("R", cone=sigma), coeff))
            rows.append(tuple(entries))
    return _smith_presentation(k, gens, rows)
