"""Relation matrices and Smith presentations of the k-cycle class groups.

For each k the generators are the invariant-cycle classes enumerated by
:mod:`tchow.fansy`; the relations are divisors of eigenfunctions on the
invariant (k+1)-cycles, assembled block by block from the divisor's
:class:`~tchow.fansy.DivisorContext` (faces by tail and coface, stabilizer
orders and multiplicities).  Each k's presentation is built once per divisor
object and kept in that context, so ``chow``, ``eff`` and ``crosscheck``
share it.  An independent classical presentation for complete toric
varieties (orbit closures modulo divisors of characters) serves as a
cross-check through the downgrade construction.
"""

from __future__ import annotations

from fractions import Fraction

from .exactlin import (
    IVec,
    bareiss_inverse,
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
    vsub,
)
from .fansy import (
    CycleGenerator,
    MarkedFansyDivisor,
    enumerate_generators,
    unique_face_over,
)
from .polyhedra import (
    Cone,
    Fan,
    IncompleteFanError,  # re-exported: raised by toric_chow_presentation
    Polyhedron,
    require_complete,
)
from .value import Value


class NonIntegralRedirectError(ArithmeticError):
    """A contracted-cycle redirect coefficient failed to be an integer."""


class RelationBlock(Value):
    """Rows contributed by one (k+1)-dimensional cycle, as generator->coeff maps."""

    source: CycleGenerator
    rows: tuple[tuple[tuple[CycleGenerator, int], ...], ...]

    def __init__(
        self,
        source: CycleGenerator,
        rows: tuple[tuple[tuple[CycleGenerator, int], ...], ...],
    ):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "rows", rows)


class ChowPresentation(Value):
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

    def __init__(
        self,
        k: int,
        generators: tuple[CycleGenerator, ...],
        relations: tuple[IVec, ...],
        free_rank: int,
        torsion: tuple[int, ...],
        moduli: tuple[int, ...],
        class_map: tuple[IVec, ...],
    ):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)
        object.__setattr__(self, "moduli", moduli)
        object.__setattr__(self, "class_map", class_map)

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


def _quotient_lattice_inverse(proj, vertex) -> tuple[int, list[list[int]]]:
    """``(s, A)`` with ``L^-1 = A / s`` for ``L = Z^q + Z*vbar`` in ``N/span``.

    ``vbar`` is the image of ``vertex`` under ``proj``, so ``L`` is the image of
    ``Z^n + Z*vertex``.  With ``vbar = w / mu`` the lattice is ``M / mu`` for the
    integer HNF basis ``M`` of ``mu*Z^q + Z*w``; one fraction-free inverse of
    ``M`` serves every face step of a relation block.
    """
    w, mu = primitive(project(proj, vertex))
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
        image = project(proj, d)
        if any(image):
            return minimal_lattice_multiple(image, lattice_inverse)
    raise AssertionError("face does not step out of the projected span")


def _character_rows(characters, proj, targets) -> tuple:
    """One row per character: ``factor * <m, step>`` on each target's generator.

    ``targets`` holds ``(generator, factor, step)`` triples.
    """
    rows = []
    for m in characters:
        entries: dict[CycleGenerator, int] = {}
        for gen, factor, step in targets:
            coeff = _as_int(pair_through_quotient(m, proj, step))
            if coeff:
                entries[gen] = entries.get(gen, 0) + coeff * factor
        rows.append(tuple(entries.items()))
    return tuple(rows)


def relation_block_v(
    x: MarkedFansyDivisor, k: int, source: CycleGenerator, base_vertex: int = 0
) -> RelationBlock:
    """Divisors of characters on one fiber face of dimension n-k-1.

    One row per basis character of the face's (possibly finite-index)
    character lattice.  Coefficients land on the dimension-(n-k) fiber faces
    above it (its cofaces); faces with marked tails are redirected onto the
    contracted generator with the stabilizer-to-multiplicity ratio as
    multiplier.

    ``base_vertex`` selects the fiber component the rows are written in
    (faces with several vertices lie in several components); any choice
    presents the same quotient, and the default is the first, i.e.
    lexicographically smallest, vertex.
    """
    n = x.rank
    ctx = x.context
    p, face = source.point, source.face
    base = face.vertices[base_vertex]
    span = _face_directions(face, base)
    characters = face_character_lattice(span, base, n)
    proj = quotient_matrix(span, n)
    lattice = _quotient_lattice_inverse(proj, base)
    # each coface as the generator it lands on, the multiplier and its step
    targets = []
    for g in ctx.fibers[p].cofaces[face]:
        if not x.is_marked(g.tail):
            gen, factor = CycleGenerator("V", point=p, face=g), 1
        else:
            s = ctx.s(x, g.tail)
            mu = ctx.mu(x, p, g)
            if s % mu != 0:
                raise NonIntegralRedirectError(
                    f"stabilizer order {s} is not divisible by multiplicity {mu}"
                )
            gen, factor = CycleGenerator("T", cone=g.tail), s // mu
        targets.append((gen, factor, _step_image(proj, lattice, g, base)))
    return RelationBlock(source, _character_rows(characters, proj, targets))


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
    ctx = x.context
    per_point: dict[str, list[tuple[Polyhedron, int]]] = {}
    for p in x.points:
        per_point[p] = [
            (f, ctx.mu(x, p, f))
            for f in ctx.fibers[p].by_tail.get(tau, ())
            if f.dim == tau.dim
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
    # each horizontal coface as its generator and image ray, for every character
    horizontal = [
        (CycleGenerator("R", cone=sigma), _cone_image_ray(proj, sigma))
        for sigma in x.tailfan.cofaces[tau]
        if not x.is_marked(sigma)
    ]
    for m in perp_lattice(tau.generators, n):
        entries = {}
        for p in x.points:
            for f, mu in per_point[p]:
                coeff = _as_int(mu * dot(m, f.vertices[0]))
                if coeff:
                    gen = CycleGenerator("V", point=p, face=f)
                    entries[gen] = entries.get(gen, 0) + coeff
        for gen, image in horizontal:
            coeff = _as_int(pair_through_quotient(m, proj, image))
            if coeff:
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
    """Divisors of characters on the contracted cycle of one marked cone.

    The paper's relation for contracted cycles: a marked cone ``tau`` of
    dimension n-k-1 gives a contracted (k+1)-cycle, whose torus has the
    characters ``m`` in ``tau^perp`` with ``<m, v>`` integral, where
    ``v + tau`` is the unique face with tail ``tau`` over the first point,
    that is, the dual of the lattice ``(N + Z*v) / span(tau)``.  The divisor
    of such a character is ``sum <m, n_sigma> [T(sigma)]`` over the cones
    ``sigma`` one dimension up containing ``tau`` (all marked, the marks
    being upward closed), where ``n_sigma`` is the first point of that
    lattice on the image ray of ``sigma``.  (In the toric case ``tau`` is the
    slice of a cone ``c`` with ``span(c) = span(tau) + Q*(v, 1)``, so
    ``N / span(c)`` is this lattice and these are its orbit-closure
    relations.)
    """
    n = x.rank
    tau = source.cone
    v = unique_face_over(x, tau, x.points[0]).vertices[0]
    proj = quotient_matrix(tau.generators, n)
    lattice = _quotient_lattice_inverse(proj, v)
    targets = []
    for sigma in x.tailfan.cofaces[tau]:
        if not x.is_marked(sigma):
            raise AssertionError(
                "marks are not upward closed; validate the divisor first"
            )
        step = minimal_lattice_multiple(_cone_image_ray(proj, sigma), lattice)
        targets.append((CycleGenerator("T", cone=sigma), 1, step))
    characters = face_character_lattice(tau.generators, v, n)
    return RelationBlock(source, _character_rows(characters, proj, targets))


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
    """The full k-cycle class group presentation of the divisor's variety.

    Built once per divisor object and k, and kept in its context: every
    later call, such as :func:`tchow.effcone.eff_generators`, returns the
    same presentation.
    """
    n = x.rank
    if not 0 <= k <= n + 1:
        raise ValueError(f"k must lie in [0, {n + 1}]")
    built = x.context.presentations
    if k not in built:
        gens = enumerate_generators(x, k).ordered()
        rows = [row for block in relation_blocks(x, k) for row in block.rows]
        built[k] = _smith_presentation(k, gens, rows)
    return built[k]


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
        above = [
            (CycleGenerator("R", cone=sigma), _cone_image_ray(proj, sigma))
            for sigma in fan.cofaces[tau]
        ]
        for m in perp_lattice(tau.generators, n):
            entries = []
            for gen, image in above:
                coeff = _as_int(pair_through_quotient(m, proj, image))
                if coeff:
                    entries.append((gen, coeff))
            rows.append(tuple(entries))
    return _smith_presentation(k, gens, rows)
