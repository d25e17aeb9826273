"""Relation matrices and Smith presentations of the k-cycle class groups.

For each k the generators are the invariant-cycle classes enumerated by
:mod:`tchow.fansy`; the relations are divisors of eigenfunctions on the
invariant (k+1)-cycles, assembled block by block from each fiber's faces
by tail and coface (kept on its complex) and the stabilizer orders and
multiplicities (:func:`~tchow.fansy.s_sigma`,
:func:`~tchow.fansy.mu_of_face`).  A cycle's lattice is ``Z^(n+1)`` modulo a
homogenized cone, and the coefficient of a coface in the divisor of the
``j``-th basis character, row ``j`` of that cone's ``span_eqs``, is
coordinate ``j`` of the coface's primitive image there (Fulton & Sturmfels,
1997).  A row is ``(key, coefficient)`` pairs, each key a cycle's geometry
(:attr:`~tchow.fansy.CycleGenerator.key`); the Smith input is filled once
from the rows, by the generators' keys, and ``relations`` is its transpose.
A presentation is a table of a divisor and k, kept in a cache keyed by
both: built once per divisor value and k, and shared by ``chow``, ``eff``
and ``crosscheck``.  An independent classical presentation for complete
toric varieties (orbit closures modulo divisors of characters) serves as a
cross-check through the downgrade construction; it is cached per fan value
and k the same way.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import mul

from .exactlin import IVec, snf_transforms
from .fansy import (
    CycleGenerator,
    MarkedFansyDivisor,
    check_k,
    enumerate_generators,
    mu_of_face,
    s_sigma,
    unique_face_over,
)
from .polyhedra import (
    Cone,
    Fan,
    IncompleteFanError,  # re-exported: raised by toric_chow_presentation
    require_complete,
)
from .value import Value


class NonIntegralRedirectError(ArithmeticError):
    """A contracted-cycle redirect coefficient failed to be an integer."""


class RelationBlock(Value):
    """Rows contributed by one (k+1)-dimensional cycle, as ``(CycleGenerator.key, coeff)`` pairs."""

    source: CycleGenerator
    rows: tuple[tuple[tuple[object, int], ...], ...]


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

    @property
    def smith(self) -> tuple[int, tuple[int, ...]]:
        return (self.free_rank, self.torsion)


def _cone_image_ray(chars, gens) -> IVec:
    """Primitive generator of the image of a cone (given by ``gens``) that projects to a ray.

    The quotient's coordinates are the pairings with the basis characters ``chars``.
    """
    images = set()
    for g in gens:
        im = [sum(map(mul, e, g)) for e in chars]
        d = gcd(*im)
        if d:
            images.add(tuple(x // d for x in im) if d > 1 else tuple(im))
    if not images:
        raise AssertionError("cone projects to zero")
    if len(images) > 1:
        raise AssertionError("cone does not project onto a single ray")
    return images.pop()


def _image_rows(targets, coords) -> tuple:
    """One row per coordinate ``j`` in ``coords``: ``factor * image[j]`` on each target's key.

    ``targets`` holds ``(key, factor, image)`` triples, ``image`` the
    primitive image of a coface in the quotient by a cone.  Coordinate ``j``
    is the pairing with the ``j``-th basis character of that quotient, so each
    row is the divisor of one character.
    """
    rows = []
    for j in coords:
        entries: dict = {}
        for key, factor, image in targets:
            if image[j]:
                entries[key] = entries.get(key, 0) + factor * image[j]
        rows.append(tuple(entries.items()))
    return tuple(rows)


def _lift(cone: Cone) -> list[IVec]:
    """Generators of a tail cone at height 0 in rank n+1."""
    return [g + (0,) for g in cone.generators]


def relation_block_v(x: MarkedFansyDivisor, source: CycleGenerator) -> RelationBlock:
    """Divisors of characters on one fiber face of dimension n-k-1.

    The cycle's lattice is ``Z^(n+1)`` modulo the span of the face's
    homogenized cone; one row per coordinate of that quotient, i.e. per basis
    character of the face's (possibly finite-index) character lattice, a
    row of that cone's ``span_eqs``.  Each
    coefficient is a coordinate of a coface's primitive image: on the
    dimension-(n-k) fiber faces above the source, with faces whose tails are
    marked redirected onto the contracted generator with the
    stabilizer-to-multiplicity ratio as multiplier.
    """
    p, face = source.point, source.face
    chars = face.cone.span_eqs
    # each coface as the cycle it lands on, the multiplier and its image
    targets = []
    for g in x.complex_at(p).cofaces[face]:
        if not x.is_marked(g.tail):
            key, factor = (p, g), 1
        else:
            s = s_sigma(x, g.tail)
            mu = mu_of_face(g)
            if s % mu != 0:
                raise NonIntegralRedirectError(
                    f"stabilizer order {s} is not divisible by multiplicity {mu}"
                )
            key, factor = g.tail, s // mu
        targets.append((key, factor, _cone_image_ray(chars, g.cone.generators)))
    return RelationBlock(source, _image_rows(targets, range(len(chars))))


def relation_block_r(x: MarkedFansyDivisor, source: CycleGenerator) -> RelationBlock:
    """Relations on one horizontal uncontracted cycle of dimension k+1.

    Read in ``Z^(n+1)`` modulo the cone ``tau`` lifted to height 0, whose
    quotient coordinates are the basis characters of ``tau``'s perp lattice
    followed by the height.  The last coordinate of a translate face's image
    is its multiplicity: the fiber-difference rows (one per special point
    away from the basepoint) are that coordinate at the point minus at the
    basepoint.  The character rows, one per other coordinate, sum the images
    of every special point's faces and of the horizontal cofaces; containing
    cones that are marked contribute nothing, since contraction drops their
    dimension by two.
    """
    n = x.rank
    tau = source.cone
    q = len(tau.span_eqs)
    chars = [e + (0,) for e in tau.span_eqs] + [(0,) * n + (1,)]
    per_point = {
        p: [
            ((p, f), 1, _cone_image_ray(chars, f.cone.generators))
            for f in x.complex_at(p).by_tail.get(tau, ())
            if f.dim == tau.dim
        ]
        for p in x.points
    }
    basepoint = x.points[-1]
    negated = [(key, -1, image) for key, _, image in per_point[basepoint]]
    rows = []
    for p in x.points[:-1]:
        rows.extend(_image_rows(per_point[p] + negated, [q]))
    horizontal = [
        (sigma, 1, _cone_image_ray(chars, _lift(sigma)))
        for sigma in x.tailfan.cofaces[tau]
        if not x.is_marked(sigma)
    ]
    targets = [t for p in x.points for t in per_point[p]] + horizontal
    rows.extend(_image_rows(targets, range(q)))
    return RelationBlock(source, tuple(rows))


def relation_block_t(x: MarkedFansyDivisor, source: CycleGenerator) -> RelationBlock:
    """Divisors of characters on the contracted cycle of one marked cone.

    The paper's relation for contracted cycles: a marked cone ``tau`` of
    dimension n-k-1 gives a contracted (k+1)-cycle, whose torus has the
    characters ``m`` in ``tau^perp`` with ``<m, v>`` integral, where
    ``v + tau`` is the unique face with tail ``tau`` over the first point,
    that is, the dual of the lattice ``(N + Z*v) / span(tau)``.  That lattice
    is ``Z^(n+1)`` modulo the homogenized cone of ``v + tau``.  The divisor
    of the ``j``-th basis character is ``sum n_sigma[j] [T(sigma)]`` over the
    cones ``sigma`` one dimension up containing ``tau`` (all marked, the marks
    being upward closed), where ``n_sigma`` is the primitive image of
    ``sigma`` lifted to height 0.  (In the toric case ``tau`` is the slice of
    a cone ``c`` with ``span(c) = span(tau) + Q*(v, 1)``, so ``N / span(c)``
    is this lattice and these are its orbit-closure relations.)
    """
    tau = source.cone
    chars = unique_face_over(x, tau, x.points[0]).cone.span_eqs
    targets = []
    for sigma in x.tailfan.cofaces[tau]:
        if not x.is_marked(sigma):
            raise AssertionError(
                "marks are not upward closed; validate the divisor first"
            )
        targets.append((sigma, 1, _cone_image_ray(chars, _lift(sigma))))
    return RelationBlock(source, _image_rows(targets, range(len(chars))))


def relation_blocks(x: MarkedFansyDivisor, k: int) -> list[RelationBlock]:
    if k > x.rank:
        return []
    level = enumerate_generators(x, k + 1)
    return (
        [relation_block_v(x, f) for f in level.v]
        + [relation_block_r(x, c) for c in level.r]
        + [relation_block_t(x, c) for c in level.t]
    )


def _smith_presentation(k, generators, rows) -> ChowPresentation:
    g = len(generators)
    index = {gen.key: i for i, gen in enumerate(generators)}
    # cokernel of the transpose: sparse row ``r`` is column ``r`` of ``mt``
    mt = [[0] * len(rows) for _ in range(g)]
    for r, row in enumerate(rows):
        for key, coeff in row:
            mt[index[key]][r] += coeff
    u, d = snf_transforms(mt)
    nonzero = [x for x in (d[i][i] for i in range(min(g, len(rows)))) if x != 0]
    rank = len(nonzero)
    torsion = tuple(x for x in nonzero if x > 1)
    torsion_index = [i for i, x in enumerate(nonzero) if x > 1]
    class_map = tuple(
        tuple(col[i] % nonzero[i] for i in torsion_index) + col[rank:] for col in zip(*u)
    )
    # with no generator there are no columns to transpose, but a row per relation
    relations = tuple(zip(*mt)) or ((),) * len(rows)
    free = g - rank
    moduli = torsion + (0,) * free
    return ChowPresentation(k, tuple(generators), relations, free, torsion, moduli, class_map)


@lru_cache(maxsize=None, typed=True)
def presentation(x: MarkedFansyDivisor, k: int) -> ChowPresentation:
    """The full k-cycle class group presentation of the divisor's variety.

    Built once per divisor value and k: every later call with an equal
    divisor returns the same presentation.  :func:`tchow.effcone.eff_generators`
    reads it and is a table of a divisor and k the same way.
    """
    check_k(k, x.rank + 1)
    gens = enumerate_generators(x, k).ordered()
    rows = [row for block in relation_blocks(x, k) for row in block.rows]
    return _smith_presentation(k, gens, rows)


@lru_cache(maxsize=None, typed=True)
def toric_chow_presentation(fan: Fan, k: int) -> ChowPresentation:
    """Classical k-cycle presentation of a complete toric variety.

    Generators are the orbit closures (cones of codimension k); relations are
    divisors of characters on the one-dimension-larger orbit closures.  This
    is the independent oracle the downgrade construction is checked against.
    Built once per fan value and k.
    """
    require_complete(fan)
    n = fan.ambient_rank
    check_k(k, n)
    rows = []
    for tau in fan.cones(n - k - 1):
        chars = tau.span_eqs
        above = [(sigma, 1, _cone_image_ray(chars, sigma.generators)) for sigma in fan.cofaces[tau]]
        rows.extend(_image_rows(above, range(len(chars))))
    gens = tuple(CycleGenerator("R", cone=c) for c in fan.cones(n - k))
    return _smith_presentation(k, gens, rows)
