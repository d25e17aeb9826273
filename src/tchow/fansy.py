"""Marked fansy divisors and their cycle-generator combinatorics.

A marked fansy divisor is the combinatorial datum of a complete rational
complexity-one torus variety: one complete polyhedral subdivision per
special point of the base line, and a marked set of tailfan cones recording
which invariant cycles the contraction morphism collapses.  The tailfan,
the common fan of the fibers' tail cones, and the rank are the first fiber's.

Everything the k-cycle presentations share is derived per value, once, on
first use.  Each fiber's faces by dimension, by tail cone and by coface are
kept on its complex (``PolyhedralComplex.by_dim``, ``by_tail``,
``cofaces``), the tailfan's cones by dimension on the fan (``Fan.by_dim``),
and :func:`s_sigma` and :func:`enumerate_generators`, tables with a second
argument, in value-keyed caches, as :func:`tchow.chow.presentation` is.
Multiplicities and stabilizer orders read their quotients off the
``span_eqs`` of a tail cone or of ``sigma``, computed once per cone.
:func:`make_divisor` returns one object per value
(:func:`~tchow.value.canonical`), so an equal divisor built again through
it shares its validation report and complexes.  The fiber it pads a sole
fiber with is the first fiber's tail fan, so its faults are that fiber's:
once an earlier fiber is faulty, validation skips it.  A marked cone's lone
face over a point is its translate: validation checks uniqueness alone.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache, reduce
from math import gcd, lcm

from .exactlin import dot, hnf_basis, mat_vec, ratio
from .polyhedra import (
    Cone,
    Fan,
    PolyhedralComplex,
    Polyhedron,
    complex_validate,
    cone_as_polyhedron,
    fan_validate,
    make_complex,
    make_polyhedron,
    poly_intersect,
)
from .value import Value, canonical, lazy

AUX_LABELS = ("aux1", "aux2")


class NonUniqueFaceError(ValueError):
    """A marked cone fails to have a unique face over some point."""


class MarkedFansyDivisor(Value):
    """Per-point subdivisions and marked cones; dim X = rank + 1.

    ``points`` is ordered; the last label plays the role of the basepoint at
    infinity in all relation blocks.  The rank and the tailfan are the first
    fiber's.  The tailfan and the report of :func:`validate` are computed on
    first use and kept on the object, outside its fields, so equality and
    hashing ignore them.  The fiber indexes live on its complexes, and the
    tables of every k in value-keyed caches.
    """

    points: tuple[str, ...]
    complexes: tuple[PolyhedralComplex, ...]
    marked: frozenset[Cone]

    @property
    def rank(self) -> int:
        return self.complexes[0].ambient_rank

    @lazy
    def tailfan(self) -> Fan:
        return self.complexes[0].tail_fan

    @property
    def dim_x(self) -> int:
        return self.rank + 1

    def complex_at(self, p: str) -> PolyhedralComplex:
        return self.complexes[self.points.index(p)]

    def is_marked(self, c: Cone) -> bool:
        return c in self.marked

    @lazy
    def _report(self) -> ValidationReport:
        return ValidationReport(tuple(_violations(self)))


class CycleGenerator(Value):
    """One invariant-cycle class: horizontal (R), vertical (V) or contracted (T)."""

    kind: str  # "V", "R" or "T"
    point: str | None = None
    face: Polyhedron | None = None
    cone: Cone | None = None

    @lazy
    def label(self) -> str:
        """The generator as the command line prints it, formatted once per object."""
        if self.kind == "V":
            verts = ",".join(
                "(" + ",".join(str(c) for c in v) + ")" for v in self.face.vertices
            )
            rays = ",".join(
                "(" + ",".join(str(c) for c in r) + ")" for r in self.face.tail.generators
            )
            return f"V[{self.point}; verts {verts}; rays {rays}]"
        rays = ",".join(
            "(" + ",".join(str(c) for c in r) + ")" for r in self.cone.generators
        )
        return f"{self.kind}[{rays}]"


class GeneratorSets(Value):
    r: tuple[CycleGenerator, ...]
    v: tuple[CycleGenerator, ...]
    t: tuple[CycleGenerator, ...]

    @property
    def counts(self) -> tuple[int, int, int]:
        return (len(self.r), len(self.v), len(self.t))

    def ordered(self) -> tuple[CycleGenerator, ...]:
        return self.v + self.r + self.t


class Violation(Value):
    code: str
    message: str


class ValidationReport(Value):
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(f"[{v.code}] {v.message}" for v in self.violations)


def sigma_as_complex(fan: Fan) -> PolyhedralComplex:
    """The trivial subdivision: the fan itself, viewed as a complex."""
    return make_complex(map(cone_as_polyhedron, fan.maximal_cones), fan.ambient_rank)


def make_divisor(
    labeled_complexes: Sequence[tuple[str, PolyhedralComplex]], marked: Iterable[Cone]
) -> MarkedFansyDivisor:
    """Assemble a marked fansy divisor, padding to at least two points.

    Fewer than two supplied points get generic fibers (the first fiber's tail
    fan itself) appended under the labels ``aux1``/``aux2`` not already in
    use; the final point is the basepoint.  Checked only by :func:`validate`.
    Returns the first divisor built with the same value, if any.
    """
    if not labeled_complexes:
        raise ValueError("at least one fiber subdivision is required")
    pairs = list(labeled_complexes)
    aux = [a for a in AUX_LABELS if all(a != p for p, _ in pairs)]
    while len(pairs) < 2:
        pairs.append((aux.pop(0), sigma_as_complex(pairs[0][1].tail_fan)))
    points, complexes = tuple(p for p, _ in pairs), tuple(s for _, s in pairs)
    return canonical(MarkedFansyDivisor(points, complexes, frozenset(marked)))


def unique_face_over(x: MarkedFansyDivisor, sigma: Cone, p: str) -> Polyhedron:
    """The unique face of the fiber over ``p`` whose tailcone is ``sigma``.

    It is a translate of ``sigma``: a wider one would have a second face with
    tail ``sigma``, where some character vanishing on ``sigma`` is least.
    """
    if not x.is_marked(sigma):
        raise NonUniqueFaceError("cone is not marked; its fiber face need not be unique")
    hits = x.complex_at(p).by_tail.get(sigma, ())
    if len(hits) != 1:
        raise NonUniqueFaceError(
            f"expected exactly one face with tail {sigma.generators} over {p}, found {len(hits)}"
        )
    return hits[0]


def mu_of_face(face: Polyhedron) -> int:
    """Multiplicity of the image vertex of a fiber face.

    The face is projected modulo the span of its tailcone, through the
    tail's ``span_eqs``; the result is the lcm of the multiplicities of the
    image polytope's vertices.  A vertex generator ``(w, h)`` has image
    ``y / h`` of multiplicity ``h / gcd(h, y)``.
    """
    n = face.ambient_rank
    chars = face.tail.span_eqs
    if not chars:
        return 1
    return lcm(*(g[n] // gcd(g[n], *mat_vec(chars, g[:n])) for g in face.cone.generators if g[n]))


@lru_cache(maxsize=None)
def s_sigma(x: MarkedFansyDivisor, sigma: Cone) -> int:
    """Order of the vertex-class group of a marked cone.

    The images of the per-point unique-face vertices generate a finite
    subgroup of ``N(sigma)_Q / N(sigma)``, read through ``sigma``'s
    ``span_eqs``; this returns its order.  The multiplicity of every
    tail-``sigma`` face divides it.  Any vertex generator ``(w, h)`` of a face
    of ``sigma``'s dimension gives its image.
    """
    if not x.is_marked(sigma):
        raise ValueError("s_sigma is defined for marked cones only")
    n = x.rank
    chars = sigma.span_eqs
    r = len(chars)
    if r == 0:
        return 1
    vbars = []
    for p in x.points:
        g = next(g for g in unique_face_over(x, sigma, p).cone.generators if g[n])
        vbars.append((mat_vec(chars, g[:n]), g[n]))
    d = lcm(*(h for _, h in vbars))
    if d == 1:
        return 1
    rows = [[d if i == j else 0 for j in range(r)] for i in range(r)]
    rows += [[v * (d // h) for v in y] for y, h in vbars]
    basis = hnf_basis(rows)
    covolume = 1
    for i, row in enumerate(basis):
        covolume *= row[i]
    return d**r // covolume


@lru_cache(maxsize=None)
def enumerate_generators(x: MarkedFansyDivisor, k: int) -> GeneratorSets:
    """The three generator families of the k-cycle presentation.

    R: unmarked tailfan cones of dimension ``n+1-k``; V: fiber faces of
    dimension ``n-k`` with unmarked tail, over every special point; T: marked
    cones of dimension ``n-k``.  Each family keeps the sorted ``by_dim`` order
    (V point by point).  Enumerated once per divisor value and level.
    """
    n = x.rank
    if not 0 <= k <= n + 1:
        raise ValueError(f"k must lie in [0, {n + 1}]")
    r_gens = tuple(
        CycleGenerator("R", cone=c) for c in x.tailfan.cones(n + 1 - k) if not x.is_marked(c)
    )
    v_gens = tuple(
        CycleGenerator("V", point=p, face=f)
        for p in x.points
        for f in x.complex_at(p).by_dim.get(n - k, ())
        if not x.is_marked(f.tail)
    )
    t_gens = tuple(
        CycleGenerator("T", cone=c) for c in x.tailfan.cones(n - k) if x.is_marked(c)
    )
    return GeneratorSets(r_gens, v_gens, t_gens)


def _poly_min(face: Polyhedron, u: Sequence):
    """Exact minimum of ``<u, .>`` on a polyhedron (int or Fraction).

    ``u`` must be nonnegative on the tail, as a sum of its facet normals is:
    the minimum is then the least ``u . w / h`` over the generators ``(w, h)``,
    ``h > 0``, compared over their lcm.
    """
    n = len(u)
    m = lcm(*(g[n] for g in face.cone.generators if g[n]))
    return ratio(min(dot(u, g[:n]) * (m // g[n]) for g in face.cone.generators if g[n]), m)


def _degree_locus_meets(sigma: Cone, cells: Sequence[Polyhedron], semiample: bool):
    """The test whether ``deg sigma``, the Minkowski sum of ``cells``, meets a face ``tau``.

    When ``semiample`` (``deg sigma`` lies in ``sigma``) no polyhedron is
    built: the sum ``w`` of ``sigma``'s facet normals through ``tau`` is
    nonnegative on ``sigma`` and vanishes there exactly on ``tau``, so the
    meet is nonempty iff the minimum of ``w`` on ``deg sigma``, the sum of
    the cells' minima at a vertex, is 0.  Otherwise the sum is built: every
    cell has tail ``sigma``, so each partial sum is the polyhedron on the
    pairwise sums of vertices, with tail ``sigma``.
    """
    if not semiample:
        def add(a: Polyhedron, b: Polyhedron) -> Polyhedron:
            sums = [[x + y for x, y in zip(v, w)] for v in a.vertices for w in b.vertices]
            return make_polyhedron(sums, sigma.generators, sigma.ambient_rank)

        deg = reduce(add, cells)
        return lambda tau: not poly_intersect(deg, cone_as_polyhedron(tau)).is_empty

    def meets(tau: Cone) -> bool:
        through = [u for u in sigma.normals if all(dot(u, g) == 0 for g in tau.generators)]
        w = [sum(col) for col in zip(*through)]
        return sum(_poly_min(cell, w) for cell in cells) == 0

    return meets


def validate(x: MarkedFansyDivisor) -> ValidationReport:
    """Check every defining condition of a marked fansy divisor.

    Returns a report listing each violated condition; never raises on
    well-formed (if invalid) input.  The marks are checked against the
    degree loci ``deg sigma = sum_p Delta_p(sigma)`` of the marked maximal
    cones: once ``deg sigma`` lies in ``sigma`` it meets a face ``tau`` exactly
    when ``sum_p min_v w . v`` over the vertices ``v`` of ``Delta_p(sigma)`` is
    0, ``w`` the sum of ``sigma``'s facet normals through ``tau``
    (:func:`_degree_locus_meets`).  Checked once per divisor object (per value
    from :func:`make_divisor`); later calls return the same frozen report.
    """
    return x._report


def _violations(x: MarkedFansyDivisor) -> list[Violation]:
    out: list[Violation] = []
    add = lambda code, msg: out.append(Violation(code, msg))

    if len(x.points) < 2:
        add("TOO_FEW_POINTS", "at least two special points are required")
    if len(set(x.points)) != len(x.points):
        add("DUPLICATE_POINTS", "point labels must be distinct")
    if len(x.points) != len(x.complexes):
        add("POINTS_COMPLEXES_MISMATCH", "one subdivision per point is required")
        return out
    if not x.points:  # no fiber, so no degree to check the marks against
        return out

    def fiber_ok(p: str, s: PolyhedralComplex) -> bool:
        """Add the faults of the fiber ``s`` over ``p`` on its own; whether it has none."""
        problems = complex_validate(s)
        for problem in problems:
            add("BAD_COMPLEX", f"fiber over {p}: {problem}")
        tail_problems = [] if problems else fan_validate(s.tail_fan)
        if tail_problems:
            add("NON_FAN_TAILS", f"fiber over {p}: " + "; ".join(tail_problems))
        return not (problems or tail_problems)

    # the tailfan is the first fiber's tail fan: a later fiber is compared with
    # it only when the first fiber is valid, as a faulty one's tails mean nothing
    first_ok = complexes_ok = fiber_ok(x.points[0], x.complexes[0])
    for p, s in zip(x.points[1:], x.complexes[1:]):
        if not complexes_ok and p in AUX_LABELS and s is sigma_as_complex(x.tailfan):
            continue  # the padding fiber: its faults are the first fiber's
        if not fiber_ok(p, s):
            complexes_ok = False
        elif first_ok and s.tail_fan != x.tailfan:
            add("TAILFAN_MISMATCH", f"fiber over {p} has a different tailfan")
            complexes_ok = False
    # past this point the tailfan is a valid complete fan: the tails of the
    # first fiber, a complete complex, cover the whole space and form a fan
    if not complexes_ok:
        return out

    fan_all = set(x.tailfan.all_cones())
    for c in x.marked:
        if c not in fan_all:
            add("MARK_NOT_IN_FAN", f"marked cone {c.generators} is not in the tailfan")
    if any(c.is_zero() for c in x.marked):
        add("MARKED_ZERO_CONE", "the zero cone must not be marked")
    if any(v.code == "MARK_NOT_IN_FAN" for v in out):
        return out

    # in a fan, a cone contains another exactly when it is a face of it, that
    # is, when it holds the other's rays: no H-data is needed
    for tau in x.marked:
        for sigma in fan_all:
            if sigma.dim > tau.dim and set(tau.generators) <= set(sigma.generators) and sigma not in x.marked:
                add(
                    "MARKS_NOT_UPWARD_CLOSED",
                    f"{tau.generators} is marked but the containing cone "
                    f"{sigma.generators} is not",
                )

    # a lone face with tail sigma is a translate: a wider one has a proper face with tail sigma
    non_unique = [
        Violation("NON_UNIQUE_MARKED_FACE", f"marked cone {sigma.generators} has {k} faces over {p}")
        for sigma in sorted(x.marked, key=Cone.sort_key)
        for p in x.points
        if (k := len(x.complex_at(p).by_tail.get(sigma, ()))) != 1
    ]
    if non_unique:
        return out + non_unique

    for sigma in x.tailfan.cones(x.rank):
        if not x.is_marked(sigma):
            continue
        cells = [unique_face_over(x, sigma, p) for p in x.points]
        semiample = True
        for u in sigma.normals:
            if sum(_poly_min(cell, u) for cell in cells) < 0:
                add(
                    "NOT_SEMIAMPLE",
                    f"marked cone {sigma.generators}: evaluation against {u} "
                    "has negative total degree",
                )
                semiample = False
        meets_face = _degree_locus_meets(sigma, cells, semiample)
        for tau in sigma.faces:
            if tau == sigma:
                continue
            meets = meets_face(tau)
            if meets and not x.is_marked(tau) and not tau.is_zero():
                add(
                    "MARKING_TOO_SMALL",
                    f"face {tau.generators} of {sigma.generators} meets the degree "
                    "locus but is unmarked",
                )
            if meets and tau.is_zero():
                add(
                    "DEGREE_MEETS_ORIGIN",
                    f"degree locus of {sigma.generators} contains the origin",
                )
            if not meets and x.is_marked(tau):
                add(
                    "MARKING_TOO_LARGE",
                    f"face {tau.generators} of {sigma.generators} is marked but "
                    "misses the degree locus",
                )
    return out
