"""Constructors of marked fansy divisors.

Three sources: restricting the torus action of a complete toric variety to a
corank-one subtorus (``downgrade``), projectivizing a rank-two equivariant
vector bundle given by its ray filtrations (``bundle_rank2``), and the
hard-coded worked fixtures.  ``downgrade`` and ``bundle_rank2`` run once per
input value and process: a later call with an equal input returns the
divisor built first, with its validity and presentations.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

from .exactlin import (
    IVec,
    bareiss_inverse,
    det,
    dot,
    mat_vec,
    vec,
)
from .fansy import (
    AUX_LABELS,
    MarkedFansyDivisor,
    make_divisor,
    validate,
)
from .polyhedra import (
    Cone,
    Fan,
    GeometryError,
    IncompleteFanError,  # re-exported: raised by downgrade and bundle_rank2
    Polyhedron,
    cone_as_polyhedron,
    complex_tailfan,
    make_complex,
    make_cone,
    make_fan,
    make_polyhedron,
    polyhedron_from_hrep,
    require_complete,
)
from .value import Value


class NonSmoothBaseError(GeometryError):
    """Bundle construction requires a smooth complete base fan."""


class InconsistentFiltrationsError(GeometryError):
    """The ray filtrations do not define an equivariant rank-two bundle."""


# ---------------------------------------------------------------------------
# toric downgrades


class DowngradeInput(Value):
    """A complete fan plus the splitting that forgets the last coordinate.

    ``basis_change``, when given, is a unimodular matrix applied to every ray
    (``ray -> matrix @ ray``) before the last coordinate is split off.
    """

    fan: Fan
    basis_change: tuple[IVec, ...] | None = None


def _slice_at_height(c: Cone, height: int) -> Polyhedron:
    """Project ``{x : (x, height) in c}`` into the first n coordinates."""
    n = c.ambient_rank - 1
    ineqs = [(a[:n], -height * a[n]) for a in c.normals]
    eqs = [(e[:n], -height * e[n]) for e in c.span_eqs]
    return polyhedron_from_hrep(ineqs, eqs, n)


def _crosses(c: Cone) -> bool:
    last = [g[-1] for g in c.generators]
    return any(x > 0 for x in last) and any(x < 0 for x in last)


@lru_cache(maxsize=None)
def downgrade(inp: DowngradeInput) -> MarkedFansyDivisor:
    """Marked fansy divisor of a toric variety under a corank-one subtorus.

    Fibers over two points: slices of the fan at last coordinate +1 and -1.
    The marked cones are the hyperplane sections of the cones meeting both
    open half-spaces.
    """
    fan = inp.fan
    if inp.basis_change is not None:
        m = [list(r) for r in inp.basis_change]
        if abs(det(m)) != 1:
            raise GeometryError("basis change must be unimodular")
        fan = make_fan(
            [
                make_cone([mat_vec(m, g) for g in c.generators], fan.ambient_rank)
                for c in fan.maximal_cones
            ],
            fan.ambient_rank,
        )
    require_complete(fan)
    n = fan.ambient_rank - 1
    cells_zero = [_slice_at_height(c, 1) for c in fan.maximal_cones]
    cells_inf = [_slice_at_height(c, -1) for c in fan.maximal_cones]
    marked = set()
    for c in fan.all_cones():
        if _crosses(c):
            marked.add(_slice_at_height(c, 1).tail)
    result = make_divisor(
        n,
        [("0", make_complex(cells_zero, n)), ("inf", make_complex(cells_inf, n))],
        marked,
    )
    report = validate(result)
    if not report.ok:
        raise GeometryError(f"downgrade produced an invalid divisor: {report}")
    return result


# ---------------------------------------------------------------------------
# rank-two equivariant bundles


class RayFiltration(Value):
    """Decreasing fiber filtration on one ray.

    The fiber is full for ``j <= full_until``; if ``line`` is set it then
    drops to that one-dimensional subspace until ``line_until``, and to zero
    beyond; otherwise it drops straight to zero.
    """

    full_until: int
    line: str | None
    line_until: int | None

    def __init__(
        self, full_until: int, line: str | None = None, line_until: int | None = None
    ):
        if (line is None) != (line_until is None):
            raise ValueError("line and line_until must be given together")
        if line is not None and line_until <= full_until:
            raise ValueError("filtration must be strictly decreasing")
        super().__init__(full_until, line, line_until)

    @property
    def jump(self) -> int:
        return 0 if self.line is None else self.line_until - self.full_until


class KlyachkoBundle(Value):
    """A rank-two equivariant bundle on a smooth complete toric variety.

    The base fan may be any smooth complete fan; :func:`bundle_rank2` checks
    Klyachko compatibility (at most two lines over each maximal cone).

    ``filtrations`` maps every primitive ray generator of the base fan to its
    ray filtration.  Point labels name elements of the projectivized fiber.
    """

    base_fan: Fan
    filtrations: tuple[tuple[IVec, RayFiltration], ...]

    def filtration(self, ray: IVec) -> RayFiltration:
        for r, f in self.filtrations:
            if r == ray:
                return f
        raise KeyError(f"no filtration for ray {ray}")


def _point_sort_key(label: str):
    return (label == "inf", label)


def _check_base(b: KlyachkoBundle) -> None:
    require_complete(b.base_fan)
    n = b.base_fan.ambient_rank
    for c in b.base_fan.maximal_cones:
        if len(c.generators) != n or abs(det([list(g) for g in c.generators])) != 1:
            raise NonSmoothBaseError(
                f"maximal cone {c.generators} is not unimodular"
            )
    rays = {r.generators[0] for r in b.base_fan.cones(1)}
    given = {r for r, _ in b.filtrations}
    if rays != given:
        raise InconsistentFiltrationsError(
            "filtrations must be given for exactly the base rays"
        )


def bundle_labels(b: KlyachkoBundle) -> list[str]:
    labels = sorted(
        {f.line for _, f in b.filtrations if f.line is not None}, key=_point_sort_key
    )
    return labels


def _cone_lines(b: KlyachkoBundle, c: Cone) -> list[str]:
    lines = {
        b.filtration(g).line for g in c.generators if b.filtration(g).line is not None
    }
    return sorted(lines, key=_point_sort_key)


def _cone_delta(b: KlyachkoBundle, c: Cone) -> IVec:
    """Character difference of the two line-bundle summands on a maximal cone.

    Oriented so that the first (sort-ordered) line label is the plus side.
    """
    lines = _cone_lines(b, c)
    if len(lines) > 2:
        raise InconsistentFiltrationsError(
            f"three distinct lines appear on the rays of {c.generators}"
        )
    targets = []
    for g in c.generators:
        f = b.filtration(g)
        if f.line is None:
            targets.append(0)
        elif f.line == lines[0]:
            targets.append(f.jump)
        else:
            targets.append(-f.jump)
    # delta . g_i = targets_i, so delta = g^-1 @ targets; the cone is
    # unimodular (see _check_base), so det s = ±1 and g^-1 = s * adj
    s, adj = bareiss_inverse([list(g) for g in c.generators])
    return tuple(s * dot(row, targets) for row in adj)


@lru_cache(maxsize=None)
def bundle_rank2(b: KlyachkoBundle) -> MarkedFansyDivisor:
    """Marked fansy divisor of the projectivized bundle.

    Per maximal cone the two summand characters cut the cone along the levels
    -1, 0, +1 of their difference; the pieces are distributed over the points
    named by the filtration lines.  Marked cones are exactly the tailfan
    cones that are either not cones of the base fan or contain a ray with a
    one-dimensional filtration step.
    """
    _check_base(b)
    n = b.base_fan.ambient_rank
    labels = bundle_labels(b)
    aux = iter(AUX_LABELS)
    while len(labels) < 2:
        labels.append(next(aux))
    cells: dict[str, list[Polyhedron]] = {p: [] for p in labels}

    def piece(c: Cone, delta: Sequence[int], sign: int, level) -> Polyhedron:
        ineqs = [(a, 0) for a in c.normals]
        ineqs.append((tuple(sign * d for d in delta), level))
        eqs = [(e, 0) for e in c.span_eqs]
        return polyhedron_from_hrep(ineqs, eqs, n)

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
                    cells[p].append(piece(c, delta, 1, 1))   # level >= 1
                    cells[p].append(piece(c, delta, -1, -1))  # level <= 1
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

    complexes = [(p, make_complex(cells[p], n)) for p in labels]
    tailfan = complex_tailfan(complexes[0][1])
    base_cones = set(b.base_fan.all_cones())
    marked = set()
    for c in tailfan.all_cones():
        if c.is_zero():
            continue
        if c not in base_cones:
            marked.add(c)
        elif any(b.filtration(g).line is not None for g in c.generators):
            marked.add(c)
    result = make_divisor(n, complexes, marked)
    report = validate(result)
    if not report.ok:
        raise InconsistentFiltrationsError(
            f"filtrations produced an invalid divisor: {report}"
        )
    return result


# ---------------------------------------------------------------------------
# fixtures


def _p2_fan() -> Fan:
    return make_fan(
        [
            make_cone([(1, 0), (0, 1)], 2),
            make_cone([(0, 1), (-1, -1)], 2),
            make_cone([(-1, -1), (1, 0)], 2),
        ],
        2,
    )


def _p1p1_fan() -> Fan:
    quadrants = [
        [(1, 0), (0, 1)],
        [(0, 1), (-1, 0)],
        [(-1, 0), (0, -1)],
        [(0, -1), (1, 0)],
    ]
    return make_fan([make_cone(q, 2) for q in quadrants], 2)


def projectivized_split_fan(base: Fan, twist: dict[IVec, int]) -> Fan:
    """Fan of the projectivized sum of two line bundles with given twist.

    Each base ray lifts with last coordinate ``twist[ray]`` (default 0); two
    vertical rays close up the P^1 fibers.
    """
    n = base.ambient_rank
    up = tuple([0] * n + [1])
    down = tuple([0] * n + [-1])
    cones = []
    for c in base.maximal_cones:
        lifted = [g + (twist.get(g, 0),) for g in c.generators]
        cones.append(make_cone(lifted + [up], n + 1))
        cones.append(make_cone(lifted + [down], n + 1))
    return make_fan(cones, n + 1)


def _insert_edge(fan: Fan, a: Sequence, b: Sequence) -> "list[Polyhedron]":
    """Subdivision cells obtained by replacing the origin with a lattice edge."""
    av, bv = vec(a), vec(b)
    d = tuple(x - y for x, y in zip(bv, av))
    cells = []
    for c in fan.maximal_cones:
        if c.contains(d):
            cells.append(cone_as_polyhedron(c).translate(bv))
        elif c.contains([-x for x in d]):
            cells.append(cone_as_polyhedron(c).translate(av))
        else:
            cells.append(make_polyhedron([av, bv], c.generators, fan.ambient_rank))
    return cells


def gr24_divisor() -> MarkedFansyDivisor:
    """The Grassmannian of lines in projective 3-space under its diagonal torus.

    The tailfan has the six cones over the facets of a cube (two plus signs,
    two minus signs among e1, e2, e3, e0 = -e1-e2-e3); each special fiber
    replaces the origin by a lattice edge, and every nonzero cone is marked.
    """
    e = {1: (1, 0, 0), 2: (0, 1, 0), 3: (0, 0, 1), 0: (-1, -1, -1)}
    cones = []
    idx = [1, 2, 3, 0]
    for i in range(4):
        for j in range(i + 1, 4):
            plus = {idx[i], idx[j]}
            gens = [e[t] if t in plus else tuple(-x for x in e[t]) for t in idx]
            cones.append(make_cone(gens, 3))
    fan = make_fan(cones, 3)
    edges = {
        "0": ((0, 0, 0), (-1, -1, 0)),
        "1": ((0, 0, 0), (-1, 0, -1)),
        "inf": ((1, 1, 1), (1, 0, 0)),
    }
    complexes = [
        (p, make_complex(_insert_edge(fan, a, b), 3)) for p, (a, b) in edges.items()
    ]
    marked = [c for c in fan.all_cones() if not c.is_zero()]
    return make_divisor(3, complexes, marked)


def p1p1_bundle() -> KlyachkoBundle:
    """The non-split rank-two bundle on P1 x P1 with three special fibers."""
    return KlyachkoBundle(
        _p1p1_fan(),
        (
            ((1, 0), RayFiltration(0, "0", 1)),
            ((0, 1), RayFiltration(0, "1", 1)),
            ((-1, 0), RayFiltration(0, "inf", 1)),
            ((0, -1), RayFiltration(0)),
        ),
    )


def p2_projectivized_fan(which: str) -> Fan:
    """The fans downgraded by the p2_E / p2_F fixtures."""
    if which == "E":
        twist = {(1, 0): 1}
    elif which == "F":
        twist = {(1, 0): 1, (0, 1): 1, (-1, -1): -1}
    else:
        raise ValueError("which must be 'E' or 'F'")
    return projectivized_split_fan(_p2_fan(), twist)


FIXTURE_NAMES = ("gr24", "p1p1_bundle", "p2_E", "p2_F")


def fixture(name: str) -> MarkedFansyDivisor:
    """One of the validated worked examples, by name."""
    if name == "gr24":
        return gr24_divisor()
    if name == "p1p1_bundle":
        return bundle_rank2(p1p1_bundle())
    if name == "p2_E":
        return downgrade(DowngradeInput(p2_projectivized_fan("E")))
    if name == "p2_F":
        return downgrade(DowngradeInput(p2_projectivized_fan("F")))
    raise ValueError(f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}")
