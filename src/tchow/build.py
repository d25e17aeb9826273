"""Constructors of marked fansy divisors.

Three sources: restricting the torus action of a complete toric variety to a
corank-one subtorus (``downgrade``), projectivizing a rank-two equivariant
vector bundle given by its ray filtrations (``bundle_rank2``), and the
hard-coded worked fixtures.  ``downgrade`` and ``bundle_rank2`` run once
per input value and process: a later call with an equal input returns the
divisor built first, with its validity and presentations.  ``fixture``
rebuilds from them and the ``make_*`` memos, so returns that divisor too.
Each cell is a homogenized cone already held, cut by one more row
(:func:`~tchow.polyhedra.cut`), and the marks are read off the tail fan.
"""

from __future__ import annotations

from functools import lru_cache

from .exactlin import (
    IVec,
    bareiss_inverse,
    det,
    dot,
    mat_vec,
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
    _cone_on_rays,
    cone_as_polyhedron,
    cut,
    from_homogenized,
    make_complex,
    make_cone,
    make_fan,
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


def _slice(c: Cone, height: int) -> Polyhedron:
    """``{x : (x, height) in c}``, ``height`` ±1: its homogenized cone is ``c`` cut
    by ``height * t >= 0``, with the last coordinate ``t`` flipped for -1."""
    n = c.ambient_rank - 1
    side = cut(c, [(0,) * n + (height,)])
    flipped = [g[:n] + (height * g[n],) for g in side.generators]
    return from_homogenized(_cone_on_rays(flipped, n + 1))


@lru_cache(maxsize=None)
def downgrade(inp: DowngradeInput) -> MarkedFansyDivisor:
    """Marked fansy divisor of a toric variety under a corank-one subtorus.

    Fibers over two points: slices of the fan at last coordinate +1 and -1.
    The marked cones are the hyperplane sections of the cones meeting both
    open half-spaces: the tail-fan cones ``tau`` whose lift ``tau x 0`` is not a
    cone of the fan.  Proof: ``tau = F ∩ {t = 0}`` for the carrier ``F`` of
    ``tau x 0``, the cone of the fan whose relative interior holds its own.  If
    ``F`` crosses ``{t = 0}``, so does its relative interior: ``F != tau x 0``,
    and no cone is ``tau x 0``, as it would be its own carrier.  Else ``F``
    lies in ``{t = 0}`` and ``F = tau x 0``.
    """
    fan = inp.fan
    if fan.ambient_rank < 1:
        raise GeometryError("a downgrade needs a fan of rank at least 1")
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
    zero = make_complex([_slice(c, 1) for c in fan.maximal_cones], n)
    inf = make_complex([_slice(c, -1) for c in fan.maximal_cones], n)
    lifts = set(fan.all_cones())
    marked = [
        tau
        for tau in zero.tail_fan.all_cones()
        if Cone(n + 1, tuple(g + (0,) for g in tau.generators)) not in lifts
    ]
    result = make_divisor([("0", zero), ("inf", inf)], marked)
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
    given = [r for r, _ in b.filtrations]
    if rays != set(given):
        raise InconsistentFiltrationsError(
            "filtrations must be given for exactly the base rays"
        )
    for r in given:
        if given.count(r) > 1:
            raise InconsistentFiltrationsError(f"ray {r} has more than one filtration")


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

    Per maximal cone the difference ``delta`` of the two summand characters
    splits it at a level per point, into ``delta >= level`` and ``delta <=
    level``: +1 for its first line, -1 for its second, 0 for other points
    when it has two lines; otherwise they keep the whole cone.  Marked cones are exactly the tailfan
    cones that are either not cones of the base fan or contain a ray with a
    one-dimensional filtration step.
    """
    _check_base(b)
    n = b.base_fan.ambient_rank
    labels = bundle_labels(b) or AUX_LABELS[:1]  # make_divisor pads to two points
    cells: dict[str, list[Polyhedron]] = {p: [] for p in labels}

    for c in b.base_fan.maximal_cones:
        lines = _cone_lines(b, c)
        delta = _cone_delta(b, c)
        whole = cone_as_polyhedron(c)
        for p in labels:
            if p in lines:
                level = 1 if p == lines[0] else -1
            elif len(lines) == 2:
                level = 0
            else:
                cells[p].append(whole)
                continue
            above = delta + (-level,)  # delta . x >= level, homogenized
            below = tuple(-a for a in above)
            cells[p] += [from_homogenized(cut(whole.cone, [row])) for row in (above, below)]

    complexes = [(p, make_complex(cells[p], n)) for p in labels]
    base_cones = set(b.base_fan.all_cones())
    marked = set()
    for c in complexes[0][1].tail_fan.all_cones():
        if c.is_zero():
            continue
        if c not in base_cones:
            marked.add(c)
        elif any(b.filtration(g).line is not None for g in c.generators):
            marked.add(c)
    result = make_divisor(complexes, marked)
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


def _insert_edge(fan: Fan, a: IVec, b: IVec) -> "list[Polyhedron]":
    """Subdivision cells obtained by replacing the origin with a lattice edge.

    The cell on ``c`` is ``b + c`` if ``c`` holds ``d = b - a``, ``a + c`` if it holds ``-d``,
    else ``[a, b] + c``: its vertices and ``c``'s generators are its extreme rays.
    """
    d = tuple(x - y for x, y in zip(b, a))
    cells = []
    for c in fan.maximal_cones:
        ends = [b] if c.contains(d) else [a] if c.contains([-x for x in d]) else [a, b]
        rays = [(*v, 1) for v in ends] + [g + (0,) for g in c.generators]
        cells.append(from_homogenized(_cone_on_rays(rays, fan.ambient_rank + 1)))
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
    return make_divisor(complexes, marked)


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
    """One of the validated worked examples, by name; one object per name."""
    if name == "gr24":
        return gr24_divisor()
    if name == "p1p1_bundle":
        return bundle_rank2(p1p1_bundle())
    if name in ("p2_E", "p2_F"):
        return downgrade(DowngradeInput(p2_projectivized_fan(name[-1])))
    raise ValueError(f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}")
