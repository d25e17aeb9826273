"""Seeded benchmark inputs, built without importing the program.

The generators mirror the test suite's ``random_complete_fan`` (face fan of a
random lattice polytope around the origin) and ``random_bundle`` (random
rank-two filtrations on a smooth surface fan), but live here so that neither
editing the tests nor changing the program's polyhedral code can move the
workload.

Random fans and bundles differ in cost by a factor of two or more, so a run
drawing a handful of fresh ones per seed had medians that moved 20-40% from
seed to seed.  The combinatorial types therefore come from fixed corpus seeds
(``CORPUS``), and the run seed applies a lattice symmetry and shuffles the
order of cones, generators and filtrations: every seed gives different
documents of the same difficulty.  Every document is plain JSON with integer
coordinates; the digest of the serialised inputs goes into every result.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

FIXTURES = ("gr24", "p1p1_bundle", "p2_E", "p2_F")

P2_FAN = {"rank": 2, "maximal_cones": [[[1, 0], [0, 1]], [[0, 1], [-1, -1]], [[-1, -1], [1, 0]]]}
P1P1_FAN = {
    "rank": 2,
    "maximal_cones": [[[1, 0], [0, 1]], [[0, 1], [-1, 0]], [[-1, 0], [0, -1]], [[0, -1], [1, 0]]],
}


def canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def digest(docs) -> str:
    return hashlib.sha256(canonical(docs)).hexdigest()


def fixture_document(name: str) -> dict:
    """The worked example as the explicit document ``tchow fixture`` emits."""
    return json.loads((DATA / f"{name}.json").read_text())


def projectivized_p2_fan(which: str) -> dict:
    """The rank-3 fans whose downgrades are the p2_E / p2_F fixtures."""
    twist = {"E": {(1, 0): 1}, "F": {(1, 0): 1, (0, 1): 1, (-1, -1): -1}}[which]
    cones = []
    for cone in P2_FAN["maximal_cones"]:
        lifted = [g + [twist.get(tuple(g), 0)] for g in cone]
        cones.append(lifted + [[0, 0, 1]])
        cones.append(lifted + [[0, 0, -1]])
    return {"rank": 3, "maximal_cones": cones}


# ---------------------------------------------------------------------------
# face fans


def _primitive(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v)


def _solve(rows, rhs):
    """Unique solution of a square rational system, or None if singular."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col] / m[col][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return tuple(m[i][n] / m[i][i] for i in range(n))


def _rank(vectors) -> int:
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def face_fan(points, rank: int) -> dict:
    """Fan over the facets of the hull of ``points`` (origin in the interior)."""
    pts = sorted(set(points))
    facets = {}
    for subset in combinations(pts, rank):
        u = _solve(subset, [1] * rank)
        if u is None or u in facets:
            continue
        values = [sum(a * b for a, b in zip(u, p)) for p in pts]
        if all(v <= 1 for v in values):
            facets[u] = [p for p, v in zip(pts, values) if v == 1]
    # keep only polytope vertices: points lying on facets of full normal rank
    normals = {p: [u for u, tight in facets.items() if p in tight] for p in pts}
    vertices = {p for p in pts if normals[p] and _rank(normals[p]) == rank}
    cones = sorted(sorted(list(p) for p in tight if p in vertices) for tight in facets.values())
    return {"rank": rank, "maximal_cones": cones}


def random_complete_fan(rng: random.Random, rank: int, max_extra: int) -> dict:
    """Face fan of the unit cross-polytope plus random primitive lattice points."""
    pts = set()
    for s in (1, -1):
        for i in range(rank):
            v = [0] * rank
            v[i] = s
            pts.add(tuple(v))
    for _ in range(rng.randint(1, max_extra)):
        p = tuple(rng.randint(-3, 3) for _ in range(rank))
        if any(p):
            pts.add(_primitive(p))
    return face_fan(pts, rank)


def random_fan_with_cones(rng: random.Random, rank: int, max_extra: int, cones: range) -> dict:
    """A random complete fan whose number of maximal cones lies in ``cones``."""
    while True:
        fan = random_complete_fan(rng, rank, max_extra)
        if len(fan["maximal_cones"]) in cones:
            return fan


def random_bundle(rng: random.Random, base: dict) -> dict:
    """A ``bundle`` stanza: arbitrary rank-two filtrations on a smooth surface fan."""
    rays = sorted({tuple(g) for cone in base["maximal_cones"] for g in cone})
    filts = []
    for ray in rays:
        a = rng.randint(-2, 2)
        entry = {"ray": list(ray), "full_until": a}
        if rng.random() >= 0.35:
            entry["line"] = rng.choice(["0", "1", "inf"])
            entry["line_until"] = a + rng.randint(1, 2)
        filts.append(entry)
    return {"schema_version": 1, "bundle": {"fan": base, "filtrations": filts}}


def downgrade_document(fan: dict) -> dict:
    return {"schema_version": 1, "downgrade": {"fan": fan}}


# ---------------------------------------------------------------------------
# fixed corpus, seeded symmetries

CORPUS = {"r3": 0, "bundles": 2}


def corpus_r3_fans(picks) -> list:
    """Random rank-3 fans with 10 maximal cones, by index in the corpus stream."""
    rng = random.Random(CORPUS["r3"])
    fans = [random_fan_with_cones(rng, 3, 6, range(10, 11)) for _ in range(max(picks) + 1)]
    return [fans[i] for i in picks]


# Fans 2-5 of the stream cost within 25% of each other; fans 2 and 3 have
# torsion.
R3_PICKS = (2, 3, 4, 5)


def r4_defect_fan() -> dict:
    """A random rank-4 fan with 16 maximal cones on which ``chow`` is wrong.

    Its downgrade's ``A_1`` torsion comes out (3,3,3,6); the toric oracle
    gives (3,3,3,3,6).  It is kept as a fixed document, not relabelled, so
    that every run shows this defect exactly as recorded in
    ``data/expected.json``.
    """
    return json.loads((DATA / "r4_defect_fan.json").read_text())


def corpus_bundles() -> list:
    """One random bundle stanza on each of the P2 and P1 x P1 fans."""
    rng = random.Random(CORPUS["bundles"])
    return [random_bundle(rng, P2_FAN), random_bundle(rng, P1P1_FAN)]


def _shuffled(rng: random.Random, items) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def relabel_fan(rng: random.Random, fan: dict) -> dict:
    """Signed permutation of all but the last coordinate, cones and rays shuffled.

    It commutes with forgetting the last coordinate, so the downgrade is
    isomorphic and the class groups are unchanged.
    """
    n = fan["rank"]
    perm = _shuffled(rng, range(n - 1))
    signs = [rng.choice((1, -1)) for _ in range(n - 1)]

    def move(v):
        return [signs[i] * v[perm[i]] for i in range(n - 1)] + [v[-1]]

    cones = [_shuffled(rng, [move(g) for g in cone]) for cone in fan["maximal_cones"]]
    return {"rank": n, "maximal_cones": _shuffled(rng, cones)}


def _fan_automorphisms(fan: dict) -> list:
    rays = {tuple(g) for cone in fan["maximal_cones"] for g in cone}
    found = []
    for a, b, c, d in product((-1, 0, 1), repeat=4):
        if a * d - b * c in (1, -1) and {(a * x + b * y, c * x + d * y) for x, y in rays} == rays:
            found.append(((a, b), (c, d)))
    return found


def relabel_bundle(rng: random.Random, doc: dict) -> dict:
    """A symmetry of the base fan, the special points renamed, entries shuffled."""
    stanza = doc["bundle"]
    (a, b), (c, d) = rng.choice(_fan_automorphisms(stanza["fan"]))
    labels = dict(zip(("0", "1", "inf"), _shuffled(rng, ("0", "1", "inf"))))

    def move(v):
        return [a * v[0] + b * v[1], c * v[0] + d * v[1]]

    base = {
        "rank": 2,
        "maximal_cones": _shuffled(rng, [_shuffled(rng, [move(g) for g in cone]) for cone in stanza["fan"]["maximal_cones"]]),
    }
    filts = []
    for entry in _shuffled(rng, stanza["filtrations"]):
        entry = dict(entry, ray=move(entry["ray"]))
        if "line" in entry:
            entry["line"] = labels[entry["line"]]
        filts.append(entry)
    return {"schema_version": 1, "bundle": {"fan": base, "filtrations": filts}}
