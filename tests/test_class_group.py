"""The class group of a complexity-one variety, read off its divisor alone.

For a marked fansy divisor of rank n the variety X has dimension n + 1, so
``A_n(X)`` is the class group ``Cl(X)``.  It has a presentation from the
divisor's data that shares no code with the pipeline (Petersen & Süß,
*Torus invariant divisors*, Israel J. Math. 182, 2011; Altmann, Hausen &
Süß, *Gluing affine torus actions via divisorial fans*, 2008):

- the invariant prime divisors are one ``D_(p,v)`` per vertex ``v`` of the
  fiber over each point ``p``, and one ``D_rho`` per unmarked ray ``rho`` of
  the tail fan;
- the character ``u`` (a basis vector of ``Z^n``) has the divisor
  ``sum mu(v) <u, v> D_(p,v) + sum <u, rho> D_rho``, where ``mu(v)`` is the
  least positive integer making ``mu(v) v`` integral;
- a rational function on the base line with a zero at ``p`` and a pole at
  ``q`` has the divisor ``sum_v mu(v) D_(p,v) - sum_v mu(v) D_(q,v)``, and
  the consecutive points of the divisor give a basis of these relations.

The Smith form is ``conftest.reference_snf_transforms``.  The inputs are the
fixtures, seeded bundles, seeded rank-3 and rank-4 downgrades, and downgrades
of sublattice fans, which carry the torsion.  On each, ``A_0`` and
``A_(n+1)`` are also ``Z``: every fixed point is joined to the others by
invariant rational curves, and ``A_(n+1)`` is the fundamental class.
"""

import random
from fractions import Fraction
from math import lcm

import pytest
from conftest import SUBLATTICE_MATRICES, random_complete_fan, reference_snf_transforms, sublattice_fan
from test_poincare_duality import smooth_input

from tchow import DowngradeInput, downgrade, fixture, presentation
from tchow.build import FIXTURE_NAMES

BUNDLES = 30
RANK3, RANK4, SUBLATTICE = 40, 8, 15
INPUTS = (
    list(FIXTURE_NAMES)
    + [f"bundle{s}" for s in range(BUNDLES)]
    + [f"rank3_{s}" for s in range(RANK3)]
    + [f"rank4_{s}" for s in range(RANK4)]
    + [f"sublattice{s}_{m}" for s in range(SUBLATTICE) for m in range(len(SUBLATTICE_MATRICES))]
)


def divisor(name):
    """A fixture; ``bundle<s>``; a downgrade ``rank3_<s>`` or ``rank4_<s>``; or ``sublattice<s>_<m>``."""
    if name in FIXTURE_NAMES:
        return fixture(name)
    if name.startswith("bundle"):
        return smooth_input(name)
    kind, s = name.split("_", 1)
    if kind == "rank3":
        fan = random_complete_fan(random.Random(2000 + int(s)), 3, 5)
    elif kind == "rank4":
        fan = random_complete_fan(random.Random(3000 + int(s)), 4, 4)
    else:
        seed, m = int(kind[len("sublattice") :]), int(s)
        fan = sublattice_fan(random_complete_fan(random.Random(4000 + seed), 3, 3), SUBLATTICE_MATRICES[m])
    return downgrade(DowngradeInput(fan))


def mu(v) -> int:
    return lcm(*(Fraction(c).denominator for c in v))


def class_group(x) -> tuple[int, tuple[int, ...]]:
    """``(free rank, torsion)`` of ``Cl(X)`` from the prime divisors and their relations."""
    n = x.rank
    vertices = [
        (p, v)
        for p, s in zip(x.points, x.complexes)
        for v in sorted({v for cell in s.maximal_cells for v in cell.vertices})
    ]
    rays = [c.generators[0] for c in x.tailfan.cones(1) if not x.is_marked(c)]
    scaled = [[mu(v) * Fraction(c) for c in v] for _, v in vertices]
    assert all(c.denominator == 1 for w in scaled for c in w)
    rows = [[int(w[i]) for w in scaled] + [rho[i] for rho in rays] for i in range(n)]
    for p, q in zip(x.points, x.points[1:]):
        rows.append([mu(v) * ((a == p) - (a == q)) for a, v in vertices] + [0] * len(rays))
    _, d, _ = reference_snf_transforms(rows)
    diag = [d[i][i] for i in range(min(len(rows), len(rows[0])))]
    nonzero = [e for e in diag if e]
    return len(rows[0]) - len(nonzero), tuple(e for e in nonzero if e > 1)


def test_the_corpus_is_large_and_has_torsion():
    torsion = [name for name in INPUTS if class_group(divisor(name))[1]]
    assert len(INPUTS) >= 100 and len(torsion) >= 20, (len(INPUTS), torsion)


@pytest.mark.parametrize("name", INPUTS)
def test_class_group_matches_the_divisor_formula(name):
    x = divisor(name)
    assert presentation(x, x.rank).smith == class_group(x), name
    assert presentation(x, 0).smith == (1, ()), name
    assert presentation(x, x.rank + 1).smith == (1, ()), name
