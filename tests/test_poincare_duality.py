"""Poincaré duality and the fixed-point count on smooth complexity-one inputs.

A smooth complete complexity-one T-variety X of dimension n + 1 (``n`` the
rank) is stratified by products of tori with open subsets of P^1, so it is a
linear variety and ``A_k(X) ⊗ Q ≅ H_2k(X, Q)`` (Totaro, *Chow groups, Chow
cohomology, and linear varieties*, 2014; Fulton, *Intersection Theory*,
Ex. 19.1.11).  Poincaré duality then makes the free ranks symmetric:
``rank A_k = rank A_(n+1-k)``.

Białynicki-Birula's decomposition (1973) makes ``A_*(X)`` free, with total
rank the sum of the Betti numbers of the fixed locus.  A marked maximal tail
cone (a T generator at k = 0) and a maximal cell whose tail is not maximal
(a V generator) are isolated fixed points.  An unmarked maximal tail cone
gives a curve of fixed points, a P^1 with Betti sum 2, and one V generator
at k = 0 over each special point: its cell with that tail.  So the k = 0
generators count the fixed locus's Betti sum exactly when every maximal tail
cone is marked or there are two special points, which the test asserts of
each input before comparing.

The inputs are gr24, the p1p1 bundle fixture and seeded rank-two bundles
over P^2, P^1 x P^1 and a Hirzebruch surface, all smooth.  Only the public
``presentation`` and ``enumerate_generators`` are read.
"""

import random

import pytest
from conftest import p1p1_fan, p2_fan, random_bundle

from tchow import bundle_rank2, enumerate_generators, fixture, make_cone, make_fan, presentation

def hirzebruch_fan():
    cones = ([(1, 0), (0, 1)], [(0, 1), (-1, 1)], [(-1, 1), (0, -1)], [(0, -1), (1, 0)])
    return make_fan([make_cone(c, 2) for c in cones], 2)


BASES = (p2_fan, p1p1_fan, hirzebruch_fan)
INPUTS = ["gr24", "p1p1_bundle"] + [f"bundle{s}" for s in range(60)]


def smooth_input(name):
    """A fixture, or ``bundle<s>``: the seeded bundle ``s`` over the bases in turn."""
    if not name.startswith("bundle"):
        return fixture(name)
    s = int(name[len("bundle") :])
    return bundle_rank2(random_bundle(random.Random(800 + s), BASES[s % 3]()))


@pytest.mark.parametrize("name", INPUTS)
def test_ranks_are_symmetric_free_and_count_the_fixed_points(name):
    x = smooth_input(name)
    fixed_curves = sum(not x.is_marked(c) for c in x.tailfan.cones(x.rank))
    assert not fixed_curves or len(x.points) == 2, name
    press = [presentation(x, k) for k in range(x.rank + 2)]
    ranks = [p.free_rank for p in press]
    assert ranks == ranks[::-1], (name, ranks)
    assert all(p.torsion == () for p in press), (name, [p.torsion for p in press])
    k0_generators = len(enumerate_generators(x, 0).ordered())
    assert sum(ranks) == k0_generators, (name, ranks, k0_generators)
