"""Free ranks of ``A_k`` read off cone counts, with no code shared with the pipeline.

The pipeline and the toric oracle share their quotient maps and Smith forms,
so a fault there moves both together.  Two classical facts need only the
number of cones of each dimension:

- For a complete simplicial fan of rank d, ``A_k`` has free rank h_(d-k),
  where Σ h_i t^(d-i) = Σ f_i (t-1)^(d-i) and f_i counts the cones of
  dimension i (Fulton, *Introduction to Toric Varieties*, §5.2).  The
  h-vector of a complete simplicial fan is symmetric, so this is also h_k.
- For a smooth complete fan, ``A_*`` is torsion-free and the free ranks sum
  to the number of maximal cones (Jurkiewicz–Danilov).

This module reads only ``fan.cones(i)`` and the public ``presentation`` of
the fan's downgrade and ``toric_chow_presentation`` of the fan itself.
"""

import random
from math import comb

from conftest import p1p1_fan, p2_fan, random_complete_fan

from tchow import DowngradeInput, downgrade, presentation, toric_chow_presentation
from tchow.build import p2_projectivized_fan, projectivized_split_fan


def h_vector(fan) -> list[int]:
    """h_0, ..., h_d: the coefficient of t^(d-i) in Σ_j f_j (t-1)^(d-j) is h_i."""
    d = fan.ambient_rank
    f = [len(fan.cones(j)) for j in range(d + 1)]
    return [sum((-1) ** (i - j) * comb(d - j, i - j) * f[j] for j in range(i + 1)) for i in range(d + 1)]


def is_simplicial(fan) -> bool:
    d = fan.ambient_rank
    return all(len(c.generators) == d for c in fan.cones(d))


def det(m) -> int:
    """Integer determinant by cofactor expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * det([row[:j] + row[j + 1 :] for row in m[1:]]) for j in range(len(m)))


def smith_data(fan) -> dict[str, list]:
    """``(free rank, torsion)`` of ``A_0 .. A_d`` from the pipeline (on the downgrade) and the oracle."""
    d = fan.ambient_rank
    x = downgrade(DowngradeInput(fan))
    return {
        "pipeline": [presentation(x, k).smith for k in range(d + 1)],
        "oracle": [toric_chow_presentation(fan, k).smith for k in range(d + 1)],
    }


def simplicial_fans():
    """The simplicial ones among seeded random complete fans of rank 3 and 4."""
    for base, rank, count in ((500, 3, 48), (1000, 4, 24)):
        for s in range(count):
            fan = random_complete_fan(random.Random(base + s), rank, 5)
            if is_simplicial(fan):
                yield f"Random({base + s}), rank {rank}", fan


def smooth_fans():
    """Both p2 fans and split P^1-bundles over P^1 x P^1 and P^2 with several twists."""
    yield "p2_E", p2_projectivized_fan("E")
    yield "p2_F", p2_projectivized_fan("F")
    twists = {
        "P1xP1": (p1p1_fan, [{}, {(1, 0): 1}, {(1, 0): 2, (0, 1): -1}, {(-1, 0): 3, (0, -1): 1}]),
        "P2": (p2_fan, [{}, {(1, 0): 2}, {(0, 1): 1, (-1, -1): 3}]),
    }
    for name, (base, base_twists) in twists.items():
        for twist in base_twists:
            yield f"P(O + O(D)) over {name}, twist {twist}", projectivized_split_fan(base(), twist)


def test_free_ranks_are_the_h_vector_on_simplicial_fans():
    checked = 0
    for name, fan in simplicial_fans():
        h = h_vector(fan)
        assert h == h[::-1], (name, h)
        for side, groups in smith_data(fan).items():
            assert [rank for rank, _ in groups] == h[::-1], (name, side, groups, h)
        checked += 1
    assert checked >= 20, checked


def test_smooth_fans_have_free_chow_groups_of_total_rank_the_maximal_cones():
    checked = 0
    for name, fan in smooth_fans():
        d = fan.ambient_rank
        maximal = fan.cones(d)
        assert all(len(c.generators) == d and abs(det([list(g) for g in c.generators])) == 1 for c in maximal), name
        h = h_vector(fan)
        for side, groups in smith_data(fan).items():
            assert all(torsion == () for _, torsion in groups), (name, side, groups)
            assert sum(rank for rank, _ in groups) == len(maximal), (name, side, groups)
            assert [rank for rank, _ in groups] == h[::-1], (name, side, groups, h)
        checked += 1
    assert checked >= 5, checked
