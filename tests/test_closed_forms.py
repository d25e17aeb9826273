"""Chow groups of toric varieties whose groups are known in closed form.

Each family is a smooth projective toric variety built from a product of
projective spaces, so its Chow groups are free (Fulton, *Introduction to
Toric Varieties*, 1993, sec. 5.2):

- ``P^n``: ``A_k ≅ Z`` for every k;
- ``(P^1)^n``: ``rank A_k = C(n, k)``;
- ``P^a x P^b``: ``rank A_k`` is the number of ``i + j = k`` with
  ``i <= a`` and ``j <= b``, by Künneth for cellular varieties;
- ``P(O + O(a))`` over ``P^m`` (``build.projectivized_split_fan``):
  ``A_k ≅ A_k(P^m) + A_(k-1)(P^m)``, by the projective bundle formula
  (Fulton, *Intersection Theory*, Thm 3.3).

Each fan is read through the library's downgrade, as it is and after one
unimodular basis change that mixes the split coordinate with the others,
and every ``presentation(x, k)`` is compared with the closed form.
"""

from itertools import combinations, product
from math import comb

import pytest

from tchow import DowngradeInput, downgrade, make_cone, make_fan, presentation
from tchow.build import projectivized_split_fan


def unit(n, i, sign=1):
    return tuple(sign * (j == i) for j in range(n))


def projective_space(n):
    rays = [unit(n, i) for i in range(n)] + [(-1,) * n]
    return make_fan([make_cone(c, n) for c in combinations(rays, n)], n)


def p1_power(n):
    return make_fan([make_cone([unit(n, i, s) for i, s in enumerate(signs)], n) for signs in product((1, -1), repeat=n)], n)


def fan_product(a, b):
    """The fan of ``P^a x P^b``: each maximal cone is a product of maximal cones."""
    n = a.ambient_rank + b.ambient_rank
    pad = lambda g, before, after: (0,) * before + g + (0,) * after
    cones = [
        make_cone(
            [pad(g, 0, b.ambient_rank) for g in c.generators] + [pad(g, a.ambient_rank, 0) for g in d.generators],
            n,
        )
        for c in a.maximal_cones
        for d in b.maximal_cones
    ]
    return make_fan(cones, n)


def bundle(m, a):
    """``P(O + O(a))`` over ``P^m``: the first ray of ``P^m`` lifted to height ``a``."""
    return projectivized_split_fan(projective_space(m), {unit(m, 0): a})


# name -> (fan, free rank of A_k for k = 0..dim); (P^1)^1 is P1
FAMILIES = {
    **{f"P{n}": (lambda n=n: projective_space(n), [1] * (n + 1)) for n in range(1, 8)},
    **{f"P1^{n}": (lambda n=n: p1_power(n), [comb(n, k) for k in range(n + 1)]) for n in range(2, 7)},
    "P1xP2": (lambda: fan_product(projective_space(1), projective_space(2)), [1, 2, 2, 1]),
    "P2xP2": (lambda: fan_product(projective_space(2), projective_space(2)), [1, 2, 3, 2, 1]),
    "P(O+O(1)) over P2": (lambda: bundle(2, 1), [1, 2, 2, 1]),
    "P(O+O(2)) over P3": (lambda: bundle(3, 2), [1, 2, 2, 2, 1]),
}


def mixing_basis_change(n):
    """Unimodular: row ``i`` is ``e_i + e_(i-1)``, so the split coordinate becomes ``x_(n-1) + x_n``."""
    return tuple(tuple(int(j == i or j == i - 1) for j in range(n)) for i in range(n))


@pytest.mark.parametrize("mixed", [False, True], ids=["as_built", "basis_change"])
@pytest.mark.parametrize("name", FAMILIES)
def test_chow_groups_match_the_closed_form(name, mixed):
    make, ranks = FAMILIES[name]
    fan = make()
    n = fan.ambient_rank
    assert len(ranks) == n + 1
    x = downgrade(DowngradeInput(fan, mixing_basis_change(n) if mixed else None))
    assert x.rank == n - 1
    assert [presentation(x, k).smith for k in range(n + 1)] == [(r, ()) for r in ranks], name
