"""Exact integer and rational linear algebra.

All arithmetic is done with arbitrary-precision ints; nothing here ever
rounds.  Every elimination is fraction-free: Hermite and Smith forms by
integer row and column operations, determinants and inverses by Bareiss
elimination.  The Smith form serves the Chow presentation alone and keeps
only its row transform, which gives the class map; the Hermite form keeps
none, and a kernel is read off the Hermite form of ``[rows^T | I]``.
``fractions`` is imported only for a proper fraction: :func:`ratio` makes
one, and :func:`primitive` reads it back.  A lattice is given by its
canonical row-HNF basis, a tuple of integer vectors.  Matrices are lists of
rows and vectors are tuples, so a value is hashable once frozen into a
tuple.  The quotient of ``Z^n`` by a cone's span is read through the basis
characters of one :func:`integer_kernel`, the cone's span equations (a
facet of a full-dimensional cone takes none: its one character is its
normal): an image's coordinates are its pairings with them, so no
character is ever solved for.  Inner loops run in builtins where faster: a
pairing is ``sum(map(mul, u, v))``, a Smith column step is one ``zip``
comprehension per row, and a row operation skips the zeros of the row it
subtracts.  The Smith form pivots on a ±1 where there is one, with no
divisibility scan after it.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd, lcm
from operator import mul

IVec = tuple[int, ...]


def dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise ValueError("dimension mismatch in dot product")
    return sum(map(mul, u, v))


def identity_matrix(n: int) -> list[list[int]]:
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def mat_vec(a: Sequence[Sequence], v: Sequence) -> tuple:
    return tuple(dot(row, v) for row in a)


def det(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    try:
        return bareiss_inverse(m)[0]
    except ValueError:  # singular
        return 0


def bareiss_inverse(m: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """``(det(m), det(m) * m^-1)`` of a nonsingular square integer matrix.

    Fraction-free Gauss–Jordan elimination of ``[m | I]`` (Bareiss 1968):
    every division is exact, so every entry stays an integer.  Raises
    ValueError when ``m`` is singular.
    """
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        ak = a[k]
        p = ak[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], ak)]
        prev = p
    return sign * prev, [[sign * x for x in row[n:]] for row in a]


def _row_sub(m: list[list[int]], i: int, j: int, q: int) -> None:
    if q:
        mi = m[i]
        for c, b in enumerate(m[j]):
            if b:
                mi[c] -= q * b


def hnf(m: Sequence[Sequence[int]]) -> list[list[int]]:
    """Row Hermite normal form of ``m``, with the same row lattice.

    In row echelon form with positive pivots; entries above a pivot are
    reduced into ``[0, pivot)``.
    """
    nr = len(m)
    nc = len(m[0]) if nr else 0
    h = [list(map(int, row)) for row in m]
    row = 0
    for col in range(nc):
        if row == nr:
            break
        while True:
            nz = [i for i in range(row, nr) if h[i][col] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(h[i][col]))
            if piv != row:
                h[row], h[piv] = h[piv], h[row]
            clean = True
            for i in range(row + 1, nr):
                if h[i][col] != 0:
                    _row_sub(h, i, row, h[i][col] // h[row][col])
                    if h[i][col] != 0:
                        clean = False
            if clean:
                break
        if h[row][col] != 0:
            if h[row][col] < 0:
                h[row] = [-x for x in h[row]]
            for i in range(row):
                _row_sub(h, i, row, h[i][col] // h[row][col])
            row += 1
    return h


def hnf_basis(rows: Sequence[Sequence[int]]) -> tuple[IVec, ...]:
    """Canonical HNF basis of the integer row span (zero rows dropped)."""
    if not rows:
        return ()
    return tuple(tuple(r) for r in hnf(rows) if any(r))


def _first_unit(d: list[list[int]], t: int) -> tuple[int, int] | None:
    """``(i, j)`` of the first ±1 of ``d`` with ``i, j >= t``, in row-major order, or None."""
    for i in range(t, len(d)):
        seg = d[i][t:]
        if 1 in seg or -1 in seg:
            return i, t + next(j for j, x in enumerate(seg) if x == 1 or x == -1)
    return None


def snf_transforms(m: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Smith normal form with its row transform: returns ``(u, d)``.

    ``u`` is unimodular and ``d`` is diagonal with nonnegative entries
    satisfying ``d[i] | d[i+1]``, and ``u@m@v == d`` for some unimodular
    ``v``, which is not built: column operations touch ``d`` alone.

    Each step pivots on ``min((abs(d[i][j]), i, j))`` over the block still to
    reduce.  Where the block holds a ±1 that entry is its first ±1 in
    row-major order, which a scan stopping there finds (unit pivots first:
    Dumas, Saunders & Villard 2001); a ±1 divides every entry, so no
    divisibility scan follows it.  Rows above the block are zero on its columns.
    """
    nr = len(m)
    nc = len(m[0]) if nr else 0
    d = [list(map(int, row)) for row in m]
    u = identity_matrix(nr)
    t = 0
    while t < min(nr, nc):
        pivot_at = _first_unit(d, t)
        if pivot_at is None:
            entries = [(abs(x), i, j) for i in range(t, nr) for j, x in enumerate(d[i][t:], t) if x]
            if not entries:
                break
            pivot_at = min(entries)[1:]
        pi, pj = pivot_at
        if pi != t:
            d[pi], d[t] = d[t], d[pi]
            u[pi], u[t] = u[t], u[pi]
        if pj != t:
            for row in d[t:]:
                row[pj], row[t] = row[t], row[pj]
        p = d[t][t]
        dirty = False
        for i in range(t + 1, nr):
            if d[i][t]:
                q = d[i][t] // p
                _row_sub(d, i, t, q)
                _row_sub(u, i, t, q)
                dirty = dirty or d[i][t] != 0
        # every column j > t loses q_j times column t, with q_j read off row t
        top = d[t]
        qs = [x // p for x in top[t + 1 :]]
        if any(qs):
            for row in d[t:]:
                c = row[t]
                if c:
                    row[t + 1 :] = [x - c * q for x, q in zip(row[t + 1 :], qs)]
        if dirty or any(top[t + 1 :]):
            continue
        if abs(p) != 1:
            off = next((i for i in range(t + 1, nr) if any(x % p for x in d[i][t + 1 :])), None)
            if off is not None:
                _row_sub(d, t, off, -1)
                _row_sub(u, t, off, -1)
                continue
        if p < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return u, d


def ratio(num: int, den: int):
    """``num / den``: an ``int`` if ``den`` divides ``num``, else a Fraction (imported then)."""
    q, r = divmod(num, den)
    if not r:
        return q
    from fractions import Fraction

    return Fraction(num, den)


def primitive(v: Sequence) -> tuple[IVec, int]:
    """Clear denominators: ``(w, mu)`` with ``w = mu*v`` and ``mu`` minimal.

    For ``v = 0`` returns ``(0, 1)``.  ``mu`` is the multiplicity of ``v`` as
    a rational point: the smallest positive integer making it a lattice point.
    Entries are ints or Fractions, read by ``.numerator`` and ``.denominator``.
    """
    v = tuple(v)
    if all(type(x) is int for x in v):
        return v, 1
    mu = lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (mu // x.denominator) for x in v), mu


def primitive_direction(v: Sequence) -> IVec:
    """Primitive lattice vector on the ray through ``v`` (0 maps to 0)."""
    w, _ = primitive(v)
    g = gcd(*w)
    return w if g < 2 else tuple(x // g for x in w)


def integer_kernel(rows: Sequence[Sequence[int]], ncols: int) -> tuple[IVec, ...]:
    """HNF basis of ``{x in Z^ncols : <x, r> = 0 for every row r}``.

    Each row has ``ncols`` entries.  The result is saturated.  It is read off
    one Hermite form of ``[rows^T | I]``: the rows whose left part is zero
    hold a basis of the kernel on the right, already in Hermite form.
    """
    m = len(rows)
    h = hnf([[r[i] for r in rows] + e for i, e in enumerate(identity_matrix(ncols))])
    return tuple(tuple(hi[m:]) for hi in h if not any(hi[:m]))


def project(p_matrix: Sequence[Sequence[int]], x: Sequence) -> tuple:
    """The row vector ``x`` times the matrix ``p_matrix``."""
    return tuple(sum(map(mul, x, col)) for col in zip(*p_matrix))
