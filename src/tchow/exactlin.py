"""Exact integer and rational linear algebra.

All arithmetic is done with arbitrary-precision ints; nothing here ever
rounds.  Every elimination is fraction-free: Hermite and Smith forms by
integer row and column operations, determinants and inverses by Bareiss
elimination.  The Smith form serves the Chow presentation alone and keeps
only its row transform, which gives the class map.  ``fractions.Fraction``
appears only where :func:`primitive` clears the denominators of a rational
vector.  A lattice is given by its canonical row-HNF basis, a tuple of
integer vectors.  Matrices are plain lists of rows, vectors are tuples, so
every value is hashable once frozen into a tuple.  A quotient by a span is
one integer matrix, :func:`quotient_matrix`, whose columns are the basis
characters: the coordinates of an image are its pairings with them, so no
character is ever solved for.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm

IVec = tuple[int, ...]


def dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise ValueError("dimension mismatch in dot product")
    return sum(a * b for a, b in zip(u, v))


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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
        mi, mj = m[i], m[j]
        for c in range(len(mi)):
            mi[c] -= q * mj[c]


def hnf(m: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Row Hermite normal form.

    Returns ``(h, u)`` with ``u`` unimodular and ``u @ m == h``.  ``h`` is in
    row echelon form with positive pivots; entries above a pivot are reduced
    into ``[0, pivot)``.
    """
    nr = len(m)
    nc = len(m[0]) if nr else 0
    h = [list(map(int, row)) for row in m]
    u = identity_matrix(nr)
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
                u[row], u[piv] = u[piv], u[row]
            clean = True
            for i in range(row + 1, nr):
                if h[i][col] != 0:
                    q = h[i][col] // h[row][col]
                    _row_sub(h, i, row, q)
                    _row_sub(u, i, row, q)
                    if h[i][col] != 0:
                        clean = False
            if clean:
                break
        if h[row][col] != 0:
            if h[row][col] < 0:
                h[row] = [-x for x in h[row]]
                u[row] = [-x for x in u[row]]
            for i in range(row):
                q = h[i][col] // h[row][col]
                _row_sub(h, i, row, q)
                _row_sub(u, i, row, q)
            row += 1
    return h, u


def hnf_basis(rows: Sequence[Sequence[int]]) -> tuple[IVec, ...]:
    """Canonical HNF basis of the integer row span (zero rows dropped)."""
    if not rows:
        return ()
    h, _ = hnf(rows)
    return tuple(tuple(r) for r in h if any(x != 0 for x in r))


def snf_transforms(m: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Smith normal form with its row transform: returns ``(u, d)``.

    ``u`` is unimodular and ``d`` is diagonal with nonnegative entries
    satisfying ``d[i] | d[i+1]``, and ``u@m@v == d`` for some unimodular
    ``v``, which is not built: column operations touch ``d`` alone.
    """
    nr = len(m)
    nc = len(m[0]) if nr else 0
    d = [list(map(int, row)) for row in m]
    u = identity_matrix(nr)

    def col_sub(j: int, t: int, q: int) -> None:
        if q:
            for r in range(nr):
                d[r][j] -= q * d[r][t]

    def col_swap(j: int, t: int) -> None:
        for r in range(nr):
            d[r][j], d[r][t] = d[r][t], d[r][j]

    t = 0
    while t < min(nr, nc):
        entries = [
            (abs(d[i][j]), i, j)
            for i in range(t, nr)
            for j in range(t, nc)
            if d[i][j] != 0
        ]
        if not entries:
            break
        _, pi, pj = min(entries)
        if pi != t:
            d[pi], d[t] = d[t], d[pi]
            u[pi], u[t] = u[t], u[pi]
        if pj != t:
            col_swap(pj, t)
        dirty = False
        for i in range(t + 1, nr):
            if d[i][t] != 0:
                q = d[i][t] // d[t][t]
                _row_sub(d, i, t, q)
                _row_sub(u, i, t, q)
                if d[i][t] != 0:
                    dirty = True
        for j in range(t + 1, nc):
            if d[t][j] != 0:
                q = d[t][j] // d[t][t]
                col_sub(j, t, q)
                if d[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        pivot = d[t][t]
        off = next(
            (
                (i, j)
                for i in range(t + 1, nr)
                for j in range(t + 1, nc)
                if d[i][j] % pivot != 0
            ),
            None,
        )
        if off is not None:
            i, _ = off
            _row_sub(d, t, i, -1)
            _row_sub(u, t, i, -1)
            continue
        if pivot < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return u, d


def primitive(v: Sequence) -> tuple[IVec, int]:
    """Clear denominators: ``(w, mu)`` with ``w = mu*v`` and ``mu`` minimal.

    For ``v = 0`` returns ``(0, 1)``.  ``mu`` is the multiplicity of ``v`` as
    a rational point: the smallest positive integer making it a lattice point.
    An integer vector is returned as it is, without going through Fractions.
    """
    v = tuple(v)
    if all(type(x) is int for x in v):
        return v, 1
    fv = [Fraction(x) for x in v]
    mu = lcm(*(f.denominator for f in fv))
    return tuple(f.numerator * (mu // f.denominator) for f in fv), mu


def primitive_direction(v: Sequence) -> IVec:
    """Primitive lattice vector on the ray through ``v`` (0 maps to 0)."""
    w, _ = primitive(v)
    g = gcd(*(abs(x) for x in w)) if any(w) else 1
    return tuple(x // (g or 1) for x in w)


def integer_kernel(rows: Sequence[Sequence[int]], ncols: int) -> tuple[IVec, ...]:
    """HNF basis of ``{x in Z^ncols : <x, r> = 0 for every row r}``.

    The result is saturated: it is the full lattice of integer solutions.
    """
    if not rows:
        return hnf_basis(identity_matrix(ncols))
    at = [[row[i] for row in rows] for i in range(ncols)]
    h, u = hnf(at)
    kernel = [u[i] for i in range(ncols) if all(x == 0 for x in h[i])]
    return hnf_basis(kernel)


def perp_lattice(span_basis: Sequence[Sequence], ambient_rank: int) -> tuple[IVec, ...]:
    """The saturated lattice ``{m in Z^n : <m, v> = 0 for all spanning v}``, as an HNF basis."""
    int_rows = []
    for v in span_basis:
        w, _ = primitive(v)
        if any(w):
            int_rows.append(list(w))
    return integer_kernel(int_rows, ambient_rank)


def quotient_matrix(span_rows: Sequence[Sequence], ambient_rank: int) -> list[list[int]]:
    """Integer matrix ``P`` (n x q) realizing the projection ``N -> N/span``.

    Its columns are the HNF basis of :func:`perp_lattice` of ``span_rows``,
    one lattice kernel.  That lattice is saturated, so ``x -> x @ P`` sends
    ``Z^n`` onto ``Z^q`` with kernel exactly the rational span of
    ``span_rows``; ``q = n - dim(span)``.
    """
    basis = perp_lattice(span_rows, ambient_rank)
    return [[b[i] for b in basis] for i in range(ambient_rank)]


def project(p_matrix: Sequence[Sequence[int]], x: Sequence) -> tuple:
    """Apply a quotient matrix: image of row vector ``x``."""
    cols = len(p_matrix[0]) if p_matrix else 0
    return tuple(sum(x[i] * p_matrix[i][j] for i in range(len(x))) for j in range(cols))
