"""Exact linear algebra over the integers and rationals.

Matrices are plain lists of rows of Python ints; no floating point.
`det`, `solve_rational` and `scaled_inverse` share one fraction-free
(Bareiss) Gauss-Jordan elimination, whose entries stay minors of the input.
Only `solve_rational` builds Fractions, and it imports `fractions` itself,
so a process that never calls it skips that import.
"""

from __future__ import annotations

from math import gcd
from operator import mul

IntMatrix = list[list[int]]


def _eliminate(rows: IntMatrix, rhs: IntMatrix) -> tuple[int, IntMatrix | None]:
    """(det, X) with rows @ X == det * rhs; (0, None) for singular rows.

    Fraction-free Gauss-Jordan on [rows | rhs]: column k is cleared by the
    first row at or below k that is nonzero there, swapped up to row k.
    Each other row is scaled by that pivot, loses its column-k multiple of
    the pivot row and is divided exactly by the previous pivot. That leaves
    p on the diagonal and 0 elsewhere in columns 0..k, for the pivot p, so
    only the columns past k are computed, in place. The left block ends as
    p * I, where p is the determinant of the row-permuted matrix, so the
    right block is p * rows^-1 @ rhs.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    a = [[*r, *b] for r, b in zip(rows, rhs)]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0, None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pr = a[k]
        p, tail = pr[k], pr[k + 1 :]
        for row in a:
            if row is pr:
                continue
            f = row[k]
            if f:
                row[k + 1 :] = [(p * x - f * y) // prev for x, y in zip(row[k + 1 :], tail)]
            elif p != prev:  # a row with 0 in column k is only rescaled
                row[k + 1 :] = [p * x // prev for x in row[k + 1 :]]
        prev = p
    return sign * prev, [[sign * x for x in row[n:]] for row in a]


def det(rows: IntMatrix) -> int:
    """Determinant of a square integer matrix."""
    return _eliminate(rows, [[] for _ in rows])[0]


def _reduce_by_gcd(row: list[int]) -> list[int]:
    g = 0
    for x in row:
        g = gcd(g, x)
        if g == 1:
            return row
    return row if g <= 1 else [x // g for x in row]


class EchelonBasis:
    """Incremental integer row-echelon basis; tracks the rank of inserted rows.

    Rows are reduced against the current basis with cross-multiplication
    (no division), then gcd-normalized to keep entries small.
    """

    def __init__(self) -> None:
        self._rows: list[tuple[int, list[int]]] = []  # (pivot column, row)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def insert(self, row: list[int]) -> bool:
        """Reduce `row` against the basis; add it if independent."""
        row = list(row)
        for pivot, base in self._rows:
            if row[pivot]:
                f, g = row[pivot], base[pivot]
                row = [x * g - f * y for x, y in zip(row, base)]
        for j, x in enumerate(row):
            if x:
                self._rows.append((j, _reduce_by_gcd(row)))
                self._rows.sort(key=lambda t: t[0])
                return True
        return False


def solve_rational(rows: IntMatrix, rhs: list[int]):
    """Solve A x = b exactly over Q as a list of Fractions; None if A is singular."""
    from fractions import Fraction  # here: no result path needs the module

    d, x = _eliminate(rows, [[b] for b in rhs])
    return None if x is None else [Fraction(row[0], d) for row in x]


def scaled_inverse(rows: IntMatrix) -> tuple[IntMatrix, int] | None:
    """Return (A, D) with A @ rows == D * I, D = |det(rows)| > 0.

    A is the adjugate up to sign, so all entries are integers. Returns None
    for singular input. The solution of rows @ x = b is A @ b / D, and the
    columns of A span the cone {x : rows @ x >= 0} when rows are independent.
    """
    n = len(rows)
    d, x = _eliminate(rows, [[int(i == j) for j in range(n)] for i in range(n)])
    if x is None:
        return None
    if d < 0:
        d, x = -d, [[-v for v in row] for row in x]
    cols = list(zip(*rows))
    if any(sum(map(mul, row, col)) != (d if i == j else 0)
           for i, row in enumerate(x) for j, col in enumerate(cols)):
        raise ArithmeticError("scaled inverse fails A @ rows == D * I")
    return x, d


def diagonalize_lattice_basis(rows: IntMatrix) -> tuple[list[int], IntMatrix]:
    """A diagonal form of a nonsingular integer matrix U.

    Returns (diag, T) with S * U * T = diag(diag), S and T unimodular and
    every diag[i] > 0; only T is tracked. The columns of U generate a
    sublattice of Z^n whose quotient is the direct sum of the Z/diag[i], and
    the solution of U x = r_lift for a residue tuple r is
    sum_i (r_i / diag[i]) * T[:, i]. That needs no divisibility chain, so
    this is not the Smith normal form. Each pass moves an entry of least
    absolute value in the trailing block to the pivot and reduces the pivot
    row and column by it; nonzero remainders are smaller, so passes end.
    """
    n = len(rows)
    a = [list(r) for r in rows]
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(n):
        while True:
            entries = [(abs(a[i][j]), i, j) for i in range(k, n) for j in range(k, n) if a[i][j]]
            if not entries:
                raise ValueError("matrix is singular")
            _, pi, pj = min(entries)
            a[k], a[pi] = a[pi], a[k]
            s = -1 if a[k][pj] < 0 else 1  # keeps the pivot positive
            for row in a + t:
                row[pj], row[k] = row[k], s * row[pj]
            p = a[k][k]
            for j in range(k + 1, n):
                q = a[k][j] // p
                if q:
                    for row in a + t:
                        row[j] -= q * row[k]
            for i in range(k + 1, n):
                q = a[i][k] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[k])]
            if not any(a[k][k + 1 :]) and not any(a[i][k] for i in range(k + 1, n)):
                break
    return [a[k][k] for k in range(n)], t
