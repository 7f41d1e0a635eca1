"""Exact linear algebra over the integers and rationals.

Matrices are plain lists of rows of Python ints (or Fractions where noted).
Everything here is exact; no floating point. Sizes are small (a few dozen
rows at most), so clarity wins over asymptotics, except that `det` uses
Bareiss elimination to keep intermediate entries polynomial in size.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

IntMatrix = list[list[int]]


def det(rows: IntMatrix) -> int:
    """Determinant of a square integer matrix (Bareiss, fraction-free)."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    if any(len(r) != n for r in a):
        raise ValueError("matrix is not square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


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


def solve_rational(rows: IntMatrix, rhs: list[int]) -> list[Fraction] | None:
    """Solve A x = b exactly over Q; None if A is singular."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [a[i][n] for i in range(n)]


def scaled_inverse(rows: IntMatrix) -> tuple[IntMatrix, int] | None:
    """Return (A, D) with A @ rows == D * I, D = |det(rows)| > 0.

    A is the adjugate up to sign, so all entries are integers. Returns None
    for singular input. Used as a precomputed membership kernel: the solution
    of rows @ x = b is A @ b / D, and its sign pattern is that of A @ b.
    """
    n = len(rows)
    d0 = det(rows)
    if d0 == 0:
        return None
    a = [[Fraction(x) for x in row] for row in rows]
    inv = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        inv[i][i] = Fraction(1)
    for col in range(n):
        piv = next(i for i in range(col, n) if a[i][col])
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        f = 1 / a[col][col]
        a[col] = [x * f for x in a[col]]
        inv[col] = [x * f for x in inv[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
                inv[i] = [x - f * y for x, y in zip(inv[i], inv[col])]
    scale = abs(d0)
    out: IntMatrix = []
    for row in inv:
        scaled = [x * scale for x in row]
        if any(x.denominator != 1 for x in scaled):
            raise ArithmeticError("scaled inverse is not integral")
        out.append([int(x) for x in scaled])
    return out, scale


def diagonalize_lattice_basis(rows: IntMatrix) -> tuple[list[int], IntMatrix]:
    """Smith normal form data for a nonsingular integer matrix U.

    Returns (diag, T) where S * U * T = diag(diag) for unimodular S, T.
    Only the right transform T is needed by callers: the columns of
    U generate a finite-index sublattice of Z^n, the quotient group is
    the direct sum of Z/diag[i], and the solution of U x = r_lift for a
    residue tuple r is sum_i (r_i / diag[i]) * T[:, i].
    """
    # sympy is imported lazily: it costs ~0.3 s and only this kernel needs it.
    from sympy import ZZ
    from sympy.matrices import Matrix
    from sympy.matrices.normalforms import smith_normal_decomp

    n = len(rows)
    snf, _s, t = smith_normal_decomp(Matrix(rows), domain=ZZ)
    diag = [int(snf[i, i]) for i in range(n)]
    if any(x == 0 for x in diag):
        raise ValueError("matrix is singular")
    t_rows = [[int(t[i, j]) for j in range(n)] for i in range(n)]
    return diag, t_rows
