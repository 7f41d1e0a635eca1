"""Direct tests of the exact linear algebra against independent oracles.

`conftest._solve_gauss` (plain Fraction Gauss-Jordan) is the reference
for the fraction-free elimination; the diagonal form is checked through
the identities its callers rely on.
"""

import random
from fractions import Fraction
from math import prod

import pytest
from conftest import _solve_gauss

from ehrstar import intlinalg
from ehrstar.intlinalg import det, diagonalize_lattice_basis, scaled_inverse, solve_rational


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _random_matrices(seed, count=40):
    """Seeded square matrices, n <= 7, about a quarter of them singular."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 7)
        bound = rng.choice([1, 3, 50])
        m = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.25:  # a dependent row makes it singular
            i, j = rng.sample(range(n), 2)
            f = rng.randint(-2, 2)
            m[i] = [f * x for x in m[j]]
        out.append(m)
    return out


def _oracle_det(m):
    """Product of the pivots of Fraction elimination."""
    a = [list(map(Fraction, row)) for row in m]
    n, out = len(a), Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            out = -out
        out *= a[col][col]
        for i in range(col + 1, n):
            f = a[i][col] / a[col][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return int(out)


def _identity(n, scale=1):
    return [[scale * int(i == j) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("seed", range(5))
def test_det_solve_and_inverse_match_the_fraction_oracle(seed):
    rng = random.Random(100 + seed)
    for m in _random_matrices(seed):
        n = len(m)
        d = det(m)
        assert d == _oracle_det(m)
        rhs = [rng.randint(-20, 20) for _ in range(n)]
        expected = _solve_gauss([row + [b] for row, b in zip(m, rhs)])
        assert solve_rational(m, rhs) == expected
        assert (expected is None) == (d == 0)
        result = scaled_inverse(m)
        if d == 0:
            assert result is None
            continue
        a, scale = result
        assert scale == abs(d)
        assert _matmul(a, m) == _identity(n, scale)
        for j in range(n):  # column j of the inverse is the solution for e_j
            unit = [int(i == j) for i in range(n)]
            column = [Fraction(row[j], scale) for row in a]
            assert column == _solve_gauss([row + [u] for row, u in zip(m, unit)])


def _oracle_inverse(m):
    """(det, inverse) of Fraction Gauss-Jordan on [m | I]; (0, None) if singular."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    out = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            return 0, None
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            out = -out
        p = a[col][col]
        out *= p
        a[col] = [x / p for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return int(out), [row[n:] for row in a]


def _elimination_cases(seed):
    """Seeded square matrices of n = 1..8 with entries up to 2^70: dense ones,
    singular ones (a row a combination of two others), and ones whose leading
    minors vanish, so that the elimination swaps rows."""
    rng = random.Random(seed)
    for n in range(1, 9):
        for bound in (1, 9, 2**20, 2**70):
            m = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
            yield m
            if n > 1:
                i, j, k = (rng.sample(range(n), 3) if n > 2 else [0, 1, 1])
                f, g = rng.randint(-3, 3), rng.randint(-3, 3)
                yield [[f * x + g * y for x, y in zip(m[j], m[k])] if r == i else row
                       for r, row in enumerate(m)]
                # lower triangular with a nonzero diagonal, rows shuffled: the
                # first pivot is zero unless row 0 stays on top
                low = [[rng.randint(-bound, bound) if c < r else (rng.choice((-1, 1)) * rng.randint(1, bound)
                        if c == r else 0) for c in range(n)] for r in range(n)]
                rng.shuffle(low)
                yield low


@pytest.mark.parametrize("seed", range(4))
def test_elimination_matches_fraction_gauss_jordan(seed):
    seen = {"singular": 0, "swapped": 0}
    for m in _elimination_cases(seed):
        d, inverse = _oracle_inverse(m)
        assert det(m) == d
        result = scaled_inverse(m)
        if d == 0:
            assert result is None
            seen["singular"] += 1
            continue
        seen["swapped"] += m[0][0] == 0
        a, scale = result
        assert scale == abs(d)
        assert a == [[int(scale * x) for x in row] for row in inverse]
    assert all(seen.values()), seen


def test_scaled_inverse_checks_its_product(monkeypatch):
    eliminate = intlinalg._eliminate

    def first_entry_off_by_one(rows, rhs):
        d, x = eliminate(rows, rhs)
        return d, [[x[0][0] + 1, *x[0][1:]], *x[1:]]

    monkeypatch.setattr(intlinalg, "_eliminate", first_entry_off_by_one)
    with pytest.raises(ArithmeticError) as excinfo:
        scaled_inverse([[2, 1], [1, 1]])
    assert str(excinfo.value) == "scaled inverse fails A @ rows == D * I"


def test_det_edge_cases():
    assert det([]) == 1
    assert det([[-7]]) == -7
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[0, 0], [0, 5]]) == 0
    with pytest.raises(ValueError):
        det([[1, 2, 3], [4, 5, 6]])


@pytest.mark.parametrize("seed", range(5))
def test_diagonal_form_identities(seed):
    for u in _random_matrices(seed):
        n = len(u)
        d = det(u)
        if d == 0:
            with pytest.raises(ValueError):
                diagonalize_lattice_basis(u)
            continue
        diag, t = diagonalize_lattice_basis(u)
        assert len(diag) == n and all(x > 0 for x in diag)
        assert abs(det(t)) == 1
        ut = _matmul(u, t)
        for j, dj in enumerate(diag):
            assert all(row[j] % dj == 0 for row in ut)
        assert prod(diag) == abs(d)


def test_diagonal_form_of_the_spiked_simplex():
    # homogenized vertices of conv{0, e_1, e_2, (1, 3, 5)}: volume 5
    u = [[0, 1, 0, 1], [0, 0, 1, 3], [0, 0, 0, 5], [1, 1, 1, 1]]
    diag, t = diagonalize_lattice_basis(u)
    assert sorted(diag) == [1, 1, 1, 5]
    assert abs(det(t)) == 1
