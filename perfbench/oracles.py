"""Exact oracles for the benchmark, independent of the routes under test.

Everything here is the benchmark's own arithmetic: Python integers and
`math.comb`, plus numpy int64 where the bounds are stated. Nothing calls
into ehrstar, so a wrong answer from the program cannot be confirmed by
the same code that produced it. Every `check_*` function returns None when
the output is right and a short reason string when it is not.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd

import numpy as np

# -- Ehrhart arithmetic on plain integer tuples --------------------------------


def ehr_from_h(h, n: int) -> int:
    """ehr(n) = sum_k h_k C(n + d - k, d)."""
    d = len(h) - 1
    return sum(hk * comb(n + d - k, d) for k, hk in enumerate(h) if n + d - k >= 0)


def counts_from_h(h) -> tuple[int, ...]:
    """ehr(0), ..., ehr(d+1)."""
    return tuple(ehr_from_h(h, n) for n in range(len(h) + 1))


def h_from_counts(counts) -> tuple[int, ...]:
    """h_j = sum_{i<=j} (-1)^i C(d+1, i) ehr(j - i), from ehr(0..d+1)."""
    d = len(counts) - 2
    return tuple(
        sum((-1) ** i * comb(d + 1, i) * counts[j - i] for i in range(j + 1))
        for j in range(d + 1)
    )


def f_from_counts(counts) -> tuple[int, ...]:
    """f_k is the k-th forward difference of ehr(1), ehr(2), ... at n = 1."""
    seq = list(counts[1:])
    out = []
    while seq:
        out.append(seq[0])
        seq = [b - a for a, b in zip(seq, seq[1:])]
    return tuple(out)


def first_dip(entries) -> int | None:
    """Smallest index strictly below some earlier and some later entry."""
    for i in range(1, len(entries) - 1):
        if max(entries[:i]) > entries[i] < max(entries[i + 1 :]):
            return i
    return None


def hibi_holds(h) -> bool:
    """sum_{j<=m+1} h_j >= sum_{j>=d-m} h_j for m = 0..floor(d/2)-1."""
    d = len(h) - 1
    return all(sum(h[: m + 2]) >= sum(h[d - m :]) for m in range(d // 2))


# -- closed forms and independent constructions --------------------------------


def spiked_h_star(w, m: int) -> tuple[int, ...]:
    """h* of conv{0, e_1, ..., e_{d-1}, (w, m)} without any normal form.

    h*_k = #{j in [0, m): ceil((j + sum_i ((-j w_i) mod m)) / m) = k}.
    int64 is exact while m^2 and d*m stay below 2^63.
    """
    if m >= 3_000_000_000:
        raise ValueError("spiked oracle is int64-only; m too large")
    d = len(w) + 1
    j = np.arange(m, dtype=np.int64)
    total = j.copy()
    for wi in w:
        total += (-j * (wi % m)) % m
    heights = (total + m - 1) // m
    return tuple(int(x) for x in np.bincount(heights, minlength=d + 1))


def dilated_simplex_counts(k: int, d: int) -> tuple[int, ...]:
    """ehr(n) of k * Delta_d for n = 0..d+1: C(kn + d, d)."""
    return tuple(comb(k * n + d, d) for n in range(d + 2))


def box_counts(width: int, d: int) -> tuple[int, ...]:
    """ehr(n) of [a, a + width]^d for n = 0..d+1: (n * width + 1)^d."""
    return tuple((n * width + 1) ** d for n in range(d + 2))


def simplex_facet_rows(vertices) -> list[list[int]]:
    """Primitive rows [b, a_1..a_d] with b + a.x >= 0 for each facet.

    Row i is row i of the inverse of the homogenized vertex matrix, i.e.
    the i-th barycentric coordinate, scaled to primitive integers; exact
    Gauss-Jordan over Fractions, independent of the program's solvers.
    """
    d = len(vertices[0])
    n = d + 1
    a = [[Fraction(vertices[c][r]) for c in range(n)] for r in range(d)]
    a.append([Fraction(1)] * n)
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(i for i in range(col, n) if a[i][col])
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        f = a[col][col]
        a[col] = [x / f for x in a[col]]
        inv[col] = [x / f for x in inv[col]]
        for i in range(n):
            if i != col and a[i][col]:
                g = a[i][col]
                a[i] = [x - g * y for x, y in zip(a[i], a[col])]
                inv[i] = [x - g * y for x, y in zip(inv[i], inv[col])]
    rows = []
    for row in inv:
        den = 1
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
        ints = [int(x * den) for x in row]
        g = 0
        for x in ints:
            g = gcd(g, x)
        ints = [x // g for x in ints]
        rows.append([ints[d]] + ints[:d])
    return rows


# -- checks of program outputs ---------------------------------------------------


def check_vectors(h_exp, counts_exp, h, f, counts) -> str | None:
    """h*, f* and counts of one polytope against its true Ehrhart data."""
    if tuple(counts) != tuple(counts_exp):
        return "counts differ from the oracle"
    if tuple(h) != tuple(h_exp):
        return "h* differs from the oracle"
    if tuple(f) != f_from_counts(counts_exp):
        return "f* differs from the oracle"
    return None


def stapledon_d13_holds(h) -> bool:
    """The audit's d = 13 check as documented: h_1 + ... + h_6 >= h_7 + ... + h_13."""
    return sum(h[1:7]) >= sum(h[7:])


def check_audit(h_exp, report) -> str | None:
    """An audit report of a polytope-derived h* against recomputed verdicts.

    Verdicts are recomputed from each check's documented statement; whether
    that statement is a theorem for every polytope is not decided here (see
    `flagged_checks`).
    """
    f_exp = f_from_counts(counts_from_h(h_exp))
    dip = first_dip(f_exp)
    if tuple(report.h.entries) != tuple(h_exp) or tuple(report.f.entries) != f_exp:
        return "audit vectors differ from the oracle"
    if report.unimodal != (dip is None) or report.first_dip != dip:
        return "audit unimodality differs from the oracle"
    verdicts = {r.name: r.holds for r in report.results if r.applicable}
    if verdicts.get("hibi") != hibi_holds(h_exp):
        return "audit Hibi verdict differs from the oracle"
    if len(h_exp) == 14 and verdicts.get("stapledon_d13") != stapledon_d13_holds(h_exp):
        return "audit stapledon_d13 verdict differs from the oracle"
    return None


def flagged_checks(report) -> list[str]:
    """Applicable checks that fail on a polytope-derived h*: the program's bug signal."""
    return [r.name for r in report.results if r.applicable and not r.holds]


# -- spiked-pattern search --------------------------------------------------------


def pattern_count(d: int, windows) -> int:
    """Number of patterns a search over `windows` must scan."""
    if len(windows) == 1:
        (plo, phi, vlo, vhi), = windows
        return max(0, min(phi, d) - plo + 1) * (vhi - vlo + 1)
    (p1lo, p1hi, v1lo, v1hi), (p2lo, p2hi, v2lo, v2hi) = windows
    pairs = sum(
        max(0, min(p2hi, d) - max(p2lo, p1 + 1) + 1) for p1 in range(p1lo, min(p1hi, d) + 1)
    )
    return pairs * (v1hi - v1lo + 1) * (v2hi - v2lo + 1)


def pattern_h(d: int, spikes) -> tuple[int, ...]:
    h = [1] + [0] * d
    for pos, val in spikes:
        h[pos] = val
    return tuple(h)


def pattern_verdict(d: int, spikes) -> int | None:
    """First dip of a pattern that passes the search screen, else None."""
    h = pattern_h(d, spikes)
    dip = first_dip(f_from_counts(counts_from_h(h)))
    if dip is None or not hibi_holds(h):
        return None
    return dip


def _unit_f(d: int) -> np.ndarray:
    """Row p is the f*-vector of the unit h-vector e_p (f is linear in h)."""
    rows = []
    for p in range(d + 1):
        h = [0] * (d + 1)
        h[p] = 1
        rows.append(f_from_counts(counts_from_h(h)))
    return np.array(rows, dtype=np.int64)


def window_candidates(d: int, windows) -> list[tuple[tuple[tuple[int, int], ...], int]]:
    """Every (spikes, first_dip) of a window that the search must report.

    Vectorized over spike values: f = f(e_0) + sum_s v_s f(e_{p_s}). int64
    is exact for the windows the benchmark draws (values below 10^6).
    """
    unit = _unit_f(d)
    out = []
    if len(windows) == 1:
        (plo, phi, vlo, vhi), = windows
        groups = [((p,), np.arange(vlo, vhi + 1, dtype=np.int64)[:, None]) for p in range(plo, min(phi, d) + 1)]
    else:
        (p1lo, p1hi, v1lo, v1hi), (p2lo, p2hi, v2lo, v2hi) = windows
        v1, v2 = np.meshgrid(
            np.arange(v1lo, v1hi + 1, dtype=np.int64),
            np.arange(v2lo, v2hi + 1, dtype=np.int64),
            indexing="ij",
        )
        vals = np.stack([v1.ravel(), v2.ravel()], axis=1)
        groups = [
            ((p1, p2), vals)
            for p1 in range(p1lo, min(p1hi, d) + 1)
            for p2 in range(p2lo, min(p2hi, d) + 1)
            if p2 > p1
        ]
    for positions, vals in groups:
        f = unit[0] + vals @ unit[list(positions)]
        h = np.zeros((len(vals), d + 1), dtype=np.int64)
        h[:, 0] = 1
        for s, p in enumerate(positions):
            h[:, p] = vals[:, s]
        pre = np.maximum.accumulate(f, axis=1)
        suf = np.maximum.accumulate(f[:, ::-1], axis=1)[:, ::-1]
        dips = (pre[:, :-2] > f[:, 1:-1]) & (f[:, 1:-1] < suf[:, 2:])
        cum = np.cumsum(h, axis=1)
        hibi = np.ones(len(vals), dtype=bool)
        for m in range(d // 2):
            hibi &= cum[:, m + 1] >= cum[:, d] - cum[:, d - m - 1]
        keep = dips.any(axis=1) & hibi
        first = dips.argmax(axis=1) + 1
        for r in np.flatnonzero(keep):
            spikes = tuple((p, int(vals[r, s])) for s, p in enumerate(positions))
            out.append((spikes, int(first[r])))
    out.sort()
    return out


def check_search(d: int, windows, outcome, sample) -> str | None:
    """A search outcome against the window oracle.

    Checks the scanned count against its closed form, every reported
    candidate against a scalar recomputation of f* from ehr(n), the whole
    candidate list against the vectorized window oracle (a dropped or
    extra candidate fails), and re-screens `sample`, a list of seeded
    patterns from the window, with the scalar arithmetic.
    """
    if outcome.truncated or outcome.scanned != pattern_count(d, windows):
        return "scanned count differs from the closed form"
    got = []
    for c in outcome.candidates:
        spikes = tuple(tuple(sp) for sp in c.spikes)
        if tuple(c.h.entries) != pattern_h(d, spikes):
            return "candidate h* does not match its spikes"
        if pattern_verdict(d, spikes) != c.first_dip:
            return "candidate fails the scalar recheck"
        got.append((spikes, c.first_dip))
    expected = window_candidates(d, windows)
    if got != expected:
        return f"candidate list differs from the window oracle ({len(got)} vs {len(expected)})"
    reported = {spikes for spikes, _dip in got}
    for spikes in sample:
        if (pattern_verdict(d, spikes) is not None) != (spikes in reported):
            return "re-screened pattern disagrees with the search"
    return None
