"""Exact lattice-point counting and h*/f*-vector extraction.

Every input is a `LatticePolytope`, and every entry point takes ehr from
one dispatch, `compute_vectors`: the parallelepiped for a simplex given by
its vertices, else `_counts_through`, by its hint or by its `_scan_plan`:

  * box hints (products of segments): closed-form per-axis counts;
  * pyramid hints: cross-sections of the n-th dilate of a pyramid at
    integer heights t are the (n-t)-th dilates of the base, so the counts
    are iterated partial sums of the base counts;
  * any other polytope, a simplex included: inequality scan of its
    facets over the box of its vertices. A simplex given by d + 1 vertices
    or by d + 1 half-spaces takes both from one scaled inverse of its
    square matrix; every other input from one double-description routine
    (`lattice._extreme_rays`) through `LatticePolytope.double_description`,
    where a half-space list keeps one of its own rows per facet and drops
    the redundant ones.

Hints are trusted to be full-dimensional (a pyramid's base is checked when
its counts are taken); a square matrix that cuts out a lattice simplex is
full-dimensional, and the double description decides it for the rest, so
a rank is computed only to word that error. A profile of a scanned
polytope scans only the dilates n <= ceil(d/2), and of a scanned simplex
only n <= ceil(d/2) - 1, so none at d <= 2: its exact normalized volume
and facet volumes give its two leading coefficients (`_scan_plan`).
Ehrhart-Macdonald reciprocity turns their interior counts into ehr(-n),
and Newton forward differences on the nodes -k..k give the whole
polynomial. The scan is built once per polytope as a plan (`_ScanPlan`):
the box moved to the origin, whose widths give each dilate's size to the
caps, the rows moved with it and sorted, one Fourier-Motzkin step that
eliminates t from them (on the first sliced pass), and each row's bound,
none of which depends on n. Each dilate is then one pass (`_scan_dilate`)
of one of three kernels, chosen by its size and its bound. The pure pass
and the sliced kernel enumerate all box axes but the last two, s and t:
every (point, s) pair counts its t-values as one integer interval, and
its interior t-values from the same floor quotients. The pure pass walks
every pair; the sliced kernel takes only the pairs in the range of s that
the projected rows leave each point. The dense pass of a small box
evaluates every row at every box point. `count_points` evaluates the
h*-vector of `compute_vectors` at n.

The h*-vector of a simplex given by its d + 1 vertices (a polytope whose
`normalized_volume` is set, the simplex generators' output among them) is
computed directly, without any counting, by enumerating the lattice points
of the half-open parallelepiped spanned by the homogenized vertices (see
`box_points_simplex`); a simplex given by its facets is scanned. All
arithmetic is exact: every scan box starts at the origin, numpy runs on
int64 only where a conservative bound proves it, and a pass whose bound
reaches 2^62 walks its box on Python ints (`_pure_pass`).

numpy is imported only when a scan pass of more than `_PURE_SCAN_WORK`
(prefix, s) pairs times rows runs (`_scan_dilate`); a smaller pass walks
its box on Python ints (`_pure_pass`). A numpy pass of at most
`_DENSE_SCAN_CELLS` box points times rows runs `_dense_pass` when its
int64 bound holds, and the sliced kernel otherwise. The parallelepiped
route, the vector conversions, the audit and the search use none of it,
so a process that never scans a larger box skips its import. On a 2-vCPU
Xeon VM, medians of 11 cold runs with no bytecode cache: `compute
--builtin higashitani-15` takes about 0.10 s, and `compute --input` of
2 * (standard 3-simplex) by its 4 facets, one pure pass, 0.10 s instead
of 0.19 s with the numpy kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, product
from operator import mul

from .errors import (
    DEFAULT_COUNT_CAP,
    DEFAULT_VOLUME_CAP,
    CostGuardExceeded,
    InputError,
    VolumeCapExceeded,
    shown,
)
from .intlinalg import _reduce_by_gcd, diagonalize_lattice_basis, scaled_inverse
from .lattice import BoxHint, LatticePolytope, PyramidHint, _homogenized_columns
from .starbasis import FStarVector, HStarVector, eval_ehrhart, f_from_h, h_from_f

_SCAN_CHUNK = 1 << 17
# The numpy passes of `_scan_dilate` run on int64 only below this bound,
# which also caps a scanned box's candidates (`_check_scan_cost`).
_SCAN_KERNEL_LIMIT = 2**62
# `_scan_dilate` runs `_pure_pass` when its work, the (prefix, s) pairs of
# the dilate's box times the input rows, is at most this. That skips the
# numpy import, 100-170 ms of a cold process, but is slower in a warm one:
# timed per pass on the scans of perfbench's hscan workload (15 cycles,
# each pass on a fresh plan, best of 5, three runs, Python 3.11, numpy 2.4,
# a 2-vCPU Xeon VM), the pure pass's median time over the dense pass's was
# 1.5-1.6 at work up to 100, 2.3-2.6 from 101 to 200 and 3.8-3.9 from 201
# to 400. CI's check that `compute` of the octahedron loads no numpy needs
# at least 200: its dilate 2 has work 5 * 5 * 8.
_PURE_SCAN_WORK = 200
# A larger pass runs `_dense_pass` when its cells, the dilate's box points
# times the rows, are at most this, and the sliced kernel above it. On the
# same passes, the dense pass's median time over the sliced kernel's, whose
# projection and `arrays` are built in the pass, was, by cells:
#   <= 2*10^3: 0.24-0.25     2-4*10^4: 0.54-0.56
#   2-5*10^3: 0.26-0.27      4-8*10^4: 0.86-0.91
#   5-10*10^3: 0.33-0.36     8-16*10^4: 1.50-1.63
#   1-2*10^4: 0.42           above: 4.8-5.1
# Up to 2^15 no single pass took more than 0.90 times; from 2^15 to 2^16
# some took up to 1.27 times, and from 2^16 on the median passes 1.
_DENSE_SCAN_CELLS = 2**15


@dataclass(frozen=True)
class CountProfile:
    """Exact counts ehr(n) for n = 0..d+1; the interpolation input.

    The counts are the same whichever dilates were scanned to obtain them
    (see `count_profile`).
    """

    dim: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.dim + 2:
            raise InputError("profile needs d+2 counts (n = 0..d+1)")
        if self.counts[0] != 1:
            raise InputError("profile must start with the empty-dilate count 1")
        if self.dim >= 1:
            for a, b in zip(self.counts[1:], self.counts[2:]):
                if b <= a:
                    raise InputError("counts must strictly increase for n >= 1")


@dataclass(frozen=True)
class BoxPointTable:
    """Lattice points of the fundamental parallelepiped, binned by height.

    heights[i] counts the points whose last homogeneous coordinate is i;
    this is exactly the h*-vector, and the entries sum to the normalized
    volume.
    """

    dim: int
    heights: tuple[int, ...]

    @property
    def normalized_volume(self) -> int:
        return sum(self.heights)


# -- bounding-box scans -------------------------------------------------------


def _intervals(vals, lead, hi):
    """Per column of vals, the integers y in [0, hi] with vals + a * y >= 0 on
    every row (closed) and with vals + a * y >= 1 on the strict rows, as
    (closed firsts, closed widths, strict firsts, strict widths).

    lead = (n_pos, n_bound, a_pos, a_neg, k_pos, k_neg, k_zero). The rows are
    sorted by their coefficient a: > 0 (a_pos, a column), < 0 (magnitudes
    a_neg), = 0, and the strict rows are the first k_pos, k_neg and k_zero
    of each group. Rows with a > 0 bound y below by ceil(-v / a), the max of
    which is minus the min of the floors v // a; rows with a < 0 bound it
    above by v // -a; rows with a = 0 pass or fail as v >= 0. Threshold 1
    puts v - 1 for v, and (v - 1) // a = v // a - [a divides v], so one
    division gives both bounds; a divides v iff (v // a) * a == v.
    """
    import numpy as np

    n_pos, n_bound, a_pos, a_neg, k_pos, k_neg, k_zero = lead
    least = np.minimum.reduce

    def floors(v, a, k):  # v // a, and (v - 1) // a on the first k rows
        q = v // a
        return q, q[:k] - (q[:k] * a[:k] == v[:k])

    q, q_s = floors(vals[:n_pos], a_pos, k_pos)
    first = -least(q, axis=0, initial=0)
    first_s = -least(q_s, axis=0, initial=0)
    q, q_s = floors(vals[n_pos:n_bound], a_neg, k_neg)
    width = np.maximum(least(q, axis=0, initial=hi) - first + 1, 0)
    width_s = np.maximum(least(q_s, axis=0, initial=hi) - first_s + 1, 0)
    if n_bound < len(vals):
        every = np.logical_and.reduce
        width = width * every(vals[n_bound:] >= 0, axis=0)
        if k_zero:
            width_s = width_s * every(vals[n_bound : n_bound + k_zero] >= 1, axis=0)
    return first, width, first_s, width_s


def _lead(col, counts):
    """`_intervals`' lead for rows whose coefficients on y are col, sorted as
    counts = (n_pos, n_bound, k_pos, k_neg, k_zero) says."""
    n_pos, n_bound, *strict = counts
    return n_pos, n_bound, col[:n_pos, None], -col[n_pos:n_bound, None], *strict


class _ScanPlan:
    """What the scans of the dilates nP of one system have in common.

    The system is a box mins..maxs and rows: row . x + offset >= 0, in `dim`
    axes. Its n-th dilate (`_scan_dilate`), the box n * mins..n * maxs with
    the offsets times n, is moved to the origin: x = n * mins + y gives
    row . y + n * (offset + row . mins) >= 0 on the box 0..n * widths
    (`sizes(n)` points per axis), each row in lowest terms, its offset
    included, which keeps both counts (an integer v / g is >= 1 iff v is).
    So the plan holds, once: the moved rows with a != 0 on t, sorted by its
    sign; each row's bound |row| . widths + |offset| over the box, which
    the dilate multiplies by n, the max over the t-rows (`row_bound`) and
    over every row (`bound`); and, from the first sliced pass on, so after
    the caps are checked, the `projection` of t: the Fourier-Motzkin step
    keeps the rows with a = 0 and pairs every row with a > 0 with every row
    with a < 0 into (-a_j) * row_i + a_i * row_j, up to m^2 / 4 rows. A
    projected row is reduced by its gcd at n = 1, which holds at every n as
    the row scales with n as a whole; at n it shrinks further only by
    gcd(n, g) for the gcd g of its coefficients, which `shared` keeps where
    g != 1. A system of d < 2 axes runs as one of two, with 2 - d leading
    axes [0, 0] in no row; `dim` stays d.

    `anchor` is (NV, S) for a simplex (see `_scan_plan`), with which a
    profile scans the dilates n <= ceil(d/2) - 1, and None otherwise, with
    which it scans n <= ceil(d/2) (`_reciprocity_counts`). A plan built
    straight from rows has none.
    """

    def __init__(self, mins, maxs, rows, offsets, anchor=None):
        self.dim = len(mins)
        self.anchor = anchor
        pad = [0] * (2 - self.dim)
        self.widths = [*pad, *(hi - lo for lo, hi in zip(mins, maxs))]
        full = [_reduce_by_gcd([*pad, *row, c + sum(map(mul, row, mins))])
                for row, c in zip(rows, offsets)]
        pos = [r for r in full if r[-2] > 0]
        neg = [r for r in full if r[-2] < 0]
        self.t_rows = pos + neg
        self.t_counts = (len(pos), len(self.t_rows), len(pos), len(neg), 0)
        self.flat = [r for r in full if not r[-2]]
        self.m = len(full)
        self.row_bound = max(map(self._bound, self.t_rows), default=0)
        self.bound = max([self.row_bound, *map(self._bound, self.flat)])  # of every row

    def _bound(self, r):  # |row| . widths + |offset|; a projected row has no t
        # an axis of width 0 counts as width 1, so the bound covers each coefficient too
        return sum(abs(a) * max(w, 1) for a, w in zip(r[:-1], self.widths)) + abs(r[-1])

    def sizes(self, n: int) -> list[int]:
        """The points along each axis of the n-th dilate's box."""
        return [n * w + 1 for w in self.widths]

    @cached_property
    def projection(self):
        """(rows, s-counts, bounds, shared) of the projected rows."""
        n_pos = self.t_counts[0]
        flat = [r[:-2] + r[-1:] for r in self.flat]  # in lowest terms already
        pairs = []
        for ri in self.t_rows[:n_pos]:
            for rj in self.t_rows[n_pos:]:
                pair = [-rj[-2] * x + ri[-2] * y for x, y in zip(ri, rj)]
                pairs.append(_reduce_by_gcd(pair[:-2] + pair[-1:]))
        # Projected rows by their coefficient on s, > 0, < 0, = 0, each group
        # with its rows with a = 0 on t first: only those bound the interior's
        # range of s.
        groups = [[r for r in part if (r[-2] <= 0) + (r[-2] == 0) == sign]
                  for sign in range(3) for part in (flat, pairs)]
        proj = [r for group in groups for r in group]
        size = [len(group) for group in groups]
        s_counts = (size[0] + size[1], sum(size[:4]), size[0], size[2], size[4])
        shared = [(i, g) for i, r in enumerate(proj) if (g := math.gcd(*r[:-1])) != 1]
        return proj, s_counts, [self._bound(r) for r in proj], shared

    @cached_property
    def arrays(self):
        """(pm, tm, s lead, t lead) on int64: the projected rows with the
        columns x_0 .. x_{d-3}, s, offset, and the t-rows with the columns
        x_0 .. x_{d-3}, s, t, offset, whose bounds cover every entry."""
        import numpy as np

        d = len(self.widths)
        pm = np.array(self.projection[0], dtype=np.int64).reshape(-1, d)
        tm = np.array(self.t_rows, dtype=np.int64).reshape(-1, d + 1)
        return pm, tm, _lead(pm[:, d - 2], self.projection[1]), _lead(tm[:, d - 1], self.t_counts)


def _pure_pass(plan: _ScanPlan, n: int, sizes) -> tuple[int, int]:
    """`_scan_dilate`'s pass on Python ints: it walks every (prefix, s) pair
    of the box 0..sizes - 1. A pair counts if every row with a = 0 on t is
    >= 0 on it, and towards the interior only if every such row is >= 1;
    the t-rows, all of which have a != 0 on t and are strict, give its
    closed and interior t-interval from the same floor quotients, exactly
    at any size.

    It builds no Fourier-Motzkin projection to prune s: in a box of at most
    `_PURE_SCAN_WORK` steps the projection costs more than it saves (0.06
    against 0.085 ms per pass at work 101-200 on perfbench's hscan scans).
    The t-interval is written out: a helper called once per (prefix, s)
    pair made the pass 1.7-2 times slower on the same scans."""
    p = len(sizes) - 2  # enumerated axes
    t_pos = plan.t_counts[0]
    t_hi = sizes[-1] - 1
    closed = interior = 0
    for prefix in product(*map(range, sizes[:p])):
        # map stops at the end of the prefix: each row's terms on the enumerated axes
        flat = [(n * r[-1] + sum(map(mul, r, prefix)), r[p]) for r in plan.flat]
        # each t-row as (its value but for the s-term, its a on s, its |a| on t)
        t_rows = [(n * r[-1] + sum(map(mul, r, prefix)), r[p], abs(r[p + 1]))
                  for r in plan.t_rows]
        pos, neg = t_rows[:t_pos], t_rows[t_pos:]
        for s in range(sizes[p]):
            least = min([b + c * s for b, c in flat], default=1)  # of the a = 0 rows
            if least < 0:
                continue
            first = first_s = 0
            for b, c, a in pos:  # t >= ceil(-v / a), and >= ceil((1 - v) / a)
                v = b + c * s
                if (q := -(v // a)) > first:
                    first = q
                if (q := -((v - 1) // a)) > first_s:
                    first_s = q
            last = last_s = t_hi
            for b, c, a in neg:  # t <= v // a, and <= (v - 1) // a
                v = b + c * s
                if (q := v // a) < last:
                    last = q
                if (q := (v - 1) // a) < last_s:
                    last_s = q
            if last >= first:  # the interior t-interval lies inside the closed one
                closed += last - first + 1
                if least >= 1 and last_s >= first_s:
                    interior += last_s - first_s + 1
    return closed, interior


def _box_values(coefs, offsets, sizes):
    """offsets + coefs @ x at every x in the box 0..sizes - 1, on int64: one
    row per row of coefs, one column per point, the last axis fastest."""
    import numpy as np

    vals = offsets
    for j, size in enumerate(sizes):
        step = coefs[:, j : j + 1] * np.arange(size, dtype=np.int64)
        vals = (vals[:, :, None] + step[:, None, :]).reshape(len(coefs), vals.shape[1] * size)
    return vals


def _dense_pass(plan: _ScanPlan, n: int, sizes) -> tuple[int, int]:
    """`_scan_dilate`'s pass on int64 for a small box: every row at every box
    point, and the points whose least row value is >= 0 (closed) and >= 1
    (interior). With no rows, the least is `initial`, 1: every point."""
    import numpy as np

    rows = np.array(plan.t_rows + plan.flat, dtype=np.int64).reshape(plan.m, len(sizes) + 1)
    vals = _box_values(rows[:, :-1], rows[:, -1:] * n, sizes)
    least = np.minimum.reduce(vals, axis=0, initial=1)
    return int(np.count_nonzero(least >= 0)), int(np.count_nonzero(least >= 1))


def _scan_dilate(plan: _ScanPlan, n: int) -> tuple[int, int]:
    """(closed, interior) of the n-th dilate of the plan's system: the
    points y of the box 0..n * widths with rows @ y + n * offsets >= 0 for
    the moved rows, and those with > 0 on every row.

    The pass takes one of three kernels, by the size constants read at each
    call and by its int64 bound:
      * work, the (prefix, s) pairs of the box times the m input rows, at
        most `_PURE_SCAN_WORK`: `_pure_pass` walks those pairs on Python
        ints, evaluating each row at most once per pair, and imports no
        numpy; numpy is imported here only for a larger pass;
      * cells, the box points times the rows, at most `_DENSE_SCAN_CELLS`,
        with n * `plan.bound` and the point count, which bound its values,
        below 2^62: `_dense_pass` evaluates every row at every point on int64;
      * any other pass: the sliced kernel, below, on int64 when `worst` <
        2^62, else `_pure_pass`.

    The sliced kernel enumerates only the first d - 2 axes; s and t name
    the last two. For each enumerated prefix the projected rows give the
    range of s outside of which the t-interval is empty (`_intervals`,
    clipped to the box); the surviving (prefix, s) pairs are expanded with
    np.repeat, and each counts its t-values as one interval. The interior
    points' pairs are among those: on each pair the t-rows give the
    interior t-interval from the same quotients, and the rows with a = 0 on
    t, at threshold 1, give the interior range of s.

    C = `_SCAN_CHUNK`, read at each call, bounds the points materialized at
    once: the tail block of prefix points, built once per dilate and reused
    for every outer prefix, holds at most C * m cells of projected-row
    values for m input rows; the t-rows' values are taken at the tail points
    that survive, and the pairs are expanded at most C at a time, into a few
    arrays of (t-rows) * C cells each.

    `worst` < 2^62 bounds every intermediate of the sliced kernel: the
    coefficients and the partial values of the rows and of the projected
    rows (each row's own bound, which for a projected row is at most
    |a_j| * W_i + |a_i| * W_j for the bounds W of its pair, and less after
    the gcd), the quotients (|v // a| <= |v|, and one more at threshold 1),
    and, by the point count, each coordinate + 1, interval width and total.
    """
    sizes = plan.sizes(n)
    if any(s <= 0 for s in sizes):
        return 0, 0
    if math.prod(sizes[:-1]) * plan.m <= _PURE_SCAN_WORK:
        return _pure_pass(plan, n, sizes)
    points = math.prod(sizes)
    if points * max(plan.m, 1) <= _DENSE_SCAN_CELLS and max(n * plan.bound, points) < _SCAN_KERNEL_LIMIT:
        return _dense_pass(plan, n, sizes)
    proj, s_counts, proj_bounds, shared = plan.projection
    reduced = {i: e for i, g in shared if (e := math.gcd(g, n)) > 1}
    proj_bound = max((n * w // reduced.get(i, 1) for i, w in enumerate(proj_bounds)), default=0)
    worst = max(n * plan.row_bound, proj_bound, points)
    if worst >= _SCAN_KERNEL_LIMIT:
        return _pure_pass(plan, n, sizes)
    import numpy as np  # here, not at the top: processes that scan only small boxes skip its import

    pm, tm, s_lead, t_lead = plan.arrays
    p = len(sizes) - 2  # enumerated axes
    p_off, t_off = pm[:, -1:] * n, tm[:, -1:] * n
    if reduced:
        pm = pm.copy()
        for i, e in reduced.items():
            pm[i, :-1] //= e
            p_off[i, 0] = n * proj[i][-1] // e
        s_lead = _lead(pm[:, p], s_counts)

    block = max(1, _SCAN_CHUNK * max(plan.m, 1) // max(len(pm), 1))
    split = p
    tail_count = 1
    while split > 0 and tail_count * sizes[split - 1] <= block:
        split -= 1
        tail_count *= sizes[split]

    tail_vals = _box_values(pm[:, split:p], p_off, sizes[split:p])
    closed = interior = 0
    for prefix in product(*map(range, sizes[:split])):
        vals, t_vals = tail_vals, t_off
        if prefix:
            x = np.array(prefix, dtype=np.int64)
            vals = vals + (pm[:, :split] @ x).reshape(-1, 1)
            t_vals = t_vals + (tm[:, :split] @ x).reshape(-1, 1)
        s_first, widths, in_first, in_widths = _intervals(vals, s_lead, sizes[p] - 1)
        keep = np.flatnonzero(widths)
        if not keep.size:
            continue
        widths = widths[keep]
        ends = np.cumsum(widths)
        # the s of pair number i, in the run of kept column c, is first[c] + i
        first = s_first[keep] - (ends - widths)
        # the t-rows' values, but for their s-term, at the kept columns
        if split < p:
            for j, x in zip(range(split, p), np.unravel_index(keep, sizes[split:p])):
                t_vals = t_vals + tm[:, j : j + 1] * x
        if plan.flat:
            in_first, in_widths = in_first[keep], in_widths[keep]
        total = int(ends[-1])
        for k in range(0, total, _SCAN_CHUNK):
            k_end = min(k + _SCAN_CHUNK, total)
            if k_end - k == total:  # one chunk: every pair
                c0, c1, reps = 0, len(ends), widths
            else:
                c0 = int(np.searchsorted(ends, k, side="right"))
                c1 = int(np.searchsorted(ends, k_end - 1, side="right")) + 1
                reps = np.minimum(ends[c0:c1], k_end) - np.maximum(ends[c0:c1] - widths[c0:c1], k)
            s_vals = first[c0:c1].repeat(reps) + np.arange(k, k_end, dtype=np.int64)
            pair_vals = t_vals[:, c0:c1].repeat(reps, axis=1) + tm[:, p : p + 1] * s_vals
            _lo, width, _in_lo, in_width = _intervals(pair_vals, t_lead, sizes[-1] - 1)
            closed += int(width.sum())
            if plan.flat:
                off = s_vals - in_first[c0:c1].repeat(reps)
                in_width = in_width * ((off >= 0) & (off < in_widths[c0:c1].repeat(reps)))
            interior += int(in_width.sum())
    return closed, interior


def _count_box_satisfying(lows, highs, rows, offsets) -> int:
    """Count integer points x with lows <= x <= highs and rows @ x + offsets >= 0.

    The closed count of one `_scan_dilate` pass at n = 1 over a fresh plan,
    on the box moved to the origin: the pure walk for a small box or a bound
    of 2^62 or more, else the dense pass or the sliced kernel, on int64. No
    entry point calls it; it names the kernel for the kernel tests and for
    perfbench's tracer.
    """
    return _scan_dilate(_ScanPlan(lows, highs, rows, offsets), 1)[0]


def _check_scan_cost(plan: _ScanPlan, n: int, count_cap: int) -> None:
    """Refuse to scan the n-th dilate of a plan whose box, `plan.sizes(n)`,
    holds more than `count_cap` candidates, or 2^62 or more. A profile
    checks only the dilates it scans: n <= ceil(d/2), or n <= ceil(d/2) - 1
    for a simplex."""
    total = math.prod(plan.sizes(n))
    if total > count_cap:
        why = f" (cap {count_cap}); raise the cap or use the parallelepiped route"
    elif total >= _SCAN_KERNEL_LIMIT:
        why = "; the scan kernel takes fewer than 2^62"
    else:
        return
    raise CostGuardExceeded(f"bounding-box scan would visit {shown(total)} candidates{why}")


# -- strategy dispatch --------------------------------------------------------


def _vertex_simplex(vertices):
    """(vertices, normals, offsets, anchor) of the simplex of d + 1 points,
    or None if they are affinely dependent. Row k of the scaled inverse
    (A, D) of the homogenized vertices is D times the k-th barycentric
    coordinate: it is 0 on the facet opposite v_k and D at v_k. So NV = D,
    the rows in lowest terms are the facets in the order of the double
    description, and facet k lies at the lattice distance D / gcd(a_k)
    from v_k, for the normal part a_k of row k."""
    kernel = scaled_inverse(_homogenized_columns(vertices))
    if kernel is None:
        return None
    a, volume = kernel
    rows = [_reduce_by_gcd(r) for r in a]
    anchor = _anchor(volume, [volume // math.gcd(*r[:-1]) for r in a])
    return vertices, [r[:-1] for r in rows], [r[-1] for r in rows], anchor


def _facet_simplex(facets):
    """(vertices, normals, offsets, anchor) of the lattice simplex cut out by
    d + 1 half-spaces, or None if they cut out none. Column j of the scaled
    inverse (A, D) of the rows (b_j, a_j) solves every row but row j with 0
    and row j with D, so it is (D / t_j) * (1, v_j) for the vertex v_j off
    facet j, at which row j takes its top t_j. The rows bound a simplex iff
    every column has a positive first entry, and a lattice simplex iff that
    entry divides the others. The rows times the homogenized vertices make
    diag(t), so NV = prod(t) / D, and facet j lies at the lattice distance
    t_j / gcd(a_j) from v_j."""
    kernel = scaled_inverse([[f.offset, *f.normal] for f in facets])
    if kernel is None:
        return None
    a, scale = kernel
    vertices, tops = [], []
    for y0, *y in zip(*a):
        if y0 <= 0 or any(x % y0 for x in y):
            return None
        vertices.append([x // y0 for x in y])
        tops.append(scale // y0)
    volume = math.prod(tops) // scale
    anchor = _anchor(volume, [t // math.gcd(*f.normal) for t, f in zip(tops, facets)])
    return vertices, [f.normal for f in facets], [f.offset for f in facets], anchor


def _anchor(volume, heights):
    """(NV, S) of a simplex of normalized volume NV whose facets F lie at the
    lattice distances h_F from the vertices off them: S is the sum of the
    facets' normalized volumes NV / h_F, so every h_F must divide NV."""
    if any(volume % h for h in heights):
        raise ArithmeticError("a facet's lattice distance does not divide the normalized volume")
    return volume, sum(volume // h for h in heights)


def _scan_plan(p: LatticePolytope) -> _ScanPlan:
    """The scan of p: the box of its vertices and its facets.

    A simplex of d >= 1, given by d + 1 vertices or by d + 1 half-spaces,
    takes both from one scaled inverse of its square matrix, which also
    anchors it on (NV, S): its normalized volume and the sum of its
    facets' normalized volumes (`_vertex_simplex`, `_facet_simplex`). Every
    other input, a square system that bounds no lattice simplex among
    them, takes both from `LatticePolytope.double_description`, which
    rejects empty, unbounded, flat and non-lattice input, even at d = 0,
    with its own message. A double description with d + 1 facets is a
    simplex however its vertex list is padded (a repeated vertex, a point
    on an edge or inside) or its rows are redundant, and `_facet_simplex`
    of its facets anchors it. A generator's simplex is a `LatticePolytope`
    with a vertex list like any other.
    """
    d = p.ambient_dim
    simplex = None
    if d >= 1 and len(p.vertices or p.halfspaces) == d + 1:
        simplex = _vertex_simplex(p.vertices) if p.vertices is not None else _facet_simplex(p.halfspaces)
    if simplex is None:
        vertices, facets = p.double_description
        anchor = _facet_simplex(facets)[3] if d >= 1 and len(facets) == d + 1 else None
        simplex = vertices, [f.normal for f in facets], [f.offset for f in facets], anchor
    vertices, normals, offsets, anchor = simplex
    return _ScanPlan([min(c) for c in zip(*vertices)], [max(c) for c in zip(*vertices)],
                     normals, offsets, anchor)


def _counts_through(p: LatticePolytope, nmax: int, count_cap: int) -> list[int]:
    """[ehr(0), ..., ehr(nmax)] of p: by its box or pyramid hint, else by its scan plan."""
    if isinstance(p.hint, BoxHint):
        return [math.prod(n * (hi - lo) + 1 for lo, hi in zip(p.hint.lows, p.hint.highs))
                for n in range(nmax + 1)]
    if isinstance(p.hint, PyramidHint):
        counts = _counts_through(p.hint.base, nmax, count_cap)
        for _ in range(p.hint.times):
            counts = list(accumulate(counts))
        return counts
    return _reciprocity_counts(_scan_plan(p), nmax, count_cap)


def _forward_differences(values) -> list[int]:
    """Newton forward differences at the first node: v_0, (v_1 - v_0), ..."""
    diffs = []
    while values:
        diffs.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return diffs


def _reciprocity_counts(plan: _ScanPlan, nmax: int, count_cap: int) -> list[int]:
    """[ehr(0), ..., ehr(nmax)] of a scan plan, from its dilates n <= k.

    Each scanned dilate gives ehr(n) and, by Ehrhart-Macdonald reciprocity,
    ehr(-n) = (-1)^d * #interior(nP). The interior of a full-dimensional
    polytope is cut out by the strict versions of its facets, so one
    `_scan_dilate` pass over the plan counts both per dilate. With
    ehr(0) = 1 that gives ehr on the nodes -k..k, and the Newton forward
    differences of q(n) = scale * ehr(n) - known(n) there determine q
    exactly if its degree e is at most 2k.

    Without an anchor q is ehr: scale 1, known 0, e = d = `plan.dim` and
    k = ceil(d/2). A simplex's anchor (NV, S) gives the two leading
    coefficients of ehr, NV / d! and S / (2 (d-1)!) (the second is half the
    sum of the facets' relative volumes; Beck and Robins, Computing the
    Continuous Discretely), so q(n) = 2 d! ehr(n) - 2 NV n^d - d S n^(d-1)
    has degree e = d - 2 and k = ceil(d/2) - 1: no dilate is
    scanned at d <= 2. Where 2k > e, at odd d, one node is spare and its
    difference must vanish; at d = 1 that is q(0) = 2 - S = 0. Dividing
    q(n) + known(n) by the scale must leave no remainder. The box of every
    scanned dilate is checked against the caps before the first pass.
    """
    d = plan.dim
    if plan.anchor is None:
        scale, degree = 1, d

        def known(n):
            return 0
    else:
        volume, facet_sum = plan.anchor
        scale, degree = 2 * math.factorial(d), d - 2

        def known(n):
            return 2 * volume * n**d + d * facet_sum * n ** (d - 1)
    k = (degree + 1) // 2
    for n in range(1, k + 1):
        _check_scan_cost(plan, n, count_cap)
    below, above = [], []
    for n in range(1, k + 1):
        points, interior = _scan_dilate(plan, n)
        above.append(scale * points - known(n))
        below.append(scale * (-1) ** d * interior - known(-n))
    diffs = _forward_differences(below[::-1] + [scale - known(0)] + above)  # nodes -k..k
    if any(diffs[degree + 1 :]):
        raise ArithmeticError("reciprocity counts do not fit a polynomial of degree d")
    counts = []
    for n in range(nmax + 1):
        count, rest = divmod(sum(c * math.comb(n + k, j) for j, c in enumerate(diffs)) + known(n), scale)
        if rest:
            raise ArithmeticError(f"anchored counts are not divisible by 2 * {d}!")
        counts.append(count)
    return counts


def count_profile(p: LatticePolytope, *, count_cap: int = DEFAULT_COUNT_CAP) -> CountProfile:
    """Counts at n = 0..d+1; n = 0 contributes 1 by the series convention.

    Box and pyramid hints use their closed forms; every other polytope
    scans only the dilates n <= ceil(d/2), a simplex, by vertices or by
    facets, only n <= ceil(d/2) - 1 (`_reciprocity_counts`).
    """
    d = p.ambient_dim
    return CountProfile(d, tuple(_counts_through(p, d + 1, count_cap)))


def f_star_from_profile(profile: CountProfile) -> FStarVector:
    """f*-entries as forward differences of ehr(1), ehr(2), ... .

    The basis C(n-1, k) is the Newton forward basis in m = n-1, so the
    coefficients are the iterated differences at m = 0.
    """
    return FStarVector(tuple(_forward_differences(profile.counts[1:])), polytope_derived=True)


# -- fundamental parallelepiped -----------------------------------------------


def box_points_simplex(s: LatticePolytope, *, volume_cap: int = DEFAULT_VOLUME_CAP) -> BoxPointTable:
    """Heights of the lattice points of the half-open parallelepiped of s, a
    simplex given by its d + 1 vertices (`normalized_volume` is not None).

    The homogenized vertices u_i = (v_i, 1) generate a sublattice of
    Z^{d+1} of index N = normalized volume, and the half-open box
    {sum t_i u_i : 0 <= t_i < 1} holds one lattice point per residue
    class. Residues are enumerated through a diagonal form S U T = diag of
    the generator matrix U (`diagonalize_lattice_basis`): for a residue
    tuple r, the barycentric coordinates of its lift are
    sum_i (r_i / diag_i) T[:, i], so reducing each coordinate mod 1 lands
    the representative inside the box. All that is needed of the lift is
    its height, the sum of the reduced coordinates. Runs in O(N * d)
    integer operations after the diagonal form.
    """
    d = s.ambient_dim
    n_total = s.normalized_volume
    if n_total is None:
        raise InputError("the parallelepiped route needs a simplex given by its d + 1 vertices")
    if n_total > volume_cap:
        raise VolumeCapExceeded(
            f"normalized volume {n_total} exceeds the cap {volume_cap}"
        )
    heights = [0] * (d + 1)
    if n_total == 1:
        heights[0] = 1
        return BoxPointTable(d, tuple(heights))

    diag, t = diagonalize_lattice_basis(_homogenized_columns(s.vertices))
    sizes = []
    cols = []
    for i, di in enumerate(diag):
        if abs(di) > 1:
            scale = n_total // di  # exact: |di| divides the product of the diag
            cols.append([(scale * t[j][i]) % n_total for j in range(d + 1)])
            sizes.append(abs(di))
    if math.prod(sizes) != n_total:
        raise ArithmeticError("normal form inconsistent with the volume")

    # Odometer over the residue tuples; adding a column diag[i] times is a
    # no-op mod N, so wrapping a digit needs no correction.
    y = [0] * (d + 1)
    digits = [0] * len(sizes)
    while True:
        total = sum(y)
        if total % n_total:
            raise ArithmeticError("residue lift has non-integer height")
        heights[total // n_total] += 1
        i = 0
        while i < len(digits):
            digits[i] += 1
            col = cols[i]
            for j in range(d + 1):
                y[j] = (y[j] + col[j]) % n_total
            if digits[i] < sizes[i]:
                break
            digits[i] = 0
            i += 1
        else:
            break

    if heights[0] != 1 or sum(heights) != n_total:
        raise ArithmeticError("parallelepiped enumeration lost residues")
    return BoxPointTable(d, tuple(heights))


# -- top-level vector extraction ----------------------------------------------


@dataclass(frozen=True)
class ComputeResult:
    """Everything the CLI reports for one polytope."""

    h: HStarVector
    f: FStarVector
    counts: tuple[int, ...]
    route: str  # "parallelepiped" or "interpolation"


def h_star_of(
    p: LatticePolytope,
    *,
    count_cap: int = DEFAULT_COUNT_CAP,
    volume_cap: int = DEFAULT_VOLUME_CAP,
) -> HStarVector:
    """h*-vector by the cheapest exact route (`compute_vectors`); the two
    routes agree whenever both apply (covered by the test suite)."""
    return compute_vectors(p, count_cap=count_cap, volume_cap=volume_cap).h


def compute_vectors(
    p: LatticePolytope,
    *,
    count_cap: int = DEFAULT_COUNT_CAP,
    volume_cap: int = DEFAULT_VOLUME_CAP,
) -> ComputeResult:
    """h*, f*, counts ehr(0..d+1) and route of p. A simplex given by its
    vertices (`normalized_volume` is not None) of volume at most `volume_cap`
    takes the parallelepiped; all else, H-simplices included, is scanned."""
    volume = p.normalized_volume
    if volume is not None and volume <= volume_cap:
        table = box_points_simplex(p, volume_cap=volume_cap)
        h = HStarVector(table.heights, polytope_derived=True)
        counts = tuple(eval_ehrhart(h, n) for n in range(p.ambient_dim + 2))
        return ComputeResult(h, f_from_h(h), counts, "parallelepiped")
    profile = count_profile(p, count_cap=count_cap)
    f = f_star_from_profile(profile)
    return ComputeResult(h_from_f(f), f, profile.counts, "interpolation")


def count_points(p: LatticePolytope, n: int, *, count_cap: int = DEFAULT_COUNT_CAP) -> int:
    """Exact number of lattice points in the n-th dilate, n >= 1: the
    h*-vector of `compute_vectors` evaluated at n."""
    if n < 1:
        raise InputError("dilate must be positive")
    return eval_ehrhart(compute_vectors(p, count_cap=count_cap).h, n)
