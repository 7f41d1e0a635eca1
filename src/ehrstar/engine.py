"""Exact lattice-point counting and h*/f*-vector extraction.

Each input is resolved once, by `_counted`, into how it is counted; the
entry points then work on that alone. The strategies, in that order:

  * box hints (products of segments): closed-form per-axis counts;
  * pyramid hints: cross-sections of the n-th dilate of a pyramid at
    integer heights t are the (n-t)-th dilates of the base, so the counts
    are iterated partial sums of the base counts;
  * any other polytope, a simplex included: inequality scan of its
    facets over the box of its vertices, both of which one
    double-description routine (`lattice._extreme_rays`) derives through
    `LatticePolytope.double_description`; a half-space list keeps one of
    its own rows per facet and drops the redundant ones.

Hints are trusted to be full-dimensional (a pyramid's base is checked when
its counts are taken), and the facet cone of a vertex list holds a line
iff the list is flat, so a rank is computed only to word that error. A
profile of a scanned polytope scans only the dilates n <= ceil(d/2).
Ehrhart-Macdonald reciprocity turns their interior counts into ehr(-n),
and Newton forward differences on the nodes -k..k give the whole
polynomial. The scan is built once per polytope as a plan (`_ScanPlan`):
the rows sorted, one Fourier-Motzkin step that eliminates t from them, and
each row's bound, none of which depends on n. Each dilate is then one pass
(`_scan_dilate`) that enumerates all box axes but the last two, s and t:
the projected rows give each enumerated point its integer range of s, and
every surviving (point, s) pair counts its t-values as one integer
interval, and its interior t-values from the same floor quotients.

The h*-vector of a simplex given by its d + 1 vertices (a polytope whose
`normalized_volume` is set, a generator's `LatticeSimplex` among them) is
computed directly, without any counting, by enumerating the lattice points
of the half-open parallelepiped spanned by the homogenized vertices (see
`box_points_simplex`); a simplex given by its facets is scanned. All
arithmetic is exact: scans run on int64 only when a conservative bound
proves no overflow, and fall back to Python-int (object dtype) arrays
otherwise.

numpy is imported only when a scan runs (`_scan_dilate`). The
parallelepiped route, the vector conversions, the audit and the search use
none of it, so a process that never scans skips its import: a cold
`compute --builtin higashitani-15` takes about 0.13 s instead of 0.26 s
on a 2-vCPU Xeon VM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, product

from .errors import CostGuardExceeded, InputError, VolumeCapExceeded, shown
from .intlinalg import _reduce_by_gcd, diagonalize_lattice_basis
from .lattice import BoxHint, LatticePolytope, PyramidHint, _homogenized_columns
from .starbasis import FStarVector, HStarVector, eval_ehrhart, f_from_h, h_from_f

DEFAULT_COUNT_CAP = 10**9
DEFAULT_VOLUME_CAP = 10**7

_SCAN_CHUNK = 1 << 17
# `_scan_dilate` counts (prefix, s) pairs and interval widths in int64, and
# a box of fewer candidates keeps both below 2^62.
_SCAN_KERNEL_LIMIT = 2**62


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


def _intervals(vals, lead, lo, hi):
    """Per column of vals, the integers y in [lo, hi] with vals + a * y >= 0 on
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
    first = -least(q, axis=0, initial=-lo)
    first_s = -least(q_s, axis=0, initial=-lo)
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

    The system is a box mins..maxs and rows: row . x + offset >= 0. Its n-th
    dilate (`_scan_dilate`) scans the box n * mins..n * maxs with the
    offsets times n, and nothing else depends on n. So the plan holds,
    once: the rows with a != 0 on t, sorted by its sign; the Fourier-Motzkin
    projection of t, which keeps the rows with a = 0 and pairs every row
    with a > 0 with every row with a < 0 into (-a_j) * row_i + a_i * row_j;
    and each row's bound |row| . max|x| + |offset| over the box, which the
    dilate multiplies by n. A projected row is reduced by its gcd at n = 1,
    which holds at every n as the row scales with n as a whole; at n it
    shrinks further only by gcd(n, g) for the gcd g of its coefficients,
    which `shared` keeps where g != 1. d = 1 runs as d = 2 with a leading
    axis [0, 0] in no row.
    """

    def __init__(self, mins, maxs, rows, offsets):
        self.offsets = list(offsets)  # read only at d = 0
        if len(mins) == 1:
            mins, maxs, rows = [0, *mins], [0, *maxs], [[0, *row] for row in rows]
        self.mins, self.maxs = list(mins), list(maxs)
        self._arrays = {}
        if not mins:
            return
        full = [[*row, c] for row, c in zip(rows, offsets)]
        maxabs = [max(abs(lo), abs(hi)) for lo, hi in zip(mins, maxs)]

        def bound(r):  # |row| . maxabs + |offset|; a projected row has no t
            return sum(abs(a) * m for a, m in zip(r[:-1], maxabs)) + abs(r[-1])

        pos = [r for r in full if r[-2] > 0]
        neg = [r for r in full if r[-2] < 0]
        self.t_rows = pos + neg
        self.t_counts = (len(pos), len(self.t_rows), len(pos), len(neg), 0)
        flat = [_reduce_by_gcd(r[:-2] + r[-1:]) for r in full if not r[-2]]
        pairs = []
        for ri in pos:
            for rj in neg:
                pair = [-rj[-2] * x + ri[-2] * y for x, y in zip(ri, rj)]
                pairs.append(_reduce_by_gcd(pair[:-2] + pair[-1:]))
        # Projected rows by their coefficient on s, > 0, < 0, = 0, each group
        # with its rows with a = 0 on t first: only those bound the interior's
        # range of s.
        groups = [[r for r in part if (r[-2] <= 0) + (r[-2] == 0) == sign]
                  for sign in range(3) for part in (flat, pairs)]
        self.proj = [r for group in groups for r in group]
        size = [len(group) for group in groups]
        self.s_counts = (size[0] + size[1], sum(size[:4]), size[0], size[2], size[4])
        self.has_flat = bool(flat)
        self.m = len(full)
        self.maxabs = max(maxabs)
        self.row_bound = max(map(bound, self.t_rows), default=0)
        self.proj_bounds = [bound(r) for r in self.proj]
        self.proj_bound = max(self.proj_bounds, default=0)
        self.shared = [(i, g) for i, r in enumerate(self.proj) if (g := math.gcd(*r[:-1])) != 1]

    def arrays(self, dtype):
        """(pm, tm, s lead, t lead), built once per dtype: the projected rows
        with the columns x_0 .. x_{d-3}, s, offset, and the t-rows with the
        columns x_0 .. x_{d-3}, s, t, offset."""
        import numpy as np

        if dtype not in self._arrays:
            d = len(self.mins)
            pm = np.array(self.proj, dtype=dtype).reshape(len(self.proj), d)
            tm = np.array(self.t_rows, dtype=dtype).reshape(len(self.t_rows), d + 1)
            self._arrays[dtype] = pm, tm, _lead(pm[:, d - 2], self.s_counts), _lead(tm[:, d - 1], self.t_counts)
        return self._arrays[dtype]


def _scan_dilate(plan: _ScanPlan, n: int, *, chunk: int = _SCAN_CHUNK) -> tuple[int, int]:
    """(closed, interior): the integer points x of the box n * mins..n * maxs
    with rows @ x + n * offsets >= 0, and those with > 0 on every row.

    Only the first d - 2 axes are enumerated; s and t name the last two. For
    each enumerated prefix the projected rows give the range of s outside of
    which the t-interval is empty (`_intervals`, clipped to the box); the
    surviving (prefix, s) pairs are expanded with np.repeat, and each counts
    its t-values as one interval. The interior points' pairs are among
    those: on each pair the t-rows give the interior t-interval from the
    same quotients, and the rows with a = 0 on t, at threshold 1, give the
    interior range of s.

    `chunk` bounds the points materialized at once: the tail block of
    prefix points, built once per dilate and reused for every outer prefix,
    holds at most chunk * m cells of projected-row values for m input rows;
    the t-rows' values are taken at the tail points that survive, and the
    pairs are expanded at most `chunk` at a time, into a few arrays of
    (t-rows) * chunk cells each.

    The int64 path runs only when `worst` < 2^62, which bounds every
    intermediate: the partial values of the rows and of the projected rows
    (each row's own bound, which for a projected row is at most
    |a_j| * W_i + |a_i| * W_j for the bounds W of its pair, and less after
    the gcd), the quotients (|v // a| <= |v|, and one more at threshold 1),
    the box coordinates +- 1, the difference hi - lo + 1 of two of those,
    and the pair and point totals (at most the number of candidates).
    Otherwise the arrays hold Python ints, on which // is the same exact
    floor division.
    """
    import numpy as np  # here, not at the top: processes that never scan skip its import

    lows = [n * m for m in plan.mins]
    highs = [n * m for m in plan.maxs]
    sizes = [hi - lo + 1 for lo, hi in zip(lows, highs)]
    if any(s <= 0 for s in sizes):
        return 0, 0
    d = len(lows)
    if d == 0:
        return int(all(c >= 0 for c in plan.offsets)), int(all(n * c >= 1 for c in plan.offsets))
    reduced = {i: e for i, g in plan.shared if (e := math.gcd(g, n)) > 1}
    proj_bound = (max(n * w // reduced.get(i, 1) for i, w in enumerate(plan.proj_bounds))
                  if reduced else n * plan.proj_bound)
    worst = max(n * plan.row_bound, proj_bound, n * plan.maxabs + 1, math.prod(sizes))
    dtype = np.int64 if worst < _SCAN_KERNEL_LIMIT else object
    pm, tm, s_lead, t_lead = plan.arrays(dtype)
    p = d - 2  # enumerated axes
    p_off, t_off = pm[:, -1:] * n, tm[:, -1:] * n
    if reduced:
        pm = pm.copy()
        for i, e in reduced.items():
            pm[i, :-1] //= e
            p_off[i, 0] = n * plan.proj[i][-1] // e
        s_lead = _lead(pm[:, p], plan.s_counts)

    block = max(1, chunk * max(plan.m, 1) // max(len(pm), 1))
    split = p
    tail_count = 1
    while split > 0 and tail_count * sizes[split - 1] <= block:
        split -= 1
        tail_count *= sizes[split]

    # One row of projected-row values per projected row, one column per
    # tail point; the last tail axis varies fastest.
    tail_vals = p_off
    for j in range(split, p):
        step = pm[:, j : j + 1] * np.arange(lows[j], highs[j] + 1, dtype=dtype)
        cells = tail_vals[:, :, None] + step[:, None, :]
        tail_vals = cells.reshape(len(pm), tail_vals.shape[1] * sizes[j])

    closed = interior = 0
    for prefix in product(*(range(lows[j], highs[j] + 1) for j in range(split))):
        vals, t_vals = tail_vals, t_off
        if prefix:
            x = np.array(prefix, dtype=dtype)
            vals = vals + (pm[:, :split] @ x).reshape(-1, 1)
            t_vals = t_vals + (tm[:, :split] @ x).reshape(-1, 1)
        s_first, widths, in_first, in_widths = _intervals(vals, s_lead, lows[p], highs[p])
        keep = np.flatnonzero(widths)
        if not keep.size:
            continue
        widths = widths[keep].astype(np.int64)
        ends = np.cumsum(widths)
        # the s of pair number i, in the run of kept column c, is first[c] + i
        first = s_first[keep] - (ends - widths).astype(dtype)
        # the t-rows' values, but for their s-term, at the kept columns
        if split < p:
            for j, x in zip(range(split, p), np.unravel_index(keep, sizes[split:p])):
                t_vals = t_vals + tm[:, j : j + 1] * (x.astype(dtype) + lows[j])
        if plan.has_flat:
            in_first, in_widths = in_first[keep], in_widths[keep]
        total = int(ends[-1])
        for k in range(0, total, chunk):
            k_end = min(k + chunk, total)
            if k_end - k == total:  # one chunk: every pair
                c0, c1, reps = 0, len(ends), widths
            else:
                c0 = int(np.searchsorted(ends, k, side="right"))
                c1 = int(np.searchsorted(ends, k_end - 1, side="right")) + 1
                reps = np.minimum(ends[c0:c1], k_end) - np.maximum(ends[c0:c1] - widths[c0:c1], k)
            s_vals = first[c0:c1].repeat(reps) + np.arange(k, k_end, dtype=dtype)
            pair_vals = t_vals[:, c0:c1].repeat(reps, axis=1) + tm[:, p : p + 1] * s_vals
            _lo, width, _in_lo, in_width = _intervals(pair_vals, t_lead, lows[-1], highs[-1])
            closed += int(width.sum())
            if plan.has_flat:
                off = s_vals - in_first[c0:c1].repeat(reps)
                in_width = in_width * ((off >= 0) & (off < in_widths[c0:c1].repeat(reps)))
            interior += int(in_width.sum())
    return closed, interior


def _count_box_satisfying(lows, highs, rows, offsets, *, chunk=_SCAN_CHUNK) -> int:
    """Count integer points x with lows <= x <= highs and rows @ x + offsets >= 0.

    The closed count of one `_scan_dilate` pass at n = 1 over a fresh plan.
    """
    return _scan_dilate(_ScanPlan(lows, highs, rows, offsets), 1, chunk=chunk)[0]


def _check_scan_cost(lows, highs, count_cap: int) -> None:
    total = 1
    for lo, hi in zip(lows, highs):
        total *= max(hi - lo + 1, 0)
    if total > count_cap:
        raise CostGuardExceeded(
            f"bounding-box scan would visit {shown(total)} candidates (cap {count_cap}); "
            "raise the cap or use the parallelepiped route"
        )
    if total >= _SCAN_KERNEL_LIMIT:
        raise CostGuardExceeded(
            f"bounding-box scan would visit {shown(total)} candidates; "
            "the scan kernel takes fewer than 2^62"
        )


def _dilate(system, n: int):
    """The scan system of the n-th dilate: the box and the offsets times n."""
    mins, maxs, rows, offsets = system
    return [n * m for m in mins], [n * m for m in maxs], rows, [n * c for c in offsets]


# -- strategy dispatch --------------------------------------------------------


def _counted(p: LatticePolytope):
    """p's BoxHint or PyramidHint, else its scan system (mins, maxs, rows, offsets):
    the box of its vertices and its facets, from `LatticePolytope.double_description`,
    which rejects empty, unbounded, flat and non-lattice input even at d = 0.
    A generator's `LatticeSimplex` is a vertex list like any other.
    """
    if p.hint is not None:
        return p.hint
    vertices, facets = p.double_description
    mins = [min(c) for c in zip(*vertices)]
    maxs = [max(c) for c in zip(*vertices)]
    return mins, maxs, [list(f.normal) for f in facets], [f.offset for f in facets]


def count_points(p: LatticePolytope, n: int, *, count_cap: int = DEFAULT_COUNT_CAP) -> int:
    """Exact number of lattice points in the n-th dilate, n >= 1."""
    if n < 1:
        raise InputError("dilate must be positive")
    counted = _counted(p)
    if not isinstance(counted, tuple):
        return _counts_through(counted, n, count_cap)[n]
    lows, highs, rows, offsets = _dilate(counted, n)
    _check_scan_cost(lows, highs, count_cap)
    return _count_box_satisfying(lows, highs, rows, offsets)


def _counts_through(counted, nmax: int, count_cap: int) -> list[int]:
    """[ehr(0), ..., ehr(nmax)] of what `_counted` returned."""
    if isinstance(counted, BoxHint):
        return [
            math.prod(n * (hi - lo) + 1 for lo, hi in zip(counted.lows, counted.highs))
            for n in range(nmax + 1)
        ]
    if isinstance(counted, PyramidHint):
        counts = _counts_through(_counted(counted.base), nmax, count_cap)
        for _ in range(counted.times):
            counts = list(accumulate(counts))
        return counts
    return _reciprocity_counts(counted, nmax, count_cap)


def _forward_differences(values) -> list[int]:
    """Newton forward differences at the first node: v_0, (v_1 - v_0), ..."""
    diffs = []
    while values:
        diffs.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return diffs


def _reciprocity_counts(system, nmax: int, count_cap: int) -> list[int]:
    """[ehr(0), ..., ehr(nmax)] of a scan system, from its dilates n <= ceil(d/2).

    Each scanned dilate gives ehr(n) and, by Ehrhart-Macdonald reciprocity,
    ehr(-n) = (-1)^d * #interior(nP). The interior of a full-dimensional
    polytope is cut out by the strict versions of its facets, so one
    `_scan_dilate` pass over one plan of the system counts both per dilate.
    With ehr(0) = 1 that gives ehr on the nodes -k..k, whose Newton forward
    differences determine the polynomial of degree d exactly. For odd d
    there is one node more than needed: its difference must vanish. The box
    of every scanned dilate is checked against the caps before the first
    pass.
    """
    d = len(system[0])
    k = (d + 1) // 2
    for n in range(1, k + 1):
        lows, highs, _rows, _offsets = _dilate(system, n)
        _check_scan_cost(lows, highs, count_cap)
    plan = _ScanPlan(*system)
    below, above = [], []
    for n in range(1, k + 1):
        points, interior = _scan_dilate(plan, n)
        above.append(points)
        below.append((-1) ** d * interior)
    diffs = _forward_differences(below[::-1] + [1] + above)  # nodes -k..k
    if any(diffs[d + 1 :]):
        raise ArithmeticError("reciprocity counts do not fit a polynomial of degree d")
    return [sum(c * math.comb(n + k, j) for j, c in enumerate(diffs)) for n in range(nmax + 1)]


def count_profile(p: LatticePolytope, *, count_cap: int = DEFAULT_COUNT_CAP) -> CountProfile:
    """Counts at n = 0..d+1; n = 0 contributes 1 by the series convention.

    Box and pyramid hints use their closed forms; simplices and half-space
    polytopes scan only the dilates n <= ceil(d/2) (`_reciprocity_counts`).
    """
    d = p.ambient_dim
    return CountProfile(d, tuple(_counts_through(_counted(p), d + 1, count_cap)))


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
