"""Exact lattice-point counting and h*/f*-vector extraction.

Counting strategies, in dispatch order:

  * box hints (products of segments): closed-form per-axis counts;
  * pyramid hints: cross-sections of the n-th dilate of a pyramid at
    integer heights t are the (n-t)-th dilates of the base, so the counts
    are iterated partial sums of the base counts;
  * simplices: membership scan over the bounding box of the dilate,
    decided by the sign pattern of a precomputed scaled inverse;
  * half-space lists: inequality scan over the bounding box of the
    vertices, which are the feasible intersection points of the defining
    hyperplanes (`LatticePolytope.halfspace_box`). Every vertex must be a
    lattice point; boundedness is decided by a cofactor ray test on the
    facet normals.

The h*-vector of a simplex is computed directly, without any counting,
by enumerating the lattice points of the half-open parallelepiped
spanned by the homogenized vertices (see `box_points_simplex`). All
arithmetic is exact: scans run on int64 only when a conservative bound
proves no overflow, and fall back to Python-int (object dtype) arrays
otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, product

import numpy as np

from .errors import (
    CostGuardExceeded,
    InputError,
    NoCountingStrategy,
    VolumeCapExceeded,
)
from .intlinalg import diagonalize_lattice_basis
from .lattice import (
    BoxHint,
    LatticePolytope,
    LatticeSimplex,
    PyramidHint,
    _homogenized_columns,
    require_full_dimensional,
)
from .starbasis import FStarVector, HStarVector, eval_ehrhart, f_from_h, h_from_f

DEFAULT_COUNT_CAP = 10**9
DEFAULT_VOLUME_CAP = 10**7

_SCAN_CHUNK = 1 << 17


@dataclass(frozen=True)
class CountProfile:
    """Exact counts ehr(n) for n = 0..d+1; the interpolation input."""

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


def _count_box_satisfying(lows, highs, rows, offsets, *, chunk=_SCAN_CHUNK) -> int:
    """Count integer points x with lows <= x <= highs and rows @ x + offsets >= 0.

    Chunked so that only a bounded tail block is materialized; the tail
    contribution matrix is computed once and reused for every prefix.
    """
    d = len(lows)
    sizes = [hi - lo + 1 for lo, hi in zip(lows, highs)]
    if any(s <= 0 for s in sizes):
        return 0
    if d == 0:
        return 1 if all(c >= 0 for c in offsets) else 0

    maxabs = [max(abs(lo), abs(hi)) for lo, hi in zip(lows, highs)]
    worst = max(
        sum(abs(row[j]) * maxabs[j] for j in range(d)) + abs(c)
        for row, c in zip(rows, offsets)
    )
    dtype = np.int64 if worst < 2**62 else object

    split = d
    tail_count = 1
    while split > 0 and tail_count * sizes[split - 1] <= chunk:
        split -= 1
        tail_count *= sizes[split]

    axes = [np.arange(lows[j], highs[j] + 1, dtype=np.int64) for j in range(split, d)]
    if axes:
        grid = np.meshgrid(*axes, indexing="ij")
        tail_pts = np.stack([g.reshape(-1) for g in grid], axis=1)
    else:
        tail_pts = np.zeros((1, 0), dtype=np.int64)
    if dtype is object:
        tail_pts = tail_pts.astype(object)

    mat = np.array(rows, dtype=dtype)
    off = np.array(offsets, dtype=dtype)
    tail_contrib = tail_pts @ mat[:, split:].T + off

    count = 0
    for prefix in product(*(range(lows[j], highs[j] + 1) for j in range(split))):
        vals = tail_contrib
        if prefix:
            vals = vals + mat[:, :split] @ np.array(prefix, dtype=dtype)
        count += int((vals >= 0).all(axis=1).sum())
    return count


def _simplex_scan_count(s: LatticeSimplex, n: int, count_cap: int) -> int:
    """|nS ∩ Z^d| by barycentric membership over the bounding box of nS."""
    d = s.ambient_dim
    a, _scale = s.membership_kernel
    lows = [n * min(v[j] for v in s.vertices) for j in range(d)]
    highs = [n * max(v[j] for v in s.vertices) for j in range(d)]
    _check_scan_cost(lows, highs, count_cap)
    rows = [row[:d] for row in a]
    offsets = [n * row[d] for row in a]
    return _count_box_satisfying(lows, highs, rows, offsets)


def _check_scan_cost(lows, highs, count_cap: int) -> None:
    total = 1
    for lo, hi in zip(lows, highs):
        total *= max(hi - lo + 1, 0)
    if total > count_cap:
        raise CostGuardExceeded(
            f"bounding-box scan would visit {total} candidates (cap {count_cap}); "
            "raise the cap or use the parallelepiped route"
        )


def _halfspace_scan_count(p: LatticePolytope, n: int, count_cap: int) -> int:
    mins, maxs = p.halfspace_box
    lows = [n * m for m in mins]
    highs = [n * m for m in maxs]
    _check_scan_cost(lows, highs, count_cap)
    rows = [list(h.normal) for h in p.halfspaces]
    offsets = [n * h.offset for h in p.halfspaces]
    return _count_box_satisfying(lows, highs, rows, offsets)


# -- strategy dispatch --------------------------------------------------------


def count_points(p: LatticePolytope | LatticeSimplex, n: int, *, count_cap: int = DEFAULT_COUNT_CAP) -> int:
    """Exact number of lattice points in the n-th dilate, n >= 1."""
    if n < 1:
        raise InputError("dilate must be positive")
    if isinstance(p, LatticeSimplex):
        return _simplex_scan_count(p, n, count_cap)
    if isinstance(p.hint, (BoxHint, PyramidHint)):
        return _counts_through(p, n, count_cap)[n]
    require_full_dimensional(p)
    if p.vertices is not None:
        s = p.simplex
        if s is not None:
            return _simplex_scan_count(s, n, count_cap)
        raise NoCountingStrategy(
            "vertex polytope is not a simplex and carries no structure hint; "
            "provide a half-space description to count it"
        )
    return _halfspace_scan_count(p, n, count_cap)


def _counts_through(p: LatticePolytope | LatticeSimplex, nmax: int, count_cap: int) -> list[int]:
    """[ehr(0), ..., ehr(nmax)], sharing work across dilates where possible."""
    if isinstance(p, LatticePolytope) and isinstance(p.hint, BoxHint):
        lows, highs = p.hint.lows, p.hint.highs
        return [
            math.prod(n * (hi - lo) + 1 for lo, hi in zip(lows, highs))
            for n in range(nmax + 1)
        ]
    if isinstance(p, LatticePolytope) and isinstance(p.hint, PyramidHint):
        counts = _counts_through(p.hint.base, nmax, count_cap)
        for _ in range(p.hint.times):
            counts = list(accumulate(counts))
        return counts
    return [1] + [count_points(p, n, count_cap=count_cap) for n in range(1, nmax + 1)]


def count_profile(p: LatticePolytope | LatticeSimplex, *, count_cap: int = DEFAULT_COUNT_CAP) -> CountProfile:
    """Counts at n = 0..d+1; n = 0 contributes 1 by the series convention."""
    d = p.ambient_dim
    if isinstance(p, LatticePolytope) and p.vertices is not None:
        require_full_dimensional(p)
    return CountProfile(d, tuple(_counts_through(p, d + 1, count_cap)))


def f_star_from_profile(profile: CountProfile) -> FStarVector:
    """f*-entries as forward differences of ehr(1), ehr(2), ... .

    The basis C(n-1, k) is the Newton forward basis in m = n-1, so the
    coefficients are the iterated differences at m = 0.
    """
    seq = list(profile.counts[1:])
    out = []
    while seq:
        out.append(seq[0])
        seq = [b - a for a, b in zip(seq, seq[1:])]
    return FStarVector(tuple(out), polytope_derived=True)


# -- fundamental parallelepiped -----------------------------------------------


def box_points_simplex(s: LatticeSimplex, *, volume_cap: int = DEFAULT_VOLUME_CAP) -> BoxPointTable:
    """Heights of the lattice points of the half-open parallelepiped of s.

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
    p: LatticePolytope | LatticeSimplex,
    *,
    count_cap: int = DEFAULT_COUNT_CAP,
    volume_cap: int = DEFAULT_VOLUME_CAP,
) -> HStarVector:
    """h*-vector by the cheapest exact route.

    Simplices of feasible volume go through the parallelepiped; everything
    else is counted and interpolated. The two routes agree whenever both
    apply (covered by the test suite).
    """
    return compute_vectors(p, count_cap=count_cap, volume_cap=volume_cap).h


def compute_vectors(
    p: LatticePolytope | LatticeSimplex,
    *,
    count_cap: int = DEFAULT_COUNT_CAP,
    volume_cap: int = DEFAULT_VOLUME_CAP,
) -> ComputeResult:
    s = p if isinstance(p, LatticeSimplex) else None
    if s is None and isinstance(p, LatticePolytope) and p.vertices is not None:
        require_full_dimensional(p)
        s = p.simplex
    if s is not None and s.normalized_volume <= volume_cap:
        table = box_points_simplex(s, volume_cap=volume_cap)
        h = HStarVector(table.heights, polytope_derived=True)
        counts = tuple(eval_ehrhart(h, n) for n in range(s.ambient_dim + 2))
        return ComputeResult(h, f_from_h(h), counts, "parallelepiped")
    profile = count_profile(p, count_cap=count_cap)
    f = f_star_from_profile(profile)
    return ComputeResult(h_from_f(f), f, profile.counts, "interpolation")
