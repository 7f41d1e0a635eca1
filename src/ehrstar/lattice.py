"""Lattice polytopes with exact integer data, plus the generator zoo.

A lattice point is a plain tuple of ints. Polytopes are immutable; they
carry either a vertex list or a half-space list (never both derived from
each other: no convex-hull computation happens anywhere in this package).
Generators may attach a structure hint (box product, pyramid tower) that
the counting engine exploits; hints never change the mathematical object.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

from .errors import (
    CostGuardExceeded,
    DegenerateSimplexError,
    InputError,
    NotFullDimensionalError,
    decode_json,
    int_entry,
    json_list,
)
from .intlinalg import EchelonBasis, _pivot, det, scaled_inverse

LatticePoint = tuple[int, ...]

CUBE_DIM_CAP = 20  # explicit vertex lists have 2^d vertices
RANDOM_SIMPLEX_DRAWS = 1000  # degenerate draws before make_random_simplex gives up
# The largest dimension built by a generator or read from a polytope file,
# checked before any entry is built. The exact linear algebra on d x d
# integer matrices that every route starts with grows steeply: a cold
# `compute` of the unimodular d-simplex given by its vertices takes 0.5 s
# at d = 100, 1.5 s at d = 200 and 9.3 s at d = 400 on a 2-vCPU Xeon VM.
GENERATOR_DIM_CAP = 100
# Work cap of `LatticePolytope.halfspace_box`, checked before the vertex
# walk: (C(m, d) + C(m, d - 1)) * d^3 for m rows in R^d, one d^3 elimination
# per subsystem. On a 2-vCPU Xeon VM the d + 1 facets of the unimodular
# d-simplex take 0.08 s at d = 20 (work 1.8e6) and 4.3 s at d = 44 (8.8e7;
# they pass up to d = 45 and exit 3 at once at d = 100), the 16 facets of
# [-2, 2]^8 0.13 s (1.2e7) and the 32 of the 5-dimensional cross-polytope
# 2.2 s (3.0e7). The estimate leaves out the walk's pass over all m rows at
# each node and feasible subset, so many rows in a low dimension run longer:
# the square [-1, 1]^2 with 1996 redundant cuts, a third of them through its
# corners (work 1.6e7), takes 30 s.
_HALFSPACE_WORK_CAP = 10**8


@dataclass(frozen=True)
class HalfSpace:
    """The inequality offset + normal . x >= 0."""

    offset: int
    normal: LatticePoint


@dataclass(frozen=True)
class BoxHint:
    """The polytope is the product of the segments [lows[i], highs[i]]."""

    lows: tuple[int, ...]
    highs: tuple[int, ...]


@dataclass(frozen=True)
class PyramidHint:
    """The polytope is an iterated pyramid over `base`."""

    base: "LatticePolytope"
    times: int


@dataclass(frozen=True)
class LatticePolytope:
    """Convex hull of lattice points, or an explicit bounded H-description.

    Exactly one of `vertices` / `halfspaces` is set. `hint`, when present,
    records constructor-known structure for the counting engine; it is
    excluded from equality.
    """

    ambient_dim: int
    vertices: tuple[LatticePoint, ...] | None = None
    halfspaces: tuple[HalfSpace, ...] | None = None
    hint: BoxHint | PyramidHint | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if (self.vertices is None) == (self.halfspaces is None):
            raise InputError("exactly one of vertices/halfspaces must be given")
        if self.ambient_dim < 0:
            raise InputError("ambient dimension must be nonnegative")
        if self.vertices is not None:
            if not self.vertices:
                raise InputError("vertex list must be nonempty")
            for v in self.vertices:
                if len(v) != self.ambient_dim:
                    raise InputError("vertex length does not match ambient dimension")
        else:
            for hs in self.halfspaces:
                if len(hs.normal) != self.ambient_dim:
                    raise InputError("half-space normal length does not match ambient dimension")

    @cached_property
    def dim(self) -> int:
        return affine_dimension(self)

    @cached_property
    def simplex(self) -> "LatticeSimplex | None":
        """The vertex list as a simplex (d + 1 vertices, det != 0), or None."""
        if self.vertices is None or len(self.vertices) != self.ambient_dim + 1:
            return None
        try:
            return LatticeSimplex.from_vertices(self.vertices)
        except DegenerateSimplexError:
            return None

    @cached_property
    def halfspace_box(self) -> tuple[LatticePoint, LatticePoint]:
        """(mins, maxs): the integral bounding box of a half-space polytope.

        Every vertex of a bounded polyhedron solves some d of its defining
        hyperplanes with equality, so the box over all feasible intersection
        points is the bounding box of the polytope. One fraction-free walk
        over row subsets (`_vertex_walk`) gives each feasible point as x / q,
        a lattice point iff q divides every entry of x, and the ray test on
        the kernel lines of (d - 1)-subsets, which decides boundedness once
        a vertex exists. Empty, unbounded and lower-dimensional inputs are
        rejected, and so is a vertex that is not a lattice point. The work is
        estimated and capped before the walk (`_HALFSPACE_WORK_CAP`).
        """
        d = self.ambient_dim
        hs = self.halfspaces
        if hs is None:
            raise InputError("half-space box needs a half-space representation")
        subsystems = math.comb(len(hs), d) + math.comb(len(hs), max(d - 1, 0))
        work = subsystems * d**3
        if work > _HALFSPACE_WORK_CAP:
            raise CostGuardExceeded(
                f"half-space box derivation needs {subsystems} subsystems, "
                f"about {work} operations (cap {_HALFSPACE_WORK_CAP})"
            )
        points, ray = _vertex_walk(hs, d)
        if not points:
            raise InputError("half-space system has no vertices (empty or unbounded)")
        if ray:
            raise InputError("half-space system is unbounded")
        for scale, x in points:
            if any(v % scale for v in x):
                from fractions import Fraction  # only for the message

                raise InputError(
                    f"half-space polytope has the non-lattice vertex "
                    f"({', '.join(str(Fraction(v, scale)) for v in x)}); "
                    "only lattice polytopes are supported"
                )
        vertices = tuple(tuple(v // scale for v in x) for scale, x in points)
        rank = LatticePolytope(d, vertices=vertices).dim
        if rank != d:
            raise NotFullDimensionalError(
                f"half-space polytope has affine dimension {rank} inside R^{d}"
            )
        return tuple(map(min, zip(*vertices))), tuple(map(max, zip(*vertices)))


def _vertex_walk(hs: tuple[HalfSpace, ...], d: int) -> tuple[list[tuple[int, list[int]]], bool]:
    """(points, ray) of the rows offset + normal . x >= 0 in R^d.

    points holds (q, x) for every d-subset of rows, in lexicographic order,
    whose hyperplanes meet in one point x / q that satisfies every row. ray
    tells whether some d - 1 rows of rank d - 1 have a kernel line on which
    every normal has one sign; once the normals have rank d, that holds iff
    the cone {r : n . r >= 0} is nonzero, as a pointed cone has an extreme
    ray (Schrijver, Theory of Linear and Integer Programming, 8.8).

    The depth-first walk carries a fraction-free Gauss-Jordan tableau of
    all rows [normal, -offset] (Bareiss, Math. Comp. 22, 1968): adding a
    row is one `_pivot` step, and a row that is zero on the free columns is
    dependent, so its subtree is skipped. Each unchosen row h is then p * h
    plus a combination of the chosen rows, p the last pivot. At depth d - 1
    one column f is free, and the h[f] are the dots of the normals with the
    kernel line, scaled alike. A leaf row r with q = r[f] != 0 fixes
    x_f = r[d] / q, where row h has the value (h[f] * r[d] - q * h[d]) /
    (p * q), and one more step, on the last column only, turns each chosen
    row into its pivot coordinate. So a leaf is one pass over the rows.
    """
    if d == 0:  # the one empty subset meets in the origin of R^0
        return ([(1, [])] if all(h.offset >= 0 for h in hs) else []), False
    m = len(hs)
    points = []
    ray = False

    def visit(tab, chosen, free, prev):
        nonlocal ray
        start = chosen[-1][0] + 1 if chosen else 0
        if len(chosen) < d - 1:
            for j in range(start, m - (d - 2 - len(chosen))):
                c = next((c for c in free if tab[j][c]), None)
                if c is not None:
                    rest = [k for k in free if k != c]
                    visit(_pivot(tab, j, c, prev), chosen + [(j, c)], rest, tab[j][c])
            return
        (f,) = free
        taken = {i for i, _ in chosen}
        others = [tab[h] for h in range(m) if h not in taken]
        if not ray:
            ray = all(h[f] >= 0 for h in others) or all(h[f] <= 0 for h in others)
        for r in tab[start:]:
            q, rd = r[f], r[d]
            if not q:
                continue
            sign = 1 if q * prev > 0 else -1
            if all(sign * (h[f] * rd - q * h[d]) >= 0 for h in others):
                x = [0] * d
                x[f] = rd
                for i, c in chosen:
                    x[c] = (q * tab[i][d] - tab[i][f] * rd) // prev
                points.append((q, x))

    visit([list(h.normal) + [-h.offset] for h in hs], [], list(range(d)), 1)
    return points, ray


@dataclass(frozen=True)
class LatticeSimplex:
    """d+1 vertices spanning dimension d, with their normalized volume.

    The normalized volume is |det| of the edge matrix (equivalently of the
    homogenized vertex matrix); it equals the number of lattice points of
    the half-open fundamental parallelepiped, hence the sum of the
    h*-entries. Construct through `LatticeSimplex.from_vertices`.
    """

    vertices: tuple[LatticePoint, ...]
    normalized_volume: int

    @classmethod
    def from_vertices(cls, vertices) -> "LatticeSimplex":
        vertices = tuple(tuple(int(x) for x in v) for v in vertices)
        if not vertices:
            raise InputError("simplex needs vertices")
        d = len(vertices[0])
        if any(len(v) != d for v in vertices):
            raise InputError("inconsistent vertex lengths")
        if len(vertices) != d + 1:
            raise InputError(f"a {d}-simplex needs exactly {d + 1} vertices")
        volume = abs(det(_homogenized_columns(vertices)))
        if volume == 0:
            raise DegenerateSimplexError("vertices do not span the ambient dimension")
        return cls(vertices, volume)

    @property
    def ambient_dim(self) -> int:
        return len(self.vertices[0])

    @cached_property
    def membership_kernel(self) -> tuple[list[list[int]], int]:
        """(A, D) with A @ (q, n) = D * barycentric(q, n), D > 0.

        The point q lies in the n-th dilate iff all entries of A @ (q, n)
        are nonnegative; the sum condition is automatic because the last
        homogeneous coordinate of every vertex is 1.
        """
        result = scaled_inverse(_homogenized_columns(self.vertices))
        if result is None:  # unreachable after from_vertices
            raise DegenerateSimplexError("degenerate simplex")
        return result

    def to_polytope(self) -> LatticePolytope:
        return LatticePolytope(self.ambient_dim, vertices=self.vertices)


def _homogenized_columns(vertices: tuple[LatticePoint, ...]) -> list[list[int]]:
    """Square matrix whose columns are the vertices with a 1 appended."""
    d = len(vertices[0])
    rows = [[v[i] for v in vertices] for i in range(d)]
    rows.append([1] * len(vertices))
    return rows


def affine_dimension(p: LatticePolytope) -> int:
    """Rank of {v_i - v_0} over Z, computed exactly; requires vertices."""
    if p.vertices is None:
        raise InputError("affine dimension needs a vertex representation")
    v0 = p.vertices[0]
    basis = EchelonBasis()
    for v in p.vertices[1:]:
        basis.insert([a - b for a, b in zip(v, v0)])
        if basis.rank == p.ambient_dim:
            break
    return basis.rank


# -- constructions -----------------------------------------------------------


def pyramid(p: LatticePolytope) -> LatticePolytope:
    """Convex hull of p (embedded at height 0) and the new unit vector."""
    if p.vertices is None:
        raise InputError("pyramid needs a vertex representation")
    apex = (0,) * p.ambient_dim + (1,)
    vertices = tuple(v + (0,) for v in p.vertices) + (apex,)
    if isinstance(p.hint, PyramidHint):
        hint = PyramidHint(p.hint.base, p.hint.times + 1)
    else:
        hint = PyramidHint(p, 1)
    return LatticePolytope(p.ambient_dim + 1, vertices=vertices, hint=hint)


def _require_dim_cap(d: int, what: str = "generator") -> None:
    if d > GENERATOR_DIM_CAP:
        raise InputError(f"{what} dimension {d} exceeds the cap {GENERATOR_DIM_CAP}")


def iterated_pyramid(p: LatticePolytope, times: int) -> LatticePolytope:
    if times < 0:
        raise InputError("times must be nonnegative")
    _require_dim_cap(p.ambient_dim + times)
    for _ in range(times):
        p = pyramid(p)
    return p


def make_cube(d: int, low: int, high: int) -> LatticePolytope:
    """[low, high]^d with its 2^d vertices and a product hint."""
    if d < 1:
        raise InputError("cube dimension must be positive")
    if low >= high:
        raise InputError("cube needs low < high")
    if d > CUBE_DIM_CAP:
        raise InputError(f"cube dimension {d} exceeds the vertex-list cap {CUBE_DIM_CAP}")
    vertices = tuple(product((low, high), repeat=d))
    hint = BoxHint((low,) * d, (high,) * d)
    return LatticePolytope(d, vertices=vertices, hint=hint)


def make_unimodular_simplex(d: int) -> LatticeSimplex:
    """conv{0, e_1, ..., e_d}; normalized volume 1."""
    if d < 1:
        raise InputError("simplex dimension must be positive")
    _require_dim_cap(d)
    origin = (0,) * d
    units = tuple(tuple(1 if j == i else 0 for j in range(d)) for i in range(d))
    return LatticeSimplex.from_vertices((origin,) + units)


def make_higashitani(
    ones_len: int, big_val: int, big_len: int, last_val: int
) -> LatticeSimplex:
    """Spiked simplex conv{0, e_1, ..., e_{d-1}, w}, d = ones_len + big_len + 1.

    w = (1,...,1, big_val,...,big_val, last_val) with ones_len ones and
    big_len copies of big_val. The normalized volume is last_val (the edge
    matrix is unitriangular except for w's last coordinate).
    """
    if min(ones_len, big_val, big_len, last_val) < 1:
        raise InputError("all parameters must be positive")
    d = ones_len + big_len + 1
    if d < 3:
        raise InputError("resulting dimension must be at least 3")
    _require_dim_cap(d)
    w = (1,) * ones_len + (big_val,) * big_len + (last_val,)
    origin = (0,) * d
    units = tuple(tuple(1 if j == i else 0 for j in range(d)) for i in range(d - 1))
    return LatticeSimplex.from_vertices((origin,) + units + (w,))


def make_random_simplex(d: int, coord_bound: int, seed: int) -> LatticeSimplex:
    """Random nondegenerate simplex; deterministic for a fixed seed.

    Vertices are uniform in [-coord_bound, coord_bound]^d, resampled until
    the volume is nonzero. Raises after `RANDOM_SIMPLEX_DRAWS` degenerate draws.
    """
    if d < 1 or coord_bound < 1:
        raise InputError("dimension and coordinate bound must be positive")
    _require_dim_cap(d)
    rng = random.Random(seed)
    for _ in range(RANDOM_SIMPLEX_DRAWS):
        vertices = tuple(
            tuple(rng.randint(-coord_bound, coord_bound) for _ in range(d))
            for _ in range(d + 1)
        )
        try:
            return LatticeSimplex.from_vertices(vertices)
        except DegenerateSimplexError:
            continue
    raise DegenerateSimplexError(
        f"no nondegenerate simplex in {RANDOM_SIMPLEX_DRAWS} draws; coordinate bound too small"
    )


# -- JSON interchange --------------------------------------------------------
#
# {"ambient_dim": 2, "vertices": [[-1,-1],[-1,1],[1,-1],[1,1]]} or
# {"ambient_dim": 2, "halfspaces": [[1,1,0],[1,-1,0],[1,0,1],[1,0,-1]]}
# where [b, a1, ..., ad] encodes b + a.x >= 0. Entries may be JSON
# strings to carry values beyond 64-bit.


def polytope_from_json(text: str) -> LatticePolytope:
    return polytope_from_obj(decode_json(text))


def polytope_from_obj(obj) -> LatticePolytope:
    """The polytope of a decoded polytope JSON document."""
    if not isinstance(obj, dict) or "ambient_dim" not in obj:
        raise InputError("polytope JSON must be an object with 'ambient_dim'")
    dim = int_entry(obj["ambient_dim"])
    _require_dim_cap(dim, "polytope")
    if "vertices" in obj:
        vertices = tuple(
            tuple(int_entry(x) for x in json_list(v, "a vertex"))
            for v in json_list(obj["vertices"], "'vertices'")
        )
        return LatticePolytope(dim, vertices=vertices)
    if "halfspaces" in obj:
        rows = []
        for row in json_list(obj["halfspaces"], "'halfspaces'"):
            entries = [int_entry(x) for x in json_list(row, "a half-space row")]
            if len(entries) != dim + 1:
                raise InputError("half-space rows must have 1 + ambient_dim entries")
            rows.append(HalfSpace(entries[0], tuple(entries[1:])))
        return LatticePolytope(dim, halfspaces=tuple(rows))
    raise InputError("polytope JSON needs 'vertices' or 'halfspaces'")
