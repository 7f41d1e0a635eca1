"""Lattice polytopes with exact integer data, plus the generator zoo.

A lattice point is a plain tuple of ints. Every polytope, a generator's
output included, is an immutable `LatticePolytope` with either a vertex
tuple or a half-space tuple, whose points and normals are tuples of ints. A
vertex list of d + 1 affinely independent points is a simplex: its
`normalized_volume` is set, and the parallelepiped route reads it;
`LatticeSimplex.from_vertices` builds one and checks that it is one. One
double-description routine, `_extreme_rays`, gives both to every polytope
that is counted by a scan, but a simplex given by d + 1 vertices or by
d + 1 half-spaces, which takes them from one scaled inverse
(`engine._scan_plan`): `LatticePolytope.double_description` reads the
facets of a vertex list off it, and the vertices of a half-space list
together with the rows that bound its facets.
Generators may attach a structure hint (box product, pyramid tower) that
the counting engine exploits; hints never change the mathematical object.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import islice
from operator import and_, index

from .errors import (
    CostGuardExceeded,
    DegenerateSimplexError,
    InputError,
    NotFullDimensionalError,
    decode_json,
    int_entry,
    json_list,
)
from .intlinalg import EchelonBasis, _reduce_by_gcd, det, scaled_inverse

LatticePoint = tuple[int, ...]

RANDOM_SIMPLEX_DRAWS = 1000  # degenerate draws before make_random_simplex gives up
# The largest dimension built by a generator or read from a polytope file,
# checked before any entry is built. The exact linear algebra on d x d
# integer matrices that every route starts with grows steeply. On a 2-vCPU
# Xeon VM a cold `compute` of the unimodular d-simplex given by its
# vertices takes 0.08 s at d = 100, 0.13 s at d = 200 and 0.76 s at
# d = 400 (medians of 3-5 runs), and the scan plan of a random 100-simplex
# with coordinates in [-2, 2], one dense scaled inverse, 0.6 s.
GENERATOR_DIM_CAP = 100
# Work cap of `_extreme_rays`. A step is charged n units per ray for
# reading its row against the rays (n = d + 1 entries each), then
# |positive rays| * |negative rays| for counting the common tight rows of
# each pair, then |rays| for each pair with enough of them to need the
# bit-set comparisons, and the running sum is checked after each part,
# before the step builds a ray. After the last row, a half-space list is
# charged its m rows per final ray for `double_description`'s pass that
# reads the rows tight on each vertex, before that pass runs. On a 2-vCPU
# Xeon VM a unit takes 0.15-0.25 us (60 random points of [-2, 2]^6: 8.8e6
# units, 1.6-2.1 s; the 13-dimensional cross-polytope by its 8,192 facets:
# 5.3e6 units, 1.3 s), and runs over the cap stop within 0.6-2 s (the
# 10-, 11- and 12-cubes by their facets plus 1,000 rows 100 + i + x_1 >= 0,
# and the polars of the cyclic polytopes C(30, 6) and C(23, 17)), so a run
# stops within about 3 s. The 6-dimensional cross-polytope takes 7,200
# units (3 ms), the facets of the unimodular 100-simplex 30,600 (0.05 s,
# mostly its scaled inverse; a scan plans that simplex without the double
# description), the square with 1,996 corner cuts 32,000
# (30 ms), and 40 random points of [-2, 2]^5 3.3e5 (0.06 s).
_HALFSPACE_WORK_CAP = 10**7


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
        if type(self.ambient_dim) is not int:
            raise InputError("ambient dimension must be an int")
        if self.ambient_dim < 0:
            raise InputError("ambient dimension must be nonnegative")
        if not isinstance(self.vertices if self.vertices is not None else self.halfspaces, tuple):
            raise InputError("vertices and halfspaces must be tuples")
        if self.vertices is not None:
            if not self.vertices:
                raise InputError("vertex list must be nonempty")
            for v in self.vertices:
                if not isinstance(v, tuple):
                    raise InputError("each vertex must be a tuple")
                if len(v) != self.ambient_dim:
                    raise InputError("vertex length does not match ambient dimension")
            entries = (x for v in self.vertices for x in v)
        else:
            for hs in self.halfspaces:
                if not isinstance(hs, HalfSpace):
                    raise InputError("each half-space must be a HalfSpace")
                if not isinstance(hs.normal, tuple):
                    raise InputError("each half-space normal must be a tuple")
                if len(hs.normal) != self.ambient_dim:
                    raise InputError("half-space normal length does not match ambient dimension")
            entries = (x for hs in self.halfspaces for x in (hs.offset, *hs.normal))
        if any(type(x) is not int for x in entries):
            raise InputError("coordinates, offsets and normals must be ints")

    @cached_property
    def dim(self) -> int:
        return affine_dimension(self)

    @cached_property
    def normalized_volume(self) -> int | None:
        """|det| of the homogenized vertices of a simplex given by its d + 1
        vertices, else None: the number of lattice points of its half-open
        fundamental parallelepiped, hence the sum of its h*-entries."""
        if self.vertices is None or len(self.vertices) != self.ambient_dim + 1:
            return None
        return abs(det(_homogenized_columns(self.vertices))) or None

    @cached_property
    def double_description(self) -> tuple[tuple[LatticePoint, ...], tuple[HalfSpace, ...]]:
        """(vertices, facets): the polytope by its points and by one row per facet.

        A vertex list keeps its points; its facets are the primitive extreme
        rays (b, a) of the cone {(b, a) : b + a . v >= 0 for every point v},
        which holds a line iff the list is flat.

        A half-space list's cone, y0 >= 0 and offset * y0 + normal . x >= 0,
        has the primitive extreme rays (q, q * v) for its vertices v and
        (0, r) for the extreme rays r of its recession cone: so no q > 0 means
        empty, a q = 0 unbounded, and each v is a lattice point iff q = 1.
        Empty, unbounded, non-lattice and flat input is rejected in that
        order; the message names the lexicographically least non-lattice
        vertex. Of its rows, those with a zero normal or tight on fewer than
        d vertices bound no facet; of the rest, the first row of each maximal
        set of tight vertices is kept, and those sets are the facets'. It is
        flat iff a row with a nonzero normal is tight on every vertex: an
        implicit equality (Schrijver, Theory of Linear and Integer
        Programming, 8.2). A rank is computed only to word the flat error.
        """
        d = self.ambient_dim
        if self.vertices is not None:
            rays = _extreme_rays([[1, *v] for v in self.vertices], d + 1)
            if rays is None:
                raise NotFullDimensionalError(
                    f"polytope has affine dimension {self.dim} inside R^{d}; "
                    "Ehrhart operations need a full-dimensional polytope"
                )
            return self.vertices, tuple(HalfSpace(f[0], tuple(f[1:])) for f, _ in rays)
        hs = self.halfspaces
        rays = _extreme_rays([[1] + [0] * d] + [[h.offset, *h.normal] for h in hs], d + 1, len(hs))
        if rays is None or all(r[0] == 0 for r, _ in rays):
            raise InputError("half-space system has no vertices (empty or unbounded)")
        if any(r[0] == 0 for r, _ in rays):
            raise InputError("half-space system is unbounded")
        fractional = [r for r, _ in rays if r[0] > 1]
        if fractional:
            from fractions import Fraction  # only for the message

            least = ", ".join(map(str, min([Fraction(v, r[0]) for v in r[1:]] for r in fractional)))
            raise InputError(f"half-space polytope has the non-lattice vertex ({least}); "
                             "only lattice polytopes are supported")
        vertices = tuple(tuple(r[1:]) for r, _ in rays)
        first = {}  # tight-vertex set -> its first row; row k is bit k + 1 of a ray's set
        for k, h in enumerate(hs):
            if not any(h.normal):
                continue
            tight = sum(1 << i for i, (_, z) in enumerate(rays) if z >> (k + 1) & 1)
            if tight == (1 << len(rays)) - 1:  # an implicit equality
                rank = LatticePolytope(d, vertices=vertices).dim
                raise NotFullDimensionalError(f"half-space polytope has affine dimension {rank} inside R^{d}")
            if tight.bit_count() >= d:
                first.setdefault(tight, h)
        # on[i]: the sets that hold vertex i; a set is maximal iff it is the
        # only set that holds every one of its vertices
        sets = list(first)
        on = [sum(1 << j for j, s in enumerate(sets) if s >> i & 1) for i in range(len(rays))]
        facets = tuple(first[s] for j, s in enumerate(sets)
                       if reduce(and_, (on[i] for i in range(len(rays)) if s >> i & 1)) == 1 << j)
        return vertices, facets


def _extreme_rays(rows: list[list[int]], n: int, after: int = 0) -> list[tuple[list[int], int]] | None:
    """The primitive extreme rays of {y in R^n : row . y >= 0 for every row},
    each with the bit set of the rows tight on it (bit k for rows[k]), or
    None when the rows have rank below n and the cone holds a line. `after`
    is the work per final ray of the caller's pass over them, charged
    before they are returned.

    Double description (Motzkin, Raiffa, Thompson and Thrall, 1953): n
    independent rows cut out a simplicial cone, whose rays are the columns
    of their scaled inverse. Each other row in turn keeps the rays on its
    side and adds its crossing with the edge of each adjacent pair that it
    separates. Two rays are adjacent iff no third ray is tight on every row
    on which both are (Fukuda and Prodon, 1996); tight rows are bit sets.
    Every ray solves n - 1 rows, so its entries are bounded by their minors.
    """
    basis, chosen = EchelonBasis(), []
    for i, row in enumerate(rows):
        if basis.rank < n and basis.insert(row):
            chosen.append(i)
    if basis.rank < n:
        return None
    inverse, _scale = scaled_inverse([rows[i] for i in chosen])
    initial = sum(1 << i for i in chosen)
    rays = [(_reduce_by_gcd(list(col)), initial ^ (1 << i)) for i, col in zip(chosen, zip(*inverse))]
    work = 0
    for k, row in enumerate(rows):
        if initial >> k & 1:
            continue
        # charged as `_HALFSPACE_WORK_CAP` says; the pairs are listed only up
        # to the first that would pass it
        work += len(rays) * n
        if work <= _HALFSPACE_WORK_CAP:
            vals = [sum(a * b for a, b in zip(row, ray)) for ray, _ in rays]
            pos = [i for i, v in enumerate(vals) if v > 0]
            neg = [i for i, v in enumerate(vals) if v < 0]
            work += len(pos) * len(neg)
        if work <= _HALFSPACE_WORK_CAP:
            close = ((i, j) for i in pos for j in neg
                     if (rays[i][1] & rays[j][1]).bit_count() >= n - 2)
            pairs = list(islice(close, (_HALFSPACE_WORK_CAP - work) // (len(rays) or 1) + 1))
            work += len(pairs) * len(rays)
        if work > _HALFSPACE_WORK_CAP:
            raise CostGuardExceeded(f"vertex enumeration would pass {_HALFSPACE_WORK_CAP} "
                                    f"adjacency tests at row {k + 1} of {len(rows)}")
        bit = 1 << k
        crossed = []
        for i, j in pairs:
            (ri, zi), (rj, zj) = rays[i], rays[j]
            common = zi & zj
            if any(common & z == common for t, (_, z) in enumerate(rays) if t not in (i, j)):
                continue
            vi, vj = vals[i], -vals[j]
            crossed.append((_reduce_by_gcd([vi * b + vj * a for a, b in zip(ri, rj)]), common | bit))
        rays = [(ray, z | bit if not v else z) for (ray, z), v in zip(rays, vals) if v >= 0] + crossed
    work += len(rays) * after
    if work > _HALFSPACE_WORK_CAP:
        raise CostGuardExceeded(f"vertex enumeration would pass {_HALFSPACE_WORK_CAP} "
                                f"adjacency tests after row {len(rows)} of {len(rows)}")
    return rays


class LatticeSimplex:
    """The validating constructor of a simplex: `from_vertices` returns a
    `LatticePolytope` of d + 1 lattice points spanning dimension d, whose
    `normalized_volume` is never None."""

    @classmethod
    def from_vertices(cls, vertices) -> LatticePolytope:
        try:  # ints, bools among them, stay as they are for LatticePolytope to check
            vertices = tuple(tuple(x if isinstance(x, int) else index(x) for x in v) for v in vertices)
        except TypeError as exc:
            raise InputError(f"simplex vertices must be integer tuples: {exc}") from exc
        if not vertices:
            raise InputError("simplex needs vertices")
        d = len(vertices[0])
        if len(vertices) != d + 1:
            raise InputError(f"a {d}-simplex needs exactly {d + 1} vertices")
        s = LatticePolytope(d, vertices=vertices)
        if s.normalized_volume is None:
            raise DegenerateSimplexError("vertices do not span the ambient dimension")
        return s


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
    """Convex hull of p (embedded at height 0) and the new unit vector.

    Over a half-space polytope {x : b + a . x >= 0} the pyramid is cut out
    by t >= 0 and the rows b + a . x - b * t >= 0, its section at height t
    being (1 - t) times p.
    """
    d = p.ambient_dim
    if isinstance(p.hint, PyramidHint):
        hint = PyramidHint(p.hint.base, p.hint.times + 1)
    else:
        hint = PyramidHint(p, 1)
    if p.vertices is not None:
        apex = (0,) * d + (1,)
        vertices = tuple(v + (0,) for v in p.vertices) + (apex,)
        return LatticePolytope(d + 1, vertices=vertices, hint=hint)
    rows = tuple(HalfSpace(h.offset, h.normal + (-h.offset,)) for h in p.halfspaces)
    return LatticePolytope(d + 1, halfspaces=rows + (HalfSpace(0, (0,) * d + (1,)),), hint=hint)


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
    """[low, high]^d by its 2d facets, with a product hint; for d = 1 by its
    two vertices, which make the segment a simplex."""
    if d < 1:
        raise InputError("cube dimension must be positive")
    if low >= high:
        raise InputError("cube needs low < high")
    _require_dim_cap(d)
    hint = BoxHint((low,) * d, (high,) * d)
    if d == 1:
        return LatticePolytope(1, vertices=((low,), (high,)), hint=hint)
    units = [tuple(int(k == j) for k in range(d)) for j in range(d)]
    rows = [HalfSpace(c, tuple(s * x for x in u)) for u in units for c, s in ((-low, 1), (high, -1))]
    return LatticePolytope(d, halfspaces=tuple(rows), hint=hint)


def make_unimodular_simplex(d: int) -> LatticePolytope:
    """conv{0, e_1, ..., e_d}; normalized volume 1."""
    if d < 1:
        raise InputError("simplex dimension must be positive")
    _require_dim_cap(d)
    origin = (0,) * d
    units = tuple(tuple(1 if j == i else 0 for j in range(d)) for i in range(d))
    return LatticeSimplex.from_vertices((origin,) + units)


def make_higashitani(
    ones_len: int, big_val: int, big_len: int, last_val: int
) -> LatticePolytope:
    """Spiked simplex conv{0, e_1, ..., e_{d-1}, w}, d = ones_len + big_len + 1.

    w = (1,...,1, big_val,...,big_val, last_val) with ones_len ones and
    big_len copies of big_val. The normalized volume is last_val (the edge
    matrix is unitriangular except for w's last coordinate).
    """
    if min(ones_len, big_val, big_len, last_val) < 1:
        raise InputError("all parameters must be positive")
    d = ones_len + big_len + 1
    _require_dim_cap(d)
    w = (1,) * ones_len + (big_val,) * big_len + (last_val,)
    origin = (0,) * d
    units = tuple(tuple(1 if j == i else 0 for j in range(d)) for i in range(d - 1))
    return LatticeSimplex.from_vertices((origin,) + units + (w,))


def make_random_simplex(d: int, coord_bound: int, seed: int) -> LatticePolytope:
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
    if dim < 0:
        raise InputError("ambient dimension must be nonnegative")
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
