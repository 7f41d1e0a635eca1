"""Lattice polytopes with exact integer data, plus the generator zoo.

A lattice point is a plain tuple of ints. Polytopes are immutable; they
carry either a vertex list or a half-space list (never both derived from
each other: no convex-hull computation happens anywhere in this package).
Generators may attach a structure hint (box product, pyramid tower) that
the counting engine exploits; hints never change the mathematical object.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, product

from .errors import (
    CostGuardExceeded,
    DegenerateSimplexError,
    InputError,
    NotFullDimensionalError,
)
from .intlinalg import EchelonBasis, det, scaled_inverse, solve_rational

LatticePoint = tuple[int, ...]

CUBE_DIM_CAP = 20  # explicit vertex lists have 2^d vertices
_HALFSPACE_COMBO_CAP = 200_000


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

    def is_full_dimensional(self) -> bool:
        return self.dim == self.ambient_dim

    @cached_property
    def simplex(self) -> "LatticeSimplex | None":
        """The vertex list as a simplex, or None when it is not one."""
        return as_simplex(self)

    @cached_property
    def halfspace_box(self) -> tuple[LatticePoint, LatticePoint]:
        """(mins, maxs): the integral bounding box of a half-space polytope.

        Every vertex of a bounded polyhedron solves some d of its defining
        hyperplanes with equality, so the box over all feasible intersection
        points is the bounding box of the polytope. Once a vertex exists the
        normals have rank d, and the cofactor ray test decides boundedness.
        Empty, unbounded and lower-dimensional inputs are rejected, and so is
        a vertex that is not a lattice point.
        """
        d = self.ambient_dim
        hs = self.halfspaces
        if hs is None:
            raise InputError("half-space box needs a half-space representation")
        subsystems = max(math.comb(len(hs), d), math.comb(len(hs), max(d - 1, 0)))
        if subsystems > _HALFSPACE_COMBO_CAP:
            raise CostGuardExceeded(
                f"half-space box derivation needs {subsystems} subsystems"
            )
        points = []
        for subset in combinations(hs, d):
            sol = solve_rational([list(h.normal) for h in subset], [-h.offset for h in subset])
            if sol is None:
                continue
            if all(h.offset + sum(a * x for a, x in zip(h.normal, sol)) >= 0 for h in hs):
                points.append(sol)
        if not points:
            raise InputError("half-space system has no vertices (empty or unbounded)")
        if _has_recession_ray([h.normal for h in hs], d):
            raise InputError("half-space system is unbounded")
        for pt in points:
            if any(x.denominator != 1 for x in pt):
                raise InputError(
                    f"half-space polytope has the non-lattice vertex "
                    f"({', '.join(map(str, pt))}); only lattice polytopes are supported"
                )
        vertices = tuple(tuple(int(x) for x in pt) for pt in points)
        rank = LatticePolytope(d, vertices=vertices).dim
        if rank != d:
            raise NotFullDimensionalError(
                f"half-space polytope has affine dimension {rank} inside R^{d}"
            )
        return tuple(map(min, zip(*vertices))), tuple(map(max, zip(*vertices)))


def _has_recession_ray(normals: list[LatticePoint], d: int) -> bool:
    """Whether {r : n . r >= 0 for every normal n} holds some r != 0.

    Needs normals of rank d. The cone is then pointed, so it is nonzero iff
    it has an extreme ray, and an extreme ray spans the kernel of d - 1
    independent normals: up to sign, the vector of their signed maximal
    minors (Schrijver, Theory of Linear and Integer Programming, 8.8).
    """
    for subset in combinations(normals, max(d - 1, 0)):
        ray = [(-1) ** j * det([n[:j] + n[j + 1 :] for n in subset]) for j in range(d)]
        if not any(ray):
            continue
        dots = [sum(a * r for a, r in zip(n, ray)) for n in normals]
        if all(v >= 0 for v in dots) or all(v <= 0 for v in dots):
            return True
    return False


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


def require_full_dimensional(p: LatticePolytope) -> None:
    if p.vertices is not None and not p.is_full_dimensional():
        raise NotFullDimensionalError(
            f"polytope has affine dimension {p.dim} inside R^{p.ambient_dim}; "
            "Ehrhart operations need a full-dimensional polytope"
        )


def as_simplex(p: LatticePolytope) -> LatticeSimplex | None:
    """Structural simplex detection: d+1 vertices spanning dimension d."""
    if p.vertices is None or len(p.vertices) != p.ambient_dim + 1:
        return None
    try:
        return LatticeSimplex.from_vertices(p.vertices)
    except DegenerateSimplexError:
        return None


def simplex_contains(s: LatticeSimplex, q: LatticePoint, dilate: int) -> bool:
    """Exact membership of q in the dilate-th dilate of the simplex.

    Decided by the sign pattern of the precomputed scaled inverse, i.e. by
    whether q is a nonnegative rational combination of the vertices with
    coefficient sum equal to `dilate`.
    """
    if len(q) != s.ambient_dim:
        raise InputError("point/simplex dimension mismatch")
    if dilate <= 0:
        raise InputError("dilate must be positive")
    a, _scale = s.membership_kernel
    vec = list(q) + [dilate]
    for row in a:
        if sum(x * y for x, y in zip(row, vec)) < 0:
            return False
    return True


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


def iterated_pyramid(p: LatticePolytope, times: int) -> LatticePolytope:
    if times < 0:
        raise InputError("times must be nonnegative")
    for _ in range(times):
        p = pyramid(p)
    return p


def make_cube(d: int, low: int, high: int, *, max_dim: int = CUBE_DIM_CAP) -> LatticePolytope:
    """[low, high]^d with its 2^d vertices and a product hint."""
    if d < 1:
        raise InputError("cube dimension must be positive")
    if low >= high:
        raise InputError("cube needs low < high")
    if d > max_dim:
        raise InputError(f"cube dimension {d} exceeds the vertex-list cap {max_dim}")
    vertices = tuple(product((low, high), repeat=d))
    hint = BoxHint((low,) * d, (high,) * d)
    return LatticePolytope(d, vertices=vertices, hint=hint)


def make_unimodular_simplex(d: int) -> LatticeSimplex:
    """conv{0, e_1, ..., e_d}; normalized volume 1."""
    if d < 1:
        raise InputError("simplex dimension must be positive")
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
    w = (1,) * ones_len + (big_val,) * big_len + (last_val,)
    origin = (0,) * d
    units = tuple(tuple(1 if j == i else 0 for j in range(d)) for i in range(d - 1))
    return LatticeSimplex.from_vertices((origin,) + units + (w,))


def make_random_simplex(
    d: int, coord_bound: int, seed: int, *, max_attempts: int = 1000
) -> LatticeSimplex:
    """Random nondegenerate simplex; deterministic for a fixed seed.

    Vertices are uniform in [-coord_bound, coord_bound]^d, resampled until
    the volume is nonzero. Raises after `max_attempts` degenerate draws.
    """
    if d < 1 or coord_bound < 1:
        raise InputError("dimension and coordinate bound must be positive")
    rng = random.Random(seed)
    for _ in range(max_attempts):
        vertices = tuple(
            tuple(rng.randint(-coord_bound, coord_bound) for _ in range(d))
            for _ in range(d + 1)
        )
        try:
            return LatticeSimplex.from_vertices(vertices)
        except DegenerateSimplexError:
            continue
    raise DegenerateSimplexError(
        f"no nondegenerate simplex in {max_attempts} draws; coordinate bound too small"
    )


# -- JSON interchange --------------------------------------------------------
#
# {"ambient_dim": 2, "vertices": [[-1,-1],[-1,1],[1,-1],[1,1]]} or
# {"ambient_dim": 2, "halfspaces": [[1,1,0],[1,-1,0],[1,0,1],[1,0,-1]]}
# where [b, a1, ..., ad] encodes b + a.x >= 0. Entries may be JSON
# strings to carry values beyond 64-bit.


def _int_entry(x) -> int:
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise InputError(f"bad integer entry {x!r}")
    try:
        return int(x)
    except ValueError as exc:
        raise InputError(f"bad integer entry {x!r}") from exc


def polytope_from_json(text: str) -> LatticePolytope:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "ambient_dim" not in obj:
        raise InputError("polytope JSON must be an object with 'ambient_dim'")
    dim = _int_entry(obj["ambient_dim"])
    if "vertices" in obj:
        vertices = tuple(tuple(_int_entry(x) for x in v) for v in obj["vertices"])
        return LatticePolytope(dim, vertices=vertices)
    if "halfspaces" in obj:
        rows = []
        for row in obj["halfspaces"]:
            entries = [_int_entry(x) for x in row]
            if len(entries) != dim + 1:
                raise InputError("half-space rows must have 1 + ambient_dim entries")
            rows.append(HalfSpace(entries[0], tuple(entries[1:])))
        return LatticePolytope(dim, halfspaces=tuple(rows))
    raise InputError("polytope JSON needs 'vertices' or 'halfspaces'")


def _json_int(x: int):
    return x if abs(x) < 2**53 else str(x)


def polytope_to_json_obj(p: LatticePolytope) -> dict:
    obj: dict = {"ambient_dim": p.ambient_dim}
    if p.vertices is not None:
        obj["vertices"] = [[_json_int(x) for x in v] for v in p.vertices]
    else:
        obj["halfspaces"] = [
            [_json_int(hs.offset)] + [_json_int(x) for x in hs.normal] for hs in p.halfspaces
        ]
    return obj
