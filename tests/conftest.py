"""Shared test oracles.

`simplex_facets` derives the facets of a simplex independently of the
double description: every d-subset of the vertex set spans a facet,
whose normal comes from cofactors of the edge matrix.
`fraction_brute_count` is a from-scratch membership counter (fresh
Gaussian elimination per point, Fractions throughout) used to pin the
fast kernels on small cases. `every_dilate_counts` is the counting route
that scans every dilate n = 1..d+1 and tests every box point against
every row, kept to pin the reciprocity route, the interval kernel and
the choice of facet rows. `simplex_contains` is the pure-Python point
test on the barycentric coordinates of a simplex, one point at a time.
`fraction_halfspace_box` is the box derivation of half-space polytopes
done over Fractions, one d-row subset at a time, with cofactor rays from
d determinants each, kept to pin the double-description one
(`vertex_box`); its first half, `fraction_vertex_walk`, pins the vertex
set and the ray verdict of `lattice._extreme_rays` itself.
"""

from fractions import Fraction
from itertools import combinations, product

import numpy as np

from ehrstar.errors import InputError, NotFullDimensionalError
from ehrstar.intlinalg import det, scaled_inverse
from ehrstar.lattice import (
    HalfSpace,
    LatticePolytope,
    LatticeSimplex,
    _homogenized_columns,
    affine_dimension,
    make_random_simplex,
)


def simplex_facets(vertices) -> list[HalfSpace]:
    """Exact half-space description of a nondegenerate simplex."""
    d = len(vertices[0])
    verts = list(vertices)
    out = []
    for i, opposite in enumerate(verts):
        pts = verts[:i] + verts[i + 1 :]
        base = pts[0]
        edges = [[p[j] - base[j] for j in range(d)] for p in pts[1:]]
        normal = []
        for j in range(d):
            minor = [row[:j] + row[j + 1 :] for row in edges]
            normal.append((-1) ** j * det(minor))
        offset = -sum(a * x for a, x in zip(normal, base))
        side = sum(a * x for a, x in zip(normal, opposite)) + offset
        assert side != 0, "degenerate simplex handed to the facet oracle"
        if side < 0:
            normal = [-a for a in normal]
            offset = -offset
        out.append(HalfSpace(offset, tuple(normal)))
    return out


def simplex_contains(s: LatticePolytope, q, dilate: int) -> bool:
    """Exact membership of q in the dilate-th dilate of the simplex.

    Decided by the sign pattern of the precomputed scaled inverse, i.e. by
    whether q is a nonnegative rational combination of the vertices with
    coefficient sum equal to `dilate`.
    """
    if len(q) != s.ambient_dim:
        raise InputError("point/simplex dimension mismatch")
    if dilate <= 0:
        raise InputError("dilate must be positive")
    a, _scale = scaled_inverse(_homogenized_columns(s.vertices))
    vec = list(q) + [dilate]
    for row in a:
        if sum(x * y for x, y in zip(row, vec)) < 0:
            return False
    return True


def as_halfspace_polytope(vertices) -> LatticePolytope:
    d = len(vertices[0])
    return LatticePolytope(d, halfspaces=tuple(simplex_facets(vertices)))


def _solve_gauss(rows):
    """Solve an augmented square rational system; None if singular."""
    n = len(rows)
    a = [list(map(Fraction, row)) for row in rows]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        scale = a[col][col]
        a[col] = [x / scale for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                factor = a[i][col]
                a[i] = [x - factor * y for x, y in zip(a[i], a[col])]
    return [a[i][n] for i in range(n)]


def fraction_brute_count(vertices, n: int) -> int:
    """Tiny-case oracle: box scan with per-point barycentric solves."""
    d = len(vertices[0])
    lows = [n * min(v[j] for v in vertices) for j in range(d)]
    highs = [n * max(v[j] for v in vertices) for j in range(d)]
    count = 0
    for q in product(*[range(lo, hi + 1) for lo, hi in zip(lows, highs)]):
        rows = [[v[i] for v in vertices] + [q[i]] for i in range(d)]
        rows.append([1] * len(vertices) + [n])
        coeffs = _solve_gauss(rows)
        assert coeffs is not None
        if all(c >= 0 for c in coeffs):
            count += 1
    return count


def bounded_volume_simplices(d, coord_bound, count, *, volume_cap=None, seed0=0):
    """Deterministic stream of random simplices, filtered by volume."""
    out = []
    seed = seed0
    while len(out) < count:
        s = make_random_simplex(d, coord_bound, seed)
        seed += 1
        if volume_cap is None or s.normalized_volume <= volume_cap:
            out.append(s)
    return out


def full_box_count(lows, highs, rows, offsets, *, chunk=1 << 17) -> int:
    """Points of the box with rows @ x + offsets >= 0, every point tested.

    Chunked like the engine's kernel: a tail block of at most `chunk`
    points is materialized once and reused for every prefix.
    """
    d = len(lows)
    sizes = [hi - lo + 1 for lo, hi in zip(lows, highs)]
    if any(s <= 0 for s in sizes):
        return 0
    if d == 0:
        return 1 if all(c >= 0 for c in offsets) else 0
    maxabs = [max(abs(lo), abs(hi)) for lo, hi in zip(lows, highs)]
    worst = max(
        sum(abs(row[j]) * maxabs[j] for j in range(d)) + abs(c) for row, c in zip(rows, offsets)
    )
    dtype = np.int64 if worst < 2**62 and max(maxabs) < 2**62 else object
    split = d
    tail_count = 1
    while split > 0 and tail_count * sizes[split - 1] <= chunk:
        split -= 1
        tail_count *= sizes[split]
    tail_pts = np.array(
        list(product(*(range(lows[j], highs[j] + 1) for j in range(split, d)))), dtype=dtype
    ).reshape(tail_count, d - split)
    mat = np.array(rows, dtype=dtype)
    tail_contrib = tail_pts @ mat[:, split:].T + np.array(offsets, dtype=dtype)
    count = 0
    for prefix in product(*(range(lows[j], highs[j] + 1) for j in range(split))):
        vals = tail_contrib
        if prefix:
            vals = vals + mat[:, :split] @ np.array(prefix, dtype=dtype)
        count += int((vals >= 0).all(axis=1).sum())
    return count


def every_dilate_counts(p) -> tuple[int, ...]:
    """ehr(0..d+1) of a simplex or a half-space polytope, each dilate scanned.

    A simplex (or a vertex polytope that is one) is scanned with its
    barycentric membership rows, a half-space polytope with all of its own
    rows, each over the box of its vertices.
    """
    d = p.ambient_dim
    if p.vertices is not None:
        p = LatticeSimplex.from_vertices(p.vertices)
        a, _scale = scaled_inverse(_homogenized_columns(p.vertices))
        mins = [min(v[j] for v in p.vertices) for j in range(d)]
        maxs = [max(v[j] for v in p.vertices) for j in range(d)]
        rows = [row[:d] for row in a]
        offsets = [row[d] for row in a]
    else:
        mins, maxs = vertex_box(p)
        rows = [list(h.normal) for h in p.halfspaces]
        offsets = [h.offset for h in p.halfspaces]
    return (1,) + tuple(
        full_box_count([n * m for m in mins], [n * m for m in maxs], rows, [n * c for c in offsets])
        for n in range(1, d + 2)
    )


def vertex_box(p: LatticePolytope):
    """(mins, maxs): the box of the vertices in `p.double_description`."""
    vertices, _facets = p.double_description
    return tuple(map(min, zip(*vertices))), tuple(map(max, zip(*vertices)))


def fraction_vertex_walk(hs, d: int):
    """(points, ray) of a half-space system, one row subset at a time over Fractions.

    points: the feasible solution of every nonsingular d-subset of rows, in
    the order of `combinations`, so a vertex may repeat; ray: whether the
    cofactor ray of some d - 1 normals, the vector of their d signed maximal
    minors, is nonzero and has a dot product of one sign with every normal.
    """
    points = []
    for subset in combinations(hs, d):
        sol = _solve_gauss([list(h.normal) + [-h.offset] for h in subset])
        if sol is None:
            continue
        if all(h.offset + sum(a * x for a, x in zip(h.normal, sol)) >= 0 for h in hs):
            points.append(tuple(sol))
    normals = [h.normal for h in hs]
    for subset in combinations(normals, max(d - 1, 0)):
        ray = [(-1) ** j * det([n[:j] + n[j + 1 :] for n in subset]) for j in range(d)]
        if not any(ray):
            continue
        dots = [sum(a * r for a, r in zip(n, ray)) for n in normals]
        if all(v >= 0 for v in dots) or all(v <= 0 for v in dots):
            return points, True
    return points, False


def fraction_halfspace_box(p: LatticePolytope):
    """`vertex_box` of a half-space polytope over Fractions, with the same errors."""
    d = p.ambient_dim
    points, ray = fraction_vertex_walk(p.halfspaces, d)
    if not points:
        raise InputError("half-space system has no vertices (empty or unbounded)")
    if ray:
        raise InputError("half-space system is unbounded")
    fractional = [pt for pt in points if any(x.denominator != 1 for x in pt)]
    if fractional:
        raise InputError(
            f"half-space polytope has the non-lattice vertex "
            f"({', '.join(map(str, min(fractional)))}); only lattice polytopes are supported"
        )
    vertices = tuple(tuple(int(x) for x in pt) for pt in points)
    rank = affine_dimension(LatticePolytope(d, vertices=vertices))
    if rank != d:
        raise NotFullDimensionalError(
            f"half-space polytope has affine dimension {rank} inside R^{d}"
        )
    return tuple(map(min, zip(*vertices))), tuple(map(max, zip(*vertices)))
