import math
import random
import re
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ehrstar.engine
import ehrstar.lattice
from conftest import (
    as_halfspace_polytope,
    bounded_volume_simplices,
    every_dilate_counts,
    fraction_brute_count,
    fraction_halfspace_box,
    fraction_vertex_walk,
    full_box_count,
    simplex_facets,
    vertex_box,
)
from ehrstar.engine import (
    BoxPointTable,
    CountProfile,
    _count_box_satisfying,
    box_points_simplex,
    compute_vectors,
    count_points,
    count_profile,
    f_star_from_profile,
    h_star_of,
)
from ehrstar.errors import (
    CostGuardExceeded,
    InputError,
    NotFullDimensionalError,
    VolumeCapExceeded,
)
from ehrstar.intlinalg import det, scaled_inverse
from ehrstar.lattice import (
    HalfSpace,
    LatticePolytope,
    LatticeSimplex,
    _extreme_rays,
    _homogenized_columns,
    iterated_pyramid,
    make_cube,
    make_higashitani,
    make_random_simplex,
    make_unimodular_simplex,
    pyramid,
)
from ehrstar.starbasis import f_from_h, h_from_f

SPIKE15_H = (1,) + (0,) * 7 + (131,) + (0,) * 7

segment_0_2 = LatticeSimplex.from_vertices(((0,), (2,)))

small_simplices = st.builds(
    make_random_simplex,
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(0, 10**6),
)


class TestCountPoints:
    def test_square_first_dilate(self):
        assert count_points(make_cube(2, -1, 1), 1) == 9

    def test_unimodular_triangle(self):
        assert count_points(make_unimodular_simplex(2), 2) == 6

    def test_long_segment(self):
        assert count_points(segment_0_2, 3) == 7

    def test_zero_dilate_rejected(self):
        with pytest.raises(InputError):
            count_points(segment_0_2, 0)

    def test_point_polytope(self):
        point = LatticePolytope(0, vertices=((),))
        assert count_points(point, 5) == 1

    def test_hinted_polytopes_at_a_huge_dilate(self):
        # a box or pyramid hint evaluates the Newton form of ehr(0..d+1) at n,
        # so the work does not grow with n; the pyramid over the unit square
        # by its four rows scans its base's profile, not its n-th dilate
        n = 10**12
        square = LatticePolytope(2, halfspaces=tuple(_axis_rows([0, 0], [1, 1])))
        assert count_points(make_cube(3, -1, 1), n) == (2 * n + 1) ** 3
        assert count_points(pyramid(square), n) == (n + 1) * (n + 2) * (2 * n + 3) // 6
        m = n + 1  # ehr(n) = sum over t <= n of (t + 1)(t + 2)(2t + 3) / 6
        assert count_points(iterated_pyramid(make_cube(2, 0, 1), 2), n) == m * (m + 1) ** 2 * (m + 2) // 12

    def test_unhinted_polytopes_at_a_huge_dilate(self):
        # the h*-vector of `compute_vectors` gives every dilate: the box of
        # this simplex's 1000th dilate holds 24,026,009,001 candidates, and
        # its counts ehr(0..4) = 1 5 21 58 125 give ehr(1000) by their Newton form
        s = make_random_simplex(3, 2, 1)
        assert compute_vectors(s).counts == (1, 5, 21, 58, 125)
        for p in (s, as_halfspace_polytope(s.vertices)):
            assert count_points(p, 1000) == 1501501001


class TestCountProfile:
    def test_square(self):
        assert count_profile(make_cube(2, -1, 1)).counts == (1, 9, 25, 49)

    def test_unit_segment(self):
        assert count_profile(make_cube(1, 0, 1)).counts == (1, 2, 3)

    def test_unimodular_triangle(self):
        assert count_profile(make_unimodular_simplex(2)).counts == (1, 3, 6, 10)

    def test_validation(self):
        with pytest.raises(InputError):
            CountProfile(1, (1, 2))  # wrong length
        with pytest.raises(InputError):
            CountProfile(1, (2, 3, 4))  # must start at 1
        with pytest.raises(InputError):
            CountProfile(1, (1, 3, 3))  # must strictly increase

    @given(small_simplices)
    @settings(max_examples=40, deadline=None)
    def test_counts_strictly_increase(self, s):
        counts = count_profile(s).counts
        assert all(b >= a + 1 for a, b in zip(counts[1:], counts[2:]))


class TestForwardDifferences:
    def test_square(self):
        profile = count_profile(make_cube(2, -1, 1))
        assert f_star_from_profile(profile).entries == (9, 16, 8)

    def test_point(self):
        assert f_star_from_profile(CountProfile(0, (1, 1))).entries == (1,)

    def test_unimodular(self):
        profile = count_profile(make_unimodular_simplex(3))
        assert f_star_from_profile(profile).entries == (4, 6, 4, 1)


class TestBoxPoints:
    @pytest.mark.parametrize("d", [1, 2, 5, 10])
    def test_unimodular(self, d):
        table = box_points_simplex(make_unimodular_simplex(d))
        assert table.heights == (1,) + (0,) * d

    def test_spiked_15(self):
        table = box_points_simplex(make_higashitani(7, 131, 7, 132))
        assert table.heights == SPIKE15_H
        assert table.normalized_volume == 132

    def test_long_segment(self):
        # independence oracle: interpolation of the same simplex
        table = box_points_simplex(segment_0_2)
        via_counts = h_from_f(f_star_from_profile(count_profile(segment_0_2)))
        assert table.heights == via_counts.entries == (1, 1)

    def test_volume_cap(self):
        with pytest.raises(VolumeCapExceeded):
            box_points_simplex(segment_0_2, volume_cap=1)

    @given(small_simplices)
    @settings(max_examples=40, deadline=None)
    def test_heights_sum_to_volume(self, s):
        table = box_points_simplex(s)
        assert sum(table.heights) == s.normalized_volume
        assert table.heights[0] == 1
        # a plain vertex list of the same points takes the same route
        assert box_points_simplex(LatticePolytope(s.ambient_dim, vertices=s.vertices)) == table

    @pytest.mark.parametrize("p", [
        make_cube(2, -1, 1),
        as_halfspace_polytope(((0, 0), (1, 0), (0, 1))),
        LatticePolytope(2, vertices=((0, 0), (1, 0), (0, 1), (1, 1))),
        LatticePolytope(2, vertices=((0, 0), (1, 1), (2, 2))),
    ], ids=["cube", "h-simplex", "square-by-4-vertices", "degenerate-triangle"])
    def test_needs_a_simplex_by_its_vertices(self, p):
        assert p.normalized_volume is None
        with pytest.raises(InputError, match="needs a simplex given by its d \\+ 1 vertices"):
            box_points_simplex(p)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda diag, t: ([2 * diag[0], *diag[1:]], t), "normal form inconsistent with the volume"),
        (lambda diag, t: (diag, [[x + 1 for x in row] for row in t]),
         "residue lift has non-integer height"),
        (lambda diag, t: (diag, [[0] * len(row) for row in t]),  # every lift at height 0
         "parallelepiped enumeration lost residues"),
    ], ids=["diag", "lift", "heights"])
    def test_corrupted_diagonal_form_raises(self, monkeypatch, corrupt, message):
        # homogenized vertices of conv{0, e_1, e_2, (1, 3, 5)}: diag (1, 1, 1, 5)
        s = LatticeSimplex.from_vertices(((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 3, 5)))
        diagonalize = ehrstar.engine.diagonalize_lattice_basis
        monkeypatch.setattr(ehrstar.engine, "diagonalize_lattice_basis",
                            lambda rows: corrupt(*diagonalize(rows)))
        with pytest.raises(ArithmeticError) as excinfo:
            box_points_simplex(s)
        assert str(excinfo.value) == message

    @given(small_simplices)
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_interpolation(self, s):
        via_box = box_points_simplex(s).heights
        via_counts = h_from_f(f_star_from_profile(count_profile(s))).entries
        assert via_box == via_counts


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_barycentric_vs_halfspace_vs_fractions(self, d, seed):
        s = make_random_simplex(d, 3, seed)
        by_facets = as_halfspace_polytope(s.vertices)
        for n in (1, 2, 3):
            expected = fraction_brute_count(s.vertices, n)
            assert count_points(s, n) == expected
            assert count_points(by_facets, n) == expected

    @pytest.mark.parametrize("d, count", [(1, 60), (2, 70), (3, 70)])
    def test_vertex_plan_vs_facet_plan(self, d, count):
        # the simplices of acceptance criterion 5: one pass over the plan of
        # the vertex list and over the plan of the facets give the same
        # closed and interior counts at every dilate
        for s in bounded_volume_simplices(d, 4, count, seed0=1000 * d):
            plans = [ehrstar.engine._scan_plan(p) for p in (s, as_halfspace_polytope(s.vertices))]
            for n in range(1, 6):
                assert len({ehrstar.engine._scan_dilate(plan, n) for plan in plans}) == 1, (s, n)

    def test_square_via_halfspaces(self):
        square = LatticePolytope(
            2,
            halfspaces=(
                HalfSpace(1, (1, 0)),
                HalfSpace(1, (-1, 0)),
                HalfSpace(1, (0, 1)),
                HalfSpace(1, (0, -1)),
            ),
        )
        assert count_profile(square).counts == (1, 9, 25, 49)

    def test_product_shortcut_vs_inequality_scan(self):
        # [0,2]^3: closed-form per-axis counts against an H-description scan
        cube = make_cube(3, 0, 2)
        box = LatticePolytope(
            3,
            halfspaces=tuple(
                HalfSpace(off, normal)
                for j in range(3)
                for off, normal in (
                    (0, tuple(1 if k == j else 0 for k in range(3))),
                    (2, tuple(-1 if k == j else 0 for k in range(3))),
                )
            ),
        )
        for n in range(1, 5):
            expected = (2 * n + 1) ** 3
            assert count_points(cube, n) == expected
            assert count_points(box, n) == expected


class TestPyramids:
    def test_pyramid_over_square_counts_match_halfspaces(self):
        # cross-section partial sums vs an independent H-description of the
        # same pyramid: 0 <= x, y; 0 <= z; x <= 1 - z; y <= 1 - z
        pyr = pyramid(make_cube(2, 0, 1))
        by_facets = LatticePolytope(
            3,
            halfspaces=(
                HalfSpace(0, (1, 0, 0)),
                HalfSpace(0, (0, 1, 0)),
                HalfSpace(0, (0, 0, 1)),
                HalfSpace(1, (-1, 0, -1)),
                HalfSpace(1, (0, -1, -1)),
            ),
        )
        for n in range(1, 5):
            assert count_points(pyr, n) == count_points(by_facets, n)

    @pytest.mark.parametrize("times", [1, 2, 3])
    @pytest.mark.parametrize("low, high", [(0, 1), (-1, 2)])
    def test_pyramid_rows_without_the_hint(self, times, low, high):
        # the rows that `pyramid` writes over a half-space base cut out the
        # pyramid itself: counted as a plain H-polytope, they give the
        # hinted cross-section sums
        for d in (2, 3):  # make_cube gives d = 1 its vertices
            tower = iterated_pyramid(make_cube(d, low, high), times)
            rows = LatticePolytope(d + times, halfspaces=tower.halfspaces)
            assert count_profile(rows).counts == count_profile(tower).counts

    def test_pyramid_invariant_cube(self):
        base = h_star_of(make_cube(2, -1, 1))
        lifted = h_star_of(pyramid(make_cube(2, -1, 1)))
        assert lifted.entries == base.entries + (0,)

    @pytest.mark.parametrize("s", [
        make_unimodular_simplex(2),
        make_higashitani(2, 3, 1, 4),
        make_random_simplex(3, 2, 5),
    ], ids=["unimodular", "higashitani", "random"])
    def test_generator_simplices_take_the_polytope_operations(self, s):
        d = s.ambient_dim
        plain = LatticePolytope(d, vertices=s.vertices)
        assert s.dim == d
        assert s.double_description == plain.double_description
        assert count_points(s, 2) == count_points(plain, 2)
        assert pyramid(s).vertices == pyramid(plain).vertices
        assert iterated_pyramid(s, 2).ambient_dim == d + 2
        assert h_star_of(pyramid(s)).entries == h_star_of(s).entries + (0,)
        assert h_star_of(iterated_pyramid(s, 2)).entries == h_star_of(plain).entries + (0, 0)

    def test_pyramid_invariant_spiked_simplex(self):
        s = make_higashitani(7, 131, 7, 132)
        lifted = h_star_of(pyramid(s))
        assert lifted.entries == SPIKE15_H + (0,)

    @given(small_simplices)
    @settings(max_examples=20, deadline=None)
    def test_pyramid_invariant_random(self, s):
        assert h_star_of(pyramid(s)).entries == h_star_of(s).entries + (0,)


class TestHStarDispatch:
    def test_square_interpolation_route(self):
        result = compute_vectors(make_cube(2, -1, 1))
        assert result.route == "interpolation"
        assert result.h.entries == (1, 6, 1)
        assert result.f.entries == (9, 16, 8)
        assert result.counts == (1, 9, 25, 49)

    def test_segment_cube_and_its_pyramids_stay_simplices(self):
        # make_cube gives d = 1 its two vertices, so the route does not change
        for p in (make_cube(1, -2, 3), iterated_pyramid(make_cube(1, 0, 2), 2)):
            assert compute_vectors(p).route == "parallelepiped"

    def test_simplex_parallelepiped_route(self):
        result = compute_vectors(make_higashitani(7, 131, 7, 132))
        assert result.route == "parallelepiped"
        assert result.h.entries == SPIKE15_H

    def test_unimodular_both_routes_agree(self):
        for d in range(1, 7):
            s = make_unimodular_simplex(d)
            via_box = h_star_of(s)
            via_counts = h_from_f(f_star_from_profile(count_profile(s)))
            assert via_box.entries == via_counts.entries

    def test_volume_cap_falls_back_to_interpolation(self):
        result = compute_vectors(segment_0_2, volume_cap=1)
        assert result.route == "interpolation"
        assert result.h.entries == (1, 1)

    def test_vertex_polytope_detected_as_simplex(self):
        p = LatticePolytope(2, vertices=((0, 0), (1, 0), (0, 1)))
        assert h_star_of(p).entries == (1, 0, 0)

    def test_polytope_derived_flag(self):
        assert h_star_of(make_cube(2, -1, 1)).polytope_derived


class TestGuardsAndErrors:
    def test_count_cap(self):
        # the cap bounds the scanned dilates of the profile, whatever n is:
        # a simplex by its vertices scans none, [0, 2]^3 by its vertices
        # scans n = 1 and 2, and the box of n = 1 holds 27 candidates
        assert count_points(make_unimodular_simplex(3), 5, count_cap=10) == math.comb(8, 3)
        cube = LatticePolytope(3, vertices=tuple(product((0, 2), repeat=3)))
        with pytest.raises(CostGuardExceeded, match="visit 27 candidates"):
            count_points(cube, 1, count_cap=10)

    def test_plain_vertex_polytope_is_counted(self):
        square = LatticePolytope(2, vertices=((0, 0), (1, 0), (0, 1), (1, 1)))
        assert [count_points(square, n) for n in (1, 2, 3)] == [4, 9, 16]

    def test_lower_dimensional_rejected(self):
        seg = LatticePolytope(2, vertices=((0, 0), (2, 2)))
        with pytest.raises(NotFullDimensionalError):
            count_profile(seg)

    def test_unbounded_halfspaces_rejected(self):
        p = LatticePolytope(1, halfspaces=(HalfSpace(0, (1,)),))
        with pytest.raises(InputError):
            count_points(p, 1)

    def test_empty_halfspaces_rejected(self):
        p = LatticePolytope(1, halfspaces=(HalfSpace(-1, (1,)), HalfSpace(0, (-1,))))
        with pytest.raises(InputError):
            count_points(p, 1)

    def test_empty_zero_dimensional_halfspaces_rejected(self):
        # d = 0 scans no dilate, so the box derivation alone must reject -1 >= 0
        p = LatticePolytope(0, halfspaces=(HalfSpace(-1, ()),))
        with pytest.raises(InputError, match="no vertices"):
            count_profile(p)

    def test_lower_dimensional_halfspaces_rejected(self):
        p = LatticePolytope(
            2,
            halfspaces=(
                HalfSpace(0, (1, 0)),
                HalfSpace(0, (-1, 0)),
                HalfSpace(0, (0, 1)),
                HalfSpace(1, (0, -1)),
            ),
        )
        with pytest.raises(NotFullDimensionalError):
            count_points(p, 1)


class _RankComputed(Exception):
    pass


_FLAT = "polytope has affine dimension 1 inside R^2; Ehrhart operations need a full-dimensional polytope"
# each entry point's ehr(1)
_ENTRY_POINTS = {
    "compute_vectors": lambda p: compute_vectors(p).counts[1],
    "count_profile": lambda p: count_profile(p).counts[1],
    "count_points": lambda p: count_points(p, 1),
}


class TestCountingDispatch:
    """Hints and scan plans count each input; hints and (d+1)-vertex simplices need no rank."""

    @pytest.fixture
    def no_rank(self, monkeypatch):
        def refuse(p):
            raise _RankComputed

        monkeypatch.setattr(ehrstar.lattice, "affine_dimension", refuse)

    @pytest.mark.parametrize("entry", _ENTRY_POINTS)
    def test_hinted_polytopes_skip_the_rank(self, no_rank, entry):
        assert _ENTRY_POINTS[entry](make_cube(12, 0, 1)) == 2**12
        tower = ehrstar.lattice.iterated_pyramid(make_cube(3, -1, 1), 2)
        assert _ENTRY_POINTS[entry](tower) == 27 + 2

    def test_simplex_vertex_list_skips_the_rank(self, no_rank):
        # d + 1 vertices: the nonzero determinant proves full dimension
        s = make_higashitani(7, 131, 7, 132)
        assert compute_vectors(LatticePolytope(s.ambient_dim, vertices=s.vertices)).h.entries == SPIKE15_H
        # count_points evaluates that h*; the profile scans, and its vertex
        # box is far over the count cap, which is checked after the dispatch
        assert count_points(LatticePolytope(s.ambient_dim, vertices=s.vertices), 1) == 16
        with pytest.raises(CostGuardExceeded):
            count_profile(LatticePolytope(s.ambient_dim, vertices=s.vertices))

    @pytest.mark.parametrize("entry", _ENTRY_POINTS)
    @pytest.mark.parametrize("vertices, outcome", [
        pytest.param(((0, 0), (2, 2)), _FLAT, id="segment"),
        pytest.param(((0, 0), (1, 1), (3, 3)), _FLAT, id="collinear"),
        pytest.param(((0, 0), (1, 0), (0, 1), (1, 1)), 4, id="square"),
    ])
    def test_unhinted_vertex_inputs(self, entry, vertices, outcome):
        # a flat list is refused with its rank; anything else is counted by its facets
        p = LatticePolytope(2, vertices=vertices)
        if isinstance(outcome, int):
            assert _ENTRY_POINTS[entry](p) == outcome
            return
        with pytest.raises(NotFullDimensionalError) as info:
            _ENTRY_POINTS[entry](p)
        assert str(info.value) == outcome

    @pytest.mark.parametrize("entry", _ENTRY_POINTS)
    def test_facet_route_skips_the_rank(self, no_rank, entry):
        octahedron = LatticePolytope(3, vertices=tuple(
            tuple(s * (k == j) for k in range(3)) for j in range(3) for s in (1, -1)))
        assert _ENTRY_POINTS[entry](octahedron) == 7

    @pytest.mark.parametrize("entry", _ENTRY_POINTS)
    def test_halfspace_inputs_skip_the_rank(self, no_rank, entry):
        # full dimension is read off the rows tight on every vertex
        box = tuple(_axis_rows([-1, 0, 2], [1, 2, 3]))
        cuts = (HalfSpace(5, (1, 1, 0)), HalfSpace(0, (0, 0, 0)), HalfSpace(3, (0, 0, 2)))
        s = make_random_simplex(3, 2, 5)
        cross = tuple(HalfSpace(1, signs) for signs in product((-1, 1), repeat=6))
        for p, points in [
            (LatticePolytope(3, halfspaces=box), 18),
            (LatticePolytope(3, halfspaces=cuts[:1] + box + cuts[1:]), 18),
            (LatticePolytope(3, halfspaces=tuple(simplex_facets(s.vertices))),
             compute_vectors(s).counts[1]),
            (LatticePolytope(6, halfspaces=cross), 13),
        ]:
            assert _ENTRY_POINTS[entry](p) == points

    @pytest.mark.parametrize("rows, rank", [
        pytest.param([(0, (1, 0)), (2, (-1, 0)), (0, (0, 1)), (0, (0, -1))], 1, id="segment"),
        pytest.param([(0, (1, 0)), (0, (0, 1)), (0, (-1, -1)), (0, (0, 0))], 0, id="point"),
        pytest.param([(0, (1, 0, 0)), (0, (0, 1, 0)), (0, (0, 0, 1)), (1, (-1, -1, -1)),
                      (-1, (1, 1, 1))], 2, id="triangle"),
    ])
    def test_flat_halfspace_input_names_its_rank(self, rows, rank):
        d = len(rows[0][1])
        p = LatticePolytope(d, halfspaces=tuple(HalfSpace(b, a) for b, a in rows))
        with pytest.raises(NotFullDimensionalError) as info:
            p.double_description
        assert str(info.value) == f"half-space polytope has affine dimension {rank} inside R^{d}"

    def test_one_double_description_per_polytope(self, monkeypatch):
        calls = []
        rays = ehrstar.lattice._extreme_rays
        monkeypatch.setattr(ehrstar.lattice, "_extreme_rays", lambda *a: calls.append(a) or rays(*a))
        octahedron = LatticePolytope(3, vertices=tuple(
            tuple(s * (k == j) for k in range(3)) for j in range(3) for s in (1, -1)))
        cross = LatticePolytope(3, halfspaces=tuple(HalfSpace(1, s) for s in product((-1, 1), repeat=3)))
        for p in (octahedron, cross):
            calls.clear()
            for entry in _ENTRY_POINTS.values():
                assert entry(p) == 7
            assert len(calls) == 1
        calls.clear()
        s = make_unimodular_simplex(3)
        assert count_profile(s).counts == every_dilate_counts(s)
        assert count_points(s, 2) == 10 and len(calls) == 0  # its plan comes from one scaled inverse

    @pytest.mark.parametrize("entry", _ENTRY_POINTS)
    def test_pyramid_over_a_flat_base_reports_the_base(self, entry):
        p = pyramid(LatticePolytope(2, vertices=((0, 0), (2, 2))))
        with pytest.raises(NotFullDimensionalError) as info:
            _ENTRY_POINTS[entry](p)
        assert str(info.value) == _FLAT

    def test_kernel_limit_whatever_the_cap(self):
        ehrstar.engine._check_scan_cost(ehrstar.engine._ScanPlan([0, 0], [2**61 - 1, 0], [], []), 1, 10**30)
        with pytest.raises(CostGuardExceeded, match=r"^bounding-box scan would visit 4611686018427387904 "
                           r"candidates; the scan kernel takes fewer than 2\^62$"):
            ehrstar.engine._check_scan_cost(ehrstar.engine._ScanPlan([0, 0], [2**61 - 1, 1], [], []), 1, 10**30)


class TestHalfspaceVertexStep:
    """Box derivation of H-polytopes, pinned by simplices known by their vertices."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("d", range(1, 7))
    def test_simplex_facets_give_the_vertex_box(self, d, seed):
        s = make_random_simplex(d, 2, seed)
        facets = simplex_facets(s.vertices)
        start = time.perf_counter()
        box = vertex_box(LatticePolytope(d, halfspaces=tuple(facets)))
        assert time.perf_counter() - start < 1.0
        assert box == (tuple(map(min, zip(*s.vertices))), tuple(map(max, zip(*s.vertices))))
        # without one facet the rest is a cone at the opposite vertex
        for i in range(d + 1):
            cone = LatticePolytope(d, halfspaces=tuple(facets[:i] + facets[i + 1 :]))
            with pytest.raises(InputError, match="^half-space system is unbounded$"):
                cone.double_description

    def test_non_lattice_vertex_rejected(self):
        # 2 + 3x - 2y >= 0, 4 - 3x + y >= 0, 3x >= 0 has the vertex (10/3, 6)
        p = LatticePolytope(
            2, halfspaces=(HalfSpace(2, (3, -2)), HalfSpace(4, (-3, 1)), HalfSpace(0, (3, 0)))
        )
        with pytest.raises(InputError, match=r"non-lattice vertex \(10/3, 6\)"):
            compute_vectors(p)

    def test_work_cap_checked_before_each_step(self, monkeypatch):
        # conv(+-e_i) in R^4 by its 16 facets, under every cap up to the
        # run's total work. Each new ray is reduced by its gcd once, so the
        # reductions count the rays that a run has built. The pass that
        # reads the tight rows of the final rays is charged after the last
        # row, as row 18, before the rays are returned.
        rows = tuple(HalfSpace(1, s) for s in product((-1, 1), repeat=4))
        built = []
        reduce = ehrstar.lattice._reduce_by_gcd
        monkeypatch.setattr(ehrstar.lattice, "_reduce_by_gcd", lambda r: built.append(1) or reduce(r))
        refused = {}  # row of the refused step -> rays built before the refusal
        for cap in range(10**4):
            monkeypatch.setattr(ehrstar.lattice, "_HALFSPACE_WORK_CAP", cap)
            built.clear()
            try:
                box = vertex_box(LatticePolytope(4, halfspaces=rows))
                break
            except CostGuardExceeded as exc:
                match = re.fullmatch(rf"vertex enumeration would pass {cap} adjacency tests "
                                     r"(at|after) row (\d+) of 17", str(exc))
                assert match, str(exc)
                row = int(match[2]) + (match[1] == "after")
                assert row >= max(refused, default=0)
                # a larger cap that still refuses at this row built nothing more
                assert refused.setdefault(row, len(built)) == len(built)
        assert box == ((-1,) * 4, (1,) * 4)
        assert len(refused) >= 3 and min(refused.values()) < len(built)
        assert refused[18] == len(built)

    def test_redundant_rows_charged_for_their_pass_over_the_rays(self, monkeypatch):
        # the 6-cube by its 12 facets and 1,000 rows 100 + i + x_1 >= 0: no
        # row separates a pair, yet each reads all 64 rays, d + 1 units each
        d = 6
        rows = [HalfSpace(1, tuple(s * (k == j) for k in range(d))) for j in range(d) for s in (1, -1)]
        rows += [HalfSpace(100 + i, tuple(int(k == 0) for k in range(d))) for i in range(1000)]
        assert len(LatticePolytope(d, halfspaces=tuple(rows)).double_description[0]) == 2**d
        monkeypatch.setattr(ehrstar.lattice, "_HALFSPACE_WORK_CAP", 10**5)
        with pytest.raises(CostGuardExceeded) as exc:
            LatticePolytope(d, halfspaces=tuple(rows)).double_description
        match = re.fullmatch(r"vertex enumeration would pass 100000 adjacency tests at row (\d+) of 1013",
                             str(exc.value))
        assert match and 13 < int(match[1]) < 1013, str(exc.value)

    # The polar of the cyclic polytope C(m, d) by its m facets: the double
    # description refuses it under the real cap part way through the rows,
    # and the refused step has solved no crossing: the rays built are
    # exactly those of the run over the rows before it.
    @pytest.mark.parametrize("m, d", [(30, 6), (23, 17)])
    def test_subsystem_cap_checked_before_any_solve(self, monkeypatch, m, d):
        ts = range(-(m // 2), m - m // 2)
        points = [[t**k for k in range(1, d + 1)] for t in ts]
        center = [sum(col) for col in zip(*points)]
        rows = tuple(HalfSpace(1, tuple(c - m * x for c, x in zip(center, p))) for p in points)
        built = []
        reduce = ehrstar.lattice._reduce_by_gcd
        monkeypatch.setattr(ehrstar.lattice, "_reduce_by_gcd", lambda r: built.append(1) or reduce(r))
        with pytest.raises(CostGuardExceeded) as exc:
            LatticePolytope(d, halfspaces=rows).double_description
        match = re.fullmatch(r"vertex enumeration would pass \d+ adjacency tests "
                             rf"at row (\d+) of {m + 1}", str(exc.value))
        assert match, str(exc.value)
        row = int(match[1])
        assert d + 1 < row <= m
        refused_after = len(built)
        built.clear()
        homogenized = [[1] + [0] * d] + [[h.offset, *h.normal] for h in rows]
        assert ehrstar.lattice._extreme_rays(homogenized[:row - 1], d + 1) is not None
        assert refused_after == len(built)


def _random_h_system(rng) -> LatticePolytope:
    """A small half-space system: bounded, unbounded, empty, flat or non-lattice.

    Boxes, which have 2d rows, are used up to d = 3 and simplex facets,
    which have d + 1, beyond, so that the Fraction oracle stays fast.
    """
    d = rng.choice((1, 2, 2, 3, 3, 3, 4, 4, 5))
    kind = rng.choice(("facets", "dropped", "box", "cut", "random"))
    if d > 3 or kind in ("facets", "dropped"):
        rows = simplex_facets(make_random_simplex(d, 2, rng.randrange(10**6)).vertices)
        if kind == "dropped":
            del rows[rng.randrange(len(rows))]
        elif kind == "random":
            rows = rows[1:]
        elif rng.random() < 0.5:  # a redundant copy of a facet, scaled
            h = rng.choice(rows)
            k = rng.randint(1, 3)
            rows.append(HalfSpace(k * h.offset + rng.randint(0, 2), tuple(k * a for a in h.normal)))
    else:
        lows = [rng.randint(-3, 2) for _ in range(d)]
        rows = _axis_rows(lows, [lo + rng.randint(-1 if kind == "box" else 1, 3) for lo in lows])
        if kind == "random":
            rows = rng.sample(rows, rng.randint(1, len(rows)))
    if kind in ("cut", "random"):
        for _ in range(rng.randint(1, 2 if d <= 3 else 1)):
            rows.append(HalfSpace(rng.randint(-4, 6), tuple(rng.randint(-3, 3) for _ in range(d))))
    rng.shuffle(rows)
    return LatticePolytope(d, halfspaces=tuple(rows))


def _box_outcome(box_of, p):
    try:
        return box_of(p)
    except (InputError, NotFullDimensionalError) as exc:
        return type(exc).__name__, str(exc)


class TestFractionFreeBox:
    """The integer box derivation against the Fraction and cofactor oracle."""

    KINDS = ("no vertices", "unbounded", "non-lattice", "affine dimension")

    @pytest.mark.parametrize("block", range(20))
    def test_matches_the_fraction_oracle(self, block):
        rng = random.Random(block)
        seen = Counter()
        for _ in range(100):
            p = _random_h_system(rng)
            expected = _box_outcome(fraction_halfspace_box, p)
            assert _box_outcome(vertex_box, p) == expected, p
            if isinstance(expected[0], str):
                seen[next(k for k in self.KINDS if k in expected[1])] += 1
            else:
                seen["bounded"] += 1
        assert len(seen) == 5, seen


def _random_rows(rng) -> tuple[int, tuple[HalfSpace, ...]]:
    """Up to 9 rows with small entries in R^1..R^5.

    Some rows are shifted multiples of earlier ones, and some are their
    reverses, which make the two rows an equation.
    """
    d = rng.randint(1, 5)
    rows = []
    for _ in range(rng.randint(d - 1, 9)):
        if rows and rng.random() < 0.3:
            h, k = rng.choice(rows), rng.choice((-1, 1, 2, 3))
            shift = 0 if k < 0 else rng.randint(-1, 1)
            rows.append(HalfSpace(k * h.offset + shift, tuple(k * a for a in h.normal)))
        else:
            rows.append(HalfSpace(rng.randint(-3, 4), tuple(rng.randint(-3, 3) for _ in range(d))))
    return d, tuple(rows)


def _cone_rays(hs, d):
    """`_extreme_rays` of the cone over the rows, as `double_description` runs it."""
    return _extreme_rays([[1] + [0] * d] + [[h.offset, *h.normal] for h in hs], d + 1)


def _dd_vertices(hs, d):
    """(vertex set, verdict) read off `_cone_rays`."""
    rays = _cone_rays(hs, d)
    rays = None if rays is None else [r for r, _tight in rays]
    if rays is None or all(r[0] == 0 for r in rays):
        return set(), "no vertices"
    points = {tuple(Fraction(v, r[0]) for v in r[1:]) for r in rays if r[0]}
    return points, "unbounded" if any(r[0] == 0 for r in rays) else "bounded"


class TestVertexWalk:
    """The double-description vertex enumeration against the subset-by-subset oracle."""

    @pytest.mark.parametrize("block", range(4))
    def test_matches_the_subset_oracle(self, block):
        rng = random.Random(7000 + block)
        seen = Counter()
        for i in range(100):
            if i % 2:
                d, hs = _random_rows(rng)
                p = LatticePolytope(d, halfspaces=hs)
            else:
                p = _random_h_system(rng)
                d, hs = p.ambient_dim, p.halfspaces
            points, ray = fraction_vertex_walk(hs, d)
            verdict = "no vertices" if not points else "unbounded" if ray else "bounded"
            assert _dd_vertices(hs, d) == (set(points), verdict), p
            outcome = _box_outcome(vertex_box, p)
            if isinstance(outcome[0], str):
                seen[next(k for k in TestFractionFreeBox.KINDS if k in outcome[1])] += 1
            else:
                seen["bounded"] += 1
            seen["lineality"] += _cone_rays(hs, d) is None
            seen["repeated vertex"] += len(set(points)) < len(points)
            singular = any(det([list(h.normal) for h in s]) == 0 for s in combinations(hs, d))
            seen["dependent rows"] += bool(points) and singular
        kinds = ("bounded", *TestFractionFreeBox.KINDS, "lineality", "repeated vertex",
                 "dependent rows")
        assert all(seen[k] for k in kinds), seen

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_cross_polytopes(self, d):
        # conv(+-e_i) has the 2^d facets 1 + s . x >= 0, s in {-1, 1}^d, and h* = binom(d, .)
        rows = tuple(HalfSpace(1, s) for s in product((-1, 1), repeat=d))
        p = LatticePolytope(d, halfspaces=rows)
        assert vertex_box(p) == ((-1,) * d, (1,) * d)
        assert compute_vectors(p).h.entries == tuple(math.comb(d, i) for i in range(d + 1))

    def test_cube_with_redundant_and_scaled_cuts(self):
        rows = _axis_rows([-1] * 3, [1] * 3)
        rows += [HalfSpace(3 * h.offset, tuple(3 * a for a in h.normal)) for h in rows[:3]]
        rows += [HalfSpace(2 * h.offset + 1, tuple(2 * a for a in h.normal)) for h in rows[3:6]]
        rows += [HalfSpace(sum(map(abs, s)), s) for s in product((-1, 0, 1), repeat=3) if any(s)]
        rows += [HalfSpace(5, (1, 2, 1)), HalfSpace(7, (-2, -2, 3))]
        p = LatticePolytope(3, halfspaces=tuple(rows))
        assert vertex_box(p) == ((-1,) * 3, (1,) * 3)
        assert compute_vectors(p).h.entries == compute_vectors(make_cube(3, -1, 1)).h.entries


class TestVertexLists:
    """Vertex lists that are not simplices are counted through their facets."""

    def test_octahedron(self):
        p = LatticePolytope(3, vertices=tuple(
            tuple(s * (k == j) for k in range(3)) for j in range(3) for s in (1, -1)))
        result = compute_vectors(p)
        assert (result.h.entries, result.route) == ((1, 3, 3, 1), "interpolation")
        assert result.counts == every_dilate_counts(
            LatticePolytope(3, halfspaces=tuple(HalfSpace(1, s) for s in product((-1, 1), repeat=3))))

    @pytest.mark.parametrize("d", range(2, 6))
    @pytest.mark.parametrize("low, high", [(0, 1), (-1, 1), (-1, 2)])
    def test_cubes_by_their_vertices(self, d, low, high):
        p = LatticePolytope(d, vertices=tuple(product((low, high), repeat=d)))
        assert count_profile(p).counts == tuple((n * (high - low) + 1) ** d for n in range(d + 2))
        assert h_star_of(p) == h_star_of(make_cube(d, low, high))

    @pytest.mark.parametrize("d", range(2, 6))
    def test_cross_polytopes_by_their_vertices(self, d):
        units = [tuple(s * (k == j) for k in range(d)) for j in range(d) for s in (1, -1)]
        p = LatticePolytope(d, vertices=tuple(units))
        assert h_star_of(p).entries == tuple(math.comb(d, i) for i in range(d + 1))

    @pytest.mark.parametrize("d", range(2, 5))
    def test_simplex_plus_an_interior_point(self, d):
        # conv(S + one lattice point inside S) is S, so the h* is S's own
        rng = random.Random(d)
        checked = 0
        while checked < 4:
            s = make_random_simplex(d, 3, rng.randrange(10**6))
            a, _scale = scaled_inverse(_homogenized_columns(s.vertices))
            box = product(*(range(min(c), max(c) + 1) for c in zip(*s.vertices)))
            inside = [q for q in box if all(sum(x * y for x, y in zip(row, (*q, 1))) > 0 for row in a)]
            if not inside:
                continue
            vertices = list(s.vertices)
            vertices.insert(rng.randrange(d + 2), rng.choice(inside))
            p = LatticePolytope(d, vertices=tuple(vertices))
            assert p.normalized_volume is None
            result = compute_vectors(p)
            assert result.route == "interpolation"
            assert result.h == h_star_of(s)
            checked += 1

    def test_forty_random_vertices_in_r5(self):
        # most separated pairs share too few tight rows to be adjacent, and
        # the work measure charges them one count each
        rng = random.Random(0)
        vertices = tuple(tuple(rng.randint(-2, 2) for _ in range(5)) for _ in range(40))
        p = LatticePolytope(5, vertices=vertices)
        facets = p.double_description[1]
        for h in facets:
            tight = [v for v in vertices if h.offset + sum(a * x for a, x in zip(h.normal, v)) == 0]
            assert ehrstar.lattice.affine_dimension(LatticePolytope(5, vertices=tuple(tight))) == 4
        assert all(h.offset + sum(a * x for a, x in zip(h.normal, v)) >= 0
                   for h in facets for v in vertices)
        h = compute_vectors(p).h.entries
        assert h[0] == 1 and min(h) >= 0 and len(h) == 6


def _primitive(h: HalfSpace) -> tuple[int, ...]:
    g = math.gcd(h.offset, *h.normal)
    return (h.offset // g, *(a // g for a in h.normal))


def _facet_sources():
    """(d, vertices): lists whose facets the tests below pad with other rows."""
    yield from ((d, make_random_simplex(d, 2, seed).vertices) for d in range(1, 5) for seed in range(3))
    yield from ((d, tuple(product((low, low + 1), repeat=d))) for d in range(2, 5) for low in (-1, 0))
    yield from ((d, tuple(tuple(s * (k == j) for k in range(d)) for j in range(d) for s in (1, -1)))
                for d in range(2, 5))
    rng = random.Random(11)
    for d in (2, 3, 3):
        yield d, tuple(tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(9))


_FACET_SOURCES = list(_facet_sources())


class TestFacetRows:
    """A half-space list is scanned with one of its own rows per facet."""

    @pytest.mark.parametrize("case", range(len(_FACET_SOURCES)))
    def test_padded_facets(self, case):
        d, vertices = _FACET_SOURCES[case]
        facets = LatticePolytope(d, vertices=vertices).double_description[1]
        rng = random.Random(case)
        rows = list(facets)
        for h in rng.sample(facets, 2):  # a duplicate and a positive multiple
            k = rng.randint(2, 4)
            rows += [h, HalfSpace(k * h.offset, tuple(k * a for a in h.normal))]
        for _ in range(4):  # the sum of two facets: tight on a lower face, or strictly redundant
            g, h = rng.sample(facets, 2)
            rows.append(HalfSpace(g.offset + h.offset + rng.randint(0, 1),
                                  tuple(a + b for a, b in zip(g.normal, h.normal))))
        rows += [HalfSpace(0, (0,) * d), HalfSpace(5, (0,) * d)]
        rng.shuffle(rows)
        p = LatticePolytope(d, halfspaces=tuple(rows))
        kept = p.double_description[1]
        assert len(kept) == len(facets)
        assert {_primitive(h) for h in kept} == {_primitive(h) for h in facets}
        assert all(h in rows for h in kept)
        assert count_profile(p).counts == every_dilate_counts(p)

    def test_row_tight_on_a_square_face_of_the_4_cube(self):
        # x1 + x2 >= 0 is tight on the 4 vertices of a 2-face: as many as a facet has points
        # in general position, but its tight set lies inside those of x1 >= 0 and x2 >= 0
        rows = (*_axis_rows([0] * 4, [1] * 4), HalfSpace(0, (1, 1, 0, 0)))
        p = LatticePolytope(4, halfspaces=rows)
        assert p.double_description[1] == rows[:-1]
        assert count_profile(p).counts == every_dilate_counts(p) == tuple((n + 1) ** 4 for n in range(6))


def _axis_rows(lows, highs):
    """The half-space rows of the box prod [lows[j], highs[j]]."""
    d = len(lows)
    rows = []
    for j, (lo, hi) in enumerate(zip(lows, highs)):
        unit = tuple(int(k == j) for k in range(d))
        rows.append(HalfSpace(-lo, unit))
        rows.append(HalfSpace(hi, tuple(-a for a in unit)))
    return rows


class TestReciprocityRoute:
    """count_profile scans n <= ceil(d/2) only, a simplex n <= ceil(d/2) - 1;
    the every-dilate scan is the oracle."""

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("d", range(1, 7))
    def test_random_simplices_by_vertices_and_by_facets(self, d, seed):
        s = make_random_simplex(d, {1: 4, 2: 3, 3: 2, 4: 2, 5: 1, 6: 1}[d], seed)
        expected = every_dilate_counts(s)
        assert count_profile(s).counts == expected
        assert count_profile(LatticePolytope(d, vertices=s.vertices)).counts == expected
        assert count_profile(as_halfspace_polytope(s.vertices)).counts == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_random_h_boxes(self, seed):
        rng = random.Random(seed)
        d = rng.randint(1, 4)
        lows = [rng.randint(-3, 2) for _ in range(d)]
        highs = [lo + rng.randint(1, 3) for lo in lows]
        p = LatticePolytope(d, halfspaces=tuple(_axis_rows(lows, highs)))
        closed_form = tuple(
            math.prod(n * (hi - lo) + 1 for lo, hi in zip(lows, highs)) for n in range(d + 2)
        )
        assert count_profile(p).counts == every_dilate_counts(p) == closed_form

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("offset", [0, 5])
    def test_zero_row_counts_only_for_the_closed_dilates(self, d, offset):
        # 0 + 0.x >= 0 holds everywhere, but 0 > 0 does not: the interior
        # count must leave the row out
        rows = _axis_rows([-1] * d, [1] * d) + [HalfSpace(offset, (0,) * d)]
        p = LatticePolytope(d, halfspaces=tuple(rows))
        expected = tuple((2 * n + 1) ** d for n in range(d + 2))
        assert count_profile(p).counts == every_dilate_counts(p) == expected

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_duplicated_facet_rows(self, d):
        s = make_random_simplex(d, 2, 11)
        facets = simplex_facets(s.vertices)
        doubled = HalfSpace(2 * facets[1].offset, tuple(2 * a for a in facets[1].normal))
        p = LatticePolytope(d, halfspaces=tuple(facets + [facets[0], doubled]))
        assert count_profile(p).counts == every_dilate_counts(s)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_anchored_simplices_match_two_references(self, d):
        # by vertices and by facet rows scaled by 1, 2 or 3, at the origin and
        # translated near 2^59 (where the scans take the object path): the
        # parallelepiped's counts, and the ceil(d/2) dilates of the plan
        # without the anchor
        rng = random.Random(d)
        for _ in range(4):
            vertices = _random_simplex_vertices(d, rng)
            shift = [2**59 + rng.randint(-1000, 1000) for _ in range(d)]
            for vs in (vertices, tuple(tuple(x + c for x, c in zip(v, shift)) for v in vertices)):
                reference = compute_vectors(LatticeSimplex.from_vertices(vs))
                assert reference.route == "parallelepiped"
                expected = reference.counts
                rows = tuple(HalfSpace(k * f.offset, tuple(k * a for a in f.normal))
                             for f in simplex_facets(vs) for k in [rng.choice((1, 2, 3))])
                for p in (LatticePolytope(d, vertices=vs), LatticePolytope(d, halfspaces=rows)):
                    assert ehrstar.engine._scan_plan(p).anchor is not None
                    unanchored = ehrstar.engine._reciprocity_counts(_unanchored_plan(p), d + 1, 10**9)
                    assert count_profile(p).counts == expected == tuple(unanchored)

    def test_anchor_of_a_simplex_by_its_vertices_and_by_its_facets(self):
        # conv{0, 2 e_1, 3 e_2}: NV = 6, and the facets x = 0, y = 0 and
        # 3x + 2y = 6 lie at the lattice distances 2, 3 and 6 from the vertex
        # off them, so S = 3 + 2 + 1; the rows of the facet form are scaled
        vertices = ((0, 0), (2, 0), (0, 3))
        rows = (HalfSpace(0, (2, 0)), HalfSpace(0, (0, 3)), HalfSpace(12, (-6, -4)))
        for p in (LatticePolytope(2, vertices=vertices), LatticePolytope(2, halfspaces=rows)):
            assert ehrstar.engine._scan_plan(p).anchor == (6, 6)
        assert LatticePolytope(2, halfspaces=rows).normalized_volume is None
        # the same simplex listed with a repeated vertex, a point of an edge
        # or a point inside is anchored alike, on the volume of its 3 vertices
        for extra in ((2, 0), (1, 0), (1, 1)):
            padded = LatticePolytope(2, vertices=vertices + (extra,))
            assert padded.normalized_volume is None
            assert ehrstar.engine._scan_plan(padded).anchor == (6, 6)
        # a quadrilateral of d + 2 vertices and a box are not simplices, and
        # d = 0 has no second coefficient
        for p in (LatticePolytope(2, vertices=vertices + ((1, 3),)), _box_and_its_center(2),
                  LatticePolytope(0, vertices=((),))):
            assert ehrstar.engine._scan_plan(p).anchor is None

    @pytest.mark.parametrize("d", range(1, 7))
    def test_padded_simplices_are_anchored(self, monkeypatch, d):
        # twice a random simplex, listed with a repeated vertex or with the
        # midpoint of an edge: each is anchored, scans ceil(d/2) - 1 dilates
        # and counts what the simplex listed once counts
        vertices = tuple(tuple(2 * x for x in v) for v in make_random_simplex(d, 2, d).vertices)
        expected = compute_vectors(LatticeSimplex.from_vertices(vertices)).counts
        scan = ehrstar.engine._scan_dilate
        passes = []
        monkeypatch.setattr(ehrstar.engine, "_scan_dilate", lambda plan, n: passes.append(n) or scan(plan, n))
        midpoint = tuple((a + b) // 2 for a, b in zip(vertices[0], vertices[-1]))
        for extra in (vertices[0], midpoint):
            padded = LatticePolytope(d, vertices=vertices + (extra,))
            assert padded.normalized_volume is None
            assert ehrstar.engine._scan_plan(padded).anchor is not None
            passes.clear()
            assert count_profile(padded).counts == expected
            assert passes == list(range(1, (d + 1) // 2))

    def test_corrupted_volume_or_facet_distance_raises(self):
        # NV = 6 is divisible by the distances 2, 3 and 6 of the facets
        # x >= 0, y >= 0 and 6 - 3x - 2y >= 0 from the vertices off them.
        # The kernel's D + 1 = 7 is the vertex kernel's NV, which 2 does not
        # divide, and makes the facet kernel's tops 7 // (D / t) for the tops
        # t of its rows. Doubling the origin's column of the facet kernel
        # halves the top of the facet opposite it: its distance is 3, and
        # NV = prod(tops) / D is 3, which the distance 2 does not divide.
        vertices = ((0, 0), (2, 0), (0, 3))
        by_vertices = LatticePolytope(2, vertices=vertices)
        by_facets = LatticePolytope(2, halfspaces=tuple(simplex_facets(vertices)))
        for s, corrupt in [
            (by_vertices, lambda a, scale: (a, scale + 1)),
            (by_facets, lambda a, scale: (a, scale + 1)),
            (by_facets, lambda a, scale: ([[2 * r[0], *r[1:]] for r in a], scale)),
        ]:
            assert ehrstar.engine._scan_plan(s).anchor == (6, 6)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ehrstar.engine, "scaled_inverse", lambda rows: corrupt(*scaled_inverse(rows)))
                with pytest.raises(ArithmeticError, match="does not divide the normalized volume"):
                    count_profile(s)

    @pytest.mark.parametrize("d, bump, message", [
        # a facet sum one off adds d * n^(d-1) to 2 d! ehr(n): at odd d the
        # spare node sees it, at d = 4 the division by 2 * 4! leaves
        # (n^3 - n) / 12 at n = 2
        (3, 1, "degree d"), (5, 1, "degree d"), (4, 1, r"not divisible by 2 \* 4!"),
    ])
    def test_corrupted_anchor_raises(self, d, bump, message):
        plan = ehrstar.engine._scan_plan(make_random_simplex(d, 2, 5))
        volume, facet_sum = plan.anchor
        plan.anchor = volume, facet_sum + bump
        with pytest.raises(ArithmeticError, match=message):
            ehrstar.engine._reciprocity_counts(plan, d + 1, 10**9)

    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_corrupted_interior_count_at_odd_d_raises(self, monkeypatch, d):
        # the spare node catches it, over the ceil(d/2) passes of a vertex
        # list that is no simplex and the ceil(d/2) - 1 of a simplex; at
        # d = 1 every polytope is a simplex, which makes no pass, so the
        # ceil(d/2) passes run over the plan without the anchor
        scan = ehrstar.engine._scan_dilate
        passes = []

        def interior_of_n1_plus_one(plan, n, **kwargs):
            passes.append(n)
            points, interior = scan(plan, n, **kwargs)
            return points, interior + (n == 1)

        monkeypatch.setattr(ehrstar.engine, "_scan_dilate", interior_of_n1_plus_one)
        box = _box_and_its_center(d)
        with pytest.raises(ArithmeticError, match="degree d"):
            if d == 1:
                ehrstar.engine._reciprocity_counts(_unanchored_plan(box), d + 1, 10**9)
            else:
                count_profile(box)
        assert passes == list(range(1, (d + 1) // 2 + 1))
        passes.clear()
        s = make_random_simplex(d, 2, 5)
        if d == 1:
            assert count_profile(s).counts == every_dilate_counts(s)
        else:
            with pytest.raises(ArithmeticError, match="degree d"):
                count_profile(s)
        assert passes == list(range(1, (d - 1) // 2 + 1))

    @pytest.mark.parametrize("d", range(1, 7))
    def test_one_pass_per_scanned_dilate_over_one_plan(self, monkeypatch, d):
        # ceil(d/2) - 1 passes for a simplex, none at d <= 2, and ceil(d/2)
        # for a vertex list that is no simplex, each counting a dilate's
        # points and interior points, over one plan; the one-dilate kernel is
        # not called. The simplex's counts are the parallelepiped's; at d = 1
        # the box and its center is the segment [0, 2] padded, a simplex.
        scan = ehrstar.engine._scan_dilate
        passes = []

        def recorded(plan, n, **kwargs):
            passes.append((plan, n))
            return scan(plan, n, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("the profile called the one-dilate kernel")

        monkeypatch.setattr(ehrstar.engine, "_scan_dilate", recorded)
        monkeypatch.setattr(ehrstar.engine, "_count_box_satisfying", forbidden)
        s = make_random_simplex(d, 2, 3)
        reference = compute_vectors(s)
        assert reference.route == "parallelepiped"
        box = _box_and_its_center(d)
        for p, expected, scanned in ((s, reference.counts, (d - 1) // 2),
                                     (box, tuple((2 * n + 1) ** d for n in range(d + 2)),
                                      (d + 1) // 2 if d > 1 else 0)):
            passes.clear()
            assert count_profile(p).counts == expected
            assert [n for _, n in passes] == list(range(1, scanned + 1))
            assert len({id(plan) for plan, _ in passes}) == min(scanned, 1)

    @pytest.mark.parametrize("edges, cap, message", [
        # the box of these edges has 5^3 points, its 2nd dilate 9^3, and so
        # has the simplex of twice these edges
        ((4, 4, 4), 9**3 - 1, "visit 729 candidates"),
        # 4 * (2^59 + 1) < 2^62 points, and 9 * (2^60 + 1)
        ((2**59, 1, 1), 10**30, r"the scan kernel takes fewer than 2\^62"),
    ])
    def test_every_cap_checked_before_the_first_pass(self, monkeypatch, edges, cap, message):
        # d = 3: the box by its 8 vertices scans the dilates 1 and 2, and
        # only the top one is over a cap; the simplex scans its dilate 1 alone
        box = LatticePolytope(3, vertices=tuple(product(*((0, e) for e in edges))))
        s = LatticeSimplex.from_vertices(
            ((0, 0, 0),) + tuple(tuple(2 * e * (i == j) for j in range(3)) for i, e in enumerate(edges)))
        passes = []
        monkeypatch.setattr(ehrstar.engine, "_scan_dilate", lambda *args, **kwargs: passes.append(args))
        for p in (box, s):
            with pytest.raises(CostGuardExceeded, match=message):
                count_profile(p, count_cap=cap)
        assert passes == []

    def test_projection_waits_for_the_caps(self, monkeypatch):
        # the plan's Fourier-Motzkin rows (up to m^2 / 4 of them) are built by
        # the first pass, so a refused scan builds none
        def forbidden(plan):
            raise AssertionError("projection built before the caps were checked")

        monkeypatch.setattr(ehrstar.engine._ScanPlan, "projection", property(forbidden))
        cross = LatticePolytope(6, halfspaces=tuple(HalfSpace(1, s) for s in product((-1, 1), repeat=6)))
        for entry in (lambda: count_profile(cross, count_cap=100),
                      lambda: count_points(cross, 1, count_cap=100)):
            with pytest.raises(CostGuardExceeded, match="visit 729 candidates"):
                entry()

    def test_count_cap_checks_only_the_scanned_dilates(self):
        # d = 3: the simplex 4 * Delta_3 scans its dilate 1, and the box
        # [0, 4]^3 by its 8 vertices its dilates 1 and 2; the n = 4 boxes
        # are far over the caps
        s = LatticeSimplex.from_vertices(((0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4)))
        box = LatticePolytope(3, vertices=tuple(product((0, 4), repeat=3)))
        for p, top in ((s, 5**3), (box, 9**3)):
            assert count_profile(p, count_cap=top).counts == every_dilate_counts(
                LatticePolytope(3, halfspaces=p.double_description[1]))
            with pytest.raises(CostGuardExceeded, match=f"visit {top} candidates"):
                count_profile(p, count_cap=top - 1)


def _plan_data(plan):
    """What a scan plan holds that a pass reads: box, sorted rows and anchor."""
    return plan.mins, plan.maxs, plan.t_rows, plan.flat, plan.anchor


def _double_description_plan(p: LatticePolytope):
    """`_plan_data` of the plan of p as the double description derives it.
    A simplex's NV is |det| of the points at which its d + 1 facet rows are
    largest, and S sums NV / h_F for the lattice distance h_F of each facet
    from that point."""
    vertices, facets = p.double_description
    d = p.ambient_dim
    anchor = None
    if d >= 1 and len(facets) == d + 1:
        tops = [max((f.offset + sum(a * x for a, x in zip(f.normal, v)), v) for v in vertices)
                for f in facets]
        volume = abs(det(_homogenized_columns([v for _, v in tops])))
        heights = [t // math.gcd(*f.normal) for f, (t, _) in zip(facets, tops)]
        assert all(volume % h == 0 for h in heights)
        anchor = volume, sum(volume // h for h in heights)
    return _plan_data(ehrstar.engine._ScanPlan(
        [min(c) for c in zip(*vertices)], [max(c) for c in zip(*vertices)],
        [f.normal for f in facets], [f.offset for f in facets], anchor))


def _plan_outcome(plan_of, p: LatticePolytope):
    """plan_of(copy of p), or the type and message of what it raised."""
    copy = LatticePolytope(p.ambient_dim, vertices=p.vertices, halfspaces=p.halfspaces)
    try:
        return plan_of(copy)
    except (InputError, NotFullDimensionalError) as exc:
        return type(exc).__name__, str(exc)


class TestSimplexKernel:
    """A simplex by its d + 1 vertices or by d + 1 half-spaces takes its plan
    from one scaled inverse, without the double description. That plan, and
    the anchor a padded list or a list with redundant rows takes from its
    double description's facets, equal the plan the double description
    derives; a square system that bounds no lattice simplex fails with the
    double description's own message."""

    @staticmethod
    def _listings(rng, d):
        """Twice a random d-simplex, so that an edge's midpoint is a lattice
        point: by its vertices, by its facets each scaled and shuffled, by its
        vertices padded, and by its facets among redundant rows."""
        simplex = make_random_simplex(d, 2, rng.randrange(10**6))
        vertices = tuple(tuple(2 * x for x in v) for v in simplex.vertices)
        facets = LatticePolytope(d, vertices=vertices).double_description[1]
        scaled = [HalfSpace(k * f.offset, tuple(k * a for a in f.normal))
                  for f in facets for k in [rng.randint(1, 3)]]
        rng.shuffle(scaled)
        midpoint = tuple((a + b) // 2 for a, b in zip(vertices[0], vertices[-1]))
        padded = [*vertices, rng.choice((vertices[-1], midpoint))]
        rng.shuffle(padded)
        redundant = [*scaled, HalfSpace(1, (0,) * d),
                     *(HalfSpace(f.offset + rng.randint(0, 2), f.normal) for f in rng.sample(facets, 2))]
        rng.shuffle(redundant)
        return [LatticePolytope(d, vertices=vertices), LatticePolytope(d, halfspaces=tuple(scaled)),
                LatticePolytope(d, vertices=tuple(padded)), LatticePolytope(d, halfspaces=tuple(redundant))]

    @pytest.mark.parametrize("seed", range(10))
    def test_plans_equal_the_double_description(self, monkeypatch, seed):
        calls = []
        rays = ehrstar.lattice._extreme_rays
        monkeypatch.setattr(ehrstar.lattice, "_extreme_rays", lambda *a: calls.append(a) or rays(*a))
        rng = random.Random(seed)
        for d in range(1, 7):
            for k, p in enumerate(self._listings(rng, d)):
                expected = _plan_outcome(_double_description_plan, p)
                calls.clear()
                plan = _plan_data(ehrstar.engine._scan_plan(p))
                assert plan == expected, p
                assert plan[-1] is not None
                assert len(calls) == (k >= 2), p  # no double description for the square two

    @pytest.mark.parametrize("rows, message", [
        ([[-1, 1, 0], [0, -1, 0], [0, 0, 1]], "half-space system has no vertices (empty or unbounded)"),
        ([[0, 1, 0], [0, 0, 1], [1, 1, -1]], "half-space system is unbounded"),
        ([[0, 1, 0], [0, 0, 1], [0, -1, -1]], "half-space polytope has affine dimension 0 inside R^2"),
        ([[0, 1, 0], [0, 0, 1], [1, -2, -2]], "half-space polytope has the non-lattice vertex (0, 1/2); "
                                              "only lattice polytopes are supported"),
        ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], "half-space system is unbounded"),
        ([[0, 1, 0], [0, 0, 1], [-1, 0, 0]], "half-space system has no vertices (empty or unbounded)"),
        ([[2, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0], [3, -1, -1, 1]], "half-space system is unbounded"),
    ], ids=["empty", "unbounded", "flat", "non-lattice", "zero-normal", "zero-normal-empty", "zero-normal-3d"])
    def test_square_systems_keep_the_double_description_message(self, rows, message):
        d = len(rows[0]) - 1
        p = LatticePolytope(d, halfspaces=tuple(HalfSpace(r[0], tuple(r[1:])) for r in rows))
        assert _plan_outcome(_double_description_plan, p)[1] == message
        assert _plan_outcome(lambda q: _plan_data(ehrstar.engine._scan_plan(q)), p)[1] == message
        with pytest.raises((InputError, NotFullDimensionalError), match=re.escape(message)):
            count_profile(p)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_square_systems(self, seed):
        # d + 1 random rows, or a random simplex's facets with one offset
        # moved, now and then with a zero normal: each outcome, plan or
        # message, is the double description's
        rng = random.Random(seed)
        seen = Counter()
        for _ in range(150):
            d = rng.randint(1, 4)
            if rng.random() < 0.5:
                rows = [HalfSpace(rng.randint(-4, 4), tuple(rng.randint(-2, 2) for _ in range(d)))
                        for _ in range(d + 1)]
            else:
                rows = simplex_facets(make_random_simplex(d, 2, rng.randrange(10**6)).vertices)
                j = rng.randrange(d + 1)
                rows[j] = HalfSpace(rows[j].offset + rng.randint(-2, 2), rows[j].normal)
            if rng.random() < 0.2:
                rows[rng.randrange(d + 1)] = HalfSpace(rng.randint(-1, 1), (0,) * d)
            p = LatticePolytope(d, halfspaces=tuple(rows))
            expected = _plan_outcome(_double_description_plan, p)
            assert _plan_outcome(lambda q: _plan_data(ehrstar.engine._scan_plan(q)), p) == expected, p
            seen[expected[0] if isinstance(expected[0], str) else "plan"] += 1
        assert seen["plan"] and seen["InputError"] and seen["NotFullDimensionalError"], seen


def _random_simplex_vertices(d: int, rng: random.Random):
    """A random d-simplex with a small box: by `make_random_simplex` up to
    d = 6, and as conv{0, e_1, ..., e_{d-1}, w} with w in {0, 1}^{d-1} x
    [1, 3] above, whose dilates' boxes stay small enough to scan."""
    if d <= 6:
        return make_random_simplex(d, 2 if d <= 4 else 1, rng.randrange(10**6)).vertices
    units = [tuple(int(i == j) for j in range(d)) for i in range(d - 1)]
    return ((0,) * d, *units, (*(rng.randint(0, 1) for _ in range(d - 1)), rng.randint(1, 3)))


def _unanchored_plan(p: LatticePolytope):
    """The scan plan of p built straight from its double description's rows,
    so without a simplex's anchor: the ceil(d/2)-dilate route."""
    vertices, facets = p.double_description
    return ehrstar.engine._ScanPlan([min(c) for c in zip(*vertices)], [max(c) for c in zip(*vertices)],
                                    [f.normal for f in facets], [f.offset for f in facets])


def _box_and_its_center(d: int) -> LatticePolytope:
    """[0, 2]^d by its 2^d vertices and the interior point (1, ..., 1): a
    vertex list that is no simplex for d >= 2, and at d = 1 the segment
    [0, 2] padded by its midpoint."""
    return LatticePolytope(d, vertices=(*product((0, 2), repeat=d), (1,) * d))


def _brute_box_count(lows, highs, rows, offsets) -> int:
    return sum(
        all(sum(a * x for a, x in zip(row, pt)) + c >= 0 for row, c in zip(rows, offsets))
        for pt in product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs)))
    )


def _brute_closed_and_interior(lows, highs, rows, offsets) -> tuple[int, int]:
    """The box points with rows @ x + offsets >= 0, and those with > 0."""
    return (_brute_box_count(lows, highs, rows, offsets),
            _brute_box_count(lows, highs, rows, [c - 1 for c in offsets]))


def _one_pass(lows, highs, rows, offsets) -> tuple[int, int]:
    """(closed, interior) of the system from one `_scan_dilate` pass at n = 1."""
    return ehrstar.engine._scan_dilate(ehrstar.engine._ScanPlan(lows, highs, rows, offsets), 1)


def _each_pass(run) -> list:
    """run() with every scan pass pure, then dense where its int64 bound
    allows, then sliced: the three results."""
    results = []
    for work, cells in ((math.inf, 0), (0, math.inf), (0, 0)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ehrstar.engine, "_PURE_SCAN_WORK", work)
            patch.setattr(ehrstar.engine, "_DENSE_SCAN_CELLS", cells)
            results.append(run())
    return results


def _kernel_matches(system, expected, chunk) -> None:
    """The one-dilate kernel gives the closed count, one pass both counts:
    through the pure pass, the dense pass, and the sliced kernel in blocks
    of `chunk`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ehrstar.engine, "_SCAN_CHUNK", chunk)
        counts = _each_pass(lambda: (_count_box_satisfying(*system), _one_pass(*system)))
    assert counts == [(expected[0], tuple(expected))] * 3


def _needle_simplex(d: int, k: int) -> LatticePolytope:
    """conv{0, k * 1, k * 1 + e_1, ..., k * 1 + e_{d-1}}: thin along the diagonal.

    Its box is about k^d, but for most prefixes of the box no s, and for
    most (prefix, s) no t, lies in it: the projected rows prune the s-range.
    """
    top = (k,) * d
    return LatticeSimplex.from_vertices(
        [(0,) * d, top] + [tuple(x + (j == i) for j, x in enumerate(top)) for i in range(d - 1)]
    )


def _delta_rows(k, shift) -> tuple:
    """k * Delta_d moved by shift, by its d + 1 facets."""
    d = len(shift)
    rows = [HalfSpace(-t, tuple(int(i == j) for i in range(d))) for j, t in enumerate(shift)]
    return (*rows, HalfSpace(k + sum(shift), (-1,) * d))


class TestIntervalKernel:
    """The kernel enumerates d - 2 axes, bounds s by the projected rows and
    counts t as an interval; the oracles test every point of the box. Each
    test checks the closed count of `_count_box_satisfying` and both counts
    of one `_scan_dilate` pass, the interior one against the oracle on
    offsets - 1."""

    @staticmethod
    def _system(rng, d, *, t_sign=None):
        lows = [rng.randint(-3, 2) for _ in range(d)]
        highs = [lo + rng.randint(-1, 4 if d < 5 else 3) for lo in lows]  # now and then empty
        m = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(m)]
        rows[rng.randrange(m)][-1] = 0
        if t_sign is not None:  # no row with a on t of the other sign
            for row in rows:
                row[-1] = t_sign * abs(row[-1])
        offsets = [rng.randint(-6, 6) for _ in range(m)]
        return lows, highs, rows, offsets

    @pytest.mark.parametrize("chunk", [1, 5, 1 << 17])
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force(self, seed, chunk):
        rng = random.Random(seed)
        for d in (1, 2, 3, 4, 5):
            system = self._system(rng, d)
            _kernel_matches(system, _brute_closed_and_interior(*system), chunk)

    @pytest.mark.parametrize("chunk", [1, 5, 1 << 17])
    @pytest.mark.parametrize("t_sign", [1, -1])
    @pytest.mark.parametrize("seed", range(6))
    def test_rows_of_one_sign_on_t(self, seed, t_sign, chunk):
        # no row with a > 0 (or a < 0): no pairs, the projection is the a = 0 rows
        rng = random.Random(seed)
        for d in (1, 2, 3, 4, 5):
            system = self._system(rng, d, t_sign=t_sign)
            _kernel_matches(system, _brute_closed_and_interior(*system), chunk)

    @pytest.mark.parametrize("chunk", [1, 5, 1 << 17])
    @pytest.mark.parametrize("seed", range(10))
    def test_two_dimensional_enumerates_no_axis(self, seed, chunk):
        # d = 2: s is the first axis; wide boxes spread the pairs over many chunks
        rng = random.Random(seed)
        lows = [rng.randint(-20, 5), rng.randint(-20, 5)]
        highs = [lo + rng.randint(0, 30) for lo in lows]
        m = rng.randint(1, 6)
        rows = [[rng.randint(-4, 4), rng.randint(-4, 4)] for _ in range(m)]
        rows[rng.randrange(m)][-1] = 0  # a = 0 on t: it bounds the interior's s-range
        offsets = [rng.randint(-40, 40) for _ in range(m)]
        system = lows, highs, rows, offsets
        _kernel_matches(system, _brute_closed_and_interior(*system), chunk)

    @pytest.mark.parametrize("chunk", [1, 5, 1 << 17])
    @pytest.mark.parametrize("d, k", [(3, 4), (4, 3), (5, 2)])
    def test_thin_simplices(self, d, k, chunk):
        s = _needle_simplex(d, k)
        for n in (1, 2, 3):
            vertices, facets = s.double_description
            lows, highs = [n * min(c) for c in zip(*vertices)], [n * max(c) for c in zip(*vertices)]
            rows, offsets = [list(f.normal) for f in facets], [n * f.offset for f in facets]
            expected = (full_box_count(lows, highs, rows, offsets),
                        full_box_count(lows, highs, rows, [c - 1 for c in offsets]))
            _kernel_matches((lows, highs, rows, offsets), expected, chunk)
        assert count_profile(s).counts == every_dilate_counts(s)

    @staticmethod
    def _projected_system(worst, min_sum):
        """Rows B x + a t + c_i >= 0 and B x - b t + c_j >= 0 on [-w, w] x [-3, 3].

        Their one projected row is (a + b) B x + (b c_i + a c_j) >= 0, in
        lowest terms; a + b >= min_sum, w and B are chosen to make its
        bound equal `worst`.
        """
        for a, b, w, r in product(range(1, 5), range(1, 5), (2, 3), range(1, 100)):
            if a + b < min_sum or math.gcd(a, b) > 1 or (worst - r) % (w * (a + b)):
                continue
            big = (worst - r) // (w * (a + b))
            for ci, cj in product(range(-6, 7), repeat=2):
                if abs(b * ci + a * cj) == r and math.gcd((a + b) * big, r) == 1:
                    return a, b, [-w, -3], [w, 3], [[big, a], [big, -b]], [ci, cj]
        raise AssertionError("no system with that bound")

    # The input rows stay below 2^62, so the projected row alone decides the
    # dtype; at 2^64 + 1 its values on the enumerated axis (d = 3) would wrap
    # around on int64.
    @pytest.mark.parametrize("worst, min_sum", [
        (2**62 - 1, 2), (2**62, 2), (2**62 + 1, 2), (2**64 + 1, 5),
    ])
    @pytest.mark.parametrize("d", [2, 3])
    def test_projected_bound_near_2_62(self, d, worst, min_sum):
        a, b, lows, highs, rows, offsets = self._projected_system(worst, min_sum)
        maxabs = [max(-lo, hi) for lo, hi in zip(lows, highs)]
        row_bounds = [sum(abs(x) * m for x, m in zip(row, maxabs)) + abs(c)
                      for row, c in zip(rows, offsets)]
        assert max(row_bounds) < 2**62
        coef, off = (a + b) * rows[0][0], b * offsets[0] + a * offsets[1]
        assert math.gcd(coef, off) == 1 and abs(coef) * maxabs[0] + abs(off) == worst
        if d == 3:  # x becomes the enumerated axis, so the projected row is summed on it
            lows, highs = [lows[0], -1, lows[1]], [highs[0], 1, highs[1]]
            rows = [[row[0], 0, row[1]] for row in rows]
        expected = _brute_closed_and_interior(lows, highs, rows, offsets)
        assert 0 < expected[0] < math.prod(hi - lo + 1 for lo, hi in zip(lows, highs))
        for chunk in (1, 5, 1 << 17):
            _kernel_matches((lows, highs, rows, offsets), expected, chunk)

    # `worst` bounds the partial values |rows @ x + offsets| over the box;
    # below 2^62 the kernel runs on int64, from 2^62 on on Python ints
    @pytest.mark.parametrize("worst", [2**62 - 1, 2**62, 2**62 + 1])
    @pytest.mark.parametrize("seed", range(12))
    def test_worst_bound_near_2_62(self, seed, worst):
        rng = random.Random(seed)
        d = rng.randint(1, 3)
        lows, highs, rows, offsets = self._system(rng, d)
        maxabs = [max(abs(lo), abs(hi)) for lo, hi in zip(lows, highs)]
        i = rng.randrange(len(rows))
        if not any(rows[i]):
            rows[i][0] = 1
        bound = sum(abs(a) * m for a, m in zip(rows[i], maxabs)) + abs(offsets[i])
        if bound == 0:
            offsets[i] = 1
            bound = 1
        scale = worst // bound
        pad = worst - scale * bound
        rows[i] = [scale * a for a in rows[i]]
        offsets[i] = scale * offsets[i] + (pad if offsets[i] >= 0 else -pad)
        assert sum(abs(a) * m for a, m in zip(rows[i], maxabs)) + abs(offsets[i]) == worst
        system = lows, highs, rows, offsets
        _kernel_matches(system, _brute_closed_and_interior(*system), 1 << 17)

    @pytest.mark.parametrize("chunk", [1, 1 << 17])
    @pytest.mark.parametrize("d, axis", [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
    def test_interior_at_closed_bound_2_62_minus_1(self, monkeypatch, d, axis, chunk):
        # a * x - a >= 0 with 3a = 2^62 - 1 on [-2, 2]: its closed bound is
        # 2^62 - 1 and its strict version, offset - a - 1, has the bound
        # 2^62, yet the closed bound decides the dtype: the pass runs on
        # int64 and reads x >= 2 off the same quotients.
        a = (2**62 - 1) // 3
        assert 3 * a == 2**62 - 1
        dtypes = []
        arrays = ehrstar.engine._ScanPlan.arrays
        monkeypatch.setattr(ehrstar.engine._ScanPlan, "arrays",
                            lambda plan, dtype: dtypes.append(dtype) or arrays(plan, dtype))
        unit = [int(j == axis) for j in range(d)]
        rows = [[a * u for u in unit], [-1] * d, [1] * d] + [[int(j == k) for j in range(d)] for k in range(d)]
        offsets = [-a, 2 * d + 1, d, 2] + [1] * (d - 1)
        system = [-2] * d, [2] * d, rows, offsets
        expected = _brute_closed_and_interior(*system)
        assert expected[0] > expected[1] > 0
        _kernel_matches(system, expected, chunk)
        assert dtypes and all(dtype is not object for dtype in dtypes)

    @pytest.mark.parametrize("chunk", [1, 5, 1 << 17])
    @pytest.mark.parametrize("seed", range(12))
    def test_one_plan_for_every_dilate(self, monkeypatch, seed, chunk):
        # Even coefficients off t give pair rows whose coefficients share a
        # factor with even n: reduced once at n = 1, again at n = 2 and 4.
        monkeypatch.setattr(ehrstar.engine, "_SCAN_CHUNK", chunk)
        rng = random.Random(seed)
        for d in (1, 2, 3, 4):
            mins = [rng.randint(-3, 1) for _ in range(d)]
            maxs = [lo + rng.randint(0, 3) for lo in mins]
            m = rng.randint(1, 5)
            rows = [[2 * rng.randint(-2, 2) for _ in range(d - 1)] + [rng.choice((-3, -1, 0, 1, 2))]
                    for _ in range(m)]
            offsets = [rng.randint(-6, 6) for _ in range(m)]
            plan = ehrstar.engine._ScanPlan(mins, maxs, rows, offsets)
            for n in (1, 2, 3, 4):
                dilate = [n * x for x in mins], [n * x for x in maxs], rows, [n * c for c in offsets]
                expected = _brute_closed_and_interior(*dilate)
                assert _each_pass(lambda: ehrstar.engine._scan_dilate(plan, n)) == [expected] * 3

    @pytest.mark.parametrize("offset", [1, -1])
    def test_row_reduced_again_bounds_s(self, monkeypatch, offset):
        # 2s + offset >= 0 has a = 0 on t, so it bounds s alone, and at even n
        # the pass divides it by 2: at n = 2, s + 1 >= 0 keeps s = -1 in the
        # closed count, and s - 1 >= 1 drops s = 1 from the interior. Without
        # the division its coefficient would stay 2 against the halved offset.
        mins, maxs = [-1, 0], [1, 3]
        rows, offsets = [[2, 0], [0, 1], [0, -1]], [offset, 0, 3]
        plan = ehrstar.engine._ScanPlan(mins, maxs, rows, offsets)
        assert (0, 2) in plan.projection[3]
        for n in (1, 2, 3, 4):
            dilate = [n * x for x in mins], [n * x for x in maxs], rows, [n * c for c in offsets]
            assert _each_pass(lambda: ehrstar.engine._scan_dilate(plan, n)) == [
                _brute_closed_and_interior(*dilate)] * 3

    @staticmethod
    def _dtypes(monkeypatch):
        """The dtype of every pass, in order, with every pass on the sliced kernel."""
        monkeypatch.setattr(ehrstar.engine, "_PURE_SCAN_WORK", 0)
        monkeypatch.setattr(ehrstar.engine, "_DENSE_SCAN_CELLS", 0)
        dtypes = []
        scan = ehrstar.engine._scan_dilate

        def recorded(plan, n, **kwargs):
            arrays = plan.arrays
            plan.arrays = lambda dtype: dtypes.append(dtype) or arrays(dtype)
            try:
                return scan(plan, n, **kwargs)
            finally:
                del plan.arrays

        monkeypatch.setattr(ehrstar.engine, "_scan_dilate", recorded)
        return dtypes

    def test_pair_row_reduced_again_at_the_dilate(self, monkeypatch):
        # B x + t + 3 >= 0 and B x - t - 2 >= 0 on [-2, 2] x [-3, 3], with
        # 4B = 2^62 - 64: the pair row 2B x + 1 has the bound 2^62 - 63. At
        # n = 2 it is 2B x + 2, which is B x + 1 in lowest terms, of the
        # same bound; times 2 it would pass 2^62. So both dilates run on int64.
        big = 2**60 - 16
        mins, maxs, rows, offsets = [-2, -3], [2, 3], [[big, 1], [big, -1]], [3, -2]
        dtypes = self._dtypes(monkeypatch)
        plan = ehrstar.engine._ScanPlan(mins, maxs, rows, offsets)
        for n in (1, 2):
            dilate = [n * x for x in mins], [n * x for x in maxs], rows, [n * c for c in offsets]
            assert ehrstar.engine._scan_dilate(plan, n) == _brute_closed_and_interior(*dilate)
        assert len(dtypes) == 2 and object not in dtypes

    def test_dilated_simplex_near_2_58_stays_on_int64(self, monkeypatch):
        # 10 * Delta_3 translated near 2^58: the bound of the dilate 1, the
        # one scanned, stays below 2^62
        shift = [2**58 + 17, 2**58 - 400, 2**58 + 999]
        dtypes = self._dtypes(monkeypatch)
        counts = count_profile(LatticePolytope(3, halfspaces=_delta_rows(10, shift))).counts
        assert counts == tuple(math.comb(10 * n + 3, 3) for n in range(5))
        assert len(dtypes) == 1 and object not in dtypes

    @pytest.mark.parametrize("worst", [2**62 - 1, 2**62, 2**62 + 1, 3 * 2**61])
    def test_bounds_far_outside_the_box(self, worst):
        # t >= worst - 2 and t <= -(worst - 2) on the box [-2, 2]^2: the
        # empty interval has hi - lo + 1 close to -2 * worst
        rows = [[0, 1], [0, -1], [1, 1]]
        offsets = [-(worst - 2), -(worst - 2), 0]
        _kernel_matches(([-2, -2], [2, 2], rows, offsets), (0, 0), 1 << 17)

    @pytest.mark.parametrize("chunk", [1, 1 << 17])
    def test_axis_in_no_row_beyond_int64(self, chunk):
        # only the box bounds the first coordinate; no t is inside 0 < t < 1
        big = 2**63
        rows, offsets = [[0, 1], [0, -1]], [0, 1]
        _kernel_matches(([big - 2, 0], [big + 1, 3], rows, offsets), (8, 0), chunk)

    def test_huge_coefficient_on_an_axis_at_zero(self):
        # the box [0, 0] x [0, 3] bounds 2^70 * x by 0, yet the coefficient
        # itself does not fit an int64 array: the pass takes object dtype
        system = [0, 0], [0, 3], [[2**70, 1], [0, -1]], [0, 3]
        _kernel_matches(system, _brute_closed_and_interior(*system), 1 << 17)

    def test_total_beyond_int64(self):
        # 16 intervals of 2^60 + 1 points each, 2^60 - 1 inside: the sums pass 2^63
        rows, offsets = [[0, 1], [0, -1]], [0, 2**60]
        expected = 16 * (2**60 + 1), 16 * (2**60 - 1)
        _kernel_matches(([0, 0], [15, 2**60], rows, offsets), expected, 1 << 17)


@st.composite
def _scan_systems(draw):
    """A box of d <= 4 axes of at most 5 points each (now and then none),
    moved by 0, 2^62 or about +-2^70, and 1-5 rows with small or huge
    coefficients, whose offsets move with the box."""
    d = draw(st.integers(0, 4))
    shift = draw(st.sampled_from([0, 2**62, 2**70, 3 - 2**70]))
    lows = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    highs = [lo + draw(st.integers(-1, 4)) for lo in lows]
    m = draw(st.integers(1, 5))
    coefficient = st.integers(-3, 3) | st.sampled_from([2**70, -(2**70), 2**62 - 1])
    rows = draw(st.lists(st.lists(coefficient, min_size=d, max_size=d), min_size=m, max_size=m))
    offsets = [c - shift * sum(row) for row, c in
               zip(rows, draw(st.lists(st.integers(-8, 8), min_size=m, max_size=m)))]
    return [lo + shift for lo in lows], [hi + shift for hi in highs], rows, offsets


class TestPurePass:
    """The pure pass against the dense pass and the sliced kernel, which
    `TestIntervalKernel` checks against the oracles."""

    @given(_scan_systems(), st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_both_passes_agree(self, system, n):
        plan = ehrstar.engine._ScanPlan(*system)
        pure, dense, sliced = _each_pass(lambda: ehrstar.engine._scan_dilate(plan, n))
        assert pure == dense == sliced

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_unit_box_past_2_62(self, d):
        # [2^70, 2^70 + 1]^d by its 2d facets: all 2^d points, none inside
        big = 2**70
        rows = [[sign * (i == j) for i in range(d)] for j in range(d) for sign in (1, -1)]
        offsets = [c for _ in range(d) for c in (-big, big + 1)]
        system = [big] * d, [big + 1] * d, rows, offsets
        assert _brute_closed_and_interior(*system) == (2**d, int(d == 0))
        _kernel_matches(system, (2**d, int(d == 0)), 1 << 17)

    def test_small_boxes_take_the_pure_pass(self, monkeypatch):
        # 2 * Delta_3 by its facets scans its dilate 1 in 9 (prefix, s)
        # pairs of 4 rows, and the octahedron by its vertices its dilate 2 in
        # 5 * 5 pairs of 8 rows, work 200; neither the numpy kernel's arrays
        # nor the Fourier-Motzkin projection is ever built
        monkeypatch.setattr(ehrstar.engine._ScanPlan, "arrays", None)
        monkeypatch.setattr(ehrstar.engine._ScanPlan, "projection", None)
        rows = [HalfSpace(0, tuple(int(i == j) for i in range(3))) for j in range(3)]
        rows.append(HalfSpace(2, (-1, -1, -1)))
        assert count_profile(LatticePolytope(3, halfspaces=tuple(rows))).counts == (1, 10, 35, 84, 165)
        octahedron = LatticePolytope(3, vertices=tuple(
            tuple(sign * (i == j) for i in range(3)) for j in range(3) for sign in (1, -1)))
        assert count_profile(octahedron).counts == (1, 7, 25, 63, 129)


class TestDensePass:
    """The dense pass: every row at every point of a small box, on int64."""

    @staticmethod
    def _dense_dilates(monkeypatch) -> list:
        """The dilate of every dense pass, in order."""
        dense = ehrstar.engine._dense_pass
        dilates = []
        monkeypatch.setattr(ehrstar.engine, "_dense_pass",
                            lambda plan, n, *box: dilates.append(n) or dense(plan, n, *box))
        return dilates

    def test_small_boxes_take_the_dense_pass(self, monkeypatch):
        # 7 * Delta_4 by its facets scans its dilate 1: 8^4 points of 5 rows,
        # 20,480 cells, with neither the sliced kernel's arrays nor the
        # Fourier-Motzkin projection ever built
        monkeypatch.setattr(ehrstar.engine._ScanPlan, "arrays", None)
        monkeypatch.setattr(ehrstar.engine._ScanPlan, "projection", None)
        dilates = self._dense_dilates(monkeypatch)
        counts = count_profile(LatticePolytope(4, halfspaces=_delta_rows(7, [0] * 4))).counts
        assert counts == tuple(math.comb(7 * n + 4, 4) for n in range(6))
        assert dilates == [1]

    def test_simplex_near_2_58_takes_the_dense_pass(self, monkeypatch):
        # 10 * Delta_3 near 2^58: every row's bound at the dilate 1, the one
        # scanned, stays below 2^62, so its 11^3 points run the dense pass
        monkeypatch.setattr(ehrstar.engine, "_PURE_SCAN_WORK", 0)
        monkeypatch.setattr(ehrstar.engine._ScanPlan, "arrays", None)
        monkeypatch.setattr(ehrstar.engine._ScanPlan, "projection", None)
        dilates = self._dense_dilates(monkeypatch)
        p = LatticePolytope(3, halfspaces=_delta_rows(10, [2**58 + 17, 2**58 - 400, 2**58 + 999]))
        assert count_profile(p).counts == tuple(math.comb(10 * n + 3, 3) for n in range(5))
        assert dilates == [1]

    def test_simplex_past_2_62_takes_the_object_dtype(self, monkeypatch):
        # moved to 2^60, the last facet's bound passes 2^62: the dense pass,
        # int64 only, leaves the dilate to the sliced kernel on Python ints
        monkeypatch.setattr(ehrstar.engine, "_PURE_SCAN_WORK", 0)
        dilates = self._dense_dilates(monkeypatch)
        dtypes = TestIntervalKernel._dtypes(monkeypatch)
        monkeypatch.setattr(ehrstar.engine, "_DENSE_SCAN_CELLS", math.inf)
        p = LatticePolytope(3, halfspaces=_delta_rows(10, [2**60 + 17, 2**60 - 400, 2**60 + 999]))
        assert count_profile(p).counts == tuple(math.comb(10 * n + 3, 3) for n in range(5))
        assert dilates == [] and dtypes == [object]

    def test_bound_covers_the_rows_without_t(self, monkeypatch):
        # 2^62 x + 2^63 >= 0 has a = 0 on t and values 0..2^64 on [-2, 2],
        # while the t-rows t + 2 >= 0 and 2 - t >= 0 stay small: the bound of
        # every row keeps the pass off int64, and the sliced kernel, which
        # divides that row by its gcd 2^62, counts it on int64
        rows, offsets = [[2**62, 0], [0, 1], [0, -1]], [2**63, 2, 2]
        plan = ehrstar.engine._ScanPlan([-2, -2], [2, 2], rows, offsets)
        assert plan.row_bound < 2**62 <= plan.bound
        dilates = self._dense_dilates(monkeypatch)
        system = [-2, -2], [2, 2], rows, offsets
        assert _brute_closed_and_interior(*system) == (25, 12)
        _kernel_matches(system, (25, 12), 1 << 17)
        assert dilates == []

    @pytest.mark.parametrize("chunk", [1, 1 << 17])
    @pytest.mark.parametrize("lows, highs", [([], []), ([3], [5]), ([-1, 0, 2], [1, 3, 2])])
    def test_no_rows(self, lows, highs, chunk):
        # no row bounds anything: every box point counts, inside too
        points = math.prod(hi - lo + 1 for lo, hi in zip(lows, highs))
        _kernel_matches((lows, highs, [], []), (points, points), chunk)


class TestBigCoordinates:
    def test_object_dtype_path_is_exact(self, monkeypatch):
        # coefficients far beyond int64 force the object-dtype scan of the
        # one dilate the profile of a square scans; big * x >= 0 and
        # big - big * x >= 0 on each axis cut out just [0, 1]^2
        big = 2**70
        rows = [HalfSpace(c, tuple(s * big * (i == j) for i in range(2)))
                for j in range(2) for c, s in ((0, 1), (big, -1))]
        dtypes = TestIntervalKernel._dtypes(monkeypatch)
        assert count_points(LatticePolytope(2, halfspaces=tuple(rows)), 3) == 16
        assert dtypes == [object]

    def test_box_beyond_int64(self):
        # [2^70, 2^70 + 1]^2: the enumerated axis itself is past int64
        big = 2**70
        p = LatticePolytope(2, halfspaces=tuple(_axis_rows([big, big], [big + 1, big + 1])))
        assert _each_pass(lambda: count_profile(p).counts) == [(1, 4, 9, 16)] * 3

    def test_big_volume_parallelepiped(self):
        s = LatticeSimplex.from_vertices(((0, 0), (300, 1), (1, 400)))
        table = box_points_simplex(s)
        assert sum(table.heights) == s.normalized_volume == 300 * 400 - 1
        assert table.heights[0] == 1
