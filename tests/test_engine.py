import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ehrstar.lattice
from conftest import as_halfspace_polytope, fraction_brute_count, simplex_facets
from ehrstar.engine import (
    BoxPointTable,
    CountProfile,
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
    NoCountingStrategy,
    NotFullDimensionalError,
    VolumeCapExceeded,
)
from ehrstar.lattice import (
    HalfSpace,
    LatticePolytope,
    LatticeSimplex,
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

    def test_pyramid_invariant_cube(self):
        base = h_star_of(make_cube(2, -1, 1))
        lifted = h_star_of(pyramid(make_cube(2, -1, 1)))
        assert lifted.entries == base.entries + (0,)

    def test_pyramid_invariant_spiked_simplex(self):
        s = make_higashitani(7, 131, 7, 132)
        lifted = h_star_of(pyramid(s.to_polytope()))
        assert lifted.entries == SPIKE15_H + (0,)

    @given(small_simplices)
    @settings(max_examples=20, deadline=None)
    def test_pyramid_invariant_random(self, s):
        assert h_star_of(pyramid(s.to_polytope())).entries == h_star_of(s).entries + (0,)


class TestHStarDispatch:
    def test_square_interpolation_route(self):
        result = compute_vectors(make_cube(2, -1, 1))
        assert result.route == "interpolation"
        assert result.h.entries == (1, 6, 1)
        assert result.f.entries == (9, 16, 8)
        assert result.counts == (1, 9, 25, 49)

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
        with pytest.raises(CostGuardExceeded):
            count_points(make_unimodular_simplex(3), 5, count_cap=10)

    def test_no_strategy_for_plain_vertex_polytope(self):
        square = LatticePolytope(2, vertices=((0, 0), (1, 0), (0, 1), (1, 1)))
        with pytest.raises(NoCountingStrategy):
            count_points(square, 1)

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


class TestHalfspaceVertexStep:
    """Box derivation of H-polytopes, pinned by simplices known by their vertices."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("d", range(1, 7))
    def test_simplex_facets_give_the_vertex_box(self, d, seed):
        s = make_random_simplex(d, 2, seed)
        facets = simplex_facets(s.vertices)
        start = time.perf_counter()
        box = LatticePolytope(d, halfspaces=tuple(facets)).halfspace_box
        assert time.perf_counter() - start < 1.0
        assert box == (tuple(map(min, zip(*s.vertices))), tuple(map(max, zip(*s.vertices))))
        # without one facet the rest is a cone at the opposite vertex
        for i in range(d + 1):
            cone = LatticePolytope(d, halfspaces=tuple(facets[:i] + facets[i + 1 :]))
            with pytest.raises(InputError, match="^half-space system is unbounded$"):
                cone.halfspace_box

    def test_non_lattice_vertex_rejected(self):
        # 2 + 3x - 2y >= 0, 4 - 3x + y >= 0, 3x >= 0 has the vertex (10/3, 6)
        p = LatticePolytope(
            2, halfspaces=(HalfSpace(2, (3, -2)), HalfSpace(4, (-3, 1)), HalfSpace(0, (3, 0)))
        )
        with pytest.raises(InputError, match=r"non-lattice vertex \(10/3, 6\)"):
            compute_vectors(p)

    # C(30, 6) is over the cap; C(23, 17) is not, but C(23, 16) is
    @pytest.mark.parametrize("m, d", [(30, 6), (23, 17)])
    def test_subsystem_cap_checked_before_any_solve(self, monkeypatch, m, d):
        def no_solve(*_args):
            raise AssertionError("a subsystem was solved before the cap check")

        monkeypatch.setattr(ehrstar.lattice, "solve_rational", no_solve)
        rows = tuple(HalfSpace(1, tuple((i + j) % 3 - 1 for j in range(d))) for i in range(m))
        with pytest.raises(CostGuardExceeded):
            LatticePolytope(d, halfspaces=rows).halfspace_box


class TestBigCoordinates:
    def test_object_dtype_path_is_exact(self):
        # coefficients far beyond int64 force the object-dtype scan;
        # {x : big*x >= 0, big - big*x >= 0} is just [0, 1]
        big = 2**70
        p = LatticePolytope(1, halfspaces=(HalfSpace(0, (big,)), HalfSpace(big, (-big,))))
        assert count_points(p, 3) == 4

    def test_big_volume_parallelepiped(self):
        s = LatticeSimplex.from_vertices(((0, 0), (300, 1), (1, 400)))
        table = box_points_simplex(s)
        assert sum(table.heights) == s.normalized_volume == 300 * 400 - 1
        assert table.heights[0] == 1
