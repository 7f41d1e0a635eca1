import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import simplex_contains, vertex_box
from ehrstar import lattice
from ehrstar.errors import DegenerateSimplexError, InputError
from ehrstar.lattice import (
    GENERATOR_DIM_CAP,
    BoxHint,
    HalfSpace,
    LatticePolytope,
    LatticeSimplex,
    PyramidHint,
    affine_dimension,
    iterated_pyramid,
    make_cube,
    make_higashitani,
    make_random_simplex,
    make_unimodular_simplex,
    polytope_from_json,
    pyramid,
)

random_simplices = st.builds(
    make_random_simplex,
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 10**6),
)


class TestAffineDimension:
    def test_unit_square(self):
        p = LatticePolytope(2, vertices=((0, 0), (1, 0), (0, 1), (1, 1)))
        assert affine_dimension(p) == 2

    def test_segment_in_the_plane(self):
        p = LatticePolytope(2, vertices=((0, 0), (2, 2)))
        assert affine_dimension(p) == 1

    def test_spiked_15_simplex(self):
        p = make_higashitani(7, 131, 7, 132)
        assert affine_dimension(p) == 15

    @pytest.mark.parametrize("d", range(1, 21))
    def test_unimodular_simplices(self, d):
        assert affine_dimension(make_unimodular_simplex(d)) == d

    def test_needs_vertices(self):
        p = LatticePolytope(1, halfspaces=(HalfSpace(0, (1,)), HalfSpace(1, (-1,))))
        with pytest.raises(InputError):
            affine_dimension(p)


class TestSimplexContains:
    def test_triangle_examples(self):
        t = make_unimodular_simplex(2)
        assert simplex_contains(t, (1, 1), 2)
        assert not simplex_contains(t, (1, 1), 1)

    def test_vertex_membership(self):
        s = make_higashitani(7, 131, 7, 132)
        w = s.vertices[-1]
        assert simplex_contains(s, w, 1)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            simplex_contains(make_unimodular_simplex(2), (1,), 1)

    @given(random_simplices, st.permutations(range(5)), st.integers(1, 4))
    def test_invariant_under_vertex_permutation(self, s, perm, dilate):
        order = [i for i in perm if i < len(s.vertices)]
        shuffled = LatticeSimplex.from_vertices([s.vertices[i] for i in order])
        probe = tuple(sum(v[j] for v in s.vertices) for j in range(s.ambient_dim))
        assert simplex_contains(s, probe, dilate) == simplex_contains(shuffled, probe, dilate)

    @given(random_simplices, st.integers(1, 5))
    def test_scaled_vertices_inside_dilate(self, s, dilate):
        for v in s.vertices:
            scaled = tuple(dilate * x for x in v)
            assert simplex_contains(s, scaled, dilate)


class TestPyramid:
    def test_point_to_segment(self):
        point = LatticePolytope(0, vertices=((),))
        seg = pyramid(point)
        assert seg.ambient_dim == 1
        assert set(seg.vertices) == {(0,), (1,)}

    def test_segment_to_triangle(self):
        seg = LatticePolytope(1, vertices=((0,), (1,)))
        tri = pyramid(seg)
        assert set(tri.vertices) == {(0, 0), (1, 0), (0, 1)}

    def test_square_to_pyramid(self):
        # over a half-space polytope: b + a . x - b * t >= 0, and t >= 0
        square = make_cube(2, 0, 1)
        pyr = pyramid(square)
        assert pyr.ambient_dim == 3
        assert {(h.offset, h.normal) for h in pyr.halfspaces} == {
            (0, (1, 0, 0)), (1, (-1, 0, -1)), (0, (0, 1, 0)), (1, (0, -1, -1)), (0, (0, 0, 1))}
        by_vertices = pyramid(LatticePolytope(2, vertices=((0, 0), (1, 0), (0, 1), (1, 1))))
        assert (0, 0, 1) in by_vertices.vertices
        assert len(by_vertices.vertices) == 5
        unhinted = LatticePolytope(3, halfspaces=pyr.halfspaces)
        assert vertex_box(unhinted) == ((0, 0, 0), (1, 1, 1))

    def test_hint_accumulates(self):
        square = make_cube(2, 0, 1)
        twice = pyramid(pyramid(square))
        assert isinstance(twice.hint, PyramidHint)
        assert twice.hint.times == 2
        assert twice.hint.base is square

    def test_iterated_identity(self):
        square = make_cube(2, 0, 1)
        assert iterated_pyramid(square, 0) is square

    def test_twice_iterated_segment_is_a_3_simplex(self):
        seg = LatticePolytope(1, vertices=((0,), (1,)))
        p = iterated_pyramid(seg, 2)
        assert p.ambient_dim == 3
        s = LatticeSimplex.from_vertices(p.vertices)
        assert s.normalized_volume == 1

    @given(random_simplices, st.integers(0, 3))
    def test_vertex_and_dimension_growth(self, s, times):
        p = iterated_pyramid(s, times)
        assert p.ambient_dim == s.ambient_dim + times
        assert len(p.vertices) == len(s.vertices) + times

    def test_negative_times_rejected(self):
        with pytest.raises(InputError):
            iterated_pyramid(make_cube(1, 0, 1), -1)


class TestGenerators:
    def test_square_with_symmetric_range(self):
        p = make_cube(2, -1, 1)
        assert p.vertices is None
        assert vertex_box(p) == ((-1, -1), (1, 1))
        assert p.hint == BoxHint((-1, -1), (1, 1))

    def test_cube_vertex_count(self):
        # the cube carries its 6 facets, whose cone has the 8 vertices as rays
        cube = make_cube(3, 0, 1)
        rows = [[1, 0, 0, 0]] + [[h.offset, *h.normal] for h in cube.halfspaces]
        assert len(cube.halfspaces) == 6 and len(lattice._extreme_rays(rows, 4)) == 8

    def test_cube_validation(self):
        with pytest.raises(InputError):
            make_cube(2, 1, 1)
        with pytest.raises(InputError, match="^generator dimension 101 exceeds the cap 100$"):
            make_cube(GENERATOR_DIM_CAP + 1, 0, 1)
        assert len(make_cube(GENERATOR_DIM_CAP, 0, 1).halfspaces) == 2 * GENERATOR_DIM_CAP

    @pytest.mark.parametrize("build", [
        make_unimodular_simplex,
        lambda d: make_higashitani(1, 2, d - 2, 3),
        lambda d: make_random_simplex(d, 1, 0),
        lambda d: iterated_pyramid(make_cube(2, 0, 1), d - 2),
    ], ids=["unimodular", "higashitani", "random", "pyramid"])
    def test_generator_dimension_cap(self, build):
        assert build(GENERATOR_DIM_CAP).ambient_dim == GENERATOR_DIM_CAP
        with pytest.raises(InputError, match=f"dimension {GENERATOR_DIM_CAP + 1} exceeds"):
            build(GENERATOR_DIM_CAP + 1)

    @pytest.mark.parametrize("d", [1, 2, 15])
    def test_unimodular_simplex(self, d):
        s = make_unimodular_simplex(d)
        assert s.normalized_volume == 1
        assert len(s.vertices) == d + 1

    def test_spiked_family_instance(self):
        s = make_higashitani(7, 131, 7, 132)
        assert s.ambient_dim == 15
        assert s.normalized_volume == 132
        assert s.vertices[-1] == (1,) * 7 + (131,) * 7 + (132,)

    def test_spiked_family_volume_is_last_parameter(self):
        assert make_higashitani(1, 1, 1, 1).normalized_volume == 1
        assert make_higashitani(2, 5, 2, 6).normalized_volume == 6

    @given(st.integers(1, 4), st.integers(1, 9), st.integers(1, 4), st.integers(1, 50))
    def test_spiked_family_volume_property(self, a, v, b, m):
        assert make_higashitani(a, v, b, m).normalized_volume == m

    def test_spiked_family_validation(self):
        with pytest.raises(InputError):
            make_higashitani(1, 1, 0, 1)

    def test_random_simplex_deterministic(self):
        a = make_random_simplex(2, 3, 42)
        b = make_random_simplex(2, 3, 42)
        assert a.vertices == b.vertices
        assert a.normalized_volume >= 1

    def test_random_simplex_small_bound(self):
        s = make_random_simplex(3, 1, 1)
        assert s.normalized_volume >= 1
        assert all(abs(x) <= 1 for v in s.vertices for x in v)

    def test_random_simplex_five_dimensional(self):
        assert make_random_simplex(5, 2, 7).normalized_volume >= 1

    def test_degenerate_rejection(self):
        with pytest.raises(DegenerateSimplexError):
            LatticeSimplex.from_vertices(((0, 0), (1, 1), (2, 2)))

    def test_random_simplex_resample_limit(self, monkeypatch):
        monkeypatch.setattr(lattice, "RANDOM_SIMPLEX_DRAWS", 0)
        with pytest.raises(DegenerateSimplexError):
            make_random_simplex(2, 1, 0)


class TestPolytopeValidation:
    def test_vertex_length_mismatch(self):
        with pytest.raises(InputError):
            LatticePolytope(2, vertices=((0, 0), (1,)))

    def test_empty_vertex_list(self):
        with pytest.raises(InputError):
            LatticePolytope(2, vertices=())

    def test_exactly_one_representation(self):
        with pytest.raises(InputError):
            LatticePolytope(1)

    def test_simplex_needs_d_plus_1_vertices(self):
        with pytest.raises(InputError):
            LatticeSimplex.from_vertices(((0, 0), (1, 0)))

    @pytest.mark.parametrize("build", [
        lambda: LatticePolytope(2, vertices=((0, 0), (1.5, 0), (0, 1))),
        lambda: LatticePolytope(2, vertices=((0, 0), (1.5, 0), (0, 1), (1, 1))),
        lambda: LatticePolytope(2, vertices=((0, 0), (True, 0), (0, 1))),
        lambda: LatticePolytope(1, halfspaces=(HalfSpace(0, (1,)), HalfSpace(1.5, (-1,)))),
        lambda: LatticePolytope(1, halfspaces=(HalfSpace(0, (1.0,)), HalfSpace(1, (-1,)))),
        lambda: LatticeSimplex.from_vertices(((0, 0), (1.5, 0), (0, 1))),
        lambda: LatticeSimplex.from_vertices(((0, 0), ("1", 0), (0, 1))),
        lambda: LatticeSimplex.from_vertices((0, 1)),
    ], ids=["float-triangle", "float-square", "bool", "float-offset", "float-normal",
            "float-simplex", "string-simplex", "non-tuple-simplex"])
    def test_non_integer_entries_rejected(self, build):
        with pytest.raises(InputError):
            build()

    def test_simplex_converts_integer_types(self):
        s = LatticeSimplex.from_vertices(np.array([[0, 0], [2, 0], [0, 3]]))
        assert s.vertices == ((0, 0), (2, 0), (0, 3))
        assert all(type(x) is int for v in s.vertices for x in v)
        assert s.normalized_volume == 6


class TestJson:
    def test_vertex_round_trip(self):
        q = polytope_from_json('{"ambient_dim": 2, "vertices": [[-1,-1],[-1,1],[1,-1],[1,1]]}')
        assert q.ambient_dim == 2
        assert set(q.vertices) == {(-1, -1), (-1, 1), (1, -1), (1, 1)}

    def test_halfspace_round_trip(self):
        text = '{"ambient_dim": 2, "halfspaces": [[1,1,0],[1,-1,0],[1,0,1],[1,0,-1]]}'
        p = polytope_from_json(text)
        assert p.halfspaces[0].offset == 1
        assert p.halfspaces[1].normal == (-1, 0)
        again = polytope_from_json(
            '{"ambient_dim": 2, "halfspaces": [["1","1","0"],[1,-1,0],[1,0,"1"],[1,0,-1]]}'
        )
        assert again == p

    def test_big_integers_as_strings(self):
        big = 10**30
        p = polytope_from_json(
            json.dumps({"ambient_dim": 1, "vertices": [["0"], [str(big)]]})
        )
        assert p.vertices[1] == (big,)

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            polytope_from_json("[]")
        with pytest.raises(InputError):
            polytope_from_json('{"ambient_dim": 2}')
        with pytest.raises(InputError):
            polytope_from_json('{"ambient_dim": 2, "halfspaces": [[1, 1]]}')
        with pytest.raises(InputError):
            polytope_from_json('{"ambient_dim": 1, "vertices": [[0.5]]}')
