import json
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehrstar.errors import InputError
from ehrstar.starbasis import (
    FStarVector,
    HStarVector,
    alternating_sum,
    degree_of,
    eval_ehrhart,
    eval_ehrhart_f,
    f_from_h,
    gorenstein_index,
    h_from_f,
    hstar_poly_identity_check,
    is_symmetric_extended_f,
    series_numerator,
    vectors_from_json,
    vectors_to_json_obj,
)

SQUARE_H = (1, 6, 1)
SQUARE_F = (9, 16, 8)
SPIKE15_H = (1,) + (0,) * 7 + (131,) + (0,) * 7
SPIKE15_F = (16, 120, 560, 1820, 4368, 8008, 11440, 13001,
             12488, 11676, 11704, 10990, 7896, 3788, 1064, 132)

raw_h_vectors = st.builds(
    lambda entries: HStarVector(tuple(entries)),
    st.lists(st.integers(-100, 100), min_size=1, max_size=21),
)


def H(*entries):
    return HStarVector(tuple(entries))


def F(*entries):
    return FStarVector(tuple(entries))


class TestConversions:
    def test_square(self):
        assert f_from_h(H(*SQUARE_H)).entries == SQUARE_F
        assert h_from_f(F(*SQUARE_F)).entries == SQUARE_H

    @pytest.mark.parametrize("d", range(1, 11))
    def test_unimodular_rows(self, d):
        h = HStarVector((1,) + (0,) * d)
        expected = tuple(comb(d + 1, k + 1) for k in range(d + 1))
        assert f_from_h(h).entries == expected
        assert h_from_f(FStarVector(expected)).entries == h.entries

    def test_spiked_15(self):
        assert f_from_h(H(*SPIKE15_H)).entries == SPIKE15_F

    def test_point(self):
        assert f_from_h(H(1)).entries == (1,)
        assert h_from_f(F(1)).entries == (1,)

    def test_segment_with_interior_volume(self):
        # conv{0, 2}: counts 2n+1, so f = (3, 2) and h = (1, 1)
        assert f_from_h(H(1, 1)).entries == (3, 2)
        assert h_from_f(F(3, 2)).entries == (1, 1)

    @given(raw_h_vectors)
    def test_round_trip(self, h):
        assert h_from_f(f_from_h(h)).entries == h.entries

    @given(raw_h_vectors)
    def test_alternating_sum_is_h0(self, h):
        assert alternating_sum(f_from_h(h)) == h.entries[0]

    def test_provenance_propagates(self):
        h = HStarVector(SQUARE_H, polytope_derived=True)
        assert f_from_h(h).polytope_derived
        assert not f_from_h(H(*SQUARE_H)).polytope_derived


class TestEvaluation:
    def test_square_values(self):
        h = H(*SQUARE_H)
        assert [eval_ehrhart(h, n) for n in range(4)] == [1, 9, 25, 49]

    def test_value_at_zero_is_h0(self):
        assert eval_ehrhart(H(1, 6, 1), 0) == 1
        assert eval_ehrhart(H(5, 2), 0) == 5

    def test_spike_at_one_counts_vertices(self):
        assert eval_ehrhart(H(*SPIKE15_H), 1) == 16

    def test_negative_dilate_rejected(self):
        with pytest.raises(InputError):
            eval_ehrhart(H(1), -1)
        with pytest.raises(InputError, match="^dilate must be nonnegative$"):
            eval_ehrhart_f(F(2, 1), -1)

    @given(raw_h_vectors)
    def test_both_bases_agree_on_interpolation_range(self, h):
        f = f_from_h(h)
        for n in range(2 * h.dim + 3):
            assert eval_ehrhart(h, n) == eval_ehrhart_f(f, n)


class TestPolynomialIdentity:
    def test_square_pair(self):
        assert hstar_poly_identity_check(H(*SQUARE_H), F(*SQUARE_F))

    def test_unit_segment_pair(self):
        assert hstar_poly_identity_check(H(1, 0), F(2, 1))

    def test_perturbed_pair_fails(self):
        assert not hstar_poly_identity_check(H(*SQUARE_H), F(9, 16, 9))

    @given(raw_h_vectors)
    def test_holds_for_matching_pairs(self, h):
        assert hstar_poly_identity_check(h, f_from_h(h))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InputError):
            hstar_poly_identity_check(H(1, 0), F(1, 0, 0))


class TestDegreeAndSymmetry:
    def test_degree(self):
        assert degree_of(H(1, 0, 0)) == 0
        assert degree_of(H(*SQUARE_H)) == 2
        assert degree_of(H(*SPIKE15_H)) == 8

    def test_degree_of_zero_vector_rejected(self):
        with pytest.raises(InputError):
            degree_of(H(0, 0))

    def test_gorenstein_index(self):
        assert gorenstein_index(H(*SQUARE_H)) == 1
        assert gorenstein_index(HStarVector((1,) + (0,) * 5)) == 6
        assert gorenstein_index(H(1, 2, 1, 0)) == 2
        assert gorenstein_index(H(*SPIKE15_H)) is None

    def test_series_numerator(self):
        assert series_numerator(H(*SQUARE_H)) == (SQUARE_H, 3)
        assert series_numerator(H(1, 0)) == ((1, 0), 2)
        assert series_numerator(H(*SPIKE15_H)) == (SPIKE15_H, 16)

    def test_symmetric_extended_f_unimodular_only(self):
        for d in range(1, 8):
            unit = HStarVector((1,) + (0,) * d)
            assert is_symmetric_extended_f(f_from_h(unit))
        assert not is_symmetric_extended_f(F(*SQUARE_F))

    @given(st.lists(st.integers(0, 9), min_size=1, max_size=10))
    def test_symmetry_forces_unit_h(self, tail):
        h = HStarVector((1,) + tuple(tail), polytope_derived=True)
        if is_symmetric_extended_f(f_from_h(h)):
            assert h.entries == (1,) + (0,) * h.dim


class TestVectorValidation:
    def test_polytope_derived_h_must_lead_with_one(self):
        with pytest.raises(InputError):
            HStarVector((2, 0), polytope_derived=True)

    def test_polytope_derived_nonnegative(self):
        with pytest.raises(InputError):
            HStarVector((1, -1), polytope_derived=True)
        with pytest.raises(InputError):
            FStarVector((3, -2), polytope_derived=True)

    def test_raw_vectors_unrestricted(self):
        HStarVector((0, -5, 3))
        FStarVector((-1,))

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            HStarVector(())
        with pytest.raises(InputError, match=r"^f\*-vector must have at least one entry$"):
            FStarVector(())

    def test_nothing_to_serialize(self):
        with pytest.raises(InputError, match="^nothing to serialize$"):
            vectors_to_json_obj()


class TestJson:
    def test_round_trip(self):
        obj = vectors_to_json_obj(H(*SPIKE15_H), F(*SPIKE15_F))
        h, f = vectors_from_json(json.dumps(obj))
        assert h.entries == SPIKE15_H
        assert f.entries == SPIKE15_F
        assert not h.polytope_derived and not f.polytope_derived

    def test_entries_serialized_as_strings(self):
        obj = vectors_to_json_obj(HStarVector((1, 10**40)))
        assert obj["h_star"] == ["1", str(10**40)]

    def test_accepts_plain_ints_and_strings(self):
        h, f = vectors_from_json('{"d": 1, "h_star": [1, "1"]}')
        assert h.entries == (1, 1)
        assert f is None

    def test_mismatched_pair_rejected(self):
        with pytest.raises(InputError):
            vectors_from_json('{"d": 1, "h_star": [1, 0], "f_star": [2, 2]}')

    def test_wrong_length_rejected(self):
        with pytest.raises(InputError):
            vectors_from_json('{"d": 2, "h_star": [1, 0]}')

    def test_garbage_rejected(self):
        with pytest.raises(InputError):
            vectors_from_json("not json")
        with pytest.raises(InputError):
            vectors_from_json('{"d": 1}')
