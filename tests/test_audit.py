import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehrstar.audit import (
    CheckResult,
    SpikeRange,
    check_binom_diff_lemma,
    check_degree5_unimodal,
    check_degree_range,
    check_endpoint_min,
    check_first_half,
    check_gorenstein_range,
    check_hibi,
    check_last_quarter,
    check_mirror,
    check_peak_window,
    check_stapledon_instance,
    full_audit,
    search_nonunimodal,
    search_outcome_json_lines,
    unimodality,
)
from ehrstar.errors import InputError
from ehrstar.starbasis import (
    FStarVector,
    HStarVector,
    degree_of,
    f_from_h,
    gorenstein_index,
)

SQUARE_F = FStarVector((9, 16, 8))
SPIKE15_H = HStarVector((1,) + (0,) * 7 + (131,) + (0,) * 7)
SPIKE15_F = f_from_h(SPIKE15_H)


def F(*entries):
    return FStarVector(tuple(entries))


def H(*entries):
    return HStarVector(tuple(entries))


def unimodular_f(d):
    return f_from_h(HStarVector((1,) + (0,) * d))


class TestCheckResult:
    @pytest.mark.parametrize("holds, witness, message", [
        (True, 0, "a passing check must not carry a witness"),
        (False, None, "a failing check must carry a witness"),
    ])
    def test_witness_must_match_the_verdict(self, holds, witness, message):
        with pytest.raises(ValueError) as excinfo:
            CheckResult("x", holds=holds, witness=witness)
        assert str(excinfo.value) == message


class TestFirstHalf:
    def test_square(self):
        assert check_first_half(SQUARE_F).holds

    def test_spiked_15(self):
        assert check_first_half(SPIKE15_F).holds

    def test_constructed_violation(self):
        r = check_first_half(F(5, 4, 9, 9, 1))
        assert not r.holds and r.witness == 1

    def test_middle_step_violation(self):
        # strict up to f_{half-1}, then f_{half-1} > f_half
        r = check_first_half(F(1, 5, 3, 4, 2))
        assert r.applicable and not r.holds and r.witness == 2

    def test_low_dimension_not_applicable(self):
        r = check_first_half(F(3, 2))
        assert not r.applicable and r.holds


class TestLastQuarter:
    def test_spiked_15_tail(self):
        assert check_last_quarter(SPIKE15_F).holds

    def test_square(self):
        assert check_last_quarter(SQUARE_F).holds

    def test_constructed_violation(self):
        r = check_last_quarter(F(1, 5, 5))
        assert not r.holds and r.witness == 2


class TestMirror:
    def test_spiked_15(self):
        assert check_mirror(SPIKE15_F).holds

    def test_unimodular_3(self):
        assert check_mirror(unimodular_f(3)).holds

    def test_constructed_violation(self):
        r = check_mirror(F(9, 2, 1, 1))
        assert not r.holds and r.witness == 0

    def test_low_dimension_not_applicable(self):
        assert not check_mirror(SQUARE_F).applicable


class TestEndpointFloor:
    def test_spiked_15(self):
        assert check_endpoint_min(SPIKE15_F).holds

    def test_square(self):
        assert check_endpoint_min(SQUARE_F).holds

    def test_constructed_violation(self):
        r = check_endpoint_min(F(5, 1, 7))
        assert not r.holds and r.witness == 1


class TestGorensteinTail:
    def test_square_with_index_1(self):
        assert check_gorenstein_range(SQUARE_F, 1).holds

    @pytest.mark.parametrize("d", range(1, 9))
    def test_unimodular_simplla_index_d_plus_1(self, d):
        assert check_gorenstein_range(unimodular_f(d), d + 1).holds

    def test_segment_with_interior_point(self):
        # h = (1, 1): f = (3, 2); range starts at k = 1 and 3 > 2
        assert check_gorenstein_range(F(3, 2), 1).holds

    def test_no_index_not_applicable(self):
        r = check_gorenstein_range(SPIKE15_F, None)
        assert not r.applicable and r.holds


class TestDegreeTail:
    def test_square(self):
        assert check_degree_range(SQUARE_F, 2).holds

    def test_spiked_15(self):
        assert check_degree_range(SPIKE15_F, 8).holds

    def test_degree_zero_exempt(self):
        r = check_degree_range(unimodular_f(4), 0)
        assert not r.applicable and r.holds


class TestHibi:
    def test_spiked_15(self):
        assert check_hibi(SPIKE15_H).holds

    def test_square(self):
        assert check_hibi(H(1, 6, 1)).holds

    def test_constructed_violation(self):
        r = check_hibi(H(1, 0, 5))
        assert not r.holds and r.witness == 0


class TestStapledonInstance:
    def test_zero_tail(self):
        h = H(*([1] * 7 + [0] * 7))
        assert h.dim == 13
        assert check_stapledon_instance(h).holds

    def test_unimodular_13(self):
        assert check_stapledon_instance(HStarVector((1,) + (0,) * 13)).holds

    def test_constructed_violation(self):
        entries = [1] + [0] * 13
        entries[13] = 5
        assert not check_stapledon_instance(HStarVector(tuple(entries))).holds

    def test_other_dimensions_not_applicable(self):
        assert not check_stapledon_instance(SPIKE15_H).applicable


class TestUnimodality:
    def test_square(self):
        assert unimodality(SQUARE_F) == (True, 1, None)

    def test_spiked_15_dip(self):
        uni, peak, dip = unimodality(SPIKE15_F)
        assert (uni, peak, dip) == (False, None, 9)
        assert SPIKE15_F.entries[8] > SPIKE15_F.entries[9] < SPIKE15_F.entries[10]

    def test_plateau_is_unimodal(self):
        assert unimodality(F(1, 1, 1)) == (True, 0, None)

    def test_plateau_valley_is_a_dip(self):
        uni, _peak, dip = unimodality(F(5, 3, 3, 5))
        assert not uni and dip == 1

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=12))
    def test_dip_certificate(self, entries):
        uni, peak, dip = unimodality(F(*entries))
        if uni:
            assert all(entries[i] <= entries[i + 1] for i in range(peak))
            assert all(entries[i] >= entries[i + 1] for i in range(peak, len(entries) - 1))
        else:
            assert max(entries[:dip]) > entries[dip] < max(entries[dip + 1 :])


class TestPeakWindow:
    def test_square(self):
        assert check_peak_window(SQUARE_F, 2).holds

    def test_segment_with_interior_point(self):
        r = check_peak_window(F(3, 2), 1)
        assert r.applicable and r.holds

    def test_spiked_15_hypothesis_fails(self):
        r = check_peak_window(SPIKE15_F, 8)
        assert not r.applicable and r.holds

    def test_window_miss_detected(self):
        # raw vector peaking far right of the allowed window
        r = check_peak_window(F(1, 1, 1, 1, 1, 1, 9), 1)
        assert r.applicable and not r.holds

    def test_nonunimodal_vector_fails_at_its_dip(self):
        r = check_peak_window(F(3, 1, 3), 1)
        assert r.applicable and not r.holds and r.witness == 1

    @pytest.mark.parametrize("entries, witness", [
        ((1, 9, 9, 9, 2, 1, 1), None),  # peaks 1..3 reach the window [3, 3]
        ((1, 2, 2, 2, 9, 9, 9), 4),  # peaks 4..6 start past it
        ((9, 9, 9, 2, 2, 1, 1), 0),  # peaks 0..2 end before it
    ])
    def test_plateau_peaks_meet_the_window(self, entries, witness):
        r = check_peak_window(F(*entries), 1)
        assert r.applicable and r.holds == (witness is None) and r.witness == witness


class TestDegree5Unimodal:
    def test_low_degree_spike_patterns(self):
        h = HStarVector((1, 0, 3, 0, 0, 1) + (0,) * 11)
        assert degree_of(h) == 5
        assert check_degree5_unimodal(f_from_h(h), 5).holds

    def test_unimodular(self):
        assert check_degree5_unimodal(unimodular_f(6), 0).holds

    def test_high_degree_not_applicable(self):
        assert not check_degree5_unimodal(SPIKE15_F, 8).applicable

    def test_nonunimodal_vector_fails_at_its_dip(self):
        r = check_degree5_unimodal(F(3, 1, 3), 1)
        assert r.applicable and not r.holds and r.witness == 1


class TestBinomialLemma:
    def test_known_values(self):
        assert check_binom_diff_lemma(4, 2, 1)  # |6-4| >= |3-3|
        assert check_binom_diff_lemma(6, 3, 2)  # |20-15| >= |4-6|

    def test_preconditions(self):
        with pytest.raises(InputError):
            check_binom_diff_lemma(3, 2, 0)
        with pytest.raises(InputError):
            check_binom_diff_lemma(4, 3, 3)  # k > n+1-j
        with pytest.raises(InputError):
            check_binom_diff_lemma(5, 3, 1)  # n = 2k-1

    def test_exhaustive_small(self):
        for n in range(1, 26):
            for k in range(1, n + 1):
                for j in range(1, n + 2 - k):
                    if n == 2 * k - 1:
                        continue
                    assert check_binom_diff_lemma(n, k, j), (n, k, j)


class TestFullAudit:
    def test_square(self):
        report = full_audit(H(1, 6, 1))
        assert report.all_applicable_hold
        assert report.unimodal and report.peak_index == 1
        assert report.gorenstein_index == 1
        assert report.degree == 2

    def test_spiked_15(self):
        report = full_audit(SPIKE15_H)
        assert report.all_applicable_hold  # nonunimodality is not a check failure
        assert not report.unimodal
        assert report.first_dip == 9
        assert report.gorenstein_index is None

    def test_unimodular(self):
        report = full_audit(HStarVector((1,) + (0,) * 6, polytope_derived=True))
        assert report.unimodal
        assert report.symmetric_f_star
        assert report.provenance == "polytope"
        degree_check = {r.name: r for r in report.results}["low_degree_tail"]
        assert not degree_check.applicable

    def test_raw_violation_reported_not_raised(self):
        report = full_audit(H(1, 0, 5))
        assert report.provenance == "raw"
        assert not report.all_applicable_hold
        failing = [r.name for r in report.results if r.applicable and not r.holds]
        assert "hibi" in failing

    def test_zero_dimensional_point(self):
        report = full_audit(H(1))
        assert report.all_applicable_hold
        assert report.unimodal and report.peak_index == 0
        assert report.gorenstein_index == 1

    def test_json_shape(self):
        obj = full_audit(SPIKE15_H).to_json_obj()
        assert obj["d"] == 15 and obj["degree"] == 8
        assert obj["gorenstein_index"] is None
        assert obj["unimodal"] is False and obj["first_dip"] == 9
        names = {c["name"] for c in obj["checks"]}
        assert {"hibi", "first_half_increase", "endpoint_floor"} <= names
        json.dumps(obj)  # must be serializable


class TestSearch:
    def test_spike_15_recovers_known_value(self):
        outcome = search_nonunimodal(15, [SpikeRange(8, 8, 2, 200)], 10**6)
        values = sorted(v for c in outcome.candidates for (_p, v) in c.spikes)
        assert 131 in values
        # derived by hand from the conversion formula: the tail of
        # binomials C(16, k+1) + N*C(8, k-7) dips iff N >= 131
        assert values == list(range(131, 201))
        assert not outcome.truncated
        assert outcome.scanned == 199

    def test_dip_position_of_boundary_candidate(self):
        outcome = search_nonunimodal(15, [SpikeRange(8, 8, 131, 131)], 100)
        (candidate,) = outcome.candidates
        assert candidate.first_dip == 9
        assert candidate.h.entries == SPIKE15_H.entries

    def test_dimension_13_is_clean(self):
        outcome = search_nonunimodal(13, [SpikeRange(1, 13, 2, 200)], 10**6)
        assert outcome.candidates == ()

    def test_budget_truncation(self):
        outcome = search_nonunimodal(15, [SpikeRange(8, 8, 2, 200)], 10)
        assert outcome.truncated
        assert outcome.scanned == 10

    @pytest.mark.parametrize("spikes, budget, scanned, truncated", [
        # 199 patterns: values 2..200 at position 8
        ([SpikeRange(8, 8, 2, 200)], 198, 198, True),
        ([SpikeRange(8, 8, 2, 200)], 199, 199, False),
        ([SpikeRange(8, 8, 2, 200)], 200, 199, False),
        # 100 patterns: positions (8, 12) and (8, 13), 10 * 5 values each
        ([SpikeRange(8, 8, 131, 140), SpikeRange(12, 13, 1, 5)], 99, 99, True),
        ([SpikeRange(8, 8, 131, 140), SpikeRange(12, 13, 1, 5)], 100, 100, False),
        ([SpikeRange(8, 8, 131, 140), SpikeRange(12, 13, 1, 5)], 101, 100, False),
    ], ids=["one-198", "one-199", "one-200", "two-99", "two-100", "two-101"])
    def test_budget_boundary(self, spikes, budget, scanned, truncated):
        outcome = search_nonunimodal(15, spikes, budget)
        assert (outcome.scanned, outcome.truncated) == (scanned, truncated)

    def test_huge_value_range_is_walked_lazily(self):
        # a tuple of the values could not be allocated
        outcome = search_nonunimodal(15, [SpikeRange(8, 8, 2, 10**18)], 5)
        assert (outcome.scanned, outcome.truncated) == (5, True)

    def test_two_spikes(self):
        outcome = search_nonunimodal(
            15, [SpikeRange(8, 8, 131, 132), SpikeRange(12, 12, 1, 2)], 10**6
        )
        for c in outcome.candidates:
            assert len(c.spikes) == 2
            uni, _p, _d = unimodality(f_from_h(c.h))
            assert not uni

    def test_deterministic_ordering(self):
        a = search_nonunimodal(15, [SpikeRange(7, 9, 120, 140)], 10**6)
        b = search_nonunimodal(15, [SpikeRange(7, 9, 120, 140)], 10**6)
        assert [c.spikes for c in a.candidates] == [c.spikes for c in b.candidates]
        spikes = [c.spikes for c in a.candidates]
        assert spikes == sorted(spikes)

    def test_json_lines_carry_disclaimer(self):
        outcome = search_nonunimodal(15, [SpikeRange(8, 8, 130, 132)], 100)
        lines = search_outcome_json_lines(outcome)
        summary = json.loads(lines[-1])["summary"]
        assert "polytope existence" in summary["disclaimer"]
        assert summary["candidates"] == len(outcome.candidates)

    def test_validation(self):
        with pytest.raises(InputError):
            search_nonunimodal(15, [], 100)
        with pytest.raises(InputError):
            search_nonunimodal(15, [SpikeRange(8, 8, 2, 3)], 0)
        with pytest.raises(InputError):
            SpikeRange(0, 3, 1, 2)


class TestTheoremChecksOnRealVectors:
    """The chain/mirror/floor checks are theorems for polytope vectors, so a
    failure on one of these is an implementation bug, not a finding."""

    @given(st.integers(2, 8), st.integers(0, 10**5))
    @settings(max_examples=30, deadline=None)
    def test_random_simplices(self, d, seed):
        from ehrstar.engine import h_star_of
        from ehrstar.lattice import make_random_simplex

        bound = 3 if d <= 4 else 1
        h = h_star_of(make_random_simplex(d, bound, seed))
        report = full_audit(h)
        assert report.all_applicable_hold
        if d <= 13:
            assert report.unimodal


nonneg_h_vectors = st.builds(
    lambda tail: HStarVector((1,) + tuple(tail)),
    st.lists(st.integers(0, 200), min_size=1, max_size=16),
)


class TestVectorLevelGuarantees:
    """Some inequalities are forced by nonnegativity and h_0 = 1 alone (the
    proofs never touch geometry), so they must hold on arbitrary raw
    nonnegative vectors; the last-quarter decrease additionally needs only
    the Hibi inequalities."""

    @given(nonneg_h_vectors)
    @settings(max_examples=300)
    def test_first_half_and_mirror(self, h):
        f = f_from_h(h)
        assert check_first_half(f).holds
        assert check_mirror(f).holds

    @given(nonneg_h_vectors)
    @settings(max_examples=300)
    def test_degree_tail_and_peak_window(self, h):
        f = f_from_h(h)
        s = degree_of(h)
        assert check_degree_range(f, s).holds
        assert check_peak_window(f, s).holds

    @given(nonneg_h_vectors)
    @settings(max_examples=300)
    def test_hibi_implies_last_quarter_and_endpoint_floor(self, h):
        if not check_hibi(h).holds:
            return
        f = f_from_h(h)
        assert check_last_quarter(f).holds
        assert check_endpoint_min(f).holds

    @given(st.lists(st.integers(0, 200), min_size=0, max_size=8), st.integers(0, 6))
    @settings(max_examples=300)
    def test_symmetric_vectors_satisfy_gorenstein_tail(self, half, zeros):
        # build a symmetric nonnegative vector: 1, half, reversed(half), 1
        core = [1] + half + half[::-1] + [1]
        h = HStarVector(tuple(core + [0] * zeros))
        f = f_from_h(h)
        g = gorenstein_index(h)
        assert g is not None
        assert check_gorenstein_range(f, g).holds
