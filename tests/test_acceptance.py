"""Acceptance suite: one test per criterion, exact comparisons throughout.

Each test prints its own pass line (run with `pytest -s` to see them
live). Stated runtime limits are asserted with `time.monotonic` around
the operative calls.
"""

import json
import random
import time
from math import comb

import pytest

from conftest import as_halfspace_polytope, bounded_volume_simplices, simplex_facets
from ehrstar.audit import check_binom_diff_lemma, full_audit
from ehrstar.cli import main
from ehrstar.engine import (
    box_points_simplex,
    compute_vectors,
    count_points,
    count_profile,
    f_star_from_profile,
    h_star_of,
)
from ehrstar.lattice import (
    HalfSpace,
    LatticePolytope,
    make_cube,
    make_higashitani,
    make_random_simplex,
    make_unimodular_simplex,
    pyramid,
)
from ehrstar.starbasis import (
    HStarVector,
    eval_ehrhart,
    f_from_h,
    h_from_f,
    hstar_poly_identity_check,
)

SPIKE15_H = (1,) + (0,) * 7 + (131,) + (0,) * 7
SPIKE15_F = (16, 120, 560, 1820, 4368, 8008, 11440, 13001,
             12488, 11676, 11704, 10990, 7896, 3788, 1064, 132)


def _ok(criterion: int, text: str) -> None:
    print(f"criterion {criterion}: PASS — {text}")


def _run_cli_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def test_criterion_1_square_end_to_end(capsys):
    start = time.monotonic()
    obj = _run_cli_json(capsys, "compute", "--builtin", "cube-2--1-1", "--format", "json")
    elapsed = time.monotonic() - start
    assert obj["counts"] == ["1", "9", "25", "49"]
    assert obj["h_star"] == ["1", "6", "1"]
    assert obj["f_star"] == ["9", "16", "8"]
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _ok(1, f"square reproduced end-to-end in {elapsed:.2f}s")


def test_criterion_2_unimodular_rows_both_routes():
    start = time.monotonic()
    for d in range(1, 11):
        s = make_unimodular_simplex(d)
        expected = tuple(comb(d + 1, k + 1) for k in range(d + 1))
        via_box = f_from_h(HStarVector(box_points_simplex(s).heights)).entries
        assert via_box == expected, f"parallelepiped route wrong at d={d}"
        if d <= 6:
            via_counts = f_star_from_profile(count_profile(s)).entries
            assert via_counts == expected, f"counting route wrong at d={d}"
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _ok(2, f"binomial rows for d=1..10 (both routes, {elapsed:.2f}s)")


def test_criterion_3_nonunimodal_15_simplex(capsys):
    start = time.monotonic()
    obj = _run_cli_json(capsys, "compute", "--builtin", "higashitani-15", "--format", "json")
    assert obj["h_star"] == [str(x) for x in SPIKE15_H]
    assert obj["f_star"] == [str(x) for x in SPIKE15_F]
    assert obj["route"] == "parallelepiped"
    report = _run_cli_json(capsys, "audit", "--builtin", "higashitani-15", "--format", "json")
    elapsed = time.monotonic() - start
    assert report["unimodal"] is False
    assert report["first_dip"] == 9
    f = [int(x) for x in report["f_star"]]
    assert f[8] > f[9] < f[10]
    assert (f[8], f[9], f[10]) == (12488, 11676, 11704)
    assert box_points_simplex(make_higashitani(7, 131, 7, 132)).normalized_volume == 132
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _ok(3, f"spiked 15-simplex: exact h*/f*, dip at 9, 132 residues ({elapsed:.2f}s)")


def test_criterion_4_round_trip_suite():
    rng = random.Random(20221019)
    failures = 0
    for _ in range(10_000):
        d = rng.randint(0, 20)
        h = HStarVector(tuple(rng.randint(-99, 99) for _ in range(d + 1)))
        f = f_from_h(h)
        if h_from_f(f).entries != h.entries:
            failures += 1
        if not hstar_poly_identity_check(h, f):
            failures += 1
    assert failures == 0
    _ok(4, "10,000 random vectors: round trip and polynomial identity, zero failures")


def test_criterion_5_oracle_equivalence():
    # 200 random simplices, d <= 3, coordinates in [-4, 4]: the half-space
    # scan over test-derived facets must match the barycentric scan.
    checked = 0
    for d, count in ((1, 60), (2, 70), (3, 70)):
        for s in bounded_volume_simplices(d, 4, count, seed0=1000 * d):
            by_facets = as_halfspace_polytope(s.vertices)
            for n in range(1, 6):
                assert count_points(s, n) == count_points(by_facets, n), (
                    f"route mismatch at d={d}, n={n}, vertices={s.vertices}"
                )
            checked += 1
    assert checked == 200

    # 100 random simplices, d <= 6, volume <= 5000: interpolated h* must
    # match the parallelepiped h*.
    pairs = 0
    for d, bound, count in ((2, 4, 25), (3, 3, 25), (4, 2, 20), (5, 1, 15), (6, 1, 15)):
        for s in bounded_volume_simplices(d, bound, count, volume_cap=5000, seed0=77 * d):
            via_counts = h_from_f(f_star_from_profile(count_profile(s))).entries
            via_box = box_points_simplex(s).heights
            assert via_counts == via_box, f"h* route mismatch: {s.vertices}"
            pairs += 1
    assert pairs == 100
    _ok(5, "200 count-route equivalences and 100 h*-route equivalences, all exact")


def _audit_corpus():
    base = []
    for d in range(2, 9):
        bound = 4 if d <= 3 else (2 if d <= 6 else 1)
        base.extend(
            s.to_polytope()
            for s in bounded_volume_simplices(d, bound, 30, volume_cap=5000, seed0=10_000 + d)
        )
    for d in range(1, 6):
        for low, high in ((0, 1), (-1, 1), (-2, 2)):
            base.append(make_cube(d, low, high))
    corpus = list(base)
    corpus.extend(pyramid(p) for p in base)
    corpus.extend(pyramid(pyramid(p)) for p in base)
    return base, corpus


def test_criterion_6_theorem_audit_zero_violations():
    start = time.monotonic()
    _base, corpus = _audit_corpus()
    assert len(corpus) >= 500
    for p in corpus:
        report = full_audit(h_star_of(p))
        bad = [r.name for r in report.results if r.applicable and not r.holds]
        assert not bad, f"theorem check(s) {bad} failed on {p}"
        if report.dim <= 13:
            assert report.unimodal, f"nonunimodal low-dimensional vector from {p}"
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    _ok(6, f"{len(corpus)} polytope-derived vectors, zero violations ({elapsed:.1f}s)")


def test_criterion_7_pyramid_invariant():
    _base, corpus = _audit_corpus()
    picked = _base[::4][:50]
    assert len(picked) == 50
    for p in picked:
        base_h = h_star_of(p)
        lifted = h_star_of(pyramid(p))
        assert lifted.entries == base_h.entries + (0,), f"pyramid invariant broke on {p}"
    _ok(7, "h*(Pyr P) = h*(P) + (0,) on 50 corpus polytopes, exactly")


def test_criterion_8_binomial_lemma_exhaustive():
    start = time.monotonic()
    checked = 0
    for n in range(1, 61):
        for k in range(1, n + 1):
            for j in range(1, n + 2 - k):
                if n == 2 * k - 1:
                    continue
                assert check_binom_diff_lemma(n, k, j), (n, k, j)
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _ok(8, f"{checked} lemma instances for n <= 60 in {elapsed:.2f}s")


def test_criterion_9_search_recall(capsys):
    code = main(["search", "--dim", "15", "--spike-pos-range", "8:8",
                 "--spike-val-range", "2:200", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])["summary"]
    spikes = [json.loads(line)["h_star"][8] for line in lines[:-1]]
    assert "131" in spikes
    assert "polytope existence" in summary["disclaimer"]

    code = main(["search", "--dim", "13", "--spike-pos-range", "1:13",
                 "--spike-val-range", "2:200", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["summary"]["candidates"] == 0
    _ok(9, "d=15 search recalls the 131 candidate; d=13 search is empty")


def test_criterion_10_h_cube_6_profile():
    # [-2,2]^6 by its 12 facets, no box hint: the dilates n <= 3 are scanned
    rows = tuple(
        HalfSpace(2, tuple(sign * (k == j) for k in range(6))) for j in range(6) for sign in (1, -1)
    )
    cube = LatticePolytope(6, halfspaces=rows)
    start = time.monotonic()
    counts = count_profile(cube).counts
    elapsed = time.monotonic() - start
    assert counts == tuple((4 * n + 1) ** 6 for n in range(8))
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _ok(10, f"H-cube [-2,2]^6 profile in {elapsed:.2f}s")


@pytest.mark.parametrize("seed", range(4))
def test_criterion_11_facet_simplex_6(seed):
    s = make_random_simplex(6, 2, seed)
    facets = tuple(simplex_facets(s.vertices))
    start = time.monotonic()
    p = LatticePolytope(6, halfspaces=facets)
    p.double_description
    counts = count_profile(p).counts
    elapsed = time.monotonic() - start
    h = HStarVector(box_points_simplex(s).heights)
    assert counts == tuple(eval_ehrhart(h, n) for n in range(8))
    assert elapsed < 0.5, f"took {elapsed:.2f}s"
    _ok(11, f"6-simplex by its 7 facets (seed {seed}): box and profile in {elapsed:.3f}s")
