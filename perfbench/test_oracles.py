"""Tests of the benchmark itself: its oracles agree with the program, and a
corrupted result counts as a failed item.

Run with `python3 -m pytest perfbench` from the checkout root.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracles as O  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from tracer import REQUIRED, Tracer  # noqa: E402

import ehrstar.audit as audit  # noqa: E402
import ehrstar.engine as engine  # noqa: E402
import ehrstar.lattice as lattice  # noqa: E402
from ehrstar.starbasis import HStarVector, f_from_h  # noqa: E402


def _spiked_vertices(w, m):
    d = len(w) + 1
    verts = [(0,) * d] + [tuple(int(j == r) for j in range(d)) for r in range(d - 1)]
    return verts + [tuple(w) + (m,)]


def _failures_of(item, budget_s=10.0):
    tally = run.Tally()
    run.run_item(item, budget_s, tally)
    return tally


# -- the oracles agree with the program at this commit ----------------------------------


def test_spiked_oracle_matches_parallelepiped():
    rng = random.Random(7)
    for _ in range(8):
        d, m = rng.randint(3, 9), rng.randint(2, 3000)
        w = [rng.randrange(1, m) for _ in range(d - 1)]
        s = lattice.LatticeSimplex.from_vertices(_spiked_vertices(w, m))
        assert O.spiked_h_star(w, m) == engine.box_points_simplex(s).heights


def test_closed_forms_match_counts():
    assert O.dilated_simplex_counts(3, 2) == engine.count_profile(
        lattice.LatticeSimplex.from_vertices([(0, 0), (3, 0), (0, 3)])).counts
    cube = lattice.make_cube(3, -1, 1)
    assert O.box_counts(2, 3) == engine.count_profile(cube).counts
    h = (1, 4, 6, 0)
    assert O.h_from_counts(O.counts_from_h(h)) == h
    assert O.f_from_counts(O.counts_from_h(h)) == f_from_h(HStarVector(h)).entries


def test_facet_rows_cut_out_the_simplex():
    rng = random.Random(3)
    verts, rows = W._random_vertices(rng, 3, 3)
    hs = tuple(lattice.HalfSpace(r[0], tuple(r[1:])) for r in rows)
    h_poly = engine.compute_vectors(lattice.LatticePolytope(3, halfspaces=hs))
    v_poly = engine.compute_vectors(lattice.LatticeSimplex.from_vertices(verts))
    assert h_poly.counts == v_poly.counts


def test_window_oracle_matches_scalar_and_program():
    windows = [(7, 9, 120, 140)]
    expected = [((p, v),) for p in range(7, 10) for v in range(120, 141)]
    scalar = [(s, O.pattern_verdict(15, s)) for s in expected if O.pattern_verdict(15, s)]
    assert O.window_candidates(15, windows) == scalar and scalar
    outcome = audit.search_nonunimodal(15, [audit.SpikeRange(*windows[0])], 10**6)
    assert O.check_search(15, windows, outcome, expected[:5]) is None
    two = [(6, 7, 2, 9), (8, 10, 2, 9)]
    outcome = audit.search_nonunimodal(15, [audit.SpikeRange(*w) for w in two], 10**6)
    assert outcome.scanned == O.pattern_count(15, two)
    assert O.check_search(15, two, outcome, []) is None


def test_tail_is_the_eleventh_largest():
    value, pct, n = run.tail([float(x) for x in range(100)])
    assert (value, pct, n) == (89.0, 90.0, 100)


# -- corrupted results count as failed items --------------------------------------------


def test_corrupted_h_star_fails_the_ppiped_item():
    wl = W.Ppiped(HERE.parent, {})
    w, m = [3, 5, 7, 11], 97
    item = wl._item("spiked", _spiked_vertices(w, m), m, lambda: O.spiked_h_star(w, m))
    assert _failures_of(item).failures == []

    def corrupted():
        result, report = item.run()
        bad = list(result.h.entries)
        bad[1] += 1
        h = HStarVector(tuple(bad), polytope_derived=True)
        return dataclasses.replace(result, h=h), report

    tally = _failures_of(dataclasses.replace(item, run=corrupted))
    assert tally.attempted == 1 and tally.verified == 0
    assert [kind for kind, _label, _reason in tally.failures] == ["wrong"]


def test_corrupted_counts_fail_the_hscan_item():
    rows = W._dilated_rows(3, [1, -2, 4])
    item = W.Hscan._h_item("k*Delta", rows, lambda: O.dilated_simplex_counts(3, 3))
    assert _failures_of(item).failures == []

    def corrupted():
        route, h, f, counts = item.run()
        return route, h, f, counts[:-1] + [counts[-1] + 1]

    assert _failures_of(dataclasses.replace(item, run=corrupted)).failures[0][0] == "wrong"


def test_dropped_search_candidate_fails_the_search_item():
    windows = [(7, 9, 120, 140)]
    item = W.Search._item(15, windows, random.Random(0))
    assert _failures_of(item).failures == []
    outcome = item.run()
    assert outcome.candidates

    def dropped():
        return dataclasses.replace(outcome, candidates=outcome.candidates[1:])

    tally = _failures_of(dataclasses.replace(item, run=dropped))
    assert tally.failures[0][0] == "wrong"


def test_wrong_exit_code_fails_the_cli_item():
    wl = W.CliCold(HERE.parent, {})
    wl.setup(random.Random(0))
    try:
        argv, anchor = wl._commands[0]
        code, stdout = wl.reference(argv)
        check = wl._check(argv, anchor)
        assert check(W.ColdProcess(code, stdout, "", 0)) is None
        assert check(W.ColdProcess(1, stdout, "boom", 0)) is not None
        wrong = stdout.replace("131", "132")
        assert check(W.ColdProcess(code, wrong, "", 0)) is not None
    finally:
        wl.close()


def test_isolated_item_over_budget_is_killed_and_counted():
    def spin():
        while True:
            pass

    item = W.Item("spin", spin, lambda out: None, isolated=True)
    tally = _failures_of(item, budget_s=0.2)
    assert tally.failures[0][0] == "budget" and tally.latencies[0] >= 0.2


def test_isolated_item_hits_the_memory_limit():
    def grab():
        return len(bytearray(run.ISOLATED_EXTRA_AS * 2))

    tally = _failures_of(W.Item("grab", grab, lambda out: None, isolated=True), budget_s=20)
    assert tally.failures[0][:1] == ("budget",)
    assert "address-space" in tally.failures[0][2]


def test_isolated_item_returns_its_output():
    item = W.Hscan._h_item("box", W._box_rows([0, 0], 2), lambda: O.box_counts(2, 2))
    item.isolated = True
    assert _failures_of(item).failures == []


# -- tracing and the metric tables ------------------------------------------------------


def test_tracer_records_nested_spans_and_restores_the_program():
    original = engine.compute_vectors
    tracer = Tracer()
    tracer.install()
    try:
        assert engine.compute_vectors is not original
        tracer.begin_item("0.0", "x")
        engine.compute_vectors(lattice.LatticeSimplex.from_vertices([(0, 0), (2, 0), (0, 3)]))
        tracer.end_item()
    finally:
        tracer.uninstall()
    assert engine.compute_vectors is original
    assert tracer.absent() == []
    names = {rec[0]: rec for rec in tracer.spans}
    assert names["engine.box_points_simplex"][5] == 6  # residues = normalized volume
    parent = tracer.spans[names["intlinalg.diagonalize_lattice_basis"][3]][0]
    assert parent == "engine.box_points_simplex"
    summary = tracer.summary()
    assert summary["item"]["total_ns"] >= summary["engine.compute_vectors"]["total_ns"]
    assert set(REQUIRED) <= tracer.wrapped


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(W.WORKLOADS)
