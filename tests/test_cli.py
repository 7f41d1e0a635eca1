import json

import pytest

from ehrstar.cli import build_builtin, main

SPIKE15_H = ["1"] + ["0"] * 7 + ["131"] + ["0"] * 7
SPIKE15_F = [16, 120, 560, 1820, 4368, 8008, 11440, 13001,
             12488, 11676, 11704, 10990, 7896, 3788, 1064, 132]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestBuiltins:
    def test_cube_with_negative_bound(self):
        p = build_builtin("cube-2--1-1")
        assert set(p.vertices) == {(-1, -1), (-1, 1), (1, -1), (1, 1)}

    def test_named_instance_matches_parameterized(self):
        assert build_builtin("higashitani-15").vertices == build_builtin(
            "higashitani-7-131-7-132"
        ).vertices

    def test_pyramid_wrapper(self):
        p = build_builtin("pyr-2-cube-2-0-1")
        assert p.ambient_dim == 4
        assert len(p.vertices) == 6

    def test_random_uses_seed(self):
        assert build_builtin("random-3-2", seed=5).vertices == build_builtin(
            "random-3-2", seed=5
        ).vertices
        assert build_builtin("random-3-2", seed=5).vertices != build_builtin(
            "random-3-2", seed=6
        ).vertices

    def test_unknown_rejected(self):
        code = main(["compute", "--builtin", "dodecahedron-12"])
        assert code == 2


class TestCompute:
    def test_square_text(self, capsys):
        code, out, _ = run(capsys, "compute", "--builtin", "cube-2--1-1")
        assert code == 0
        assert "ehrhart values (n = 0..3): 1 9 25 49" in out
        assert "h*: 1 6 1" in out
        assert "f*: 9 16 8" in out

    def test_square_json(self, capsys):
        obj = run_json(capsys, "compute", "--builtin", "cube-2--1-1", "--format", "json")
        assert obj["counts"] == ["1", "9", "25", "49"]
        assert obj["h_star"] == ["1", "6", "1"]
        assert obj["f_star"] == ["9", "16", "8"]
        assert obj["degree"] == 2
        assert obj["gorenstein_index"] == 1
        assert obj["provenance"] == "polytope"

    def test_spiked_simplex(self, capsys):
        obj = run_json(capsys, "compute", "--builtin", "higashitani-15", "--format", "json")
        assert obj["h_star"] == SPIKE15_H
        assert [int(x) for x in obj["f_star"]] == SPIKE15_F
        assert obj["route"] == "parallelepiped"

    def test_segment_file(self, capsys, tmp_path):
        path = tmp_path / "segment.json"
        path.write_text('{"ambient_dim": 1, "vertices": [[0], [1]]}')
        obj = run_json(capsys, "compute", "--input", str(path), "--format", "json")
        assert obj["h_star"] == ["1", "0"]
        assert obj["f_star"] == ["2", "1"]

    def test_parse_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _out, err = run(capsys, "compute", "--input", str(path))
        assert code == 2 and "error" in err

    def test_non_lattice_halfspaces_exit_2(self, capsys, tmp_path):
        # vertex (10/3, 6): not a lattice polytope, so no h*-vector is reported
        path = tmp_path / "rational.json"
        path.write_text('{"ambient_dim": 2, "halfspaces": [[2,3,-2],[4,-3,1],[0,3,0]]}')
        code, out, err = run(capsys, "compute", "--input", str(path))
        assert code == 2 and out == ""
        assert err.splitlines() == [
            "error: half-space polytope has the non-lattice vertex (10/3, 6); "
            "only lattice polytopes are supported"
        ]

    def test_no_strategy_exit_3(self, capsys, tmp_path):
        path = tmp_path / "square.json"
        path.write_text('{"ambient_dim": 2, "vertices": [[0,0],[1,0],[0,1],[1,1]]}')
        code, _out, err = run(capsys, "compute", "--input", str(path))
        assert code == 3

    def test_cap_exceeded_exit_3(self, capsys):
        code, _out, err = run(
            capsys, "compute", "--builtin", "unimodular-3", "--count-cap", "5",
            "--volume-cap", "1",
        )
        # volume 1 is allowed by the cap, so the box route still applies here;
        # force the scan route with a wider simplex instead
        assert code == 0
        code, _out, err = run(
            capsys, "compute", "--builtin", "random-3-4", "--seed", "3",
            "--volume-cap", "1", "--count-cap", "10",
        )
        assert code == 3


class TestAudit:
    def test_spiked_simplex_report(self, capsys):
        code, out, _ = run(
            capsys, "audit", "--builtin", "higashitani-15", "--format", "json"
        )
        assert code == 0  # nonunimodality is a finding, not a failure
        obj = json.loads(out)
        assert obj["unimodal"] is False
        assert obj["first_dip"] == 9
        assert obj["d"] == 15 and obj["degree"] == 8
        assert obj["gorenstein_index"] is None
        assert all(c["holds"] for c in obj["checks"] if c["applicable"])

    def test_square_all_pass(self, capsys):
        obj = run_json(capsys, "audit", "--builtin", "cube-2--1-1", "--format", "json")
        assert obj["unimodal"] is True
        assert obj["provenance"] == "polytope"

    def test_round_trip_from_compute(self, capsys, tmp_path):
        _, out, _ = run(capsys, "compute", "--builtin", "higashitani-15", "--format", "json")
        path = tmp_path / "vectors.json"
        path.write_text(out)
        obj = run_json(capsys, "audit", "--input", str(path), "--format", "json")
        compute_obj = json.loads(out)
        assert obj["h_star"] == compute_obj["h_star"]
        assert obj["f_star"] == compute_obj["f_star"]
        assert obj["provenance"] == "polytope"

    def test_raw_violation_is_reported_with_exit_0(self, capsys, tmp_path):
        path = tmp_path / "raw.json"
        path.write_text(json.dumps({"d": 2, "h_star": ["1", "0", "5"]}))
        code, out, _ = run(capsys, "audit", "--input", str(path), "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["provenance"] == "raw"
        failing = [c["name"] for c in obj["checks"] if c["applicable"] and not c["holds"]]
        assert "hibi" in failing

    def test_polytope_provenance_violation_signals_bug(self, capsys, tmp_path):
        path = tmp_path / "claimed.json"
        path.write_text(json.dumps({
            "d": 2, "h_star": ["1", "0", "5"], "provenance": "polytope",
        }))
        code, _out, _err = run(capsys, "audit", "--input", str(path), "--format", "json")
        assert code == 1

    def test_text_report_lists_checks(self, capsys):
        code, out, _ = run(capsys, "audit", "--builtin", "cube-2--1-1")
        assert code == 0
        assert "first_half_increase" in out
        assert "unimodal: yes" in out


class TestConvertAndSeries:
    def test_convert_h_to_f(self, capsys, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"d": 2, "h_star": ["1", "6", "1"]}))
        obj = run_json(capsys, "convert", "--input", str(path), "--format", "json")
        assert obj["f_star"] == ["9", "16", "8"]

    def test_convert_f_to_h(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"d": 2, "f_star": ["9", "16", "8"]}))
        obj = run_json(capsys, "convert", "--input", str(path), "--format", "json")
        assert obj["h_star"] == ["1", "6", "1"]

    @pytest.mark.parametrize("command", ["convert", "compute", "audit"])
    def test_missing_input_file_exit_2(self, capsys, tmp_path, command):
        missing = tmp_path / "missing.json"
        code, out, err = run(capsys, command, "--input", str(missing))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: cannot read ")

    def test_series_json(self, capsys):
        obj = run_json(capsys, "series", "--builtin", "higashitani-15", "--format", "json")
        assert obj["numerator"] == SPIKE15_H
        assert obj["denominator_exponent"] == 16

    def test_series_text(self, capsys):
        code, out, _ = run(capsys, "series", "--builtin", "cube-2--1-1")
        assert code == 0
        assert "(1 + 6*z + z^2) / (1 - z)^3" in out

    def test_series_from_vector_file(self, capsys, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"d": 1, "h_star": ["1", "0"]}))
        obj = run_json(capsys, "series", "--input", str(path), "--format", "json")
        assert obj == {"numerator": ["1", "0"], "denominator_exponent": 2}


class TestSearch:
    def test_recall_json(self, capsys):
        code, out, _ = run(
            capsys, "search", "--dim", "15", "--spike-pos-range", "8:8",
            "--spike-val-range", "2:200", "--format", "json",
        )
        assert code == 0
        lines = out.strip().splitlines()
        summary = json.loads(lines[-1])["summary"]
        values = [json.loads(line)["h_star"][8] for line in lines[:-1]]
        assert "131" in values
        assert summary["candidates"] == len(lines) - 1
        assert "polytope existence" in summary["disclaimer"]

    def test_dimension_13_empty(self, capsys):
        code, out, _ = run(
            capsys, "search", "--dim", "13", "--spike-pos-range", "1:13",
            "--spike-val-range", "2:200", "--format", "json",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["summary"]["candidates"] == 0

    def test_budget_exhaustion_exit_4(self, capsys):
        code, out, _ = run(
            capsys, "search", "--dim", "15", "--spike-pos-range", "8:8",
            "--spike-val-range", "2:200", "--budget", "5", "--format", "json",
        )
        assert code == 4
        summary = json.loads(out.strip().splitlines()[-1])["summary"]
        assert summary["truncated"] is True

    def test_text_mode_carries_disclaimer(self, capsys):
        code, out, _ = run(
            capsys, "search", "--dim", "15", "--spike-pos-range", "8:8",
            "--spike-val-range", "131:131",
        )
        assert code == 0
        assert "polytope existence not established" in out
        assert "first dip at 9" in out

    def test_missing_flags_exit_2(self, capsys):
        code, _out, _err = run(capsys, "search", "--dim", "15")
        assert code == 2

    def test_bad_range_exit_2(self, capsys):
        code, _out, _err = run(
            capsys, "search", "--dim", "15", "--spike-pos-range", "8",
            "--spike-val-range", "2:3",
        )
        assert code == 2


class TestSelftest:
    def test_quick_passes_under_five_seconds(self, capsys):
        import time

        start = time.monotonic()
        code, out, _ = run(capsys, "selftest", "--quick")
        elapsed = time.monotonic() - start
        assert code == 0
        assert "all checks passed" in out
        assert elapsed < 5.0

    def test_injected_fault_fails(self, capsys):
        code, out, _ = run(capsys, "selftest", "--quick", "--inject-fault")
        assert code == 1
        assert "FAIL" in out


class TestConfig:
    def test_bad_caps_exit_2(self, capsys):
        code, _out, _err = run(
            capsys, "compute", "--builtin", "cube-1-0-1", "--count-cap", "0"
        )
        assert code == 2
