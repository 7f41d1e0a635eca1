import argparse
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import time
from itertools import product
from math import comb, factorial, prod
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ehrstar
from ehrstar import cli, engine, intlinalg, lattice, starbasis
from ehrstar.cli import build_builtin, build_parser, main
from ehrstar.lattice import GENERATOR_DIM_CAP
from ehrstar.starbasis import VECTOR_DIM_CAP

SPIKE15_H = ["1"] + ["0"] * 7 + ["131"] + ["0"] * 7
# conv{(0, 0), (2, 0), (0, 2)} listed with a point of an edge and a point inside
PADDED_TRIANGLE = [[0, 0], [2, 0], [0, 2], [1, 0], [1, 1]]
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
        assert p.hint == lattice.BoxHint((-1, -1), (1, 1))
        assert {(h.offset, h.normal) for h in p.halfspaces} == {
            (1, (1, 0)), (1, (-1, 0)), (1, (0, 1)), (1, (0, -1))}

    def test_named_instance_matches_parameterized(self):
        assert build_builtin("higashitani-15").vertices == build_builtin(
            "higashitani-7-131-7-132"
        ).vertices

    def test_pyramid_wrapper(self):
        p = build_builtin("pyr-2-cube-2-0-1")
        assert p.ambient_dim == 4
        assert len(p.halfspaces) == 4 + 2

    def test_random_uses_seed(self):
        assert build_builtin("random-3-2-5").vertices == build_builtin("random-3-2-5").vertices
        assert build_builtin("random-3-2-5").vertices != build_builtin("random-3-2-6").vertices
        assert build_builtin("random-3-2").vertices == build_builtin("random-3-2-0").vertices

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

    @pytest.mark.parametrize("command", ["compute", "audit", "convert"])
    @pytest.mark.parametrize("payload", [
        {"ambient_dim": 2, "vertices": 5},
        {"ambient_dim": 2, "vertices": [[0, 0], 5]},
        {"ambient_dim": 2, "vertices": "[[0, 0]]"},
        {"ambient_dim": 1, "halfspaces": {"0": [1, 1]}},
        {"ambient_dim": 1, "halfspaces": [[1, 1], 1]},
        {"d": 2, "h_star": 5},
        {"d": 2, "f_star": "123"},
    ])
    def test_bad_container_shape_exit_2(self, capsys, tmp_path, command, payload):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, command, "--input", str(path))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("command", ["compute", "audit", "convert", "series"])
    def test_deeply_nested_json_exit_2(self, capsys, tmp_path, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out, err = run(capsys, command, "--input", str(path))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: invalid JSON: ")

    @pytest.mark.parametrize("name", [
        "unimodular-101", "pyr-100-unimodular-1", "random-101-1", "higashitani-1-2-99-3",
    ])
    def test_generator_over_dimension_cap_exit_2(self, capsys, name):
        code, out, err = run(capsys, "compute", "--builtin", name)
        assert code == 2 and out == ""
        assert err == "error: generator dimension 101 exceeds the cap 100\n"

    def test_deeply_nested_pyramid_name(self, capsys):
        # 3000 wrappers of pyr-0- are read in a loop, not one call each
        name = "pyr-0-" * 3000 + "unimodular-2"
        assert run(capsys, "compute", "--builtin", name) == run(
            capsys, "compute", "--builtin", "unimodular-2")

    @pytest.mark.parametrize("name, dim", [
        pytest.param("pyr-50-pyr-49-unimodular-2", 101, id="sum"),
        pytest.param("pyr-1-" * 2000 + "unimodular-2", 101, id="2000-levels"),
        # the innermost wrapper already passes the cap, and is the one named
        pytest.param("pyr-1-pyr-200-unimodular-2", 202, id="inner"),
    ])
    def test_pyramid_chain_over_dimension_cap_exit_2(self, capsys, name, dim):
        assert run(capsys, "compute", "--builtin", name) == (
            2, "", f"error: generator dimension {dim} exceeds the cap 100\n")

    def test_vertex_square_is_counted(self, capsys, tmp_path):
        path = tmp_path / "square.json"
        path.write_text('{"ambient_dim": 2, "vertices": [[0,0],[1,0],[0,1],[1,1]]}')
        assert run(capsys, "compute", "--input", str(path)) == run(
            capsys, "compute", "--builtin", "cube-2-0-1")

    def test_cap_exceeded_exit_3(self, capsys):
        code, _out, err = run(
            capsys, "compute", "--builtin", "unimodular-3", "--count-cap", "5",
            "--volume-cap", "1",
        )
        # volume 1 is allowed by the cap, so the box route still applies here;
        # force the scan route with a wider simplex instead
        assert code == 0
        code, _out, err = run(
            capsys, "compute", "--builtin", "random-3-4-3",
            "--volume-cap", "1", "--count-cap", "10",
        )
        assert code == 3

    def test_cap_covers_only_the_scanned_dilates(self, capsys, tmp_path):
        # d = 3: a simplex scans the dilate n = 1 and the box [0, 3]^3 by its
        # 8 vertices, which is no simplex, the dilates n <= 2, so a cap that
        # fits the top scanned box suffices, although the n = 4 box is over it
        p = build_builtin("random-3-4-3")
        widths = [max(v[j] for v in p.vertices) - min(v[j] for v in p.vertices) for j in range(3)]
        box = tmp_path / "box.json"
        box.write_text(json.dumps({"ambient_dim": 3, "vertices": list(product((0, 3), repeat=3))}))
        for source, cap in ((["--builtin", "random-3-4-3", "--volume-cap", "1"], prod(w + 1 for w in widths)),
                            (["--input", str(box)], 7**3)):
            code, out, err = run(capsys, "compute", *source, "--count-cap", str(cap))
            assert code == 0 and err == "" and "route: interpolation" in out
            code, out, err = run(capsys, "compute", *source, "--count-cap", str(cap - 1))
            assert code == 3 and out == ""
            assert err == (f"error: bounding-box scan would visit {cap} candidates (cap {cap - 1}); "
                           "raise the cap or use the parallelepiped route\n")

    def test_padded_simplex_scans_no_dilate(self, capsys, tmp_path):
        # a d = 2 simplex is anchored however its vertex list is padded, so no
        # box is scanned and no count cap refuses it
        path = tmp_path / "padded.json"
        path.write_text(json.dumps({"ambient_dim": 2, "vertices": PADDED_TRIANGLE}))
        code, out, err = run(capsys, "compute", "--input", str(path))
        assert (code, err) == (0, "")
        assert "h*: 1 3 0" in out and "route: interpolation" in out
        assert run(capsys, "compute", "--input", str(path), "--count-cap", "1") == (0, out, "")

    @pytest.mark.parametrize("command", ["compute", "audit", "series"])
    def test_scan_past_the_kernel_limit_exit_3(self, capsys, tmp_path, command):
        # the box [0, 2^64] x [0, 1] is under this cap but past the 2^62 the kernel takes
        path = tmp_path / "wide.json"
        path.write_text('{"ambient_dim": 2, "halfspaces": '
                        '[[0,1,0],["18446744073709551616",-1,0],[0,0,1],[1,0,-1]]}')
        code, out, err = run(capsys, command, "--input", str(path), "--count-cap", str(10**30))
        assert (code, out) == (3, "")
        assert err == (f"error: bounding-box scan would visit {(2**64 + 1) * 2} candidates; "
                       "the scan kernel takes fewer than 2^62\n")


_JSON_KEYS = ("ambient_dim", "vertices", "halfspaces", "d", "h_star", "f_star", "provenance")
_small_int = st.integers(-4, 4)
# Integers of up to 6,000 digits, past the interpreter's 4,300-digit limit
# on int/str conversion: as JSON strings, and as JSON number literals,
# which json.dumps cannot write, so `_json_text` puts them in place of
# their "\x00<digits>" stand-ins.
_huge_digits = st.integers(1, 6000)
_entry = _small_int | _huge_digits.map(lambda n: "9" * n) | _huge_digits.map(lambda n: f"\x00{n}")


def _json_text(value) -> str:
    return re.sub(r'"\\u0000(\d+)"', lambda m: "9" * int(m[1]), json.dumps(value))


def _shaped(d: int):
    """Objects with the right shape for dimension d, so that the guard also
    reaches the counting, the conversions and the audit."""
    def rows(length):
        return st.lists(st.lists(_entry, min_size=length, max_size=length), max_size=4)

    vector = st.lists(_entry, min_size=d + 1, max_size=d + 1)
    return st.one_of(
        st.fixed_dictionaries({"ambient_dim": st.just(d), "vertices": rows(d)}),
        st.fixed_dictionaries({"ambient_dim": st.just(d), "halfspaces": rows(d + 1)}),
        st.fixed_dictionaries({"d": st.just(d)}, optional={
            "h_star": vector, "f_star": vector,
            "provenance": st.sampled_from(["raw", "polytope"]),
        }),
    )


_json_values = st.one_of(
    st.integers(0, 3).flatmap(_shaped),
    st.recursive(
        _entry | st.text(max_size=6) | st.sampled_from(["raw", "polytope", "3", "-1"]),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.sampled_from(_JSON_KEYS) | st.text(max_size=6), inner, max_size=4),
        max_leaves=24,
    ),
)


class TestArbitraryJson:
    @given(command=st.sampled_from(["compute", "audit", "convert"]), value=_json_values)
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_every_input_ends_in_a_documented_exit(self, capsys, tmp_path, command, value):
        path = tmp_path / "input.json"
        path.write_text(_json_text(value))
        code, _out, err = run(capsys, command, "--input", str(path))
        assert "Traceback" not in err
        claims_polytope = (
            isinstance(value, dict) and value.get("provenance") == "polytope"
            and "vertices" not in value and "halfspaces" not in value
        )
        if code == 1:
            # the bug signal is reserved for a vector file that claims to
            # come from a polytope and fails a theorem check
            assert command == "audit" and claims_polytope and err == ""
        elif code == 0:
            assert err == ""
        else:
            assert code in (2, 3)
            assert len(err.splitlines()) == 1 and err.startswith("error: ")


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

    def test_text_report_of_the_spiked_simplex_names_the_dip(self, capsys):
        code, out, err = run(capsys, "audit", "--builtin", "higashitani-15")
        assert (code, err) == (0, "")
        assert out.splitlines()[4] == "unimodal: NO (first dip at 9)"
        assert "extended f*-vector is symmetric" not in out

    def test_text_report_of_a_unimodular_simplex_names_the_symmetry(self, capsys):
        code, out, err = run(capsys, "audit", "--builtin", "unimodular-3")
        assert (code, err) == (0, "")
        assert out.splitlines()[4:6] == ["unimodal: yes (peak at 1)",
                                         "extended f*-vector is symmetric"]

    def test_text_report_gives_each_failing_witness(self, capsys, tmp_path):
        path = tmp_path / "raw.json"
        path.write_text(json.dumps({"d": 4, "f_star": [1, 5, 3, 4, 2]}))
        code, out, err = run(capsys, "audit", "--input", str(path))
        assert (code, err) == (0, "")
        assert [line for line in out.splitlines() if "witness=" in line] == [
            "  [FAIL] first_half_increase  witness=2",
            "  [FAIL] hibi  witness=1",
            "  [FAIL] degree_le5_unimodal  witness=2",
        ]


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

    @pytest.mark.parametrize("command", ["compute", "convert", "audit", "series"])
    def test_non_utf8_input_file_exit_2(self, capsys, tmp_path, command):
        path = tmp_path / "latin.json"
        path.write_bytes(b'\xff\xfe{"d": 1}')
        assert run(capsys, command, "--input", str(path)) == (
            2, "", f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff in "
                   "position 0: invalid start byte\n")

    def test_series_json(self, capsys):
        obj = run_json(capsys, "series", "--builtin", "higashitani-15", "--format", "json")
        assert obj["numerator"] == SPIKE15_H
        assert obj["denominator_exponent"] == 16

    def test_series_text(self, capsys):
        code, out, _ = run(capsys, "series", "--builtin", "cube-2--1-1")
        assert code == 0
        assert "(1 + 6*z + z^2) / (1 - z)^3" in out

    @pytest.mark.parametrize("name, line", [
        ("higashitani-15", "Ehr(z) = (1 + 131*z^8) / (1 - z)^16"),
        ("cube-1-0-2", "Ehr(z) = (1 + z) / (1 - z)^2"),
    ])
    def test_series_text_skips_zero_and_unit_coefficients(self, capsys, name, line):
        assert run(capsys, "series", "--builtin", name) == (0, line + "\n", "")

    def test_series_from_vector_file(self, capsys, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"d": 1, "h_star": ["1", "0"]}))
        obj = run_json(capsys, "series", "--input", str(path), "--format", "json")
        assert obj == {"numerator": ["1", "0"], "denominator_exponent": 2}


class TestVectorDimensionCap:
    """Vector files and the search stop at VECTOR_DIM_CAP before any conversion."""

    @pytest.fixture
    def no_binomials(self, monkeypatch):
        def refuse(a, b):
            raise AssertionError("a binomial was computed past the dimension cap")

        monkeypatch.setattr(starbasis, "comb", refuse)

    @pytest.mark.parametrize("command", ["convert", "audit", "series"])
    @pytest.mark.parametrize("key", ["h_star", "f_star"])
    @pytest.mark.parametrize("d", [VECTOR_DIM_CAP + 1, 3000])
    def test_vector_file_over_cap_exit_2(self, capsys, tmp_path, no_binomials, command, key, d):
        path = tmp_path / "vec.json"
        path.write_text(json.dumps({"d": d, key: [1] + [0] * d}))
        code, out, err = run(capsys, command, "--input", str(path))
        assert code == 2 and out == ""
        assert err == f"error: vector dimension {d} exceeds the cap {VECTOR_DIM_CAP}\n"

    @pytest.mark.parametrize("command", ["convert", "audit"])
    def test_vector_file_at_cap_runs(self, capsys, tmp_path, command):
        d = VECTOR_DIM_CAP
        path = tmp_path / "vec.json"
        path.write_text(json.dumps({"d": d, "h_star": [1] + [0] * d}))
        obj = run_json(capsys, command, "--input", str(path), "--format", "json")
        # h* = (1, 0, ..., 0) is the unimodular simplex: f*_k = C(d+1, k+1).
        assert obj["f_star"] == [str(comb(d + 1, k + 1)) for k in range(d + 1)]

    def test_generator_output_at_its_cap_is_a_vector_input(self, capsys, tmp_path):
        assert GENERATOR_DIM_CAP <= VECTOR_DIM_CAP
        _, out, _ = run(capsys, "compute", "--builtin", f"unimodular-{GENERATOR_DIM_CAP}",
                        "--format", "json")
        path = tmp_path / "vec.json"
        path.write_text(out)
        for command in ("convert", "audit"):
            obj = run_json(capsys, command, "--input", str(path), "--format", "json")
            assert obj["f_star"] == json.loads(out)["f_star"]

    @pytest.mark.parametrize("d", [VECTOR_DIM_CAP + 1, 1000])
    def test_search_over_cap_exit_2(self, capsys, no_binomials, d):
        code, out, err = run(capsys, "search", "--dim", str(d), "--spike-pos-range", "1:1",
                             "--spike-val-range", "2:3")
        assert code == 2 and out == ""
        assert err == f"error: search dimension {d} exceeds the cap {VECTOR_DIM_CAP}\n"

    def test_search_at_cap_runs(self, capsys):
        code, out, err = run(capsys, "search", "--dim", str(VECTOR_DIM_CAP), "--spike-pos-range",
                             "1:1", "--spike-val-range", "2:3", "--format", "json")
        assert code == 0 and err == ""
        summary = json.loads(out.splitlines()[-1])["summary"]
        assert (summary["d"], summary["scanned"], summary["truncated"]) == (VECTOR_DIM_CAP, 2, False)


def _unimodular_file(d: int, kind: str) -> dict:
    """conv{0, e_1, ..., e_d} by its vertices, or by its d + 1 facets."""
    units = [[int(i == j) for j in range(d)] for i in range(d)]
    if kind == "vertices":
        return {"ambient_dim": d, "vertices": [[0] * d] + units}
    return {"ambient_dim": d, "halfspaces": [[0] + u for u in units] + [[1] + [-1] * d]}


class TestPolytopeDimensionCap:
    """Polytope files stop at GENERATOR_DIM_CAP before any linear algebra."""

    @pytest.fixture
    def no_linear_algebra(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("exact linear algebra ran past the dimension cap")

        for module, name in ((intlinalg, "det"), (intlinalg, "scaled_inverse"), (lattice, "det"),
                             (lattice, "scaled_inverse"), (lattice, "_extreme_rays"),
                             (engine, "scaled_inverse")):
            monkeypatch.setattr(module, name, refuse)

    @pytest.mark.parametrize("command", ["compute", "audit", "series"])
    @pytest.mark.parametrize("kind", ["vertices", "halfspaces"])
    def test_polytope_file_over_cap_exit_2(self, capsys, tmp_path, no_linear_algebra,
                                           command, kind):
        d = GENERATOR_DIM_CAP + 1
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(_unimodular_file(d, kind)))
        code, out, err = run(capsys, command, "--input", str(path))
        assert code == 2 and out == ""
        assert err == f"error: polytope dimension {d} exceeds the cap {GENERATOR_DIM_CAP}\n"

    @pytest.mark.parametrize("command", ["compute", "audit", "series"])
    def test_facet_file_at_cap_exit_3_on_the_scan_cost(self, capsys, tmp_path, command):
        # the box [0, 1]^100 of the unimodular 100-simplex, from its facets
        d = GENERATOR_DIM_CAP
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(_unimodular_file(d, "halfspaces")))
        code, out, err = run(capsys, command, "--input", str(path))
        assert code == 3 and out == ""
        assert err == (f"error: bounding-box scan would visit {2**d} candidates "
                       "(cap 1000000000); raise the cap or use the parallelepiped route\n")

    def test_vertex_file_at_cap_computes(self, capsys, tmp_path):
        d = GENERATOR_DIM_CAP
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(_unimodular_file(d, "vertices")))
        code, out, err = run(capsys, "compute", "--input", str(path))
        assert code == 0 and err == ""
        assert f"h*: 1{' 0' * d}" in out.splitlines()


def _write(tmp_path, obj) -> str:
    path = tmp_path / "input.json"
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    return str(path)


class TestCountedByDoubleDescription:
    """A vertex list that is not a simplex, many-row H-files and a cube past 20 dimensions."""

    def test_octahedron_vertex_file(self, capsys, tmp_path):
        units = [[s * (k == j) for k in range(3)] for j in range(3) for s in (1, -1)]
        code, out, err = run(capsys, "compute", "--input",
                             _write(tmp_path, {"ambient_dim": 3, "vertices": units}))
        assert (code, err) == (0, "") and "h*: 1 3 3 1" in out.splitlines()

    def test_six_dimensional_cross_polytope(self, capsys, tmp_path):
        rows = [[1, *s] for s in product((-1, 1), repeat=6)]
        code, out, err = run(capsys, "compute", "--input",
                             _write(tmp_path, {"ambient_dim": 6, "halfspaces": rows}))
        assert (code, err) == (0, "") and "h*: 1 6 15 20 15 6 1" in out.splitlines()

    def test_cube_in_21_dimensions(self, capsys):
        code, out, err = run(capsys, "compute", "--builtin", "cube-21-0-1", "--format", "json")
        assert (code, err) == (0, "")
        h = [int(x) for x in json.loads(out)["h_star"]]
        assert len(h) == 22 and h[:2] == [1, 2**21 - 22] and sum(h) == factorial(21)

    @pytest.mark.parametrize("cuts", [196, 1996])
    def test_square_with_corner_cuts(self, capsys, tmp_path, cuts):
        # [-1, 1]^2 and redundant cuts, a third of them through a corner:
        # the scan reads the 4 facets only
        rows = [[1, 1, 0], [1, -1, 0], [1, 0, 1], [1, 0, -1]]
        for i in range(cuts):
            a = [(7 * i) % 11 - 5, (3 * i) % 13 - 6]
            rows.append([abs(a[0]) + abs(a[1]) + (i % 3) * (1 + i % 2), *a])
        path = _write(tmp_path, {"ambient_dim": 2, "halfspaces": rows})
        p = lattice.polytope_from_json(Path(path).read_text())
        start = time.perf_counter()
        vertices, facets = p.double_description
        assert time.perf_counter() - start < 1.0
        assert sorted(vertices) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
        assert [[h.offset, *h.normal] for h in facets] == rows[:4]
        start = time.perf_counter()
        code, out, err = run(capsys, "compute", "--input", path)
        assert time.perf_counter() - start < 2.0
        assert (code, err) == (0, "") and "h*: 1 6 1" in out.splitlines()

    def test_cube_with_corner_cuts(self, capsys, tmp_path):
        # [-1, 1]^3 and 240 redundant cuts in the same pattern
        rows = [[1, *(s * (k == j) for k in range(3))] for j in range(3) for s in (1, -1)]
        for i in range(240):
            a = [(7 * i) % 11 - 5, (3 * i) % 13 - 6, (5 * i) % 7 - 3]
            rows.append([sum(map(abs, a)) + (i % 3) * (1 + i % 2), *a])
        path = _write(tmp_path, {"ambient_dim": 3, "halfspaces": rows})
        start = time.perf_counter()
        code, out, err = run(capsys, "compute", "--input", path)
        assert time.perf_counter() - start < 0.1
        assert (code, err) == (0, "") and "h*: 1 23 23 1" in out.splitlines()


    def test_cube_with_many_redundant_rows_exit_3(self, capsys, tmp_path):
        # the 11-cube by its 22 facets and 1,000 rows 100 + i + x_1 >= 0: no
        # row separates a pair of rays, but each is read against all 2^11 of
        # them, and that work is charged: the cap refuses the run part way
        # through the rows instead of letting it run for seconds
        d = 11
        rows = [[1, *(s * (k == j) for k in range(d))] for j in range(d) for s in (1, -1)]
        rows += [[100 + i, *(int(k == 0) for k in range(d))] for i in range(1000)]
        path = _write(tmp_path, {"ambient_dim": d, "halfspaces": rows})
        start = time.perf_counter()
        code, out, err = run(capsys, "compute", "--input", path)
        assert time.perf_counter() - start < 10
        assert (code, out) == (3, "")
        assert re.fullmatch(r"error: vertex enumeration would pass 10000000 adjacency tests "
                            r"at row \d+ of 1023\n", err), err


class TestHugeIntegers:
    """Integers past the interpreter's 4,300-digit limit end in exit 2, not a traceback."""

    NINES = "9" * 5000
    CAP_LINE = "error: integer of {} digits exceeds the cap of 40 digits\n"

    @pytest.mark.parametrize("entry", ["literal", "string"])
    def test_vertex_file_with_a_5000_digit_entry(self, capsys, tmp_path, entry):
        big = self.NINES if entry == "literal" else f'"{self.NINES}"'
        path = _write(tmp_path, f'{{"ambient_dim": 1, "vertices": [[0], [{big}]]}}')
        assert run(capsys, "compute", "--input", path) == (2, "", self.CAP_LINE.format(5000))

    @pytest.mark.parametrize("argv", [
        ["compute"], ["audit"], ["series"], ["compute", "--volume-cap", "1"]])
    def test_triangle_with_4000_digit_coordinates(self, capsys, tmp_path, argv):
        n = "9" * 4000
        path = _write(tmp_path, f'{{"ambient_dim": 2, "vertices": [[0, 0], [{n}, 0], [0, {n}]]}}')
        assert run(capsys, *argv, "--input", path) == (2, "", self.CAP_LINE.format(4000))

    def test_convert_of_a_4290_digit_vector_entry(self, capsys, tmp_path):
        entries = ["1", "9" * 4290] + ["0"] * 199
        path = _write(tmp_path, {"d": 200, "h_star": entries})
        assert run(capsys, "convert", "--input", path) == (2, "", self.CAP_LINE.format(4290))

    @pytest.mark.parametrize("name, digits", [
        pytest.param(f"cube-20-0-{'9' * 1000}", 1000, id="cube-bound"),
        pytest.param(f"pyr-{'9' * 4300}-unimodular-2", 4300, id="pyramid-count"),
    ])
    def test_builtin_parameters(self, capsys, name, digits):
        assert run(capsys, "compute", "--builtin", name) == (2, "", self.CAP_LINE.format(digits))

    def test_forty_digits_pass(self, capsys, tmp_path):
        shift = 10**39
        path = _write(tmp_path, {"ambient_dim": 1, "vertices": [[shift], [shift + 1]]})
        code, out, err = run(capsys, "compute", "--input", path)
        assert (code, err) == (0, "") and "h*: 1 0" in out.splitlines()
        path = _write(tmp_path, {"ambient_dim": 1, "vertices": [[10 * shift], [0]]})
        assert run(capsys, "compute", "--input", path) == (2, "", self.CAP_LINE.format(41))

    def test_unprintable_scan_total_is_named_by_its_digit_count(self):
        with pytest.raises(ehrstar.CostGuardExceeded) as info:
            ehrstar.engine._check_scan_cost(
                ehrstar.engine._ScanPlan([0, 0], [10**3000, 10**3000], [], []), 1, 10**9)
        assert str(info.value) == ("bounding-box scan would visit <6001-digit number> candidates "
                                   "(cap 1000000000); raise the cap or use the parallelepiped route")


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

    @pytest.mark.parametrize("budget, code, summary", [
        (198, 4, "69 candidate(s) from 198 pattern(s) at d = 15 [budget exhausted, partial]"),
        (199, 0, "70 candidate(s) from 199 pattern(s) at d = 15"),
        (200, 0, "70 candidate(s) from 199 pattern(s) at d = 15"),
    ])
    def test_budget_boundary(self, capsys, budget, code, summary):
        # 199 patterns: values 2..200 at position 8, candidates from 131 on
        result, out, err = run(capsys, "search", "--dim", "15", "--spike-pos-range", "8:8",
                               "--spike-val-range", "2:200", "--budget", str(budget))
        assert (result, err, out.splitlines()[-2]) == (code, "", summary)

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

    TWO_SPIKES = ("--spike-pos-range", "7:8", "--spike-val-range", "30:50",
                  "--spike2-pos-range", "8:9", "--spike2-val-range", "30:50")

    def test_two_spikes_print_the_in_process_search(self, capsys):
        outcome = ehrstar.search_nonunimodal(
            14, [ehrstar.SpikeRange(7, 8, 30, 50), ehrstar.SpikeRange(8, 9, 30, 50)],
            cli.DEFAULT_SEARCH_BUDGET)
        assert outcome.candidates and not outcome.truncated
        code, out, err = run(capsys, "search", "--dim", "14", *self.TWO_SPIKES, "--format", "json")
        assert (code, err) == (0, "")
        *found, summary = map(json.loads, out.splitlines())
        assert [(c["spikes"], c["h_star"], c["first_dip"]) for c in found] == [
            ([list(s) for s in c.spikes], [str(x) for x in c.h.entries], c.first_dip)
            for c in outcome.candidates]
        assert (summary["summary"]["candidates"], summary["summary"]["scanned"]) == (
            len(outcome.candidates), outcome.scanned)
        code, out, err = run(capsys, "search", "--dim", "14", *self.TWO_SPIKES)
        assert (code, err) == (0, "")
        assert out.splitlines()[-2] == (
            f"{len(outcome.candidates)} candidate(s) from {outcome.scanned} pattern(s) at d = 14")

    @pytest.mark.parametrize("options", [TWO_SPIKES[:6], TWO_SPIKES[:4] + TWO_SPIKES[6:]],
                             ids=["pos-only", "val-only"])
    def test_second_spike_needs_both_ranges_exit_2(self, capsys, options):
        assert run(capsys, "search", "--dim", "14", *options) == (
            2, "", "error: second spike needs both --spike2-pos-range and --spike2-val-range\n")


class TestSelftest:
    def test_passes_under_five_seconds(self, capsys):
        import time

        start = time.monotonic()
        code, out, _ = run(capsys, "selftest")
        elapsed = time.monotonic() - start
        assert code == 0
        assert "all checks passed" in out
        assert elapsed < 5.0

    def test_injected_fault_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_SPIKE15_F", cli._SPIKE15_F[:-1] + (133,))
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        assert "  [FAIL] spiked 15-simplex" in out.splitlines()
        assert out.splitlines()[-1].startswith("1 check(s) FAILED")

    def test_wrong_engine_results_fail_the_checks_that_read_them(self, capsys, monkeypatch):
        compute = ehrstar.engine.compute_vectors

        def wrong(p, **kwargs):  # the last h*-entry one too large, one count too many
            r = compute(p, **kwargs)
            h = starbasis.HStarVector(r.h.entries[:-1] + (r.h.entries[-1] + 1,))
            return dataclasses.replace(r, h=h, counts=r.counts + (0,))

        monkeypatch.setattr(ehrstar.engine, "compute_vectors", wrong)
        code, out, err = run(capsys, "selftest")
        *lines, summary = out.splitlines()
        assert (code, err) == (1, "")
        assert lines == ["  [FAIL] square pipeline", "  [FAIL] segment pipeline",
                         "  [FAIL] unimodular simplex rows", "  [FAIL] spiked 15-simplex",
                         "  [ok  ] binomial difference lemma", "  [ok  ] basis round trips",
                         "  [FAIL] pyramid invariant"]
        assert re.fullmatch(r"5 check\(s\) FAILED \(\d+\.\d\ds\)", summary)

    def test_wrong_lemma_and_basis_change_fail(self, capsys, monkeypatch):
        monkeypatch.setattr(ehrstar.audit, "check_binom_diff_lemma", lambda n, k, j: False)
        monkeypatch.setattr(starbasis, "h_from_f", lambda f: starbasis.HStarVector((0,) * len(f.entries)))
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        assert [line for line in out.splitlines() if "[FAIL]" in line] == [
            "  [FAIL] binomial difference lemma", "  [FAIL] basis round trips"]
        assert out.splitlines()[-1].startswith("2 check(s) FAILED")

    def test_failed_polynomial_identity_fails_the_round_trips(self, capsys, monkeypatch):
        monkeypatch.setattr(starbasis, "hstar_poly_identity_check", lambda h, f: False)
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        assert [line for line in out.splitlines() if "[FAIL]" in line] == [
            "  [FAIL] basis round trips"]


_POLYTOPE_COMMANDS = ("compute", "audit", "series")
_INPUT_COMMANDS = ("compute", "audit", "series", "convert")
_ERROR_FILES = {
    "vectors.json": json.dumps({"d": 15, "h_star": SPIKE15_H}),
    "polytope.json": '{"ambient_dim": 1, "vertices": [[0], [1]]}',
    "malformed.json": "{nope",
    "deep.json": "[" * 100_000,
    "vertex_bool.json": '{"ambient_dim": 1, "vertices": [[0], [true]]}',
    "vertex_float.json": '{"ambient_dim": 1, "vertices": [[0], [1.5]]}',
    "dim_bool.json": '{"ambient_dim": true, "vertices": [[0], [1]]}',
    "h_bool.json": '{"d": 1, "h_star": [1, true]}',
    "h_float.json": '{"d": 1, "h_star": [1, 0.5]}',
    "f_bool.json": '{"d": 1, "f_star": [false, 1]}',
    "d_float.json": '{"d": 1.0, "h_star": [1, 0]}',
    "negative_dim_halfspaces.json": '{"ambient_dim": -1, "halfspaces": [[]]}',
    "negative_dim_vertices.json": '{"ambient_dim": -1, "vertices": [[]]}',
    "bad_provenance.json": '{"d": 2, "h_star": [1, 0, 0], "provenance": "x"}',
}
_ERROR_PATHS = [
    *[pytest.param([c, "--count-cap", "0"], "caps must be positive", id=f"{c}-count-cap-0")
      for c in _POLYTOPE_COMMANDS],
    *[pytest.param([c, "--volume-cap", "-1", "--builtin", "higashitani-15"],
                   "caps must be positive", id=f"{c}-volume-cap-negative")
      for c in _POLYTOPE_COMMANDS],
    *[pytest.param([c], "provide --input FILE or --builtin NAME", id=f"{c}-no-input")
      for c in _POLYTOPE_COMMANDS],
    pytest.param(["convert"], "convert needs --input FILE with a vector JSON",
                 id="convert-no-input"),
    pytest.param(["compute", "--input", "vectors.json"],
                 "polytope JSON must be an object with 'ambient_dim'", id="compute-vector-file"),
    pytest.param(["convert", "--input", "polytope.json"],
                 "vector JSON must be an object with a 'd' field", id="convert-polytope-file"),
    *[pytest.param([c, "--input", "malformed.json"],
                   "invalid JSON: Expecting property name enclosed in double quotes: "
                   "line 1 column 2 (char 1)", id=f"{c}-malformed-json")
      for c in _INPUT_COMMANDS],
    *[pytest.param([c, "--input", "deep.json"],
                   "invalid JSON: maximum recursion depth exceeded while decoding a JSON array "
                   "from a unicode string", id=f"{c}-deep-json") for c in _INPUT_COMMANDS],
    *[pytest.param([c, "--input", name], message, id=f"{c}-{name[:-5]}")
      for c in ("compute", "audit")
      for name, message in (("vertex_bool.json", "bad integer entry True"),
                            ("vertex_float.json", "bad integer entry 1.5"),
                            ("dim_bool.json", "bad integer entry True"))],
    *[pytest.param([c, "--input", name], message, id=f"{c}-{name[:-5]}")
      for c in ("convert", "audit", "series")
      for name, message in (("h_bool.json", "bad integer entry True"),
                            ("h_float.json", "bad integer entry 0.5"),
                            ("f_bool.json", "bad integer entry False"),
                            ("d_float.json", "bad integer entry 1.0"))],
    *[pytest.param([c, "--input", f"negative_dim_{form}.json"],
                   "ambient dimension must be nonnegative", id=f"{c}-negative-dim-{form}")
      for c in _POLYTOPE_COMMANDS for form in ("halfspaces", "vertices")],
    *[pytest.param([c, "--builtin", name], message, id=f"{c}-builtin-{name}")
      for c in _POLYTOPE_COMMANDS
      for name, message in (("cube-2-x-1", "bad builtin parameter 'x'"),
                            ("cube-2-0-", "trailing sign in builtin parameters '2-0-'"),
                            ("pyr-x-cube-2-0-1",
                             "bad pyramid count in builtin 'pyr-x-cube-2-0-1'"))],
    pytest.param(["search", "--dim", "5", "--spike-pos-range", "1:2", "--spike-val-range", "1:x"],
                 "bad --spike-val-range '1:x'", id="search-bad-value"),
    *[pytest.param(["compute", "--builtin", name], message, id=f"compute-builtin-{name}")
      for name, message in (("cube-0-0-1", "cube dimension must be positive"),
                            ("unimodular-0", "simplex dimension must be positive"),
                            ("random-0-1", "dimension and coordinate bound must be positive"))],
    *[pytest.param([c, "--input", "bad_provenance.json"], "provenance must be 'raw' or 'polytope'",
                   id=f"{c}-bad-provenance") for c in ("audit", "convert")],
    pytest.param(["search", "--dim", "0", "--spike-pos-range", "1:1", "--spike-val-range", "2:3"],
                 "dimension must be positive", id="search-dim-0"),
    pytest.param(["search", "--dim", "5", "--spike-pos-range", "1:2", "--spike-val-range", "5:3"],
                 "bad spike value range", id="search-reversed-values"),
]


class TestErrorPaths:
    """The exact stderr line and exit code of each input error the CLI reports."""

    @pytest.mark.parametrize("argv, message", _ERROR_PATHS)
    def test_error_line_and_exit_2(self, capsys, tmp_path, monkeypatch, argv, message):
        for name, text in _ERROR_FILES.items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", _POLYTOPE_COMMANDS)
    @pytest.mark.parametrize("first, second", [
        (["--builtin", "cube-1-0-1"], ["--input", "polytope.json"]),
        (["--input", "polytope.json"], ["--builtin", "cube-1-0-1"]),
    ], ids=["builtin-first", "input-first"])
    def test_input_with_builtin_exits_2(self, capsys, tmp_path, monkeypatch, command, first,
                                        second):
        (tmp_path / "polytope.json").write_text(_ERROR_FILES["polytope.json"])
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            main([command, *first, *second])
        out, err = capsys.readouterr()
        assert (info.value.code, out) == (2, "")
        assert err.splitlines()[-1] == (f"ehrstar {command}: error: argument {second[0]}: "
                                        f"not allowed with argument {first[0]}")


_POLYTOPE_OPTIONS = {"--input", "--builtin", "--count-cap", "--volume-cap", "--format"}
_OPTIONS = {
    "compute": _POLYTOPE_OPTIONS,
    "convert": {"--input", "--format"},
    "audit": _POLYTOPE_OPTIONS,
    "series": _POLYTOPE_OPTIONS,
    "search": {"--format", "--dim", "--spike-pos-range", "--spike-val-range",
               "--spike2-pos-range", "--spike2-val-range", "--budget"},
    "selftest": set(),
}
# Options that a command once accepted without reading them, each with a
# value of the kind it took.
_REMOVED_OPTIONS = [
    *[(c, option, value) for c in ("convert", "search", "selftest")
      for option, value in (("--builtin", "higashitani-15"), ("--seed", "3"),
                            ("--count-cap", "0"), ("--volume-cap", "-1"))],
    ("search", "--input", "vectors.json"),
    ("selftest", "--input", "vectors.json"),
    ("selftest", "--format", "json"),
    ("selftest", "--quick", None),
    ("selftest", "--inject-fault", None),
    # read only by random builtins, which now take the seed in their name
    *[(c, "--seed", "3") for c in ("compute", "audit", "series")],
]


class TestOptionTable:
    """Each subcommand accepts exactly the options it reads."""

    def test_option_sets(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        options = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
                   for name, p in sub.choices.items()}
        assert options == _OPTIONS
        assert sum(len(o) for o in options.values()) == 24

    @pytest.mark.parametrize("command, option, value", [
        pytest.param(*row, id=f"{row[0]}-{row[1][2:]}") for row in _REMOVED_OPTIONS])
    def test_removed_option_exits_2(self, command, option, value):
        argv = [option] if value is None else [option, value]
        proc = subprocess.run([sys.executable, "-m", "ehrstar.cli", command, *argv],
                              capture_output=True, text=True, env=TestProcess.env(), timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert f"error: unrecognized arguments: {' '.join(argv)}\n" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_broken_pipe_in_process_exits_0(monkeypatch):
    # the reader is gone: the flush at the end of main raises, and stdout is
    # pointed at devnull for the interpreter's own flush at shutdown
    class ClosedPipe(io.StringIO):
        def flush(self):
            raise BrokenPipeError

        def fileno(self):
            return 99

    targets = []
    with monkeypatch.context() as patch:  # undone before pytest's capture dups its own fds
        patch.setattr(sys, "stdout", ClosedPipe())
        patch.setattr(os, "dup2", lambda fd, fd2: targets.append(fd2) or os.close(fd))
        code = main(["compute", "--builtin", "cube-2-0-1"])
    assert (code, targets) == (0, [99])


class TestProcess:
    """Cold `python -m ehrstar.cli` processes."""

    @staticmethod
    def env(unbuffered=False):
        src = str(Path(ehrstar.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        return env

    # Unbuffered, the first print hits the closed pipe; buffered, only the
    # flush at the end of main does.
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_stdout_pipe_exits_0_quietly(self, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the child writes
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ehrstar.cli", "compute", "--builtin", "higashitani-15"],
                stdout=write_end, stderr=subprocess.PIPE, env=self.env(unbuffered), timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (0, b"")

    def test_audit_does_not_import_sympy(self):
        script = (
            "import runpy, sys\n"
            "sys.argv = ['ehrstar', 'audit', '--builtin', 'higashitani-15']\n"
            "try:\n"
            "    runpy.run_module('ehrstar.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "print('sympy loaded:', 'sympy' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=self.env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "unimodal: NO (first dip at 9)" in proc.stdout
        assert proc.stdout.splitlines()[-1] == "sympy loaded: False"

    @staticmethod
    def loaded_after(*argv):
        """Run the CLI with argv (or only `import ehrstar`) in a fresh
        interpreter; its stdout, and which of numpy and fractions ended up in
        sys.modules."""
        script = (
            "import runpy, sys\n"
            "if len(sys.argv) > 1:\n"
            "    try:\n"
            "        runpy.run_module('ehrstar.cli', run_name='__main__')\n"
            "    except SystemExit as exc:\n"
            "        assert exc.code == 0, exc.code\n"
            "else:\n"
            "    import ehrstar\n"
            "print('loaded:', *[m for m in ('numpy', 'fractions') if m in sys.modules])\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                              text=True, env=TestProcess.env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        *out, last = proc.stdout.splitlines()
        return out, set(last.split()[1:])

    @pytest.mark.parametrize("argv", [
        [],
        ["compute", "--builtin", "higashitani-15"],
        ["audit", "--builtin", "higashitani-15"],
        ["series", "--builtin", "higashitani-15"],
        ["convert", "--input", "{vectors}"],
        # a simplex of d <= 2 on the interpolation route is anchored on its
        # volume and facet volumes and scans no dilate
        ["compute", "--builtin", "random-2-9-1", "--volume-cap", "1"],
        # and so is one whose vertex list is padded with an edge point and an
        # inner point
        ["compute", "--input", "{padded}"],
        # 2 * (standard 3-simplex) by its facets scans its dilate 1, a small
        # scan: 9 (prefix, s) pairs of 4 rows, all on Python ints
        ["compute", "--input", "{small_scan}"],
    ], ids=["import", "compute", "audit", "series", "convert", "compute-interpolation-d2",
            "compute-padded-triangle", "compute-small-scan"])
    def test_commands_without_a_scan_do_not_import_numpy(self, tmp_path, argv):
        vectors = tmp_path / "vectors.json"
        vectors.write_text(json.dumps({"d": 15, "h_star": SPIKE15_H}))
        padded = tmp_path / "padded.json"
        padded.write_text(json.dumps({"ambient_dim": 2, "vertices": PADDED_TRIANGLE}))
        small_scan = tmp_path / "small_scan.json"
        small_scan.write_text(json.dumps({"ambient_dim": 3, "halfspaces": [
            [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [2, -1, -1, -1]]}))
        argv = [a.format(vectors=vectors, padded=padded, small_scan=small_scan) for a in argv]
        out, loaded = self.loaded_after(*argv)
        assert loaded == set()  # fractions too: only the unused solve_rational imports it
        if argv:
            assert out, "the command printed nothing"
        if str(small_scan) in argv:
            assert "ehrhart values (n = 0..4): 1 10 35 84 165" in out
            assert "route: interpolation" in out

    def test_scan_imports_numpy(self, tmp_path):
        # 8 * (standard 4-simplex) by its facets: its dilate 1 is a scan of
        # 729 (prefix, s) pairs of 5 rows, past `_PURE_SCAN_WORK`
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps({"ambient_dim": 4, "halfspaces": [
            [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1], [8, -1, -1, -1, -1]]}))
        out, loaded = self.loaded_after("compute", "--input", str(poly))
        assert "ehrhart values (n = 0..5): 1 495 4845 20475 58905 135751" in out
        assert "route: interpolation" in out
        assert "numpy" in loaded

    _POLYTOPE_MODULES = ["cli", "engine", "errors", "intlinalg", "lattice", "starbasis"]

    @pytest.mark.parametrize("argv, modules", [
        (["convert", "--input", "{vectors}"], ["cli", "errors", "starbasis"]),
        (["search", "--dim", "15", "--spike-pos-range", "8:8", "--spike-val-range", "131:131"],
         ["audit", "cli", "errors", "starbasis"]),
        (["compute", "--builtin", "higashitani-15"], _POLYTOPE_MODULES),
        (["series", "--builtin", "higashitani-15"], _POLYTOPE_MODULES),
        (["audit", "--input", "{vectors}"], ["audit", "cli", "errors", "starbasis"]),
    ], ids=["convert", "search", "compute", "series", "audit-vectors"])
    def test_a_command_loads_only_the_modules_it_calls(self, tmp_path, argv, modules):
        vectors = tmp_path / "vectors.json"
        vectors.write_text(json.dumps({"d": 15, "h_star": SPIKE15_H}))
        argv = [a.format(vectors=vectors) for a in argv]
        script = (
            "import sys\n"
            "from ehrstar.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print(*sorted(m for m in sys.modules if m.startswith('ehrstar.')))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                              text=True, env=self.env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        *out, last = proc.stdout.splitlines()
        assert out, "the command printed nothing"
        assert last.split() == [f"ehrstar.{m}" for m in modules]
