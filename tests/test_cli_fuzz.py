"""A seeded fuzz test of the CLI, run in-process through `cli.main`.

The generator writes polytope and vector files that are mostly valid:
random simplices, vertex lists with extra points, boxes with redundant and
zero rows, simplices by their facets, pyramids over boxes and simplices,
and h*- or f*-vector files. A fifth of the cases get one or two defects: a
wrong row length, a non-integer or huge entry, a negative or huge
dimension, a missing field. A tenth of the files are written as bytes
that are not UTF-8, or as UTF-8 with a byte-order mark or a non-ASCII
letter, and a tenth of the polytope commands read a generator name
instead of a file: small cubes, simplices and spiked simplices, in a few
pyr-k- wrappers or in a chain of a few thousand, some of them mangled.
Every case ends in a documented exit: 0, 2 or 3, or argparse's
SystemExit(2) for a bad option; exit 1 only from `audit` on polytope data
that fails a check. The caps stay small, so every case is cheap. `search`
gets cases of its own: dimensions and spike ranges, valid or not, and
budgets of 1..10^4; it ends in 0, 2 or 4.
"""

import json
import random
import re

import pytest

from ehrstar.cli import main
from ehrstar.starbasis import HStarVector, f_from_h

COMMANDS = ("compute", "audit", "series", "convert")


def _unit(d: int, j: int, sign: int = 1) -> list[int]:
    return [sign * int(i == j) for i in range(d)]


def _simplex(rng, d: int) -> list[list[int]]:
    return [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d + 1)]


def _box_rows(rng, d: int) -> list[list[int]]:
    rows = []
    for j in range(d):
        low = rng.randint(-3, 2)
        high = low + rng.randint(1, 3)
        rows += [[-low, *_unit(d, j)], [high, *_unit(d, j, -1)]]
    return rows


def _facet_simplex_rows(rng, d: int) -> list[list[int]]:
    """low + k * conv(0, e_1, ..., e_d) by its d + 1 facets."""
    lows, k = [rng.randint(-3, 3) for _ in range(d)], rng.randint(1, 3)
    rows = [[-low, *_unit(d, j)] for j, low in enumerate(lows)]
    return rows + [[k + sum(lows), *[-1] * d]]


def _redundant(rng, rows: list[list[int]]) -> list[list[int]]:
    """rows plus shifted multiples of some of them and rows with a zero normal."""
    d = len(rows[0]) - 1
    extra = []
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.3:
            extra.append([rng.randint(0, 2), *[0] * d])
        else:
            b, *a = rng.choice(rows)
            k = rng.randint(1, 3)
            extra.append([k * b + rng.randint(0, 2), *(k * x for x in a)])
    rows = rows + extra
    rng.shuffle(rows)
    return rows


def _pyramid(obj: dict) -> dict:
    """The pyramid with apex e_{d+1}, in the representation of `obj`."""
    d = obj["ambient_dim"]
    if "vertices" in obj:
        return {"ambient_dim": d + 1,
                "vertices": [[*v, 0] for v in obj["vertices"]] + [_unit(d + 1, d)]}
    rows = [[b, *a, -b] for b, *a in obj["halfspaces"]]
    return {"ambient_dim": d + 1, "halfspaces": rows + [[0, *_unit(d + 1, d)]]}


def _polytope(rng) -> dict:
    d = rng.randint(1, 4)
    kind = rng.choice(("simplex", "points", "box", "facets", "pyramid", "point"))
    if kind == "simplex":
        return {"ambient_dim": d, "vertices": _simplex(rng, d)}
    if kind == "points":
        points = _simplex(rng, d) + _simplex(rng, d)[: rng.randint(1, 3)]
        return {"ambient_dim": d, "vertices": points}
    if kind == "box":
        return {"ambient_dim": d, "halfspaces": _redundant(rng, _box_rows(rng, d))}
    if kind == "facets":
        return {"ambient_dim": d, "halfspaces": _redundant(rng, _facet_simplex_rows(rng, d))}
    if kind == "pyramid":
        base = _polytope(rng)
        while base["ambient_dim"] > 3 or base["ambient_dim"] == 0:
            base = _polytope(rng)
        return _pyramid(base)
    if rng.random() < 0.5:
        return {"ambient_dim": 0, "vertices": [[]]}
    return {"ambient_dim": 0, "halfspaces": [[rng.randint(0, 2)]] * rng.randint(1, 2)}


def _vectors(rng) -> dict:
    d = rng.randint(0, 14)
    h = [1] + [rng.choice((0, 0, 1, rng.randint(0, 200))) for _ in range(d)]
    obj = {"d": d, "provenance": rng.choice(("raw", "polytope"))}
    key = rng.choice(("h_star", "f_star", "both"))
    if key != "f_star":
        obj["h_star"] = [str(x) for x in h]
    if key != "h_star":
        obj["f_star"] = [str(x) for x in f_from_h(HStarVector(tuple(h))).entries]
    return obj


def _entries(obj: dict) -> list[list]:
    """The lists whose items are integer entries."""
    if "d" in obj:
        return [obj[k] for k in ("h_star", "f_star") if k in obj]
    return obj.get("vertices") or obj.get("halfspaces") or []


def _defect(rng, obj: dict) -> None:
    """Give obj one defect of the kinds a bad file has."""
    dim_key = "d" if "d" in obj else "ambient_dim"
    rows = [row for row in _entries(obj) if row]
    kind = rng.choice(("negative dim", "huge dim", "length", "entry", "huge entry", "drop"))
    if kind == "negative dim":
        obj[dim_key] = -rng.randint(1, 3)
    elif kind == "huge dim":
        obj[dim_key] = rng.choice((101, 201, 10**6, "9" * 40))
    elif kind == "length" and rows:
        row = rng.choice(rows)
        rng.choice((lambda: row.append(1), row.pop, row.clear))()
    elif kind == "entry" and rows:
        row = rng.choice(rows)
        row[rng.randrange(len(row))] = rng.choice((1.5, True, None, "x", [1], "-"))
    elif kind == "huge entry" and rows:
        row = rng.choice(rows)
        row[rng.randrange(len(row))] = rng.choice(("9" * rng.randint(20, 80), -(10**40), 2**63))
    else:
        obj.pop(rng.choice(sorted(obj)))


def _garbled(rng, data: bytes) -> bytes:
    """data in UTF-16, or behind a byte-order mark, or with one byte of
    0x80..0xff (never UTF-8 between ASCII bytes) or one non-ASCII letter
    put in."""
    kind = rng.choice(("utf-16", "bom", "byte", "letter"))
    if kind == "utf-16":
        return data.decode().encode("utf-16")
    if kind == "bom":
        return rng.choice((b"\xff\xfe", b"\xef\xbb\xbf")) + data
    at = rng.randrange(len(data) + 1)
    extra = bytes([rng.randint(0x80, 0xFF)]) if kind == "byte" else "\u00e9".encode()
    return data[:at] + extra + data[at:]


def _builtin_name(rng) -> str:
    """A generator name in pyr-k- wrappers: a few, or a chain of a few
    thousand, mostly pyr-0-; now and then with one character changed or cut."""
    d = rng.randint(1, 4)
    name = rng.choice((f"cube-{d}-{rng.randint(-2, 0)}-{rng.randint(1, 2)}", f"unimodular-{d}",
                       f"random-{d}-{rng.randint(1, 3)}-{rng.randint(0, 99)}",
                       f"higashitani-{rng.randint(1, 2)}-{rng.randint(1, 9)}-1-{rng.randint(1, 9)}",
                       "higashitani-15"))
    levels = rng.choice((0, 1, 2, rng.randint(2000, 4000)))
    counts = [0] * levels
    for i in rng.sample(range(levels), min(levels, rng.choice((0, 1, 2, 100)))):
        counts[i] = rng.randint(1, 2)
    name = "".join(f"pyr-{k}-" for k in counts) + name
    if rng.random() < 0.2:
        at = rng.randrange(len(name))
        name = name[:at] + rng.choice(("", "x", "-", "9" * 5)) + name[at + 1 :]
    return name


def _argv(rng, command: str, path: str) -> list[str]:
    argv = [command, "--input", path]
    if command != "convert" and rng.random() < 0.1:
        argv[1:] = ["--builtin", _builtin_name(rng)]
    if rng.random() < 0.7:
        argv += ["--format", rng.choice(("text", "json"))]
    if command != "convert":
        argv += ["--count-cap", str(rng.choice((1, 1000, 10**5, 10**6, 10**6)))]
        argv += ["--volume-cap", str(rng.choice((1, 100, 10**4)))]
    if rng.random() < 0.03:
        argv += rng.choice((["--format", "xml"], ["--count-cap", "x"], ["--volume-cap", "0"],
                            ["--builtin", "unimodular-2"]))
    return argv


def _case(rng) -> tuple[str, object]:
    command = rng.choice(COMMANDS)
    if command == "compute":
        vectors = rng.random() < 0.05
    elif command == "convert":
        vectors = rng.random() < 0.95
    else:
        vectors = rng.random() < 0.4
    obj = _vectors(rng) if vectors else _polytope(rng)
    if rng.random() < 0.2:
        for _ in range(rng.randint(1, 2)):
            _defect(rng, obj)
    return command, obj


def _failed_checks(out: str, fmt: str) -> bool:
    """Whether an audit's output says polytope data failed a check."""
    if fmt == "json":
        report = json.loads(out)
        return report["provenance"] == "polytope" and any(
            c["applicable"] and not c["holds"] for c in report["checks"])
    lines = out.splitlines()
    return "provenance: polytope" in lines and any(line.startswith("  [FAIL] ") for line in lines)


def _outcome(capsys, argv: list[str]):
    """The exit code, or "usage" when argparse refuses the options."""
    try:
        code = main(argv)
    except SystemExit as exc:
        err = capsys.readouterr().err
        assert exc.code == 2 and re.match(rf"ehrstar( {argv[0]})?: error: ", err.splitlines()[-1])
        return "usage"
    out, err = capsys.readouterr()
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
    if code == 1:
        assert argv[0] == "audit" and _failed_checks(out, fmt) and err == "", (out, err)
    elif code == 4:
        assert argv[0] == "search" and out.splitlines() and err == "", (out, err)
    elif code == 0:
        assert err == ""
    else:
        assert code in (2, 3), code
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: "), err
    return code


@pytest.mark.parametrize("block", range(8))
def test_every_case_ends_in_a_documented_exit(capsys, tmp_path, block):
    rng = random.Random(block)
    path = str(tmp_path / "input.json")
    codes = []
    for _ in range(60):
        command, obj = _case(rng)
        data = json.dumps(obj).encode()
        if rng.random() < 0.1:
            data = _garbled(rng, data)
        with open(path, "wb") as fh:
            fh.write(data)
        argv = _argv(rng, command, path)
        try:
            codes.append(_outcome(capsys, argv))
        except Exception as exc:
            raise AssertionError(f"{argv[:3]} on {data[:200]!r}") from exc
    assert codes.count(0) >= len(codes) / 3, codes


# Inputs that once ended in a traceback, each with the exit it gets now.
NAMED_CASES = {
    "negative-dimension-halfspaces": ({"ambient_dim": -1, "halfspaces": [[]]}, 2),
    "negative-dimension-vertices": ({"ambient_dim": -1, "vertices": [[]]}, 2),
}


@pytest.mark.parametrize("command", ["compute", "audit", "series"])
@pytest.mark.parametrize("name", NAMED_CASES)
def test_named_case(capsys, tmp_path, command, name):
    obj, expected = NAMED_CASES[name]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    assert _outcome(capsys, [command, "--input", str(path)]) == expected


def _search_range(rng, d: int, what: str) -> str:
    """A spike range: mostly valid and small, else reversed, malformed, past d
    or 40 digits long."""
    kind = rng.choices(("valid", "reversed", "malformed", "past d", "long"), (24, 1, 1, 1, 1))[0]
    if what == "pos":
        lo = rng.randint(1, max(d, 1))
        hi = min(lo + rng.randint(0, 3), max(d, 1))
    else:
        lo = rng.randint(-5, 300)
        hi = lo + rng.randint(0, 6)
    if kind == "reversed":
        lo, hi = hi + rng.randint(1, 3), lo
    elif kind == "malformed":
        return rng.choice(("5", "a:b", "1:", ":3", "1:2:3", "", "1.5:2", "--"))
    elif kind == "past d":  # positions past d; values past any spike of the cases above
        lo, hi = (d + rng.randint(1, 3), d + 5) if what == "pos" else (lo + 10**6, hi + 10**6)
    elif kind == "long":
        hi = int("9" * 40)
        lo = hi - rng.randint(0, 5) if rng.random() < 0.7 else lo
    return f"{lo}:{hi}"


def _search_argv(rng) -> list[str]:
    d = rng.choices((rng.randint(1, 20), 0, -rng.randint(1, 5), rng.randint(201, 10**4)),
                    (16, 1, 1, 1))[0]
    argv = ["search", "--dim", str(d), "--spike-pos-range", _search_range(rng, d, "pos"),
            "--spike-val-range", _search_range(rng, d, "val")]
    if rng.random() < 0.3:
        names = rng.choice((["pos"], ["val"], ["pos", "val"], ["pos", "val"]))
        for what in names:
            argv += [f"--spike2-{what}-range", _search_range(rng, d, what)]
    argv += ["--budget", str(rng.choice((int(10 ** rng.uniform(0, 4)), 10**4)))]
    if rng.random() < 0.5:
        argv += ["--format", rng.choice(("text", "json"))]
    if rng.random() < 0.03:
        argv += rng.choice((["--dim", "x"], ["--budget", "1e3"], ["--input", "x.json"]))
    return argv


@pytest.mark.parametrize("block", range(4))
def test_every_search_ends_in_a_documented_exit(capsys, block):
    rng = random.Random(1000 + block)
    codes = []
    for _ in range(40):
        argv = _search_argv(rng)
        try:
            codes.append(_outcome(capsys, argv))
        except Exception as exc:
            raise AssertionError(argv) from exc
    assert set(codes) <= {0, 2, 4, "usage"}, codes
    assert codes.count(0) >= len(codes) / 3, codes
