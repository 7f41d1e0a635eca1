"""Command-line interface.

Subcommands: compute, convert, audit, series, search, selftest. The command
table is the parser itself: each subparser names its `cmd_*` function
(`set_defaults(run=...)`) and the option groups it reads, so an option
that a command would ignore exits 2. Every command runs through `_run`,
which turns errors into exit codes.
Exit codes: 0 success, or a reader that closed stdout early; 1 audit/selftest
failure signal; 2 bad input; 3 work over a cap (count, volume or
box-derivation work); 4 search budget exhausted (partial output).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import engine
from .audit import (
    SpikeRange,
    check_binom_diff_lemma,
    full_audit,
    search_nonunimodal,
    search_outcome_json_lines,
)
from .errors import (
    CostGuardExceeded,
    EhrstarError,
    InputError,
    VolumeCapExceeded,
    decode_json,
    int_text,
)
from .lattice import (
    LatticePolytope,
    iterated_pyramid,
    make_cube,
    make_higashitani,
    make_random_simplex,
    make_unimodular_simplex,
    polytope_from_obj,
)
from .starbasis import (
    VECTOR_DIM_CAP,
    HStarVector,
    degree_of,
    eval_ehrhart,
    f_from_h,
    gorenstein_index,
    h_from_f,
    series_numerator,
    vectors_from_json,
    vectors_from_obj,
    vectors_to_json_obj,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_BUDGET = 4

DEFAULT_SEARCH_BUDGET = 1_000_000


# -- builtins -----------------------------------------------------------------


def _parse_signed_ints(text: str) -> list[int]:
    """Split a dash-separated parameter list; an empty token negates the next
    value, so cube-2--1-1 parses as (2, -1, 1)."""
    values: list[int] = []
    sign = 1
    for token in text.split("-"):
        if token == "":
            sign = -sign
            continue
        try:
            values.append(sign * int_text(token))
        except ValueError as exc:
            raise InputError(f"bad builtin parameter {token!r}") from exc
        sign = 1
    if sign != 1:
        raise InputError(f"trailing sign in builtin parameters {text!r}")
    return values


def build_builtin(name: str) -> LatticePolytope:
    """Instantiate a generator by name.

    Names: cube-d-a-b, unimodular-d, higashitani-15, higashitani-a-v-b-m,
    random-d-b-s (seed s; random-d-b is seed 0), and pyr-n-<name> wrappers.
    """
    if name.startswith("pyr-"):
        times_text, _, rest = name[len("pyr-") :].partition("-")
        try:
            times = int_text(times_text)
        except ValueError as exc:
            raise InputError(f"bad pyramid count in builtin {name!r}") from exc
        return iterated_pyramid(build_builtin(rest), times)
    if name == "higashitani-15":
        return make_higashitani(7, 131, 7, 132)
    kind, _, params = name.partition("-")
    values = _parse_signed_ints(params) if params else []
    if kind == "cube" and len(values) == 3:
        return make_cube(values[0], values[1], values[2])
    if kind == "unimodular" and len(values) == 1:
        return make_unimodular_simplex(values[0])
    if kind == "higashitani" and len(values) == 4:
        return make_higashitani(*values)
    if kind == "random" and len(values) in (2, 3):
        d, bound, seed = (*values, 0)[:3]
        return make_random_simplex(d, bound, seed)
    raise InputError(f"unknown builtin {name!r}")


def _read_text(path: str) -> str:
    """The whole file; an unreadable file is bad input (exit 2)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load(args, *, vectors: bool = False):
    """The polytope of --builtin or --input; with `vectors`, an --input file
    that is not a polytope file is read as a vector file: (h, f).
    The caps are checked first, before any input is read."""
    if args.count_cap < 1 or args.volume_cap < 1:
        raise InputError("caps must be positive")
    if args.builtin:
        return build_builtin(args.builtin)
    if not args.input_path:
        raise InputError("provide --input FILE or --builtin NAME")
    obj = decode_json(_read_text(args.input_path))
    if vectors and not (isinstance(obj, dict) and ("vertices" in obj or "halfspaces" in obj)):
        return vectors_from_obj(obj)
    return polytope_from_obj(obj)


def _h_star(args) -> HStarVector:
    """The h*-vector of a polytope or vector file."""
    source = _load(args, vectors=True)
    if isinstance(source, tuple):
        h, f = source
        return h if h is not None else h_from_f(f)
    return engine.h_star_of(source, count_cap=args.count_cap, volume_cap=args.volume_cap)


# -- commands -----------------------------------------------------------------


def _int_list(values) -> str:
    return " ".join(str(x) for x in values)


def cmd_compute(args) -> int:
    result = engine.compute_vectors(
        _load(args), count_cap=args.count_cap, volume_cap=args.volume_cap
    )
    h, f = result.h, result.f
    s = degree_of(h)
    g = gorenstein_index(h)
    if args.output_format == "json":
        obj = vectors_to_json_obj(
            h,
            f,
            counts=[str(x) for x in result.counts],
            degree=s,
            gorenstein_index=g,
            route=result.route,
        )
        print(json.dumps(obj))
    else:
        print(f"dimension: {h.dim}")
        print(f"ehrhart values (n = 0..{h.dim + 1}): {_int_list(result.counts)}")
        print(f"h*: {_int_list(h.entries)}")
        print(f"f*: {_int_list(f.entries)}")
        print(f"degree: {s}")
        print(f"gorenstein index: {g if g is not None else '-'}")
        print(f"route: {result.route}")
    return EXIT_OK


def cmd_convert(args) -> int:
    if not args.input_path:
        raise InputError("convert needs --input FILE with a vector JSON")
    h, f = vectors_from_json(_read_text(args.input_path))
    if h is None:
        h = h_from_f(f)
    if f is None:
        f = f_from_h(h)
    if args.output_format == "json":
        print(json.dumps(vectors_to_json_obj(h, f)))
    else:
        print(f"h*: {_int_list(h.entries)}")
        print(f"f*: {_int_list(f.entries)}")
    return EXIT_OK


def cmd_audit(args) -> int:
    report = full_audit(_h_star(args))
    if args.output_format == "json":
        print(json.dumps(report.to_json_obj()))
    else:
        print(f"dimension: {report.dim}   degree: {report.degree}   "
              f"gorenstein index: {report.gorenstein_index if report.gorenstein_index is not None else '-'}")
        print(f"provenance: {report.provenance}")
        print(f"h*: {_int_list(report.h.entries)}")
        print(f"f*: {_int_list(report.f.entries)}")
        if report.unimodal:
            print(f"unimodal: yes (peak at {report.peak_index})")
        else:
            print(f"unimodal: NO (first dip at {report.first_dip})")
        if report.symmetric_f_star:
            print("extended f*-vector is symmetric")
        for r in report.results:
            if not r.applicable:
                status = "n/a "
            else:
                status = "ok  " if r.holds else "FAIL"
            detail = ""
            if r.witness is not None:
                detail = f"  witness={r.witness}"
            if r.note:
                detail += f"  ({r.note})"
            print(f"  [{status}] {r.name}{detail}")
    if report.provenance == "polytope" and not report.all_applicable_hold:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_series(args) -> int:
    numerator, exponent = series_numerator(_h_star(args))
    if args.output_format == "json":
        print(json.dumps({
            "numerator": [str(x) for x in numerator],
            "denominator_exponent": exponent,
        }))
    else:
        terms = []
        for k, c in enumerate(numerator):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*z" if c != 1 else "z")
            else:
                terms.append(f"{c}*z^{k}" if c != 1 else f"z^{k}")
        poly = " + ".join(terms) if terms else "0"
        print(f"Ehr(z) = ({poly}) / (1 - z)^{exponent}")
    return EXIT_OK


def _parse_range(text: str, what: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise InputError(f"{what} must look like A:B")
    try:
        return int(lo), int(hi)
    except ValueError as exc:
        raise InputError(f"bad {what} {text!r}") from exc


def cmd_search(args) -> int:
    if args.dim is None or args.spike_pos_range is None or args.spike_val_range is None:
        raise InputError("search needs --dim, --spike-pos-range and --spike-val-range")
    spikes = [
        SpikeRange(*_parse_range(args.spike_pos_range, "--spike-pos-range"),
                   *_parse_range(args.spike_val_range, "--spike-val-range"))
    ]
    if args.spike2_pos_range or args.spike2_val_range:
        if not (args.spike2_pos_range and args.spike2_val_range):
            raise InputError("second spike needs both --spike2-pos-range and --spike2-val-range")
        spikes.append(
            SpikeRange(*_parse_range(args.spike2_pos_range, "--spike2-pos-range"),
                       *_parse_range(args.spike2_val_range, "--spike2-val-range"))
        )
    outcome = search_nonunimodal(args.dim, spikes, args.budget)
    if args.output_format == "json":
        for line in search_outcome_json_lines(outcome):
            print(line)
    else:
        for c in outcome.candidates:
            spikes_text = ", ".join(f"position {p} value {v}" for p, v in c.spikes)
            print(f"candidate: {spikes_text}; first dip at {c.first_dip}; "
                  f"h* = {_int_list(c.h.entries)}")
        print(f"{len(outcome.candidates)} candidate(s) from {outcome.scanned} "
              f"pattern(s) at d = {outcome.dim}"
              + (" [budget exhausted, partial]" if outcome.truncated else ""))
        print(f"note: {outcome.disclaimer}")
    return EXIT_BUDGET if outcome.truncated else EXIT_OK


# -- selftest -----------------------------------------------------------------

_SPIKE15_F = (16, 120, 560, 1820, 4368, 8008, 11440, 13001,
              12488, 11676, 11704, 10990, 7896, 3788, 1064, 132)


def _selftest_checks():
    from math import comb

    def square_pipeline():
        r = engine.compute_vectors(make_cube(2, -1, 1))
        return (r.counts == (1, 9, 25, 49)
                and r.h.entries == (1, 6, 1) and r.f.entries == (9, 16, 8))

    def segment_pipeline():
        r = engine.compute_vectors(make_cube(1, 0, 1))
        return r.h.entries == (1, 0) and r.f.entries == (2, 1) and r.counts == (1, 2, 3)

    def unimodular_rows():
        for d in range(1, 7):
            s = make_unimodular_simplex(d)
            expected = tuple(comb(d + 1, k + 1) for k in range(d + 1))
            via_box = f_from_h(engine.h_star_of(s)).entries
            via_counts = engine.f_star_from_profile(engine.count_profile(s)).entries
            if via_box != expected or via_counts != expected:
                return False
        return True

    def spiked_simplex():
        h = engine.h_star_of(make_higashitani(7, 131, 7, 132))
        if h.entries != (1,) + (0,) * 7 + (131,) + (0,) * 7:
            return False
        report = full_audit(h)
        return (report.f.entries == _SPIKE15_F and not report.unimodal
                and report.first_dip == 9 and report.all_applicable_hold)

    def binomial_lemma():
        for n in range(1, 41):
            for k in range(1, n + 1):
                for j in range(1, n + 2 - k):
                    if n == 2 * k - 1:
                        continue
                    if not check_binom_diff_lemma(n, k, j):
                        return False
        return True

    def round_trips():
        import random as _random

        rng = _random.Random(20221019)
        from .starbasis import hstar_poly_identity_check

        for _ in range(200):
            d = rng.randint(0, 12)
            h = HStarVector(tuple(rng.randint(-30, 30) for _ in range(d + 1)))
            f = f_from_h(h)
            if h_from_f(f).entries != h.entries:
                return False
            if not hstar_poly_identity_check(h, f):
                return False
        return True

    def pyramid_invariant():
        cases = [make_cube(2, -1, 1), make_random_simplex(3, 3, 7)]
        from .lattice import pyramid

        for p in cases:
            base = engine.h_star_of(p)
            lifted = engine.h_star_of(pyramid(p))
            if lifted.entries != base.entries + (0,):
                return False
        return True

    checks = [
        ("square pipeline", square_pipeline),
        ("segment pipeline", segment_pipeline),
        ("unimodular simplex rows", unimodular_rows),
        ("spiked 15-simplex", spiked_simplex),
        ("binomial difference lemma", binomial_lemma),
        ("basis round trips", round_trips),
        ("pyramid invariant", pyramid_invariant),
    ]
    return checks


def cmd_selftest(args) -> int:
    start = time.monotonic()
    failures = 0
    for name, fn in _selftest_checks():
        ok = fn()
        print(f"  [{'ok  ' if ok else 'FAIL'}] {name}")
        failures += 0 if ok else 1
    elapsed = time.monotonic() - start
    print(f"{'all checks passed' if failures == 0 else f'{failures} check(s) FAILED'} "
          f"({elapsed:.2f}s)")
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


# -- argument plumbing ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehrstar",
        description="Exact Ehrhart values, h*- and f*-vectors, and inequality audits "
                    "for lattice polytopes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    input_file = argparse.ArgumentParser(add_help=False)
    input_file.add_argument("--input", dest="input_path", help="input JSON file")
    polytope = argparse.ArgumentParser(add_help=False, parents=[input_file])
    polytope.add_argument("--builtin", help="builtin generator, e.g. cube-2--1-1, unimodular-4, "
                                            "higashitani-15, random-3-4-7, pyr-2-cube-2-0-1")
    polytope.add_argument("--count-cap", type=int, default=engine.DEFAULT_COUNT_CAP,
                          help="max candidate points per bounding-box scan")
    polytope.add_argument("--volume-cap", type=int, default=engine.DEFAULT_VOLUME_CAP,
                          help="max normalized volume for parallelepiped enumeration")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", dest="output_format", choices=("text", "json"),
                        default="text")

    for name, run, groups, help_text in (
        ("compute", cmd_compute, [polytope, output], "counts, h*- and f*-vector of a polytope"),
        ("convert", cmd_convert, [input_file, output], "convert between h* and f* vectors"),
        ("audit", cmd_audit, [polytope, output],
         "run every inequality check on a polytope or vector file"),
        ("series", cmd_series, [polytope, output], "print the rational generating series"),
        ("search", cmd_search, [output], "enumerate spiked h*-patterns with nonunimodal f*"),
        ("selftest", cmd_selftest, [], "run the embedded golden checks"),
    ):
        sub.add_parser(name, parents=groups, help=help_text).set_defaults(run=run)

    search = sub.choices["search"]
    search.add_argument("--dim", type=int,
                        help=f"dimension d of the pattern, at most {VECTOR_DIM_CAP}")
    search.add_argument("--spike-pos-range", help="A:B positions for the spike")
    search.add_argument("--spike-val-range", help="A:B values for the spike")
    search.add_argument("--spike2-pos-range", help="A:B positions for a second spike")
    search.add_argument("--spike2-val-range", help="A:B values for a second spike")
    search.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET,
                        help="max number of patterns to enumerate")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (`ehrstar ... | head`). Point stdout at devnull
        # so that the flush at interpreter shutdown cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    return code


def _run(args) -> int:
    try:
        return args.run(args)
    except (CostGuardExceeded, VolumeCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except EhrstarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
