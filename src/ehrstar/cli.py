"""Command-line interface.

Subcommands: compute, convert, audit, series, search, selftest.
Exit codes: 0 success; 1 audit/selftest failure signal; 2 bad input;
3 no feasible counting strategy (cost or volume caps, missing strategy);
4 search budget exhausted (partial output).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass

from . import engine
from .audit import (
    AuditReport,
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
    NoCountingStrategy,
    VolumeCapExceeded,
)
from .lattice import (
    LatticePolytope,
    LatticeSimplex,
    iterated_pyramid,
    make_cube,
    make_higashitani,
    make_random_simplex,
    make_unimodular_simplex,
    polytope_from_json,
)
from .starbasis import (
    FStarVector,
    HStarVector,
    degree_of,
    eval_ehrhart,
    f_from_h,
    gorenstein_index,
    h_from_f,
    series_numerator,
    vectors_from_json,
    vectors_to_json_obj,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_BUDGET = 4

DEFAULT_SEARCH_BUDGET = 1_000_000


@dataclass(frozen=True)
class CliConfig:
    command: str
    input_path: str | None
    builtin: str | None
    output_format: str
    count_cap: int
    volume_cap: int
    seed: int

    def __post_init__(self):
        if self.count_cap < 1 or self.volume_cap < 1:
            raise InputError("caps must be positive")


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
            values.append(sign * int(token))
        except ValueError as exc:
            raise InputError(f"bad builtin parameter {token!r}") from exc
        sign = 1
    if sign != 1:
        raise InputError(f"trailing sign in builtin parameters {text!r}")
    return values


def build_builtin(name: str, seed: int = 0) -> LatticePolytope | LatticeSimplex:
    """Instantiate a generator by name.

    Names: cube-d-a-b, unimodular-d, higashitani-15, higashitani-a-v-b-m,
    random-d-b (seeded), and pyr-n-<name> wrappers.
    """
    if name.startswith("pyr-"):
        times_text, _, rest = name[len("pyr-") :].partition("-")
        try:
            times = int(times_text)
        except ValueError as exc:
            raise InputError(f"bad pyramid count in builtin {name!r}") from exc
        base = build_builtin(rest, seed)
        if isinstance(base, LatticeSimplex):
            base = base.to_polytope()
        return iterated_pyramid(base, times)
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
    if kind == "random" and len(values) == 2:
        return make_random_simplex(values[0], values[1], seed)
    raise InputError(f"unknown builtin {name!r}")


def _read_text(path: str) -> str:
    """The whole file; an unreadable file is bad input (exit 2)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_polytope(config: CliConfig) -> LatticePolytope | LatticeSimplex:
    if config.builtin:
        return build_builtin(config.builtin, config.seed)
    if not config.input_path:
        raise InputError("provide --input FILE or --builtin NAME")
    return polytope_from_json(_read_text(config.input_path))


def _load_vectors_or_polytope(config: CliConfig):
    """Returns ('polytope', p) or ('vectors', (h, f, provenance))."""
    if config.builtin:
        return "polytope", build_builtin(config.builtin, config.seed)
    if not config.input_path:
        raise InputError("provide --input FILE or --builtin NAME")
    text = _read_text(config.input_path)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    if isinstance(obj, dict) and ("vertices" in obj or "halfspaces" in obj):
        return "polytope", polytope_from_json(text)
    return "vectors", vectors_from_json(text)


# -- commands -----------------------------------------------------------------


def _int_list(values) -> str:
    return " ".join(str(x) for x in values)


def cmd_compute(config: CliConfig) -> int:
    p = _load_polytope(config)
    result = engine.compute_vectors(
        p, count_cap=config.count_cap, volume_cap=config.volume_cap
    )
    h, f = result.h, result.f
    s = degree_of(h)
    g = gorenstein_index(h)
    if config.output_format == "json":
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


def cmd_convert(config: CliConfig) -> int:
    if not config.input_path:
        raise InputError("convert needs --input FILE with a vector JSON")
    h, f, _prov = vectors_from_json(_read_text(config.input_path))
    if h is None:
        h = h_from_f(f)
    if f is None:
        f = f_from_h(h)
    if config.output_format == "json":
        print(json.dumps(vectors_to_json_obj(h, f)))
    else:
        print(f"h*: {_int_list(h.entries)}")
        print(f"f*: {_int_list(f.entries)}")
    return EXIT_OK


def _audit_report(config: CliConfig) -> AuditReport:
    kind, payload = _load_vectors_or_polytope(config)
    if kind == "polytope":
        h = engine.h_star_of(
            payload, count_cap=config.count_cap, volume_cap=config.volume_cap
        )
        return full_audit(h, provenance="polytope")
    h, f, provenance = payload
    if h is None:
        h = h_from_f(f)
    return full_audit(h, provenance=provenance)


def cmd_audit(config: CliConfig) -> int:
    report = _audit_report(config)
    if config.output_format == "json":
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


def cmd_series(config: CliConfig) -> int:
    kind, payload = _load_vectors_or_polytope(config)
    if kind == "polytope":
        h = engine.h_star_of(
            payload, count_cap=config.count_cap, volume_cap=config.volume_cap
        )
    else:
        h, f, _prov = payload
        if h is None:
            h = h_from_f(f)
    numerator, exponent = series_numerator(h)
    if config.output_format == "json":
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


def cmd_search(config: CliConfig, args) -> int:
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
    if config.output_format == "json":
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


def _selftest_checks(quick: bool, inject_fault: bool):
    from math import comb

    expected_cube_counts = (1, 9, 25, 49) if not inject_fault else (1, 9, 25, 48)

    def square_pipeline():
        r = engine.compute_vectors(make_cube(2, -1, 1))
        return (r.counts == expected_cube_counts
                and r.h.entries == (1, 6, 1) and r.f.entries == (9, 16, 8))

    def segment_pipeline():
        r = engine.compute_vectors(make_cube(1, 0, 1))
        return r.h.entries == (1, 0) and r.f.entries == (2, 1) and r.counts == (1, 2, 3)

    def unimodular_rows():
        top = 4 if quick else 6
        for d in range(1, top + 1):
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
        top = 20 if quick else 40
        for n in range(1, top + 1):
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
        trials = 50 if quick else 200
        from .starbasis import hstar_poly_identity_check

        for _ in range(trials):
            d = rng.randint(0, 12)
            h = HStarVector(tuple(rng.randint(-30, 30) for _ in range(d + 1)))
            f = f_from_h(h)
            if h_from_f(f).entries != h.entries:
                return False
            if not hstar_poly_identity_check(h, f):
                return False
        return True

    def pyramid_invariant():
        cases = [make_cube(2, -1, 1), make_random_simplex(3, 3, 7).to_polytope()]
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


def cmd_selftest(config: CliConfig, args) -> int:
    start = time.monotonic()
    failures = 0
    for name, fn in _selftest_checks(args.quick, args.inject_fault):
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

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", dest="input_path", help="input JSON file")
    common.add_argument("--builtin", help="builtin generator, e.g. cube-2--1-1, "
                                          "unimodular-4, higashitani-15, pyr-2-cube-2-0-1")
    common.add_argument("--format", dest="output_format", choices=("text", "json"),
                        default="text")
    common.add_argument("--count-cap", type=int, default=engine.DEFAULT_COUNT_CAP,
                        help="max candidate points per bounding-box scan")
    common.add_argument("--volume-cap", type=int, default=engine.DEFAULT_VOLUME_CAP,
                        help="max normalized volume for parallelepiped enumeration")
    common.add_argument("--seed", type=int, default=0, help="seed for random builtins")

    sub.add_parser("compute", parents=[common],
                   help="counts, h*- and f*-vector of a polytope")
    sub.add_parser("convert", parents=[common], help="convert between h* and f* vectors")
    sub.add_parser("audit", parents=[common],
                   help="run every inequality check on a polytope or vector file")
    sub.add_parser("series", parents=[common], help="print the rational generating series")

    search = sub.add_parser("search", parents=[common],
                            help="enumerate spiked h*-patterns with nonunimodal f*")
    search.add_argument("--dim", type=int, help="dimension d of the pattern")
    search.add_argument("--spike-pos-range", help="A:B positions for the spike")
    search.add_argument("--spike-val-range", help="A:B values for the spike")
    search.add_argument("--spike2-pos-range", help="A:B positions for a second spike")
    search.add_argument("--spike2-val-range", help="A:B values for a second spike")
    search.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET,
                        help="max number of patterns to enumerate")

    selftest = sub.add_parser("selftest", parents=[common],
                              help="run the embedded golden checks")
    selftest.add_argument("--quick", action="store_true", help="smaller, faster subset")
    selftest.add_argument("--inject-fault", action="store_true",
                          help=argparse.SUPPRESS)  # test hook: corrupt one expectation

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = CliConfig(
            command=args.command,
            input_path=args.input_path,
            builtin=args.builtin,
            output_format=args.output_format,
            count_cap=args.count_cap,
            volume_cap=args.volume_cap,
            seed=args.seed,
        )
        if args.command == "compute":
            return cmd_compute(config)
        if args.command == "convert":
            return cmd_convert(config)
        if args.command == "audit":
            return cmd_audit(config)
        if args.command == "series":
            return cmd_series(config)
        if args.command == "search":
            return cmd_search(config, args)
        if args.command == "selftest":
            return cmd_selftest(config, args)
        raise InputError(f"unknown command {args.command!r}")
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (CostGuardExceeded, VolumeCapExceeded, NoCountingStrategy) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except EhrstarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
