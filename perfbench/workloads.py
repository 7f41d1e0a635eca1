"""The four benchmark workloads: seeded inputs, the timed call, the oracle.

A workload yields cycles of items. A cycle is a fixed mix of instance
shapes (dimensions and work sizes); the seed only draws the concrete
numbers (spike vectors, translations, random vertices, value windows), so
every cycle does about the same work and runs of different seeds are
comparable. Inputs never repeat within a run, so the engine's
per-polytope caches never hit.

Each item builds the program's objects from plain integers inside the
timed call, the way a caller loading a file does. Its `check` runs
outside the timed call and compares the output against `oracles`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import selectors
import shutil
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import oracles as O

import ehrstar.audit as audit
import ehrstar.cli as cli
import ehrstar.engine as engine
import ehrstar.lattice as lattice


@dataclass
class Item:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    work: int = 0  # residues (ppiped) or patterns (search), for the rate check
    isolated: bool = False  # run in a forked child under the budget and a memory limit
    budget_s: float | None = None  # overrides the workload's per-item budget


def _translate(rng, d: int, spread: int) -> list[int]:
    return [rng.randint(-spread, spread) for _ in range(d)]


def _random_vertices(rng, d: int, bound: int):
    """Uniform vertices in [-bound, bound]^d, redrawn until they span R^d."""
    while True:
        verts = [tuple(rng.randint(-bound, bound) for _ in range(d)) for _ in range(d + 1)]
        try:
            return verts, O.simplex_facet_rows(verts)
        except StopIteration:  # singular homogenized matrix: degenerate draw
            continue


def _dilated_vertices(k: int, t) -> list[tuple[int, ...]]:
    d = len(t)
    return [tuple(t)] + [tuple(t[j] + (k if j == i else 0) for j in range(d)) for i in range(d)]


def _dilated_rows(k: int, t) -> list[list[int]]:
    """k * Delta_d translated by t: x_j - t_j >= 0 and k + sum(t) - sum(x) >= 0."""
    d = len(t)
    rows = [[-t[j]] + [int(i == j) for i in range(d)] for j in range(d)]
    rows.append([k + sum(t)] + [-1] * d)
    return rows


def _box_rows(lows, width: int) -> list[list[int]]:
    d = len(lows)
    rows = []
    for j, a in enumerate(lows):
        unit = [int(i == j) for i in range(d)]
        rows.append([-a] + unit)
        rows.append([a + width] + [-x for x in unit])
    return rows


def _as_plain(result) -> tuple:
    """A ComputeResult as plain data, so isolated items can send it back."""
    return result.route, list(result.h.entries), list(result.f.entries), list(result.counts)


def _compute_h_polytope(rows):
    d = len(rows[0]) - 1
    hs = tuple(lattice.HalfSpace(r[0], tuple(r[1:])) for r in rows)
    return _as_plain(engine.compute_vectors(lattice.LatticePolytope(d, halfspaces=hs)))


def _check_plain(route: str, counts_of: Callable[[], tuple]):
    def check(out) -> str | None:
        got_route, h, f, counts = out
        if got_route != route:
            return f"route {got_route!r}, expected {route!r}"
        counts_exp = counts_of()
        return O.check_vectors(O.h_from_counts(counts_exp), counts_exp, h, f, counts)

    return check


def _parallelepiped_counts(verts) -> Callable[[], tuple]:
    """Cross-check oracle for random simplices: the other route, on the vertex form."""
    return lambda: engine.compute_vectors(lattice.LatticeSimplex.from_vertices(verts)).counts


class Workload:
    name = ""
    why = ""
    budget_s = 10.0  # per item; a slower item counts as failed

    def __init__(self, root: Path, env: dict):
        self.root = root  # checkout root: the CLI runs there, inputs are written under it
        self.env = env  # environment for child interpreters
        self.findings: Counter = Counter()  # theorem checks the audit flags on polytope data

    def setup(self, rng) -> None:
        """One-time warm-up before the first timed item."""

    def cycle(self, rng, index: int) -> list[Item]:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self) -> None:
        """Release files the workload made."""


# -- ppiped ------------------------------------------------------------------------

# Five log-spaced volume levels from 10^4 to 3*10^5, each with fixed
# dimensions, so every cycle does the same work whatever the seed. The
# median of a cycle's 13 items is the middle one of three spiked d = 12
# instances at the middle level, so it rests on three samples per cycle and
# never on the gap between two instance kinds.
LEVELS = tuple(round(10**4 * 30 ** (i / 4)) for i in range(5))
SPIKED = ((0, 13), (1, 9), (2, 12), (2, 12), (2, 12), (2, 14), (3, 15), (4, 11))  # (level, d)
DILATED = ((0, 6), (1, 4), (2, 4), (3, 3), (4, 5))  # (level, d) of k * Delta_d


class Ppiped(Workload):
    name = "ppiped"
    why = ("residue odometer of the parallelepiped route: cyclic (one SNF factor) "
           "and (Z/k)^d (d factors) quotients, plus full_audit; no scan runs")

    def setup(self, rng) -> None:
        warm = lattice.LatticeSimplex.from_vertices([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 5)])
        audit.full_audit(engine.compute_vectors(warm).h)  # imports sympy for the SNF

    def cycle(self, rng, index: int) -> list[Item]:
        items = []
        for level, d in ((LEVELS[i], d) for i, d in SPIKED):
            m = level + rng.randint(-level // 50, level // 50)
            w = [rng.randrange(1, m) for _ in range(d - 1)]
            verts = [(0,) * d] + [tuple(int(j == r) for j in range(d)) for r in range(d - 1)]
            verts.append(tuple(w) + (m,))
            items.append(self._item(f"spiked d={d} m={m}", verts, m,
                                    lambda w=w, m=m: O.spiked_h_star(w, m)))
        for level, d in ((LEVELS[i], d) for i, d in DILATED):
            k = max(2, round(level ** (1 / d)))
            verts = _dilated_vertices(k, _translate(rng, d, 20))
            items.append(self._item(f"dilated d={d} k={k}", verts, k**d,
                                    lambda k=k, d=d: O.h_from_counts(O.dilated_simplex_counts(k, d))))
        rng.shuffle(items)
        return items

    def _item(self, label, verts, volume, h_of) -> Item:
        def run():
            result = engine.compute_vectors(lattice.LatticeSimplex.from_vertices(verts))
            return result, audit.full_audit(result.h)

        def check(out) -> str | None:
            result, report = out
            if result.route != "parallelepiped":
                return f"route {result.route!r}, expected 'parallelepiped'"
            self.findings.update(O.flagged_checks(report))
            h = h_of()
            return (O.check_vectors(h, O.counts_from_h(h), result.h.entries,
                                    result.f.entries, result.counts)
                    or O.check_audit(h, report))

        return Item(label, run, check, work=volume)


# -- hscan ------------------------------------------------------------------------

# The big-coordinate instance: k * Delta_3 translated near 2^58. Its scan
# bound passes 2^62 from dilate 3 on, which forces the object-dtype path.
BIG_SHIFT = 2**58


class Hscan(Workload):
    name = "hscan"
    why = ("box derivation (Fourier-Motzkin, rational solves) and the bounding-box "
           "scan kernel of the interpolation route; no SNF, no parallelepiped")
    isolated_budget_s = 0.5  # for the d = 6 facet simplices; the others get budget_s

    def setup(self, rng) -> None:
        engine.compute_vectors(lattice.LatticePolytope(
            2, halfspaces=tuple(lattice.HalfSpace(r[0], tuple(r[1:])) for r in _box_rows([0, 0], 1))))

    def cycle(self, rng, index: int) -> list[Item]:
        items = []
        for d, width in ((3, 8), (4, 8), (5, 3)):
            lows = _translate(rng, d, 30)
            items.append(self._h_item(f"H-box d={d} width={width}", _box_rows(lows, width),
                                      lambda w=width, d=d: O.box_counts(w, d)))
        # 7 * Delta_4 three times: the median item of the 17 per cycle, with
        # seven lighter and seven heavier items around it.
        for d, k in ((3, 8), (4, 7), (4, 7), (4, 7), (5, 3)):
            rows = _dilated_rows(k, _translate(rng, d, 30))
            items.append(self._h_item(f"facets of {k}*Delta_{d}", rows,
                                      lambda k=k, d=d: O.dilated_simplex_counts(k, d)))
        for d, bound in ((3, 3), (4, 2), (5, 2)):
            verts, rows = _random_vertices(rng, d, bound)
            items.append(self._h_item(f"facets of random d={d}", rows, _parallelepiped_counts(verts)))
        verts = _dilated_vertices(4, _translate(rng, 4, 30))
        items.append(self._profile_item("vertices of 4*Delta_4", verts,
                                        lambda: O.dilated_simplex_counts(4, 4)))
        for d, bound in ((3, 3), (4, 2)):
            verts, _rows = _random_vertices(rng, d, bound)
            items.append(self._profile_item(f"vertices of random d={d}", verts,
                                            _parallelepiped_counts(verts)))
        shift = [BIG_SHIFT + x for x in _translate(rng, 3, 1000)]
        items.append(self._h_item("facets of 10*Delta_3 near 2^58", _dilated_rows(10, shift),
                                  lambda: O.dilated_simplex_counts(10, 3)))
        # Random 6-simplices by their 7 facets. Their Fourier-Motzkin
        # boundedness check blows up, so they run isolated under the item
        # budget and an address-space limit. Two per cycle keep more than ten
        # of them in every run, so the latency tail does not sit on the edge
        # between them and the other items.
        for _ in range(2):
            verts, rows = _random_vertices(rng, 6, 2)
            item = self._h_item("facets of random d=6", rows, _parallelepiped_counts(verts))
            item.isolated, item.budget_s = True, self.isolated_budget_s
            items.append(item)
        rng.shuffle(items)
        return items

    @staticmethod
    def _h_item(label, rows, counts_of) -> Item:
        return Item(label, lambda: _compute_h_polytope(rows), _check_plain("interpolation", counts_of))

    @staticmethod
    def _profile_item(label, verts, counts_of) -> Item:
        def run():
            return engine.count_profile(lattice.LatticeSimplex.from_vertices(verts)).counts

        def check(counts) -> str | None:
            return None if tuple(counts) == tuple(counts_of()) else "counts differ from the oracle"

        return Item(label, run, check)


# -- search ------------------------------------------------------------------------


class Search(Workload):
    name = "search"
    why = ("spiked-pattern search: integer basis change and the audit predicates per "
           "pattern, no geometry, no numpy; single- and two-spike windows at d = 14, 15")

    def setup(self, rng) -> None:
        audit.search_nonunimodal(6, [audit.SpikeRange(1, 6, 2, 3)], 100)

    def cycle(self, rng, index: int) -> list[Item]:
        items = []
        # Every window holds about 6000 patterns (14 x 430, 15 x 400,
        # 9 x 26 x 26), long enough that one item spans many of the host's
        # short speed swings. Five windows (the d = 15 single-spike one
        # twice) make an odd count, so the median item is one window kind.
        for d, width in ((14, 430), (15, 400), (15, 400)):
            lo = rng.randint(2, 3000)
            items.append(self._item(d, [(1, d, lo, lo + width - 1)], rng))
        for d in (14, 15):
            a = rng.randint(1, d - 8)
            b = rng.randint(a + 3, d - 2)
            v1, v2 = rng.randint(2, 300), rng.randint(2, 300)
            items.append(self._item(d, [(a, a + 2, v1, v1 + 25), (b, b + 2, v2, v2 + 25)], rng))
        rng.shuffle(items)
        return items

    @staticmethod
    def _item(d, windows, rng) -> Item:
        sample = []
        for _ in range(8):
            if len(windows) == 1:
                plo, phi, vlo, vhi = windows[0]
                sample.append(((rng.randint(plo, phi), rng.randint(vlo, vhi)),))
            else:
                (p1lo, p1hi, v1lo, v1hi), (p2lo, p2hi, v2lo, v2hi) = windows
                sample.append(((rng.randint(p1lo, p1hi), rng.randint(v1lo, v1hi)),
                               (rng.randint(p2lo, p2hi), rng.randint(v2lo, v2hi))))

        def run():
            return audit.search_nonunimodal(d, [audit.SpikeRange(*w) for w in windows], 10**6)

        label = f"search d={d} " + " ".join(f"{w[0]}:{w[1]}x{w[2]}:{w[3]}" for w in windows)
        return Item(label, run, lambda out: O.check_search(d, windows, out, sample),
                    work=O.pattern_count(d, windows))


# -- cli-cold ----------------------------------------------------------------------

H15 = (1,) + (0,) * 7 + (131,) + (0,) * 7


def _text_field(stdout: str, prefix: str) -> tuple[int, ...]:
    line = next(x for x in stdout.splitlines() if x.startswith(prefix))
    return tuple(int(x) for x in line[len(prefix):].split())


def _ints(values) -> tuple[int, ...]:
    return tuple(int(x) for x in values)


def _search_lines(stdout: str):
    objs = [json.loads(x) for x in stdout.splitlines()]
    return objs[:-1], objs[-1]["summary"]


class ColdProcess:
    """Output of one `python -m ehrstar.cli` process."""

    def __init__(self, returncode: int, stdout: str, stderr: str, maxrss_kb: int):
        self.returncode = returncode
        self.stdout = stdout
        self.stderr = stderr
        self.maxrss_kb = maxrss_kb


def run_cold(argv, env, cwd, timeout_s: float) -> ColdProcess:
    """Run the CLI in a fresh interpreter; wait4 gives that child's own peak RSS."""
    proc = subprocess.Popen([sys.executable, "-m", "ehrstar.cli", *argv], cwd=cwd, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = [], []
    deadline = time.monotonic() + timeout_s
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ, out)
        sel.register(proc.stderr, selectors.EVENT_READ, err)
        while sel.get_map():
            left = deadline - time.monotonic()
            events = sel.select(left) if left > 0 else []
            if not events:
                proc.kill()
                break
            for key, _ in events:
                data = os.read(key.fd, 65536)
                if data:
                    key.data.append(data)
                else:
                    sel.unregister(key.fileobj)
    _pid, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return ColdProcess(proc.returncode, b"".join(out).decode(), b"".join(err).decode(),
                       usage.ru_maxrss)


class CliCold(Workload):
    name = "cli-cold"
    why = ("cold `python -m ehrstar.cli` processes: interpreter start, numpy import, lazy "
           "sympy import, argparse and serialization on top of small computations")
    budget_s = 30.0

    def setup(self, rng) -> None:
        self._dir = self.root / ".perfbench" / f"inputs-{os.getpid()}"
        self._dir.mkdir(parents=True, exist_ok=True)
        self._peak_kb = 0
        self._refs: dict[tuple, tuple[int, str]] = {}
        rel = self._dir.relative_to(self.root)

        def spiked(rng):
            a, b = rng.randint(1, 6), rng.randint(1, 6)
            v, m = rng.randint(2, 500), rng.randint(500, 5000)
            w = (1,) * a + (v,) * b
            return f"higashitani-{a}-{v}-{b}-{m}", lambda: O.spiked_h_star(w, m)

        k, t = rng.randint(2, 4), _translate(rng, 3, 30)
        poly = {"ambient_dim": 3, "halfspaces": _dilated_rows(k, t)}
        (self._dir / "poly.json").write_text(json.dumps(poly))
        vec = [1] + [rng.randint(0, 50) for _ in range(12)]
        (self._dir / "vec.json").write_text(json.dumps({"d": 12, "h_star": [str(x) for x in vec]}))
        series_name, series_h = spiked(rng)
        compute_name, compute_h = spiked(rng)
        p, v = rng.randint(1, 12), rng.randint(2, 3000)
        search_windows = [(p, p + 2, v, v + 40)]

        def h15_text(out):
            return None if _text_field(out, "h*: ") == H15 else "h* anchor differs"

        def h15_json(out):
            return None if _ints(json.loads(out)["h_star"]) == H15 else "h* anchor differs"

        def audit_text(out):
            if "unimodal: NO (first dip at 9)" not in out.splitlines():
                return "first-dip anchor differs"
            return h15_text(out)

        def audit_json(out):
            obj = json.loads(out)
            if obj["first_dip"] != 9 or obj["unimodal"]:
                return "first-dip anchor differs"
            return h15_json(out)

        def series_json(out):
            ok = _ints(json.loads(out)["numerator"]) == series_h()
            return None if ok else "series numerator differs from the oracle"

        def compute_json(out):
            obj = json.loads(out)
            h = compute_h()
            return O.check_vectors(h, O.counts_from_h(h), _ints(obj["h_star"]),
                                   _ints(obj["f_star"]), _ints(obj["counts"]))

        def compute_poly(out):
            got = _text_field(out, "ehrhart values (n = 0..4): ")
            return None if got == O.dilated_simplex_counts(k, 3) else "counts differ from the oracle"

        def convert_json(out):
            ok = _ints(json.loads(out)["f_star"]) == O.f_from_counts(O.counts_from_h(vec))
            return None if ok else "f* differs from the oracle"

        def search_json(out):
            cands, summary = _search_lines(out)
            got = [(tuple(tuple(s) for s in c["spikes"]), c["first_dip"]) for c in cands]
            if summary["scanned"] != O.pattern_count(14, search_windows) or summary["truncated"]:
                return "scanned count differs from the closed form"
            return None if got == O.window_candidates(14, search_windows) else "candidates differ"

        h15 = ["--builtin", "higashitani-15"]
        js = ["--format", "json"]
        self._commands = [
            (["compute", *h15], h15_text),
            (["compute", *h15, *js], h15_json),
            (["audit", *h15], audit_text),
            (["audit", *h15, *js], audit_json),
            (["series", "--builtin", series_name, *js], series_json),
            (["compute", "--builtin", compute_name, *js], compute_json),
            (["compute", "--input", str(rel / "poly.json")], compute_poly),
            (["convert", "--input", str(rel / "vec.json"), *js], convert_json),
            (["search", "--dim", "14", "--spike-pos-range", f"{p}:{p + 2}",
              "--spike-val-range", f"{v}:{v + 40}", *js], search_json),
        ]

    def reference(self, argv) -> tuple[int, str]:
        """Exit code and stdout of the same argv through an in-process `cli.main`."""
        key = tuple(argv)
        if key not in self._refs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(argv))
            self._refs[key] = code, buf.getvalue()
        return self._refs[key]

    def _check(self, argv, anchor):
        def check(proc: ColdProcess) -> str | None:
            if proc.returncode != 0:
                return f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}"
            if (proc.returncode, proc.stdout) != self.reference(argv):
                return "stdout differs from in-process cli.main"
            return anchor(proc.stdout)

        return check

    def cycle(self, rng, index: int) -> list[Item]:
        items = [Item(" ".join(argv), lambda argv=argv: self._run(argv), self._check(argv, anchor))
                 for argv, anchor in self._commands]
        rng.shuffle(items)
        return items

    def _run(self, argv) -> ColdProcess:
        proc = run_cold(argv, self.env, self.root, self.budget_s)
        self._peak_kb = max(self._peak_kb, proc.maxrss_kb)
        return proc

    def warm_cycle(self, rng) -> list[Item]:
        """The same argvs through a warm in-process `cli.main`: what is left after process start."""

        def run(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(argv))
            return code, buf.getvalue()

        items = [Item(" ".join(argv), lambda argv=argv: run(argv),
                      lambda out, argv=argv: None if out == self.reference(argv) else "stdout differs")
                 for argv, _anchor in self._commands]
        rng.shuffle(items)
        return items

    def import_times(self) -> dict[str, float]:
        """Cumulative import times (ms) from `-X importtime` of a cold compute."""
        argv = ["-X", "importtime", "-m", "ehrstar.cli", "compute", "--builtin", "higashitani-15"]
        proc = subprocess.run([sys.executable, *argv], cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=self.budget_s, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _self, cum, name = line[len("import time:"):].split("|")
            if name.strip() in ("numpy", "sympy", "ehrstar") and cum.strip().isdigit():
                cumulative.setdefault(name.strip(), int(cum) / 1000)
        # ehrstar's import pulls numpy in; report its own share separately.
        ehrstar = cumulative.get("ehrstar", 0.0) - cumulative.get("numpy", 0.0)
        return {"numpy": cumulative.get("numpy", 0.0), "sympy": cumulative.get("sympy", 0.0),
                "ehrstar": ehrstar}

    def peak_rss_mb(self) -> float:
        return self._peak_kb / 1024

    def close(self) -> None:
        if hasattr(self, "_dir"):
            shutil.rmtree(self._dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Ppiped, Hscan, Search, CliCold)}
