"""ehrstar benchmark: one seeded workload, exact oracles, metrics as JSON.

    python3 perfbench/run.py --workload ppiped --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload is a closed loop: one caller in one process, the next item
starts when the previous one has finished, BLAS threads pinned to 1.
Every output is checked against an exact oracle outside the timed call.
`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
metrics of a separate run that alternates untraced and traced cycles.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. See perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("ppiped", "hscan", "search", "cli-cold")
SETUP_PROBES = 5  # fresh interpreters timed from spawn to ready; setup_s is their median
SPAN_CAP = 400_000  # a traced run stops adding cycles past this many spans
ISOLATED_EXTRA_AS = 512 << 20  # address space an isolated item may add to the parent's
# Figures measured once when the roadmap was written, printed beside ours.
ROADMAP_US_PER_RESIDUE = 1.5
ROADMAP_US_PER_PATTERN = 60.0
ROADMAP_COLD_H15_S = 0.8

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "items/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("cli.import_numpy_ms", "ms"),
    ("cli.import_sympy_ms", "ms"),
    ("cli.import_ehrstar_ms", "ms"),
    ("cli.main_ms", "ms"),
    ("lattice.build_ms", "ms/cycle"),
    ("intlinalg.snf_ms", "ms/cycle"),
    ("intlinalg.scaled_inverse_ms", "ms/cycle"),
    ("intlinalg.solve_rational_calls", "count/cycle"),
    ("intlinalg.solve_rational_ms", "ms/cycle"),
    ("engine.box_points_ms", "ms/cycle"),
    ("engine.residues", "count/cycle"),
    ("engine.residues_per_s", "1/s"),
    ("engine.count_points_ms", "ms/cycle"),
    ("engine.scan_kernel_ms", "ms/cycle"),
    ("engine.scan_calls", "count/cycle"),
    ("engine.scan_candidates", "count/cycle"),
    ("engine.scan_candidates_per_s", "1/s"),
    ("engine.scan_hit_ratio", "ratio"),
    ("engine.interp_ms", "ms/cycle"),
    ("starbasis.f_from_h_calls", "count/cycle"),
    ("starbasis.f_from_h_ms", "ms/cycle"),
    ("starbasis.eval_ehrhart_ms", "ms/cycle"),
    ("audit.full_audit_ms", "ms/cycle"),
    ("audit.unimodality_ms", "ms/cycle"),
    ("audit.check_hibi_ms", "ms/cycle"),
    ("audit.search_self_ms", "ms/cycle"),
    ("audit.patterns", "count/cycle"),
    ("audit.patterns_per_s", "1/s"),
    ("audit.candidate_ratio", "ratio"),
    ("trace.overhead_ms", "ms/cycle"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.covered_ratio", "ratio"),
)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# -- running items -----------------------------------------------------------------------


class Tally:
    """Outcomes of the items of one pass."""

    def __init__(self):
        self.latencies: list[float] = []
        self.labels: list[str] = []
        self.attempted = 0
        self.verified = 0
        self.work = 0
        self.failures: list[tuple[str, str, str]] = []  # (kind, label, reason)
        self.cycles = 0

    @property
    def timed_s(self) -> float:
        return sum(self.latencies)


def _vm_size() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmSize:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("no VmSize in /proc/self/status")


def run_isolated(fn, budget_s: float):
    """Run fn in a forked child with a wall-time budget and an address-space
    limit on that child only. Returns (output, None) or (None, (kind, reason))."""
    limit = _vm_size() + ISOLATED_EXTRA_AS
    rfd, wfd = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # child: never returns into the harness
        code = 0
        try:
            os.close(rfd)
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
            try:
                payload = {"out": fn()}
            except MemoryError:
                payload = {"budget": "address-space limit reached"}
            except Exception as exc:  # reported to the parent as a failed item
                payload = {"failure": classify(exc)}
            data = json.dumps(payload).encode()
            while data:
                data = data[os.write(wfd, data):]
        except BaseException:
            code = 1
        finally:
            os._exit(code)
    os.close(wfd)
    chunks = []
    timed_out = False
    try:
        while True:
            left = budget_s - (time.perf_counter() - start)
            if left <= 0 or not select.select([rfd], [], [], left)[0]:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            chunk = os.read(rfd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(rfd)
        os.waitpid(pid, 0)
    if timed_out:
        return None, ("budget", f"over the {budget_s:g} s budget (killed)")
    if not chunks:
        return None, ("crash", "isolated child died without a result")
    payload = json.loads(b"".join(chunks))
    if "out" in payload:
        return payload["out"], None
    if "budget" in payload:
        return None, ("budget", payload["budget"])
    return None, tuple(payload["failure"])


def classify(exc: Exception) -> tuple[str, str]:
    """A documented refusal (an ehrstar error, e.g. a cost cap) or a crash."""
    import ehrstar

    kind = "refused" if isinstance(exc, ehrstar.EhrstarError) else "crash"
    return kind, f"{type(exc).__name__}: {exc}"


def run_item(item, budget_s: float, tally: Tally, tracer=None, item_id: str = "") -> None:
    budget_s = item.budget_s or budget_s
    tally.attempted += 1
    if tracer is not None:
        tracer.begin_item(item_id, item.label)
    start = time.perf_counter()
    out, failure = None, None
    if item.isolated:
        out, failure = run_isolated(item.run, budget_s)
    else:
        try:
            out = item.run()
        except Exception as exc:  # the program raised: a failed item, the run goes on
            failure = classify(exc)
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.end_item()
    if failure is None and elapsed > budget_s:
        failure = ("budget", f"took {elapsed:.3f} s, over the {budget_s:g} s budget")
    if failure is not None and failure[0] == "budget":
        elapsed = max(elapsed, budget_s)  # a blown budget costs at least the budget
    if failure is None:
        reason = item.check(out)
        if reason is not None:
            failure = ("wrong", reason)
    tally.latencies.append(elapsed)
    tally.labels.append(item.label)
    if failure is None:
        tally.verified += 1
        tally.work += item.work
    else:
        tally.failures.append((failure[0], item.label, failure[1]))


def run_pass(wl, items, tally: Tally, tracer=None) -> None:
    for pos, item in enumerate(items):
        run_item(item, wl.budget_s, tally, tracer, f"{tally.cycles}.{pos}")
    tally.cycles += 1


def pin_to(cpus: list[int], index: int) -> None:
    """Run the next cycle on one CPU of the allowed set, round robin.

    On a shared VM the vCPUs run at different speeds for minutes at a
    time, and a lone busy process tends to stay on one of them; rotating
    makes every run sample all of them alike. Children inherit the CPU.
    """
    os.sched_setaffinity(0, {cpus[index % len(cpus)]})


# -- metrics -----------------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it: the
    eleventh-largest sample. Returns (value, percentile, sample count)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def probe_setup(workload: str, seed: int, env: dict) -> float:
    """Seconds from spawning a fresh interpreter to its first timed item."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.close()
    code = proc.wait(timeout=120)
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code})")
    return elapsed


def reference_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast this machine runs
    right now. Printed with the context so that drift between runs shows;
    no metric uses it."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc = (acc * 31 + i) % 1_000_003
        samples.append(1000 * (time.perf_counter() - start))
    return statistics.median(samples)


def versions() -> dict:
    import numpy
    import sympy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "sympy": sympy.__version__, "nproc": nproc, "src_lines": src_lines,
            "machine": platform.machine()}


def emit(metrics: dict, tallies: list[Tally]) -> None:
    """Print each metric, then the result line: failures other than a blown
    budget or a documented refusal make the run incorrect."""
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    failures = [f for t in tallies for f in t.failures]
    correct = all(kind in ("budget", "refused") for kind, _label, _reason in failures)
    print(json.dumps({"correct": correct, "attempted": sum(t.attempted for t in tallies),
                      "failed": len(failures), "metrics": metrics}))


def report_failures(tally: Tally) -> None:
    """Failure counts by kind, then the first failure of up to ten distinct items."""
    kinds = Counter(kind for kind, _label, _reason in tally.failures)
    if kinds:
        print("failures: " + ", ".join(f"{k} {v}" for k, v in sorted(kinds.items())))
    first = {}
    for kind, label, reason in tally.failures:
        first.setdefault((kind, label), f"  failed [{kind}] {label}: {reason}")
    for line in list(first.values())[:10]:
        print(line)


# -- the two kinds of run -----------------------------------------------------------------


def end_to_end_run(wl, rng, args, env) -> None:
    tally = Tally()
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    while True:
        pin_to(cpus, tally.cycles)
        run_pass(wl, wl.cycle(rng, tally.cycles), tally)
        if time.perf_counter() - start >= args.seconds:
            break
    os.sched_setaffinity(0, cpus)
    peak = wl.peak_rss_mb()
    setups = [probe_setup(wl.name, args.seed, env) for _ in range(SETUP_PROBES)]
    p_tail, pct, n = tail(tally.latencies)
    error_rate = len(tally.failures) / tally.attempted
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": tally.verified / tally.timed_s,
        "latency_p50_ms": 1000 * statistics.median(tally.latencies),
        "latency_tail_ms": 1000 * p_tail,
        "success_rate": 1 - error_rate,
        "peak_rss_mb": peak,
    }
    print(f"run: {tally.cycles} cycles, {tally.attempted} items, {tally.timed_s:.3f} s timed, "
          f"{time.perf_counter() - start:.3f} s wall")
    print(f"latency_tail_ms is p{pct:.1f} of {n} samples")
    print(f"error_rate {error_rate:.6g} ratio ({len(tally.failures)} of {tally.attempted}); "
          "success_rate = 1 - error_rate")
    print("setup_s samples: " + " ".join(f"{s:.3f}" for s in setups))
    rate_check(wl, tally)
    for name, count in sorted(wl.findings.items()):
        print(f"finding: the audit reports {name} failing on {count} polytope-derived h* "
              "(a theorem check failing on polytope data; see perfbench/README.md)")
    report_failures(tally)
    units = dict(END_TO_END)
    emit({k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, [tally])


def rate_check(wl, tally: Tally) -> None:
    """Per-unit rates beside the roadmap's one-off figures (a sanity check, not a target)."""
    if wl.name == "ppiped" and tally.work:
        print(f"rate check: {1e6 * tally.timed_s / tally.work:.3f} us per residue per item "
              f"(whole item: from_vertices, SNF, odometer, audit); roadmap odometer figure "
              f"~{ROADMAP_US_PER_RESIDUE} us")
    if wl.name == "search" and tally.work:
        print(f"rate check: {1e6 * tally.timed_s / tally.work:.3f} us per pattern; "
              f"roadmap figure ~{ROADMAP_US_PER_PATTERN} us")
    if wl.name == "cli-cold":
        h15 = [t for t, label in zip(tally.latencies, tally.labels)
               if label == "compute --builtin higashitani-15"]
        if h15:
            print(f"rate check: cold compute --builtin higashitani-15 median "
                  f"{statistics.median(h15):.3f} s over {len(h15)}; roadmap figure "
                  f"~{ROADMAP_COLD_H15_S} s")


def traced_run(wl, rng, args) -> None:
    from tracer import Tracer

    tracer = Tracer()
    untraced, traced = Tally(), Tally()
    warm = getattr(wl, "warm_cycle", None)

    def items_of(pair_seed, index):
        pair_rng = random.Random(pair_seed)
        return warm(pair_rng) if warm else wl.cycle(pair_rng, index)

    def traced_pass(items):
        tracer.install()
        try:
            run_pass(wl, items, traced, tracer)
        finally:
            tracer.uninstall()

    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    while True:
        # Each pair runs one cycle of identical inputs untraced and traced, in
        # alternating order, on one CPU, each pass starting from empty
        # program caches.
        pair_seed, index = rng.getrandbits(64), traced.cycles
        passes = [lambda: run_pass(wl, items_of(pair_seed, index), untraced),
                  lambda: traced_pass(items_of(pair_seed, index))]
        pin_to(cpus, index)
        for run in passes if index % 2 == 0 else passes[::-1]:
            clear_program_caches()
            run()
        if time.perf_counter() - start >= args.seconds or len(tracer.spans) >= SPAN_CAP:
            break
    os.sched_setaffinity(0, cpus)
    summary = tracer.summary()
    cycles = traced.cycles
    metrics = layer_metrics(summary, cycles, untraced, traced)
    if wl.name == "cli-cold":
        metrics["cli.main_ms"] = 1000 * statistics.median(untraced.latencies)
        probes = [wl.import_times() for _ in range(3)]
        for mod in ("numpy", "sympy", "ehrstar"):
            metrics[f"cli.import_{mod}_ms"] = statistics.median(p[mod] for p in probes)
    absent = tracer.absent()
    path = ROOT / ".perfbench" / f"trace-{wl.name}-seed{args.seed}.jsonl.gz"
    tracer.write(path)
    print(f"traced run: {cycles} traced + {untraced.cycles} untraced cycles, "
          f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    covered = summary.get("item", {}).get("total_ns", 0) / 1e6
    program_self = sum(a["self_ns"] for k, a in summary.items() if k != "item") / 1e6
    print(f"accounting per cycle: traced items {covered / cycles:.3f} ms = program self "
          f"{program_self / cycles:.3f} ms + item glue {(covered - program_self) / cycles:.3f} ms; "
          f"untraced {1000 * untraced.timed_s / untraced.cycles:.3f} ms; overhead "
          f"{metrics['trace.overhead_ms']:.3f} ms")
    if metrics["engine.residues"]:
        print(f"rate check: odometer {1e6 / metrics['engine.residues_per_s']:.3f} us per residue "
              f"(box_points self time); roadmap figure ~{ROADMAP_US_PER_RESIDUE} us")
    if absent:
        print("absent spans (reported as 0): " + ", ".join(absent))
    report_failures(traced)
    emit({k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in PER_LAYER}, [untraced, traced])


def clear_program_caches() -> None:
    """Empty every memoizing cache (anything with cache_clear) in the ehrstar modules."""
    for name, mod in list(sys.modules.items()):
        if name == "ehrstar" or name.startswith("ehrstar."):
            for obj in list(vars(mod).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def layer_metrics(summary: dict, cycles: int, untraced: Tally, traced: Tally) -> dict:
    def agg(name, field="total_ns"):
        return summary.get(name, {}).get(field, 0)

    def ms(*names, field="total_ns"):
        return sum(agg(n, field) for n in names) / 1e6 / cycles

    def per_s(count, ns):
        return count / (ns / 1e9) if ns else 0.0

    builds = [n for n in summary if n == "lattice.LatticeSimplex.from_vertices"
              or n.startswith("lattice.make_")]
    residues = agg("engine.box_points_simplex", "counter") or 0
    scan = agg("engine._count_box_satisfying", "counter") or (0, 0)
    search = agg("audit.search_nonunimodal", "counter") or (0, 0)
    untraced_ms = 1000 * untraced.timed_s / untraced.cycles
    traced_ms = 1000 * traced.timed_s / cycles
    item_ns = agg("item")
    return {
        "lattice.build_ms": ms(*builds),
        "intlinalg.snf_ms": ms("intlinalg.diagonalize_lattice_basis", field="self_ns"),
        "intlinalg.scaled_inverse_ms": ms("intlinalg.scaled_inverse"),
        "intlinalg.solve_rational_calls": agg("intlinalg.solve_rational", "calls") / cycles,
        "intlinalg.solve_rational_ms": ms("intlinalg.solve_rational"),
        "engine.box_points_ms": ms("engine.box_points_simplex", field="self_ns"),
        "engine.residues": residues / cycles,
        "engine.residues_per_s": per_s(residues, agg("engine.box_points_simplex", "self_ns")),
        "engine.count_points_ms": ms("engine.count_points", field="self_ns"),
        "engine.scan_kernel_ms": ms("engine._count_box_satisfying"),
        "engine.scan_calls": agg("engine._count_box_satisfying", "calls") / cycles,
        "engine.scan_candidates": scan[0] / cycles,
        "engine.scan_candidates_per_s": per_s(scan[0], agg("engine._count_box_satisfying")),
        "engine.scan_hit_ratio": scan[1] / scan[0] if scan[0] else 0.0,
        "engine.interp_ms": ms("engine.f_star_from_profile", "starbasis.h_from_f"),
        "starbasis.f_from_h_calls": agg("starbasis.f_from_h", "calls") / cycles,
        "starbasis.f_from_h_ms": ms("starbasis.f_from_h"),
        "starbasis.eval_ehrhart_ms": ms("starbasis.eval_ehrhart"),
        "audit.full_audit_ms": ms("audit.full_audit"),
        "audit.unimodality_ms": ms("audit.unimodality"),
        "audit.check_hibi_ms": ms("audit.check_hibi"),
        "audit.search_self_ms": ms("audit.search_nonunimodal", field="self_ns"),
        "audit.patterns": search[0] / cycles,
        "audit.patterns_per_s": per_s(search[0], agg("audit.search_nonunimodal")),
        "audit.candidate_ratio": search[1] / search[0] if search[0] else 0.0,
        "trace.overhead_ms": traced_ms - untraced_ms,
        "trace.overhead_ratio": (traced_ms - untraced_ms) / untraced_ms,
        "trace.covered_ratio": (item_ns - agg("item", "self_ns")) / item_ns if item_ns else 0.0,
    }


# -- entry point ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Every workload in turn, each in its own process, then one summary line."""
    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print(f"== {name} (exit {proc.returncode})")
        for line in lines[:-1]:
            print(f"   {line}")
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ehrstar" / "__init__.py").is_file():
        print(f"error: no ehrstar sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    # Pin BLAS before numpy loads, here and in every child interpreter.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    env = child_env()
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](ROOT, env)
    rng = random.Random(args.seed)
    try:
        wl.setup(rng)
        if args.setup_probe:
            wl.cycle(rng, 0)
            print("ready", flush=True)
            return 0
        context = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "item_budget_s": wl.budget_s,
                   "isolated_item_budget_s": getattr(wl, "isolated_budget_s", None), "why": wl.why,
                   "reference_loop_ms": reference_loop_ms(), **versions()}
        print(json.dumps({"context": context}))
        if args.trace:
            traced_run(wl, rng, args)
        else:
            end_to_end_run(wl, rng, args, env)
    finally:
        wl.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
