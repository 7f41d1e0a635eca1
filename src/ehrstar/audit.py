"""Mechanical verification of the f*/h*-vector inequalities.

Every check returns a `CheckResult`; checks whose hypotheses fail are
reported as vacuous passes with `applicable=False` and a reason. All
checks accept raw vectors so that constructed violations are expressible;
for vectors computed from an actual polytope, the theorem-backed checks
must hold, and a failure signals an implementation bug upstream.

Witness conventions, per check: for chain inequalities the witness is the
right-hand index of the first violated comparison; for pairwise bounds it
is the pair/family index stated in the docstring.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice
from math import comb
from typing import Sequence

from .errors import InputError
from .starbasis import (
    VECTOR_DIM_CAP,
    FStarVector,
    HStarVector,
    degree_of,
    f_from_h,
    gorenstein_index,
    is_symmetric_extended_f,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    holds: bool
    applicable: bool = True
    witness: int | None = None
    note: str | None = None

    def __post_init__(self):
        if self.holds and self.witness is not None:
            raise ValueError("a passing check must not carry a witness")
        if not self.holds and self.witness is None:
            raise ValueError("a failing check must carry a witness")


def _vacuous(name: str, reason: str) -> CheckResult:
    return CheckResult(name, holds=True, applicable=False, note=reason)


def _falls_from(name: str, f: FStarVector, start: int) -> CheckResult:
    """f_{k-1} > f_k for start <= k <= d."""
    e = f.entries
    for k in range(start, f.dim + 1):
        if not e[k - 1] > e[k]:
            return CheckResult(name, holds=False, witness=k)
    return CheckResult(name, holds=True)


def check_first_half(f: FStarVector) -> CheckResult:
    """f_0 < f_1 < ... < f_{floor(d/2)-1} <= f_{floor(d/2)} (needs d >= 2)."""
    name = "first_half_increase"
    d = f.dim
    if d < 2:
        return _vacuous(name, "stated for d >= 2")
    e = f.entries
    half = d // 2
    for k in range(1, half):
        if not e[k - 1] < e[k]:
            return CheckResult(name, holds=False, witness=k)
    if not e[half - 1] <= e[half]:
        return CheckResult(name, holds=False, witness=half)
    return CheckResult(name, holds=True)


def check_last_quarter(f: FStarVector) -> CheckResult:
    """f_{floor(3d/4)} > f_{floor(3d/4)+1} > ... > f_d (needs d >= 2)."""
    name = "last_quarter_decrease"
    if f.dim < 2:
        return _vacuous(name, "stated for d >= 2")
    return _falls_from(name, f, 3 * f.dim // 4 + 1)


def check_mirror(f: FStarVector) -> CheckResult:
    """f_k <= f_{d-1-k} for 0 <= k <= (d-3)/2 (needs d >= 3); witness is k."""
    name = "mirror_pairs"
    d = f.dim
    if d < 3:
        return _vacuous(name, "stated for d >= 3")
    for k in range((d - 3) // 2 + 1):
        if not f.entries[k] <= f.entries[d - 1 - k]:
            return CheckResult(name, holds=False, witness=k)
    return CheckResult(name, holds=True)


def check_endpoint_min(f: FStarVector) -> CheckResult:
    """Every entry is at least min(f_0, f_d); witness is the entry index."""
    name = "endpoint_floor"
    floor_val = min(f.entries[0], f.entries[-1])
    for k, x in enumerate(f.entries):
        if x < floor_val:
            return CheckResult(name, holds=False, witness=k)
    return CheckResult(name, holds=True)


def check_gorenstein_range(f: FStarVector, g: int | None) -> CheckResult:
    """f_{k-1} > f_k for (d+1+floor((d+1-g)/2))/2 <= k <= d, g the symmetry index.

    The range start is rounded up to the first integer k.
    """
    name = "gorenstein_tail"
    if g is None:
        return _vacuous(name, "h*-vector is not symmetric about its degree")
    d = f.dim
    start = -(-(d + 1 + (d + 1 - g) // 2) // 2)
    return _falls_from(name, f, start)


def check_degree_range(f: FStarVector, s: int) -> CheckResult:
    """f_{k-1} > f_k for ceil((d+s)/2) <= k <= d, s the degree; degree 0 exempt."""
    name = "low_degree_tail"
    if s == 0:
        return _vacuous(name, "degree 0 (unimodular simplex) is exempt")
    return _falls_from(name, f, -(-(f.dim + s) // 2))


def check_hibi(h: HStarVector) -> CheckResult:
    """sum_{j<=m+1} h_j >= sum_{j>=d-m} h_j for m = 0..floor(d/2)-1; witness is m."""
    name = "hibi"
    d = h.dim
    e = h.entries
    for m in range(d // 2):
        if sum(e[: m + 2]) < sum(e[d - m :]):
            return CheckResult(name, holds=False, witness=m)
    return CheckResult(name, holds=True)


def check_stapledon_instance(h: HStarVector) -> CheckResult:
    """h_1 + ... + h_6 >= h_7 + ... + h_13, the d = 13 instance only."""
    name = "stapledon_d13"
    if h.dim != 13:
        return _vacuous(name, "only the d = 13 instance is implemented")
    half = h.dim // 2
    if sum(h.entries[1 : half + 1]) < sum(h.entries[half + 1 :]):
        return CheckResult(name, holds=False, witness=half)
    return CheckResult(name, holds=True)


def unimodality(f: FStarVector) -> tuple[bool, int | None, int | None]:
    """Weak unimodality of the entries: (unimodal, peak, first_dip).

    `peak` is the smallest index attaining the maximum. `first_dip` is the
    smallest index that is strictly below some earlier and some later
    entry, i.e. the first strict interior local minimum (plateau valleys
    included).
    """
    e = f.entries
    peak = e.index(max(e))
    rising = all(e[i] <= e[i + 1] for i in range(peak))
    falling = all(e[i] >= e[i + 1] for i in range(peak, len(e) - 1))
    if rising and falling:
        return True, peak, None
    for i in range(1, len(e) - 1):
        if max(e[:i]) > e[i] and e[i] < max(e[i + 1 :]):
            return False, None, i
    raise AssertionError("non-unimodal vector without a dip")


def check_peak_window(f: FStarVector, s: int) -> CheckResult:
    """For degree s >= 1 and d >= 2s^2-2s-2: unimodal, with some peak position
    inside [floor(d/2), ceil((d+s)/2) - 1].
    """
    name = "peak_window"
    d = f.dim
    if s < 1:
        return _vacuous(name, "needs positive degree")
    if d < 2 * s * s - 2 * s - 2:
        return _vacuous(name, f"needs d >= 2s^2-2s-2 = {2 * s * s - 2 * s - 2}")
    uni, first, dip = unimodality(f)
    if not uni:
        return CheckResult(name, holds=False, witness=dip)
    lo, hi = d // 2, -(-(d + s) // 2) - 1
    last = d - f.entries[::-1].index(f.entries[first])
    if first > hi or last < lo:
        return CheckResult(name, holds=False, witness=first)
    return CheckResult(name, holds=True)


def check_degree5_unimodal(f: FStarVector, s: int) -> CheckResult:
    """Degree at most 5 forces a unimodal f*-vector."""
    name = "degree_le5_unimodal"
    if s > 5:
        return _vacuous(name, "degree exceeds 5")
    uni, _peak, dip = unimodality(f)
    if not uni:
        return CheckResult(name, holds=False, witness=dip)
    return CheckResult(name, holds=True)


def check_binom_diff_lemma(n: int, k: int, j: int) -> bool:
    """|C(n,k) - C(n,k-1)| >= |C(n-j,k) - C(n-j,k-1)|.

    Requires positive n, k, j with k <= n+1-j and n != 2k-1; under those
    preconditions the inequality is a theorem, so the test suite checks it
    exhaustively.
    """
    if min(n, k, j) < 1:
        raise InputError("n, k, j must be positive")
    if k > n + 1 - j:
        raise InputError("requires k <= n + 1 - j")
    if n == 2 * k - 1:
        raise InputError("the case n = 2k - 1 is excluded")
    lhs = abs(comb(n, k) - comb(n, k - 1))
    rhs = abs(comb(n - j, k) - comb(n - j, k - 1))
    return lhs >= rhs


# -- aggregation ---------------------------------------------------------------


@dataclass(frozen=True)
class AuditReport:
    dim: int
    degree: int
    gorenstein_index: int | None
    results: tuple[CheckResult, ...]
    unimodal: bool
    peak_index: int | None
    first_dip: int | None
    provenance: str
    symmetric_f_star: bool
    h: HStarVector
    f: FStarVector

    @property
    def all_applicable_hold(self) -> bool:
        return all(r.holds for r in self.results if r.applicable)

    def to_json_obj(self) -> dict:
        return {
            "d": self.dim,
            "degree": self.degree,
            "gorenstein_index": self.gorenstein_index,
            "unimodal": self.unimodal,
            "peak_index": self.peak_index,
            "first_dip": self.first_dip,
            "provenance": self.provenance,
            "symmetric_f_star": self.symmetric_f_star,
            "h_star": [str(x) for x in self.h.entries],
            "f_star": [str(x) for x in self.f.entries],
            "checks": [
                {
                    "name": r.name,
                    "holds": r.holds,
                    "applicable": r.applicable,
                    "witness": r.witness,
                    **({"note": r.note} if r.note else {}),
                }
                for r in self.results
            ],
        }


def full_audit(h: HStarVector) -> AuditReport:
    """Run every check on h and its f*-vector; the provenance is h's own flag."""
    f = f_from_h(h)
    s = degree_of(h)
    g = gorenstein_index(h)
    uni, peak, dip = unimodality(f)
    results = (
        check_first_half(f),
        check_last_quarter(f),
        check_mirror(f),
        check_endpoint_min(f),
        check_gorenstein_range(f, g),
        check_degree_range(f, s),
        check_hibi(h),
        check_stapledon_instance(h),
        check_peak_window(f, s),
        check_degree5_unimodal(f, s),
    )
    return AuditReport(
        dim=h.dim,
        degree=s,
        gorenstein_index=g,
        results=results,
        unimodal=uni,
        peak_index=peak,
        first_dip=dip,
        provenance="polytope" if h.polytope_derived else "raw",
        symmetric_f_star=is_symmetric_extended_f(f),
        h=h,
        f=f,
    )


# -- candidate search -----------------------------------------------------------

DISCLAIMER = "candidate h*-vectors only; polytope existence not established"


@dataclass(frozen=True)
class SpikeRange:
    """One spike of the pattern: position in [pos_lo, pos_hi], value in
    [val_lo, val_hi]. Patterns are (1, 0^a, N, 0^b) with one spike, or
    (1, 0^a, M, 0^c, N, 0^b) with two."""

    pos_lo: int
    pos_hi: int
    val_lo: int
    val_hi: int

    def __post_init__(self):
        if self.pos_lo < 1 or self.pos_lo > self.pos_hi:
            raise InputError("bad spike position range")
        if self.val_lo > self.val_hi:
            raise InputError("bad spike value range")


@dataclass(frozen=True)
class SearchCandidate:
    h: HStarVector
    first_dip: int
    spikes: tuple[tuple[int, int], ...]  # (position, value) pairs


@dataclass(frozen=True)
class SearchOutcome:
    dim: int
    candidates: tuple[SearchCandidate, ...]
    scanned: int
    truncated: bool
    disclaimer: str = DISCLAIMER


def _spike_combos(d: int, spikes: Sequence[SpikeRange]):
    if len(spikes) == 1:
        a = spikes[0]
        for pos in range(a.pos_lo, min(a.pos_hi, d) + 1):
            for val in range(a.val_lo, a.val_hi + 1):
                yield ((pos, val),)
    else:
        a, b = spikes
        for pos1 in range(a.pos_lo, min(a.pos_hi, d) + 1):
            for pos2 in range(b.pos_lo, min(b.pos_hi, d) + 1):
                if pos2 <= pos1:
                    continue
                for val1 in range(a.val_lo, a.val_hi + 1):
                    for val2 in range(b.val_lo, b.val_hi + 1):
                        yield ((pos1, val1), (pos2, val2))


def search_nonunimodal(d: int, spikes: Sequence[SpikeRange], budget: int) -> SearchOutcome:
    """Enumerate spiked h*-patterns; keep those whose f*-vector is not
    unimodal and that still satisfy the Hibi inequalities.

    The survivors are necessary-condition candidates only (see
    `DISCLAIMER`): nothing here certifies that a polytope with such an
    h*-vector exists. Enumeration order, and hence output order, is
    lexicographic in the spike parameters and deterministic.
    """
    if d < 1:
        raise InputError("dimension must be positive")
    if d > VECTOR_DIM_CAP:
        raise InputError(f"search dimension {d} exceeds the cap {VECTOR_DIM_CAP}")
    if not 1 <= len(spikes) <= 2:
        raise InputError("pattern must have one or two spikes")
    if budget < 1:
        raise InputError("budget must be positive")
    combos = _spike_combos(d, spikes)
    found: list[SearchCandidate] = []
    scanned = 0
    for combo in islice(combos, budget):
        scanned += 1
        entries = [1] + [0] * d
        for pos, val in combo:
            entries[pos] = val
        h = HStarVector(tuple(entries))
        uni, _peak, dip = unimodality(f_from_h(h))
        if uni:
            continue
        if not check_hibi(h).holds:
            continue
        found.append(SearchCandidate(h, dip, combo))
    found.sort(key=lambda c: c.spikes)
    return SearchOutcome(d, tuple(found), scanned, next(combos, None) is not None)


def search_outcome_json_lines(outcome: SearchOutcome) -> list[str]:
    """One JSON line per candidate plus a trailing summary line."""
    lines = []
    for c in outcome.candidates:
        lines.append(
            json.dumps(
                {
                    "d": outcome.dim,
                    "h_star": [str(x) for x in c.h.entries],
                    "first_dip": c.first_dip,
                    "spikes": [list(sp) for sp in c.spikes],
                    "status": "candidate",
                }
            )
        )
    lines.append(
        json.dumps(
            {
                "summary": {
                    "d": outcome.dim,
                    "candidates": len(outcome.candidates),
                    "scanned": outcome.scanned,
                    "truncated": outcome.truncated,
                    "disclaimer": outcome.disclaimer,
                }
            }
        )
    )
    return lines
