"""Vector algebra for the two binomial-coefficient bases of Ehrhart data.

A degree-d lattice-point counting polynomial ehr(n) can be written as

    ehr(n) = sum_k h_k * C(n + d - k, d)      (the h*-vector)
           = sum_k f_k * C(n - 1, k)          (the f*-vector)

with the convention f_{-1} = 1, which makes ehr(0) = 1 come out of the
second basis as the alternating sum of the f-entries. Everything in this
module is pure integer arithmetic on these coefficient vectors; nothing
here touches geometry. Each binomial is `math.comb` with both indices
nonnegative, where C(a, b) = 0 for b > a.

Vectors derived from an actual polytope satisfy h_0 = 1 and h_k >= 0
(and then f_k >= 0); "raw" vectors with arbitrary integer entries are
allowed everywhere so that search workflows and constructed
counterexamples can use the same algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import InputError, decode_json, int_entry, json_list

# The largest d accepted from a vector file or by the pattern search, checked
# before any conversion. One f_from_h costs O(d^2) binomials of O(d) bits: on
# a 2-vCPU VM a cold convert or audit takes about 0.3 s at d = 200 and 0.6 s
# at d = 400, and one search pattern about 20 ms and 0.3 s. Generator outputs
# (dimension <= lattice.GENERATOR_DIM_CAP = 100) stay valid inputs.
VECTOR_DIM_CAP = 200


@dataclass(frozen=True)
class HStarVector:
    """Coefficients h_0..h_d in the basis C(n+d-k, d)."""

    entries: tuple[int, ...]
    polytope_derived: bool = False

    def __post_init__(self):
        if not self.entries:
            raise InputError("h*-vector must have at least one entry")
        if self.polytope_derived:
            if self.entries[0] != 1:
                raise InputError("polytope-derived h*-vector must start with 1")
            if any(x < 0 for x in self.entries):
                raise InputError("polytope-derived h*-vector must be nonnegative")

    @property
    def dim(self) -> int:
        return len(self.entries) - 1


@dataclass(frozen=True)
class FStarVector:
    """Coefficients f_0..f_d in the basis C(n-1, k).

    The implicit prefix f_{-1} is the alternating sum of the entries,
    which is 1 for every vector coming from a polytope.
    """

    entries: tuple[int, ...]
    polytope_derived: bool = False

    def __post_init__(self):
        if not self.entries:
            raise InputError("f*-vector must have at least one entry")
        if self.polytope_derived and any(x < 0 for x in self.entries):
            raise InputError("polytope-derived f*-vector must be nonnegative")

    @property
    def dim(self) -> int:
        return len(self.entries) - 1


def f_from_h(h: HStarVector) -> FStarVector:
    """Change of basis h* -> f*: f_k = sum_j C(d-j+1, k-j+1) h_j over
    0 <= j <= min(k+1, d)."""
    d = h.dim
    out = []
    for k in range(d + 1):
        out.append(
            sum(comb(d - j + 1, k - j + 1) * h.entries[j] for j in range(min(k + 1, d) + 1))
        )
    return FStarVector(tuple(out), polytope_derived=h.polytope_derived)


def h_from_f(f: FStarVector) -> HStarVector:
    """Change of basis f* -> h*, the inverse of `f_from_h`.

    h_k = sum_{j=-1}^{k-1} (-1)^{k-j-1} C(d-j, k-j-1) f_j. The implicit
    prefix f_{-1} is the value of the counting polynomial at 0, i.e. the
    alternating sum of the entries; that sum is identically 1 for vectors
    coming from a polytope, recovering the usual f_{-1} = 1 convention,
    and using it keeps the map a true inverse on raw vectors as well.
    """
    d = f.dim
    ext = (alternating_sum(f),) + f.entries  # ext[j+1] = f_j
    out = []
    for k in range(d + 1):
        out.append(
            sum(
                (-1) ** (k - j - 1) * comb(d - j, k - j - 1) * ext[j + 1]
                for j in range(-1, k)
            )
        )
    return HStarVector(tuple(out), polytope_derived=f.polytope_derived)


def eval_ehrhart(h: HStarVector, n: int) -> int:
    """Value of the counting polynomial at dilate n >= 0, from its h*-vector."""
    if n < 0:
        raise InputError("dilate must be nonnegative")
    d = h.dim
    return sum(h.entries[k] * comb(n + d - k, d) for k in range(d + 1))


def eval_ehrhart_f(f: FStarVector, n: int) -> int:
    """Value of the counting polynomial at dilate n >= 0, from its f*-vector."""
    if n < 0:
        raise InputError("dilate must be nonnegative")
    if n == 0:
        # C(-1, k) = (-1)^k formally, which math.comb does not take.
        return alternating_sum(f)
    return sum(f.entries[k] * comb(n - 1, k) for k in range(f.dim + 1))


def alternating_sum(f: FStarVector) -> int:
    """sum_k (-1)^k f_k; equals h_0 for any pair related by the basis change."""
    return sum((-1) ** k * x for k, x in enumerate(f.entries))


def hstar_poly_identity_check(h: HStarVector, f: FStarVector) -> bool:
    """Coefficientwise check of sum_k h_k z^k = sum_k f_{k-1} z^k (1-z)^{d-k+1}.

    The right-hand side is expanded as an exact integer polynomial of
    degree <= d+1 and compared against the h-entries padded with a zero at
    degree d+1. The k = 0 term uses the implicit prefix f_{-1}, the
    alternating sum of the entries (1 for polytope vectors); see
    `h_from_f`.
    """
    if h.dim != f.dim:
        raise InputError("dimension mismatch between h*- and f*-vectors")
    d = h.dim
    rhs = [0] * (d + 2)
    ext = (alternating_sum(f),) + f.entries
    for k in range(d + 2):
        coeff = ext[k]
        if coeff == 0:
            continue
        m = d - k + 1
        # coeff * z^k * (1-z)^m
        for i in range(m + 1):
            rhs[k + i] += coeff * (-1) ** i * comb(m, i)
    lhs = list(h.entries) + [0]
    return rhs == lhs


def degree_of(h: HStarVector) -> int:
    """Largest k with h_k != 0."""
    for k in range(h.dim, -1, -1):
        if h.entries[k]:
            return k
    raise InputError("degree of the zero vector is undefined")


def gorenstein_index(h: HStarVector) -> int | None:
    """d + 1 - s when the entries are symmetric about their degree s, else None."""
    s = degree_of(h)
    if all(h.entries[j] == h.entries[s - j] for j in range(s + 1)):
        return h.dim + 1 - s
    return None


def series_numerator(h: HStarVector) -> tuple[tuple[int, ...], int]:
    """Numerator coefficients and denominator exponent of the generating series.

    The series 1 + sum_{n>=1} ehr(n) z^n equals (sum_k h_k z^k) / (1-z)^(d+1).
    """
    return h.entries, h.dim + 1


def is_symmetric_extended_f(f: FStarVector) -> bool:
    """True when (1, f_0, ..., f_d) is palindromic.

    For vectors coming from a polytope this forces h = (1, 0, ..., 0): the
    extended vector ends with f_d = sum_k h_k, so palindromicity already
    implies sum_{k>=1} h_k = 0.
    """
    ext = (1,) + f.entries
    return ext == ext[::-1]


# -- JSON interchange --------------------------------------------------------
#
# Vector files look like {"d": 15, "h_star": ["1", "0", ..., "131", ...]} and
# analogously "f_star"; entries are strings so arbitrary precision survives
# consumers with 64-bit JSON numbers. An optional "provenance" field
# ("polytope" or "raw", default raw) sets the vectors' polytope_derived flag.


def _parse_vector_field(obj: dict, key: str, d: int) -> tuple[int, ...] | None:
    if key not in obj:
        return None
    entries = tuple(int_entry(x) for x in json_list(obj[key], f"'{key}'"))
    if len(entries) != d + 1:
        raise InputError(f"{key} must have d+1 = {d + 1} entries, got {len(entries)}")
    return entries


def vectors_from_json(text: str) -> tuple[HStarVector | None, FStarVector | None]:
    """Parse a vector file; returns (h or None, f or None)."""
    return vectors_from_obj(decode_json(text))


def vectors_from_obj(obj) -> tuple[HStarVector | None, FStarVector | None]:
    """`vectors_from_json` on a decoded document."""
    if not isinstance(obj, dict) or "d" not in obj:
        raise InputError("vector JSON must be an object with a 'd' field")
    d = int_entry(obj["d"])
    if d < 0:
        raise InputError("d must be nonnegative")
    if d > VECTOR_DIM_CAP:
        raise InputError(f"vector dimension {d} exceeds the cap {VECTOR_DIM_CAP}")
    provenance = obj.get("provenance", "raw")
    if provenance not in ("raw", "polytope"):
        raise InputError("provenance must be 'raw' or 'polytope'")
    derived = provenance == "polytope"
    h_entries = _parse_vector_field(obj, "h_star", d)
    f_entries = _parse_vector_field(obj, "f_star", d)
    if h_entries is None and f_entries is None:
        raise InputError("vector JSON needs an 'h_star' or 'f_star' field")
    h = HStarVector(h_entries, polytope_derived=derived) if h_entries is not None else None
    f = FStarVector(f_entries, polytope_derived=derived) if f_entries is not None else None
    if h is not None and f is not None and f_from_h(h).entries != f.entries:
        raise InputError("h_star and f_star in the input do not correspond")
    return h, f


def vectors_to_json_obj(
    h: HStarVector | None = None, f: FStarVector | None = None, **extra
) -> dict:
    """Build the JSON object for a vector pair; entries serialized as strings."""
    src = h if h is not None else f
    if src is None:
        raise InputError("nothing to serialize")
    obj: dict = {"d": src.dim}
    if h is not None:
        obj["h_star"] = [str(x) for x in h.entries]
    if f is not None:
        obj["f_star"] = [str(x) for x in f.entries]
    obj["provenance"] = "polytope" if src.polytope_derived else "raw"
    obj.update(extra)
    return obj
