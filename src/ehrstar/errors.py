"""Exceptions shared across the package, the caps on work and input, and
the checks on outside JSON.

The CLI maps these onto exit codes: input problems exit 2, work over a cap
(count, volume or box-derivation work) exits 3.

Every JSON document read from outside the program goes through
`decode_json`, and its entries through `int_entry` and `json_list`, so a
malformed file raises InputError with one message whichever format it is.
Every integer read from outside, in a file or in a builtin's name, is
converted by `int_text`, which refuses more than `INT_DIGITS_CAP` digits.
"""

import json
import sys

# The most decimal digits of an input integer. CPython will not convert an
# int of more than 4,300 digits to or from a string, so no printed value
# may reach that. With c-digit inputs and the dimension caps 100 and 200,
# the printed values that grow with c are at most: the Ehrhart values of a
# builtin cube [lo, hi]^100, (101 * 2 * 10^c + 1)^100, and its h*- and
# f*-entries, below its normalized volume 100! * (2 * 10^c)^100 or its
# ehr(101): 100c + 231 digits; a simplex's normalized volume, a 101 x 101
# determinant: 101c + 101 (Hadamard); a vertex coordinate of a half-space
# polytope, a ratio of 100 x 100 minors: 100c + 101; an entry converted
# from a vector file: c + 63. Other printed values are bounded by the count,
# volume and scan caps, and a message names an unbounded one through
# `shown`. c = 40 keeps all of them under 4,300 digits, and c = 41 would
# not. The cap also bounds every Bareiss entry, a minor of the input.
INT_DIGITS_CAP = 40

# The default caps on counting work: the candidates of one bounding-box
# scan, and the normalized volume of a parallelepiped enumeration.
DEFAULT_COUNT_CAP = 10**9
DEFAULT_VOLUME_CAP = 10**7


class EhrstarError(Exception):
    """Base class for all package errors."""


class InputError(EhrstarError):
    """Malformed or inconsistent user input (files, vectors, parameters)."""


class DegenerateSimplexError(EhrstarError):
    """Vertex set does not span the expected dimension."""


class NotFullDimensionalError(EhrstarError):
    """Ehrhart operations require affine dimension == ambient dimension."""


class CostGuardExceeded(EhrstarError):
    """Estimated enumeration work is above the configured cap."""


class VolumeCapExceeded(EhrstarError):
    """Normalized volume exceeds the cap for parallelepiped enumeration."""


def int_text(text: str) -> int:
    """int(text), refused as bad input past INT_DIGITS_CAP digits, which are
    counted before the conversion. Non-integer text raises ValueError."""
    digits = sum(ch.isdigit() for ch in text)
    if digits > INT_DIGITS_CAP:
        raise InputError(f"integer of {digits} digits exceeds the cap of {INT_DIGITS_CAP} digits")
    return int(text)


def shown(n: int) -> str:
    """n in decimal, or its digit count where the interpreter cannot print it."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # int() == 0: no limit
    if not limit or abs(n) < 10**limit:
        return str(n)
    k = (abs(n).bit_length() - 1) * 301029995 // 10**9  # floor(log10 |n|), or one less
    return f"<{k + 1 + (abs(n) >= 10 ** (k + 1))}-digit number>"


def decode_json(text: str):
    """The decoded document; malformed or too deeply nested text is bad input."""
    try:
        return json.loads(text, parse_int=int_text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"invalid JSON: {exc}") from exc


def int_entry(x) -> int:
    """A JSON integer (capped by `decode_json`), or a string holding one."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise InputError(f"bad integer entry {x!r}")
    try:
        return int_text(x) if isinstance(x, str) else x
    except ValueError as exc:
        raise InputError(f"bad integer entry {x!r}") from exc


def json_list(x, what: str) -> list:
    """x itself, which must be a JSON list; `what` names it in the error."""
    if not isinstance(x, list):
        raise InputError(f"{what} must be a JSON list, not {type(x).__name__}")
    return x
