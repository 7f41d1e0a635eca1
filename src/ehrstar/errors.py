"""Exceptions shared across the package, and the checks on outside JSON.

The CLI maps these onto exit codes: input problems exit 2, infeasible
counting strategies (cost/volume caps, no applicable strategy) exit 3.

Every JSON document read from outside the program goes through
`decode_json`, and its entries through `int_entry` and `json_list`, so a
malformed file raises InputError with one message whichever format it is.
"""

import json


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


class NoCountingStrategy(EhrstarError):
    """No exact counting strategy applies to this polytope representation."""


def decode_json(text: str):
    """The decoded document; malformed or too deeply nested text is bad input."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"invalid JSON: {exc}") from exc


def int_entry(x) -> int:
    """A JSON integer, or a string holding one (values beyond 64 bits)."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise InputError(f"bad integer entry {x!r}")
    try:
        return int(x)
    except ValueError as exc:
        raise InputError(f"bad integer entry {x!r}") from exc


def json_list(x, what: str) -> list:
    """x itself, which must be a JSON list; `what` names it in the error."""
    if not isinstance(x, list):
        raise InputError(f"{what} must be a JSON list, not {type(x).__name__}")
    return x
