"""Exact lattice-point enumeration for lattice polytopes.

Computes Ehrhart values, h*- and f*-vectors in exact integer arithmetic,
audits the known inequalities between them, and searches spiked
h*-patterns for nonunimodal f*-vectors. Each public name and submodule
resolves on first use (PEP 562), a name from its submodule on every access.
"""

import sys

__version__ = "0.1.0"

# Each submodule and the public names it defines.
_EXPORTS = {
    "audit": ("AuditReport", "CheckResult", "SearchOutcome", "SpikeRange",
              "check_binom_diff_lemma", "full_audit", "search_nonunimodal", "unimodality"),
    "engine": ("BoxPointTable", "CountProfile", "box_points_simplex", "compute_vectors",
               "count_points", "count_profile", "f_star_from_profile", "h_star_of"),
    "errors": ("CostGuardExceeded", "DegenerateSimplexError", "EhrstarError", "InputError",
               "NotFullDimensionalError", "VolumeCapExceeded"),
    "intlinalg": (),
    "lattice": ("HalfSpace", "LatticePolytope", "LatticeSimplex", "affine_dimension",
                "iterated_pyramid", "make_cube", "make_higashitani", "make_random_simplex",
                "make_unimodular_simplex", "polytope_from_json", "pyramid"),
    "starbasis": ("FStarVector", "HStarVector", "alternating_sum", "degree_of", "eval_ehrhart",
                  "eval_ehrhart_f", "f_from_h", "gorenstein_index", "h_from_f",
                  "hstar_poly_identity_check", "series_numerator"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_OWNER)


def _submodule(name):
    # `__import__`, unlike `importlib.import_module`, goes through the import
    # path that `python -X importtime` times, so each submodule gets its line.
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name):
    if name in _EXPORTS:
        return _submodule(name)
    if name in _OWNER:
        return getattr(_submodule(_OWNER[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_OWNER, *_EXPORTS})
