"""The package's public names: one table, resolved on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ehrstar

PUBLIC = [
    "AuditReport", "BoxPointTable", "CheckResult", "CostGuardExceeded", "CountProfile",
    "DegenerateSimplexError", "EhrstarError", "FStarVector", "HStarVector", "HalfSpace",
    "InputError", "LatticePolytope", "LatticeSimplex", "NotFullDimensionalError",
    "SearchOutcome", "SpikeRange", "VolumeCapExceeded", "affine_dimension", "alternating_sum",
    "box_points_simplex", "check_binom_diff_lemma", "compute_vectors", "count_points",
    "count_profile", "degree_of", "eval_ehrhart", "eval_ehrhart_f", "f_from_h",
    "f_star_from_profile", "full_audit", "gorenstein_index", "h_from_f", "h_star_of",
    "hstar_poly_identity_check", "iterated_pyramid", "make_cube", "make_higashitani",
    "make_random_simplex", "make_unimodular_simplex", "polytope_from_json", "pyramid",
    "search_nonunimodal", "series_numerator", "unimodality",
]
SUBMODULES = ["audit", "engine", "errors", "intlinalg", "lattice", "starbasis"]


def test_all_lists_every_public_name_in_order():
    assert ehrstar.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_each_name_is_the_object_its_submodule_defines(name):
    obj = getattr(ehrstar, name)
    owner = obj.__module__
    assert owner.removeprefix("ehrstar.") in SUBMODULES
    assert obj is getattr(importlib.import_module(owner), name)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from ehrstar import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(PUBLIC)


def test_submodules_resolve_as_attributes():
    for name in SUBMODULES:
        assert getattr(ehrstar, name) is importlib.import_module(f"ehrstar.{name}")


def test_dir_lists_names_and_submodules():
    assert set(PUBLIC + SUBMODULES + ["__version__"]) <= set(dir(ehrstar))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        ehrstar.no_such_name


def test_a_name_is_read_from_its_submodule_on_every_access(monkeypatch):
    # a patch of the submodule shows through the package, and so does its undo
    original = ehrstar.engine.compute_vectors
    ehrstar.compute_vectors  # a first access caches nothing
    monkeypatch.setattr(ehrstar.engine, "compute_vectors", len)
    assert ehrstar.compute_vectors is len
    monkeypatch.undo()
    assert ehrstar.compute_vectors is original
    assert "compute_vectors" not in vars(ehrstar)


@pytest.mark.parametrize("statement, loaded", [
    ("import ehrstar", []),
    ("import ehrstar.starbasis", ["ehrstar.errors", "ehrstar.starbasis"]),
    ("from ehrstar import f_from_h", ["ehrstar.errors", "ehrstar.starbasis"]),
])
def test_an_import_loads_only_what_it_names(statement, loaded):
    src = str(Path(ehrstar.__file__).resolve().parents[1])
    script = f"import sys\n{statement}\nprint(*sorted(m for m in sys.modules if m.startswith('ehrstar.')))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == loaded


def test_a_lazily_loaded_submodule_gets_its_own_importtime_line():
    # `__getattr__` loads a submodule by `__import__`, which `-X importtime`
    # times; `importlib.import_module` would leave it without a line
    src = str(Path(ehrstar.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ehrstar; ehrstar.engine"],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert any(line.endswith("| ehrstar.engine") for line in proc.stderr.splitlines()), proc.stderr
