"""The public names of the package and its runtime dependencies.

`hypgeo.__all__` is pinned here, so adding or removing a public name is a
deliberate change that shows in this file's diff.  The package runs on
the standard library alone: no module imports anything else, and
pyproject.toml declares no runtime dependency.  No module imports a
sibling's underscore names.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import hypgeo

ROOT = Path(__file__).resolve().parent.parent

PUBLIC_NAMES = [
    "CausalType", "Covector", "CutDescriptor", "DomainError", "ETA_INJ_SPLIT",
    "ETA_POLE_SPLIT_PSL2", "ETA_POLE_SPLIT_SL2", "GeodesicSample", "GroupTag", "HypgeoError",
    "IdentityTarget", "LocusSample", "Metric", "NegativeTime", "NoConvergence", "NoRootFound",
    "NonPositiveEigenvalue", "NotOnC", "NotTimeLike", "OnCutLocus",
    "SplitQuaternion", "SrMomentum", "UndefinedAtEquator", "WavefrontPoint", "beta_from_pbar3",
    "conjugate_roots", "covector_from_components", "covector_from_pbar3",
    "cut_locus_sample", "cut_time", "describe_cut", "exp_map", "first_conjugate_time",
    "injectivity_radius", "light_covector", "limit_comparison", "make_metric",
    "maxwell_time", "metric_from_eta", "psl2_canonicalize",
    "riemannian_log", "sample_geodesic", "sq_mul", "sr_cut_time", "sr_exp_map",
    "vertical_flow", "wavefront_sample",
]

# test-only derivation tools (tests/derivation.py) and the Maxwell-root
# wrappers with their two error classes, which the package no longer has
GONE = [
    "DegenerateIdenticallyZero", "LightLikeInput", "SymmetryElement", "apply_symmetry_image",
    "apply_symmetry_preimage", "jacobian", "maxwell_root_q0", "maxwell_root_q3", "sq_exp",
    "tau_of_t",
]


def test_every_public_name_resolves():
    missing = [name for name in hypgeo.__all__ if not hasattr(hypgeo, name)]
    assert missing == []


def test_public_names_are_pinned():
    assert sorted(hypgeo.__all__) == PUBLIC_NAMES


def test_no_module_keeps_a_removed_name():
    # the __all__ pin misses a definition left behind but no longer exported
    left = []
    for path in sorted((ROOT / "src" / "hypgeo").glob("*.py")):
        name = "hypgeo" if path.stem == "__init__" else f"hypgeo.{path.stem}"
        mod = importlib.import_module(name)
        left += [f"{name}.{gone}" for gone in GONE if gone in vars(mod)]
    assert left == []


def test_package_imports_only_the_standard_library():
    outside = []
    for path in sorted((ROOT / "src" / "hypgeo").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "hypgeo" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno} {name}")
    assert outside == []


def test_no_module_imports_a_private_name_of_a_sibling():
    # a sibling's underscore names are its own; sharing one means it is
    # part of an interface and should be public
    private = []
    for path in sorted((ROOT / "src" / "hypgeo").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").partition(".")[0] != "hypgeo":
                continue
            private += [
                f"{path.name}:{node.lineno} {alias.name}"
                for alias in node.names if alias.name.startswith("_")
            ]
    assert private == []


def test_no_runtime_dependency_is_declared():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert project["dependencies"] == []
