"""The package namespace and the modules each kind of request loads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sunlr

SRC = str(Path(__file__).resolve().parents[1] / "src")

# every name ``sunlr`` exports, with the submodule that defines it
EXPORTS = {
    "errors": (
        "BudgetExceededError",
        "InvalidInputError",
        "OracleDisagreementError",
        "SunlrError",
        "UnsupportedShapeError",
        "WallPreconditionError",
    ),
    "generalized": (
        "ChainProblem",
        "LevelOneSpec",
        "f1",
        "f2",
        "f_sun",
        "level1_f",
        "level1_lambdas",
        "stretched_table",
    ),
    "hive": (
        "LinearSystem",
        "build_linear_system",
        "count_sun_hives",
        "lp_feasible",
        "positivity",
    ),
    "horn": (
        "SubsetTuple",
        "facets_2_6_golden",
        "factorization_check",
        "generate_T",
        "in_cone",
        "underline_lambda",
        "verify_facets_2_6",
    ),
    "lr": ("lr_coefficient", "lr_hive_count", "rectangular_lr"),
    "partitions": ("conjugate", "contains", "lambda_of_set", "stretch"),
    "quiver": ("SunQuiver", "dim_si_sun", "weight_sigma1"),
}

SUBMODULES = ("cli", "errors", "generalized", "hive", "horn", "linprog", "lr", "partitions", "quiver")


@pytest.mark.parametrize("module, name", [(m, x) for m, names in EXPORTS.items() for x in names])
def test_export_is_the_submodule_object(module, name):
    ns = {}
    exec(f"from sunlr import {name}", ns)
    assert ns[name] is getattr(importlib.import_module(f"sunlr.{module}"), name)
    assert getattr(sunlr, name) is ns[name]


def test_namespace_lists_every_export():
    names = {x for names in EXPORTS.values() for x in names}
    assert sorted(sunlr.__all__) == sorted(names)
    assert names <= set(dir(sunlr))
    assert sunlr.__version__ == "0.1.0"


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodules_import_from_the_package(module):
    ns = {}
    exec(f"from sunlr import {module}", ns)
    assert ns[module] is importlib.import_module(f"sunlr.{module}")
    assert getattr(sunlr, module) is ns[module]


def test_unknown_name_raises():
    with pytest.raises(AttributeError):
        sunlr.no_such_name
    with pytest.raises(ImportError):
        exec("from sunlr import no_such_name", {})
    with pytest.raises(AttributeError):
        sunlr.LrTriple


# -- import scope: each request loads only the layers its kind uses

BASE = ["sunlr", "sunlr.cli", "sunlr.errors", "sunlr.lr", "sunlr.partitions"]
CHAIN = ["sunlr.generalized"]
LP = ["sunlr.hive", "sunlr.linprog"]


REPORT_MODULES = "import json, sys\nprint(json.dumps(sorted(sys.modules)))"


def loaded_after(code):
    """The sorted modules a fresh interpreter holds after running ``code``.

    It runs without ``site`` (``python -S``), which may load standard modules
    itself, ``importlib.resources`` among them.
    """
    script = f"{code}\n{REPORT_MODULES}\n"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def sunlr_modules(modules):
    return [m for m in modules if m.split(".")[0] == "sunlr"]


def test_import_sunlr_loads_only_errors():
    assert sunlr_modules(loaded_after("import sunlr")) == ["sunlr", "sunlr.errors"]
    # a submodule is still reachable as an attribute of the package
    assert "sunlr.quiver" in loaded_after("import sunlr\nsunlr.quiver.dim_si_sun")


# no request needs them: importing dataclasses pulls in inspect, ast and dis,
# argparse pulls in gettext and locale, fractions pulls in decimal and numbers
# (only a non-int cone entry needs it), and only facets26 reads a data file
HEAVY = {"dataclasses", "inspect", "argparse", "gettext", "locale", "fractions", "decimal", "importlib.resources"}


@pytest.mark.parametrize(
    "argv, doc, extra",
    [
        (["lr"], {"kind": "lr", "n": 3, "lambdas": [[1], [1, 1], [2, 1]]}, []),
        (["lr", "--cross-check"], {"kind": "lr", "n": 3, "lambdas": [[1], [1, 1], [2, 1]]}, []),
        (["stretch"], {"kind": "stretch", "n": 1, "N_max": 3, "lambdas": [[1]] * 4}, CHAIN),
        (["f1"], {"kind": "f1", "n": 1, "lambdas": [[1]] * 4}, CHAIN),
        (["f"], {"kind": "f_sun", "n": 1, "lambdas": [[1]] * 4}, CHAIN),
        (["cone"], {"kind": "cone", "n": 1, "lambdas": [[1]] * 4}, CHAIN + ["sunlr.horn", "sunlr.linprog"]),
        (["positivity"], {"kind": "positivity", "n": 1, "lambdas": [[1]] * 4}, CHAIN + LP),
        (["f", "--cross-check"], {"kind": "f_sun", "n": 1, "lambdas": [[1]] * 4}, CHAIN + LP + ["sunlr.quiver"]),
    ],
    ids=["lr", "lr-cross-check", "stretch", "f1", "f", "cone", "positivity", "f-cross-check"],
)
def test_request_loads_only_its_layers(tmp_path, argv, doc, extra):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(doc))
    modules = loaded_after(f"from sunlr.cli import main\nassert main({argv + ['--file', str(problem)]!r}) == 0")
    assert sunlr_modules(modules) == sorted(BASE + extra)
    heavy = HEAVY.intersection(modules)
    assert not heavy, heavy
