"""Exact generalized Littlewood-Richardson multiplicities.

Four evaluation routes for the cyclic chain multiplicity: LR chain sums,
glued hive counting (the chain sum's walk, a hive count per factor), quiver
weight spaces (reduced to the memoized chain sum, so they agree with it by
construction) and exact LP positivity (no counting code shared; only the
boundary check, with hive counting).  Plus the Horn-type cone machinery:
inequality generation, membership and factorization checks, and the golden
facet data for the n = 2, m = 6 cone; ``stretched_table`` gives the values
on stretched tuples that the saturation property is about.

``import sunlr`` loads only the error classes.  Every other public name, and
every submodule, is imported on first access (PEP 562), so ``from sunlr
import f_sun`` loads the chain engine and what it needs, and nothing of the
hive, LP, Horn or quiver layers.
"""

from importlib import import_module

from .errors import (
    BudgetExceededError,
    InvalidInputError,
    OracleDisagreementError,
    SunlrError,
    UnsupportedShapeError,
    WallPreconditionError,
)

__version__ = "0.1.0"

# submodule -> the public names it serves through the package
_LAZY = {
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
_HOME = {name: module for module, names in _LAZY.items() for name in names}
_SUBMODULES = frozenset(("cli", "linprog", *_LAZY))

__all__ = [
    "BudgetExceededError",
    "InvalidInputError",
    "OracleDisagreementError",
    "SunlrError",
    "UnsupportedShapeError",
    "WallPreconditionError",
    *_HOME,
]


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
