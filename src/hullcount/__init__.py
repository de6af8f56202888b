"""Exact counts of linear codes by hull dimension.

Closed-form evaluators for hermitian and symplectic hull-dimension counts,
the ratio factors linking consecutive hull dimensions (all three classical
forms) with their exception classification and asymptotic limits, an
exact oracle over every subspace for cross-checking, and parameter maps into
entanglement-assisted quantum codes.

Importing the package loads none of its modules: each public name, and
each submodule, is imported on first access (PEP 562).
"""

import sys

__version__ = "0.1.0"

# each submodule and the public names it exports
_EXPORTS = {
    "algebra": (
        "FieldElem", "FiniteField", "MatrixGF", "field_of_order", "frobenius",
        "gram", "hull_dim", "make_field", "rref",
    ),
    "eaqecc": (
        "CensusRow", "EaqeccParams", "ebits_from_check_matrix",
        "entanglement_census", "gjg_map", "wilde_brun_map",
    ),
    "errors": ("HullCountError",),
    "exactnum": ("gaussian_binomial",),
    "formulas": (
        "FormKind", "HermitianParams", "SymplecticParams", "count_hermitian",
        "count_symplectic", "hermitian_lcd_count", "symplectic_lcd_count",
        "unified_factor",
    ),
    "oracle": (
        "DEFAULT_WORK_LIMIT", "HullSpectrum", "enumerate_subspaces",
        "hull_spectrum", "spectrum_vs_formula", "subspace_count",
    ),
    "ratios": (
        "AsymptoticRegime", "AsymptoticReport", "RatioClassification",
        "RatioReport", "alpha_euclidean", "alpha_hermitian", "alpha_symplectic",
        "asymptotic_hermitian", "asymptotic_symplectic", "classify_hermitian",
        "classify_symplectic", "comparison_rows", "quadratic_character",
        "ratio_report",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = name if name in _EXPORTS else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the builtin __import__, unlike importlib.import_module, is timed by
    # python -X importtime
    __import__(f"{__name__}.{module}")
    home = sys.modules[f"{__name__}.{module}"]
    if module == name:
        return home
    value = globals()[name] = getattr(home, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
