"""The package root's public names, loaded from their home modules on use."""

import importlib

import pytest

import hullcount

# each public name under the module that defines it
HOMES = {
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


def test_public_names_are_their_home_modules_objects():
    assert sorted(hullcount.__all__) == sorted(name for names in HOMES.values() for name in names)
    assert len(hullcount.__all__) == 45
    for module, names in HOMES.items():
        home = importlib.import_module(f"hullcount.{module}")
        # the lazy hook itself, and the attribute it caches
        assert hullcount.__getattr__(module) is home
        for name in names:
            assert hullcount.__getattr__(name) is getattr(home, name), name
            assert getattr(hullcount, name) is getattr(home, name), name


def test_dir_and_star_import_cover_every_public_name():
    assert set(hullcount.__all__) <= set(dir(hullcount))
    assert set(HOMES) <= set(dir(hullcount))
    namespace: dict[str, object] = {}
    exec("from hullcount import *", namespace)
    assert [name for name in hullcount.__all__
            if namespace.get(name) is not getattr(hullcount, name)] == []


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        hullcount.no_such_name  # noqa: B018


def test_form_kind_is_one_object_from_every_path():
    from hullcount import algebra, formulas

    assert algebra.FormKind is formulas.FormKind is hullcount.FormKind
    assert algebra.require_even_length is formulas.require_even_length
