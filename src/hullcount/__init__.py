"""Exact counts of linear codes by hull dimension.

Closed-form evaluators for hermitian and symplectic hull-dimension counts,
the ratio factors linking consecutive hull dimensions (all three classical
forms) with their exception classification and asymptotic limits, an
exhaustive enumeration oracle for cross-checking, and parameter maps into
entanglement-assisted quantum codes.
"""

from .algebra import (
    FieldElem,
    FiniteField,
    FormKind,
    MatrixGF,
    field_of_order,
    frobenius,
    gram,
    hull_dim,
    make_field,
    rref,
)
from .eaqecc import (
    CensusRow,
    EaqeccParams,
    ebits_from_check_matrix,
    entanglement_census,
    gjg_map,
    wilde_brun_map,
)
from .errors import HullCountError
from .exactnum import gaussian_binomial
from .formulas import (
    HermitianParams,
    SymplecticParams,
    count_hermitian,
    count_symplectic,
    hermitian_lcd_count,
    symplectic_lcd_count,
    unified_factor,
)
from .oracle import (
    DEFAULT_WORK_LIMIT,
    HullSpectrum,
    enumerate_subspaces,
    hull_spectrum,
    spectrum_vs_formula,
    subspace_count,
)
from .ratios import (
    AsymptoticRegime,
    AsymptoticReport,
    RatioClassification,
    RatioReport,
    alpha_euclidean,
    alpha_hermitian,
    alpha_symplectic,
    asymptotic_hermitian,
    asymptotic_symplectic,
    classify_hermitian,
    classify_symplectic,
    comparison_rows,
    quadratic_character,
    ratio_report,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticRegime",
    "AsymptoticReport",
    "CensusRow",
    "DEFAULT_WORK_LIMIT",
    "EaqeccParams",
    "FieldElem",
    "FiniteField",
    "FormKind",
    "HermitianParams",
    "HullCountError",
    "HullSpectrum",
    "MatrixGF",
    "RatioClassification",
    "RatioReport",
    "SymplecticParams",
    "alpha_euclidean",
    "alpha_hermitian",
    "alpha_symplectic",
    "asymptotic_hermitian",
    "asymptotic_symplectic",
    "classify_hermitian",
    "classify_symplectic",
    "comparison_rows",
    "count_hermitian",
    "count_symplectic",
    "ebits_from_check_matrix",
    "entanglement_census",
    "enumerate_subspaces",
    "field_of_order",
    "frobenius",
    "gaussian_binomial",
    "gjg_map",
    "gram",
    "hermitian_lcd_count",
    "hull_dim",
    "hull_spectrum",
    "make_field",
    "quadratic_character",
    "ratio_report",
    "rref",
    "spectrum_vs_formula",
    "subspace_count",
    "symplectic_lcd_count",
    "unified_factor",
    "wilde_brun_map",
]
