"""The result and parameter records: fields, reprs, immutability, and
validation on every construction path."""

import pytest

from hullcount.algebra import FormKind, MatrixGF, make_field, rref
from hullcount.eaqecc import EaqeccParams, entanglement_census
from hullcount.errors import BadRangeError, OddAmbientError
from hullcount.formulas import HermitianParams, SymplecticParams
from hullcount.oracle import hull_spectrum, spectrum_vs_formula
from hullcount.ratios import (
    AsymptoticRegime,
    RatioReport,
    asymptotic_hermitian,
    classify_hermitian,
    classify_symplectic,
    comparison_rows,
    ratio_report,
)

H, E = FormKind.HERMITIAN, FormKind.EUCLIDEAN
F2 = make_field(2)
_COMPARISON = spectrum_vs_formula(2, 1, 2, H)

# (record, field order, exact repr) for each of the package's records
RECORDS = [
    (
        rref(MatrixGF.from_rows(F2, [[1, 1], [1, 0]])),
        ("matrix", "rank", "pivot_cols"),
        "RrefResult(matrix=MatrixGF(F_2, 2x2), rank=2, pivot_cols=(0, 1))",
    ),
    (
        HermitianParams(4, 2, 1, 2),
        ("n", "k", "ell", "q"),
        "HermitianParams(n=4, k=2, ell=1, q=2)",
    ),
    (
        SymplecticParams(4, 2, 0, 2),
        ("two_n", "k", "ell", "q"),
        "SymplecticParams(two_n=4, k=2, ell=0, q=2)",
    ),
    (
        EaqeccParams(5, 1, 2, 2),
        ("n", "k_logical", "c", "q", "d"),
        "EaqeccParams(n=5, k_logical=1, c=2, q=2, d=None)",
    ),
    (
        entanglement_census(4, 2, 2, H)[0],
        ("ell", "ebits", "count", "exceptional"),
        "CensusRow(ell=0, ebits=2, count=240, exceptional=False)",
    ),
    (
        hull_spectrum(4, 2, F2, E),
        ("n", "k", "form", "field_order", "counts"),
        "HullSpectrum(n=4, k=2, form=<FormKind.EUCLIDEAN: 'euclidean'>, "
        "field_order=2, counts=mappingproxy({0: 20, 1: 12, 2: 3}))",
    ),
    (
        _COMPARISON.cells[0],
        ("ell", "oracle", "formula"),
        "SpectrumCell(ell=0, oracle=2, formula=2)",
    ),
    (
        _COMPARISON,
        ("length", "k", "q", "form", "cells", "oracle_total", "expected_total"),
        "SpectrumComparison(length=2, k=1, q=2, "
        "form=<FormKind.HERMITIAN: 'hermitian'>, "
        "cells=(SpectrumCell(ell=0, oracle=2, formula=2), "
        "SpectrumCell(ell=1, oracle=3, formula=3)), "
        "oracle_total=5, expected_total=5)",
    ),
    (
        classify_hermitian(4, 2, 1, 2),
        ("classification", "ratio_monotone", "count_monotone"),
        "HermitianClassification(classification="
        "<RatioClassification.STRICTLY_ABOVE_ONE: 'strictly_above_one'>, "
        "ratio_monotone=True, count_monotone=True)",
    ),
    (
        classify_symplectic(8, 4, 0, 2),
        ("classification", "count_monotone"),
        "SymplecticClassification(classification="
        "<RatioClassification.SYMPLECTIC_EXCEPTION_ES: 'symplectic_exception_es'>, "
        "count_monotone=False)",
    ),
    (
        ratio_report(H, 4, 2, 1, 2),
        ("form", "step", "alpha", "cofactor", "full_ratio", "classification",
         "monotone_a", "equality_boundary"),
        "RatioReport(form=<FormKind.HERMITIAN: 'hermitian'>, step=1, "
        "alpha=Fraction(10, 9), cofactor=3, full_ratio=Fraction(10, 3), "
        "classification=<RatioClassification.STRICTLY_ABOVE_ONE: "
        "'strictly_above_one'>, monotone_a=True, equality_boundary=False)",
    ),
    (
        asymptotic_hermitian(AsymptoticRegime.JOINT, 0, 2),
        ("form", "regime", "ell", "q", "a", "limit"),
        "AsymptoticReport(form=<FormKind.HERMITIAN: 'hermitian'>, "
        "regime=<AsymptoticRegime.JOINT: 'joint'>, ell=0, q=2, a=None, "
        "limit=Fraction(3, 2))",
    ),
    (
        comparison_rows((2, 3))[1],
        ("form", "step", "alpha_lower_bound", "alpha_asymptotic",
         "count_ratio_limits", "exceptions"),
        "ComparisonRow(form=<FormKind.HERMITIAN: 'hermitian'>, step=1, "
        "alpha_lower_bound='q/(q+1) >= 2/3', alpha_asymptotic='(q+1)/q', "
        "count_ratio_limits=mappingproxy({2: Fraction(3, 2), 3: Fraction(8, 3)}), "
        "exceptions='l = 0, n even, k in {1, n-1}')",
    ),
]


@pytest.mark.parametrize(
    "record, fields, text", RECORDS, ids=[type(r).__name__ for r, _, _ in RECORDS]
)
def test_record_contract(record, fields, text):
    assert record._fields == fields
    assert repr(record) == text
    # a record is a tuple of its field values, in field order
    assert tuple(record) == tuple(getattr(record, name) for name in fields)
    with pytest.raises(AttributeError):
        setattr(record, fields[0], getattr(record, fields[0]))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_mapping_fields_are_read_only():
    spectrum = hull_spectrum(4, 2, F2, E)
    with pytest.raises(TypeError):
        spectrum.counts[0] = 1
    with pytest.raises(TypeError):
        del spectrum.counts[0]
    assert spectrum.total == 35
    assert spectrum.counts == {0: 20, 1: 12, 2: 3} == dict(spectrum.counts)
    row = comparison_rows((2, 3))[1]
    with pytest.raises(TypeError):
        row.count_ratio_limits[2] = 0
    assert comparison_rows((2, 3))[1] == row
    # the views are read-only, not hashable: the two records still are not
    for record in (spectrum, row):
        with pytest.raises(TypeError):
            hash(record)


def test_record_defaults():
    assert EaqeccParams._field_defaults == {"d": None}
    assert RatioReport._field_defaults == {"equality_boundary": False}


VALID = {
    HermitianParams: (4, 2, 1, 2),
    SymplecticParams: (4, 2, 0, 2),
    EaqeccParams: (5, 1, 2, 2),
}
# (record type, field, bad value, error) that the constructor refuses
BAD_FIELDS = [
    (HermitianParams, "q", 6, BadRangeError),
    (HermitianParams, "n", -1, BadRangeError),
    (SymplecticParams, "q", 6, BadRangeError),
    (SymplecticParams, "two_n", -1, BadRangeError),
    (SymplecticParams, "two_n", 5, OddAmbientError),
    (EaqeccParams, "q", 6, BadRangeError),
    (EaqeccParams, "n", -1, BadRangeError),
    (EaqeccParams, "k_logical", 6, BadRangeError),
]


@pytest.mark.parametrize("cls, name, value, error", BAD_FIELDS)
def test_every_construction_path_validates(cls, name, value, error):
    good = cls(*VALID[cls])
    values = dict(zip(cls._fields, good), **{name: value})
    bad = [values[f] for f in cls._fields]
    with pytest.raises(error):
        cls(*bad)
    with pytest.raises(error):
        cls._make(bad)
    with pytest.raises(error):
        good._replace(**{name: value})
    assert cls._make(good) == good and type(cls._make(good)) is cls
    assert good._replace() == good
