"""Exhaustive-enumeration oracle: subspace iteration and hull spectra."""

import pytest

from hullcount import cli
from hullcount.algebra import FormKind, make_field, rref
from hullcount.errors import BadRangeError, WorkLimitExceededError
from hullcount.exactnum import gaussian_binomial
from hullcount.oracle import (
    SubspaceIterator,
    enumerate_subspaces,
    hull_spectrum,
    spectrum_vs_formula,
)
from naive_hull import naive_hull_dim

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)


def test_yield_counts_match_gaussian_binomial():
    assert sum(1 for _ in enumerate_subspaces(2, 1, F2)) == 3
    assert sum(1 for _ in enumerate_subspaces(4, 2, F2)) == 35
    assert sum(1 for _ in enumerate_subspaces(2, 1, F4)) == 5
    for field in (F2, F3, F4):
        q = field.order
        for n in range(7):
            for k in range(n + 1):
                it = enumerate_subspaces(n, k, field)
                got = sum(1 for _ in it)
                assert got == it.expected_count == gaussian_binomial(n, k, q)


def test_no_duplicate_subspaces():
    seen = set()
    for mat in enumerate_subspaces(5, 2, F3):
        seen.add(mat.codes)
    assert len(seen) == gaussian_binomial(5, 2, 3)


def test_yield_is_canonical_rref():
    for mat in enumerate_subspaces(4, 2, F4):
        out = rref(mat)
        assert out.rank == 2
        assert out.matrix.codes == mat.codes


def test_iterator_range_validation():
    with pytest.raises(BadRangeError):
        SubspaceIterator(F2, 3, 4)
    with pytest.raises(BadRangeError):
        SubspaceIterator(F2, -1, 0)


def test_work_limit_reports_estimate():
    with pytest.raises(WorkLimitExceededError) as err:
        enumerate_subspaces(10, 5, F4, work_limit=1000)
    msg = str(err.value)
    assert str(gaussian_binomial(10, 5, 4)) in msg
    assert "1000" in msg
    # the default limit is checked before any pivot subset is visited
    with pytest.raises(WorkLimitExceededError):
        enumerate_subspaces(22, 11, F2)
    # limit None disables the guard entirely
    it = enumerate_subspaces(10, 5, F4, work_limit=None)
    assert it.expected_count == gaussian_binomial(10, 5, 4)


def test_spectrum_hermitian_example():
    spectrum = hull_spectrum(4, 1, F4, FormKind.HERMITIAN)
    assert spectrum.counts == {0: 40, 1: 45}
    assert spectrum.q == 2
    assert spectrum.field_order == 4
    spectrum = hull_spectrum(5, 2, F4, FormKind.HERMITIAN)
    assert spectrum.counts == {0: 3520, 1: 1980, 2: 297}


def test_spectrum_symplectic_example():
    spectrum = hull_spectrum(4, 2, F2, FormKind.SYMPLECTIC)
    assert spectrum.counts == {0: 20, 2: 15}
    assert spectrum.q == 2


def test_full_space_has_zero_hull():
    assert hull_spectrum(3, 3, F2, FormKind.EUCLIDEAN).counts == {0: 1}
    assert hull_spectrum(3, 3, F4, FormKind.HERMITIAN).counts == {0: 1}
    assert hull_spectrum(4, 4, F2, FormKind.SYMPLECTIC).counts == {0: 1}


def test_symplectic_hull_dims_match_k_parity():
    for two_n in (2, 4, 6):
        for k in range(two_n + 1):
            spectrum = hull_spectrum(two_n, k, F2, FormKind.SYMPLECTIC)
            assert all(ell % 2 == k % 2 for ell in spectrum.counts)
            assert spectrum.total == gaussian_binomial(two_n, k, 2)


def test_hermitian_hull_dims_within_range():
    for n in (2, 3, 4):
        for k in range(n + 1):
            spectrum = hull_spectrum(n, k, F4, FormKind.HERMITIAN)
            assert all(0 <= ell <= min(k, n - k) for ell in spectrum.counts)


def test_spectrum_matches_naive_tally():
    # hull_dim and hull_spectrum share one kernel; the reference built from
    # FieldElem arithmetic is the independent route
    cells = [
        (4, 2, F2, FormKind.SYMPLECTIC),
        (4, 2, F3, FormKind.SYMPLECTIC),
        (5, 2, F2, FormKind.EUCLIDEAN),
        (4, 2, F3, FormKind.EUCLIDEAN),
        (3, 1, F4, FormKind.HERMITIAN),
        (4, 2, F4, FormKind.HERMITIAN),
    ]
    for n, k, field, form in cells:
        tally: dict[int, int] = {}
        for mat in enumerate_subspaces(n, k, field):
            ell = naive_hull_dim(mat, form)
            tally[ell] = tally.get(ell, 0) + 1
        assert hull_spectrum(n, k, field, form).counts == tally


def test_spectrum_vs_formula_symplectic():
    comp = spectrum_vs_formula(6, 2, 3, FormKind.SYMPLECTIC)
    assert comp.passed
    assert comp.oracle_total == comp.expected_total == 11011
    assert all(c.formula == c.oracle for c in comp.cells)
    assert [c.ell for c in comp.cells] == [0, 2]


def test_spectrum_vs_formula_hermitian():
    comp = spectrum_vs_formula(4, 2, 2, FormKind.HERMITIAN)
    assert comp.passed
    assert {c.ell: c.oracle for c in comp.cells} == {0: 240, 1: 90, 2: 27}
    assert comp.expected_total == gaussian_binomial(4, 2, 4)


def test_spectrum_vs_formula_euclidean_sum_only():
    comp = spectrum_vs_formula(4, 2, 2, FormKind.EUCLIDEAN)
    assert comp.passed
    assert all(c.formula is None for c in comp.cells)
    assert comp.expected_total == 35
    assert comp.first_failure() is None


def test_spectra_csv_layout(tmp_path):
    path = tmp_path / "spectra.csv"
    code = cli.main(["verify", "--form", "hermitian", "--max-n", "4", "-q", "2",
                     "--dump", str(path)])
    assert code == 0
    # read_text would translate the CRLF terminators away
    lines = path.read_bytes().decode().split("\r\n")
    assert lines[0] == "n,k,q,form,ell,count"
    assert lines[-1] == ""
    rows = [line.split(",") for line in lines[1:-1]]
    start = rows.index(["4", "1", "2", "hermitian", "0", "40"])
    assert rows[start + 1] == ["4", "1", "2", "hermitian", "1", "45"]
    # every dumped row is a nonzero count of the exhaustive spectrum, and
    # every nonzero count is dumped
    dumped = {}
    for n, k, q, form, ell, count in rows:
        assert (q, form) == ("2", "hermitian")
        dumped.setdefault((int(n), int(k)), {})[int(ell)] = int(count)
    for (n, k), counts in dumped.items():
        spectrum = hull_spectrum(n, k, F4, FormKind.HERMITIAN)
        assert counts == {ell: c for ell, c in spectrum.counts.items() if c}
