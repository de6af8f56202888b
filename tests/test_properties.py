"""Property tests of the closed forms and the ratio layer at larger n."""

from hypothesis import given, settings
from hypothesis import strategies as st

from hullcount.algebra import FormKind
from hullcount.exactnum import DIVMOD_MAX_TOP, gaussian_binomial
from hullcount.formulas import closed_count, hull_dims
from hullcount.ratios import ratio_report

from naive_counts import naive_count_hermitian, naive_count_symplectic, naive_gaussian_binomial

QS = [2, 3, 4, 5, 7, 8, 9]


@st.composite
def cells(draw):
    """(form, length, k, q): hermitian n <= 60, symplectic 2n <= 120."""
    form = draw(st.sampled_from([FormKind.HERMITIAN, FormKind.SYMPLECTIC]))
    n = draw(st.integers(0, 60))
    length = n if form is FormKind.HERMITIAN else 2 * n
    return form, length, draw(st.integers(0, length)), draw(st.sampled_from(QS))


def _spectrum(form, length, k, q):
    return {ell: closed_count(form, length, k, ell, q) for ell in hull_dims(form, length, k)}


@settings(max_examples=100, deadline=None)
@given(cells())
def test_spectrum_sums_to_gaussian_binomial(cell):
    form, length, k, q = cell
    order = q * q if form is FormKind.HERMITIAN else q
    assert sum(_spectrum(form, length, k, q).values()) == gaussian_binomial(length, k, order)


@settings(max_examples=100, deadline=None)
@given(cells())
def test_ratio_identity_on_every_consecutive_pair(cell):
    form, length, k, q = cell
    counts = _spectrum(form, length, k, q)
    dims = hull_dims(form, length, k)
    for ell in dims[:-1]:
        rep = ratio_report(form, length, k, ell, q)
        assert rep.step == dims.step
        num, den = rep.full_ratio.numerator, rep.full_ratio.denominator
        assert counts[ell] * den == num * counts[ell + dims.step]


@st.composite
def wide_cells(draw):
    """(form, length, k, ell, q): hermitian n <= 150, symplectic 2n <= 300,
    so the largest range end n falls on both sides of DIVMOD_MAX_TOP; ell
    runs one past the hull range on each side."""
    form = draw(st.sampled_from([FormKind.HERMITIAN, FormKind.SYMPLECTIC]))
    n = draw(st.integers(0, 150))
    length = n if form is FormKind.HERMITIAN else 2 * n
    k = draw(st.integers(0, length))
    ell = draw(st.integers(-1, min(k, length - k) + 1))
    return form, length, k, ell, draw(st.sampled_from(QS))


def test_wide_cells_straddle_the_crossover():
    assert 0 < DIVMOD_MAX_TOP < 150


@settings(max_examples=150, deadline=None)
@given(wide_cells())
def test_counts_match_the_naive_references(cell):
    form, length, k, ell, q = cell
    if form is FormKind.HERMITIAN:
        expected, order = naive_count_hermitian(length, k, ell, q), q * q
    else:
        expected, order = naive_count_symplectic(length, k, ell, q), q
    assert closed_count(form, length, k, ell, q) == expected
    assert gaussian_binomial(length, k, order) == naive_gaussian_binomial(length, k, order)
