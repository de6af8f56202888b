"""Property tests of the closed forms and the ratio layer at larger n."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hullcount.algebra import FormKind
from hullcount.errors import HullCountError
from hullcount.exactnum import DIVMOD_MAX_TOP, gaussian_binomial
from hullcount.formulas import closed_count, closed_spectrum, closed_step, hull_dims
from hullcount.ratios import classify_hermitian, euclidean_spectrum, ratio_report

from naive_counts import naive_count_hermitian, naive_count_symplectic, naive_gaussian_binomial

QS = [2, 3, 4, 5, 7, 8, 9]
H, S = FormKind.HERMITIAN, FormKind.SYMPLECTIC


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


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 60).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, n), st.sampled_from(QS))))
def test_euclidean_spectrum_shape(cell):
    # non-negative int counts over hull dimensions of the cell that sum to
    # [n, k]_q, and C -> C^perp keeps the hull, so k and n - k agree
    n, k, q = cell
    counts = euclidean_spectrum(n, k, q)
    assert all(type(c) is int and c >= 0 for c in counts.values())
    assert sum(counts.values()) == gaussian_binomial(n, k, q)
    assert set(counts) <= set(hull_dims(FormKind.EUCLIDEAN, n, k))
    assert euclidean_spectrum(n, n - k, q) == counts


@st.composite
def wide_cells(draw, forms=(FormKind.HERMITIAN, FormKind.SYMPLECTIC)):
    """(form, length, k, ell, q): hermitian n <= 150, symplectic 2n <= 300,
    so the largest range end n falls on both sides of DIVMOD_MAX_TOP; ell
    runs one past the hull range on each side."""
    form = draw(st.sampled_from(forms))
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


@st.composite
def wide_spectra(draw):
    """(form, length, k, q): hermitian n <= 150, symplectic 2n <= 300."""
    form = draw(st.sampled_from([H, S]))
    n = draw(st.integers(0, 150))
    length = n if form is H else 2 * n
    return form, length, draw(st.integers(0, length)), draw(st.sampled_from(QS))


# k = 0 and k = length (one-element spectra at l = 0), one-element symplectic
# spectra at l = 1, the cells either side of DIVMOD_MAX_TOP and the widest
EDGE_SPECTRA = [
    (H, 0, 0, 2), (H, 7, 0, 3), (H, 9, 9, 4), (S, 0, 0, 5), (S, 12, 12, 7),
    (S, 4, 1, 8), (S, 4, 3, 9), (S, 2, 1, 2),
    (H, DIVMOD_MAX_TOP, 40, 3), (H, DIVMOD_MAX_TOP + 1, 40, 3),
    (S, 2 * DIVMOD_MAX_TOP, 81, 4), (S, 2 * DIVMOD_MAX_TOP + 2, 81, 4),
    (H, 150, 75, 9), (S, 300, 151, 2),
]


def _with_examples(cases):
    def decorate(test):
        for case in cases:
            test = example(case)(test)
        return test
    return decorate


@settings(max_examples=40, deadline=None)
@given(wide_spectra())
@_with_examples(EDGE_SPECTRA)
def test_closed_spectrum_matches_every_cell_and_the_naive_references(cell):
    form, length, k, q = cell
    naive = naive_count_hermitian if form is H else naive_count_symplectic
    dims = hull_dims(form, length, k)
    spectrum = closed_spectrum(form, length, k, q)
    assert list(spectrum) == list(dims)
    assert spectrum == {ell: closed_count(form, length, k, ell, q) for ell in dims}
    assert spectrum == {ell: naive(length, k, ell, q) for ell in dims}


@settings(max_examples=100, deadline=None)
@given(wide_spectra())
@_with_examples(EDGE_SPECTRA)
def test_closed_step_is_the_quotient_of_consecutive_counts(cell):
    form, length, k, q = cell
    dims = hull_dims(form, length, k)
    counts = [closed_count(form, length, k, ell, q) for ell in dims]
    for i, ell in enumerate(dims[:-1]):
        num, den = closed_step(form, length, k, ell, q)
        assert Fraction(num, den) == Fraction(counts[i + 1], counts[i])


@settings(max_examples=100, deadline=None)
@given(wide_cells(forms=(H,)))
def test_classify_hermitian_count_monotone_against_the_two_counts(cell):
    _, n, k, ell, q = cell
    try:
        cls = classify_hermitian(n, k, ell, q)
    except HullCountError:
        assert ell not in hull_dims(H, n, k)[:-1]
        return
    # every accepted cell has both l and l + 1 in the counting range
    assert ell in hull_dims(H, n, k) and ell + 1 in hull_dims(H, n, k)
    lo, hi = closed_count(H, n, k, ell, q), closed_count(H, n, k, ell + 1, q)
    assert cls.count_monotone == (lo > hi)
