"""Property tests of the closed forms and the ratio layer at larger n."""

from hypothesis import given, settings
from hypothesis import strategies as st

from hullcount.algebra import FormKind
from hullcount.exactnum import gaussian_binomial
from hullcount.formulas import closed_count, hull_dims
from hullcount.ratios import ratio_report

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
