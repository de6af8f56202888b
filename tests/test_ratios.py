"""Ratio factors, exception classification, asymptotic limits."""

from fractions import Fraction

import pytest

from hullcount import ratios
from hullcount.algebra import FormKind, make_field
from hullcount.exactnum import gaussian_binomial
from hullcount.errors import (
    BadRangeError,
    BadRegimeError,
    EvenCharacteristicError,
    HullCountError,
    OutOfValidRangeError,
    ParityViolationError,
)
from hullcount.formulas import (
    HermitianParams,
    SymplecticParams,
    closed_count,
    closed_spectrum,
    count_hermitian,
    count_symplectic,
    hull_dims,
)
from hullcount.ratios import (
    AsymptoticRegime,
    RatioClassification,
    alpha_euclidean,
    alpha_hermitian,
    alpha_symplectic,
    asymptotic_hermitian,
    asymptotic_symplectic,
    classify_hermitian,
    classify_symplectic,
    comparison_rows,
    euclidean_spectrum,
    in_symplectic_exception,
    quadratic_character,
    ratio_report,
)
from hullcount.oracle import subspace_count


def test_alpha_hermitian_values():
    assert alpha_hermitian(4, 1, 0, 2) == Fraction(8, 9)
    assert alpha_hermitian(4, 2, 0, 2) == Fraction(8, 3)
    # table row check: 40 = alpha * (2 - 1) * 45
    assert Fraction(40) == Fraction(8, 9) * 1 * 45


def test_alpha_hermitian_boundary_formula():
    # on the boundary family the general formula collapses to
    # q^max(a,b) / (q^max(a,b) + 1)
    for q in (2, 3, 4):
        for n in range(2, 9, 2):
            for k in (1, n - 1):
                a, b = k, n - k
                expected = Fraction(q ** max(a, b), q ** max(a, b) + 1)
                assert alpha_hermitian(n, k, 0, q) == expected


def test_alpha_hermitian_range():
    with pytest.raises(OutOfValidRangeError):
        alpha_hermitian(6, 3, 3, 2)
    with pytest.raises(OutOfValidRangeError):
        alpha_hermitian(4, 4, 0, 2)
    with pytest.raises(OutOfValidRangeError):
        alpha_hermitian(4, 1, -1, 2)


def test_alpha_symplectic_values():
    assert alpha_symplectic(4, 2, 0, 2) == Fraction(4, 9)
    assert alpha_symplectic(8, 4, 0, 2) == Fraction(64, 225)
    assert alpha_symplectic(4, 2, 0, 3) == Fraction(9, 64)
    # table row check at q = 3: 90 = (9/64) * (2 * 8) * 40
    assert Fraction(9, 64) * 16 * 40 == 90


def test_alpha_symplectic_range_and_parity():
    with pytest.raises(ParityViolationError):
        alpha_symplectic(4, 3, 0, 2)
    with pytest.raises(OutOfValidRangeError):
        alpha_symplectic(4, 2, 2, 2)
    with pytest.raises(OutOfValidRangeError):
        alpha_symplectic(4, 4, 0, 2)


def test_alpha_euclidean_examples():
    assert alpha_euclidean(5, 2, 0, 3) == Fraction(9, 8)
    assert alpha_euclidean(4, 1, 0, 3) == Fraction(3, 4)
    assert alpha_euclidean(4, 1, 0, 2) == Fraction(8, 7)


def test_alpha_euclidean_range():
    with pytest.raises(OutOfValidRangeError):
        alpha_euclidean(4, 3, 0, 2)
    with pytest.raises(OutOfValidRangeError):
        alpha_euclidean(4, 2, 2, 2)
    with pytest.raises(OutOfValidRangeError):
        alpha_euclidean(4, 0, 0, 2)


def test_alpha_euclidean_vanishing_successor():
    # eta = -1 branch with l = n/2 - 1: the hull-(l+1) count is zero and
    # no finite factor exists
    with pytest.raises(OutOfValidRangeError):
        alpha_euclidean(2, 1, 0, 3)
    with pytest.raises(OutOfValidRangeError):
        alpha_euclidean(6, 3, 2, 3)


def test_alpha_euclidean_even_q_always_above_one():
    for n in range(2, 9):
        for k in range(1, n // 2 + 1):
            for ell in range(k):
                for q in (2, 4, 8):
                    assert alpha_euclidean(n, k, ell, q) > 1


def test_quadratic_character_values():
    assert quadratic_character(1, 3) == 1
    assert quadratic_character(-1, 3) == -1
    assert quadratic_character(-1, 5) == 1
    assert quadratic_character(0, 7) == 0
    assert quadratic_character(-1, 9) == 1
    f9 = make_field(3, 2)
    squares = {(e * e).code for e in f9.elements() if not e.is_zero()}
    for e in f9.elements():
        expected = 0 if e.is_zero() else (1 if e.code in squares else -1)
        assert quadratic_character(e, 9) == expected
    with pytest.raises(EvenCharacteristicError):
        quadratic_character(1, 4)
    # the field-element branch checks the element's own field
    with pytest.raises(EvenCharacteristicError):
        quadratic_character(make_field(2, 2).one, 4)
    with pytest.raises(BadRangeError):
        quadratic_character(f9.one, 3)
    # a bool is an int, reduced into the prime field like any other
    assert quadratic_character(True, 3) == 1
    assert quadratic_character(False, 5) == 0


def test_classify_hermitian_examples():
    out = classify_hermitian(4, 1, 0, 2)
    assert out.classification is RatioClassification.HERMITIAN_BOUNDARY
    assert not out.ratio_monotone
    assert not out.count_monotone
    out = classify_hermitian(4, 1, 0, 3)
    assert out.classification is RatioClassification.HERMITIAN_BOUNDARY
    assert out.ratio_monotone
    assert out.count_monotone
    out = classify_hermitian(6, 3, 1, 2)
    assert out.classification is RatioClassification.STRICTLY_ABOVE_ONE
    assert out.ratio_monotone


def test_classify_hermitian_accepts_exactly_the_cells_with_a_successor():
    # count_monotone comes from closed_step, which needs l and l + 1 both in
    # the counting range: every cell classify_hermitian accepts has them
    H = FormKind.HERMITIAN
    for q in (2, 3, 4):
        for n in range(9):
            for k in range(-1, n + 2):
                dims = hull_dims(H, n, k)
                for ell in range(-2, n + 2):
                    try:
                        cls = classify_hermitian(n, k, ell, q)
                    except HullCountError:
                        assert ell not in dims[:-1]
                        continue
                    assert ell in dims and ell + 1 in dims
                    lo, hi = closed_count(H, n, k, ell, q), closed_count(H, n, k, ell + 1, q)
                    assert cls.count_monotone == (lo > hi)
    with pytest.raises(BadRangeError, match="q must be a prime power, got 6"):
        classify_hermitian(4, 2, 0, 6)


def test_classify_hermitian_contradiction_raises(monkeypatch):
    # (4, 1, 0, 2) is a boundary cell, so alpha must be below one there
    monkeypatch.setattr(ratios, "alpha_hermitian", lambda n, k, ell, q: Fraction(2))
    with pytest.raises(ArithmeticError):
        classify_hermitian(4, 1, 0, 2)


def test_classify_symplectic_examples():
    out = classify_symplectic(8, 4, 0, 2)
    assert out.classification is RatioClassification.SYMPLECTIC_EXCEPTION_ES
    assert not out.count_monotone
    assert 91392 < 107100
    out = classify_symplectic(8, 2, 0, 2)
    assert out.classification is RatioClassification.STRICTLY_ABOVE_ONE
    assert out.count_monotone
    assert 5440 > 5355
    out = classify_symplectic(8, 4, 0, 3)
    assert out.classification is RatioClassification.STRICTLY_ABOVE_ONE
    assert out.count_monotone


def test_hermitian_ratio_identity_grid():
    for q in (2, 3, 4):
        for n in range(2, 9):
            for k in range(1, n):
                for ell in range(min(k, n - k)):
                    alpha = alpha_hermitian(n, k, ell, q)
                    lhs = count_hermitian(HermitianParams(n, k, ell, q))
                    rhs = count_hermitian(HermitianParams(n, k, ell + 1, q))
                    assert Fraction(lhs) == alpha * (q ** (ell + 1) - 1) * rhs


def test_symplectic_ratio_identity_grid():
    for q in (2, 3):
        for two_n in range(2, 13, 2):
            for k in range(two_n + 1):
                first = k % 2
                for ell in range(first, min(k, two_n - k) - 1, 2):
                    alpha = alpha_symplectic(two_n, k, ell, q)
                    cof = (q ** (ell + 1) - 1) * (q ** (ell + 2) - 1)
                    lhs = count_symplectic(SymplecticParams(two_n, k, ell, q))
                    rhs = count_symplectic(SymplecticParams(two_n, k, ell + 2, q))
                    assert Fraction(lhs) == alpha * cof * rhs


def test_hermitian_lower_bound_and_boundary_set():
    for q in (2, 3, 4):
        floor = Fraction(q, q + 1)
        for n in range(2, 9):
            for k in range(1, n):
                for ell in range(min(k, n - k)):
                    alpha = alpha_hermitian(n, k, ell, q)
                    assert alpha >= floor
                    in_family = ell == 0 and n % 2 == 0 and k in (1, n - 1)
                    assert (alpha < 1) == in_family


def test_symplectic_exception_set_equality():
    for q in (2, 3):
        for two_n in range(2, 13, 2):
            for k in range(two_n + 1):
                first = k % 2
                for ell in range(first, min(k, two_n - k) - 1, 2):
                    out = classify_symplectic(two_n, k, ell, q)
                    direct = count_symplectic(
                        SymplecticParams(two_n, k, ell, q)
                    ) > count_symplectic(SymplecticParams(two_n, k, ell + 2, q))
                    assert out.count_monotone == direct
                    assert (not direct) == in_symplectic_exception(two_n, k, ell, q)


def test_ratio_report_fields():
    rep = ratio_report(FormKind.HERMITIAN, 4, 2, 0, 2)
    assert rep.step == 1
    assert rep.alpha == Fraction(8, 3)
    assert rep.cofactor == 1
    assert rep.full_ratio == Fraction(8, 3)
    assert rep.monotone_a
    rep = ratio_report(FormKind.SYMPLECTIC, 8, 4, 0, 2)
    assert rep.step == 2
    assert rep.cofactor == 3
    assert rep.full_ratio == Fraction(91392, 107100)
    assert not rep.monotone_a
    rep = ratio_report(FormKind.EUCLIDEAN, 4, 1, 0, 3)
    assert rep.classification is RatioClassification.EUCLIDEAN_HALF_BOUND
    assert rep.alpha == Fraction(3, 4)
    assert not rep.equality_boundary
    cells = [
        (form, length, k, q)
        for form in FormKind
        for q in (2, 3, 4, 5, 9)
        for length in range(2, 15, 2 if form is FormKind.SYMPLECTIC else 1)
        for k in range(1, (length // 2 if form is FormKind.EUCLIDEAN else length) + 1)
    ]
    for form, length, k, q in cells:
        for ell in hull_dims(form, length, k)[:-1]:
            try:
                rep = ratio_report(form, length, k, ell, q)
            except OutOfValidRangeError:  # the Euclidean cells with no finite ratio
                continue
            assert rep.full_ratio == rep.alpha * rep.cofactor
            assert rep.monotone_a == (rep.full_ratio > 1)


def test_euclidean_equality_boundary_metadata():
    rep = ratio_report(FormKind.EUCLIDEAN, 4, 2, 1, 3)
    assert rep.alpha == Fraction(1, 2)
    assert rep.equality_boundary
    rep = ratio_report(FormKind.EUCLIDEAN, 4, 1, 0, 3)
    assert rep.alpha > Fraction(1, 2)
    assert not rep.equality_boundary


def test_asymptotic_hermitian():
    joint = asymptotic_hermitian(AsymptoticRegime.JOINT, 0, 2)
    assert joint.limit == Fraction(3, 2)
    assert asymptotic_hermitian(AsymptoticRegime.JOINT, 0, 3).limit == Fraction(8, 3)
    boundary = asymptotic_hermitian(AsymptoticRegime.BOUNDARY_FIXED_A, 0, 2, a=1)
    assert boundary.limit == 1
    with pytest.raises(BadRegimeError):
        asymptotic_hermitian(AsymptoticRegime.JOINT, 0, 2, a=3)
    with pytest.raises(BadRegimeError):
        asymptotic_hermitian(AsymptoticRegime.BOUNDARY_FIXED_A, 0, 2)
    with pytest.raises(BadRegimeError, match=r"^need l >= 0, got l=-1$"):
        asymptotic_hermitian(AsymptoticRegime.JOINT, -1, 2)


def test_asymptotic_symplectic():
    assert asymptotic_symplectic(AsymptoticRegime.JOINT, 0, 2).limit == Fraction(3, 4)
    assert asymptotic_symplectic(AsymptoticRegime.JOINT, 1, 2).limit == Fraction(21, 4)
    assert asymptotic_symplectic(AsymptoticRegime.JOINT, 0, 3).limit == Fraction(16, 9)
    with pytest.raises(BadRegimeError):
        asymptotic_symplectic(AsymptoticRegime.BOUNDARY_FIXED_A, 0, 2, a=3)


@pytest.mark.parametrize("q", [6, 10])
def test_non_prime_power_q_rejected(q):
    with pytest.raises(BadRangeError):
        alpha_hermitian(4, 2, 0, q)
    with pytest.raises(BadRangeError):
        alpha_symplectic(4, 2, 0, q)
    with pytest.raises(BadRangeError):
        asymptotic_hermitian(AsymptoticRegime.JOINT, 0, q)
    with pytest.raises(BadRangeError):
        asymptotic_symplectic(AsymptoticRegime.BOUNDARY_FIXED_A, 0, q, a=2)
    with pytest.raises(BadRangeError, match=rf"^q must be a prime power, got {q}$"):
        comparison_rows((2, q))


@pytest.mark.parametrize("q", [0, 1])
@pytest.mark.parametrize(
    "call",
    [
        lambda q: asymptotic_hermitian(AsymptoticRegime.JOINT, 0, q),
        lambda q: asymptotic_symplectic(AsymptoticRegime.JOINT, 0, q),
        lambda q: subspace_count(4, 2, q),
    ],
    ids=["asymptotic_hermitian", "asymptotic_symplectic", "subspace_count"],
)
def test_orders_below_two_are_not_prime_powers(call, q):
    # prime_power_parts is the one q check, with one message for every q
    with pytest.raises(BadRangeError, match=rf"^q must be a prime power, got {q}$"):
        call(q)


def test_hermitian_ratio_converges_to_joint_limit():
    # exact count ratios at growing a = b approach the joint limit with
    # strictly shrinking error
    for q in (2, 3):
        for ell in (0, 1):
            limit = asymptotic_hermitian(AsymptoticRegime.JOINT, ell, q).limit
            last = None
            for a in (2, 4, 6, 8):
                n = 2 * a + 2 * ell
                k = a + ell
                num = count_hermitian(HermitianParams(n, k, ell, q))
                den = count_hermitian(HermitianParams(n, k, ell + 1, q))
                gap = abs(Fraction(num, den) - limit)
                if last is not None:
                    assert gap < last
                last = gap


def test_symplectic_ratio_converges_to_joint_limit():
    for q in (2, 3):
        for ell in (0, 1):
            limit = asymptotic_symplectic(AsymptoticRegime.JOINT, ell, q).limit
            last = None
            for a in (2, 4, 6, 8):
                two_n = 2 * a + 2 * ell
                k = a + ell
                num = count_symplectic(SymplecticParams(two_n, k, ell, q))
                den = count_symplectic(SymplecticParams(two_n, k, ell + 2, q))
                gap = abs(Fraction(num, den) - limit)
                if last is not None:
                    assert gap < last
                last = gap


@pytest.mark.parametrize(
    "form, asymptotic, a_values, ambient",
    [
        (FormKind.HERMITIAN, asymptotic_hermitian, (1, 2, 3), lambda n: n),
        (FormKind.SYMPLECTIC, asymptotic_symplectic, (2, 4), lambda n: 2 * n),
    ],
)
def test_ratio_converges_to_boundary_limit(form, asymptotic, a_values, ambient):
    # with a = k - l fixed, exact count ratios approach the boundary limit
    # with strictly shrinking error as the length grows, on both parities
    for q in (2, 3):
        for ell in (0, 1):
            for a in a_values:
                limit = asymptotic(AsymptoticRegime.BOUNDARY_FIXED_A, ell, q, a=a).limit
                gaps = []
                for n in (10, 11, 12, 13, 20, 21):
                    counts = closed_spectrum(form, ambient(n), ell + a, q)
                    step = hull_dims(form, ambient(n), ell + a).step
                    gaps.append(abs(Fraction(counts[ell], counts[ell + step]) - limit))
                assert all(later < earlier for earlier, later in zip(gaps, gaps[1:]))


def test_comparison_rows():
    rows = comparison_rows((2, 3))
    by_form = {row.form: row for row in rows}
    assert [row.step for row in rows] == [1, 1, 2]
    assert by_form[FormKind.EUCLIDEAN].count_ratio_limits[2] == Fraction(3, 2)
    assert by_form[FormKind.HERMITIAN].count_ratio_limits[2] == Fraction(3, 2)
    assert by_form[FormKind.SYMPLECTIC].count_ratio_limits[2] == Fraction(3, 4)
    assert by_form[FormKind.HERMITIAN].count_ratio_limits[3] == Fraction(8, 3)
    assert by_form[FormKind.SYMPLECTIC].count_ratio_limits[3] == Fraction(16, 9)
    assert by_form[FormKind.HERMITIAN].alpha_lower_bound.startswith("q/(q+1)")


# -- the Euclidean chain ----------------------------------------------------------

# every Euclidean cell of at most this many subspaces at n <= 8, q in QS: 218
# cells, about 2 s of enumeration
CHAIN_SWEEP_SUBSPACES = 30_000
QS = (2, 3, 4, 5, 7, 8, 9)


def test_euclidean_spectrum_equals_the_oracle():
    # the oracle is the chain's independent route: every k, k > n/2 and the
    # cells where no self-dual code exists included
    from hullcount.oracle import field_for, hull_spectrum

    cells = [
        (n, k, q)
        for q in QS
        for n in range(9)
        for k in range(n + 1)
        if gaussian_binomial(n, k, q) <= CHAIN_SWEEP_SUBSPACES
    ]
    assert len(cells) == 218
    E = FormKind.EUCLIDEAN
    for n, k, q in cells:
        oracle = hull_spectrum(n, k, field_for(E, q), E).counts
        assert euclidean_spectrum(n, k, q) == oracle, (n, k, q)


@pytest.mark.parametrize("n, k, q, expected", [
    (2, 1, 3, {0: 4}),  # no self-dual code of length 2 over F_3
    (6, 4, 3, {0: 7371, 1: 3360, 2: 280}),
    (6, 2, 3, {0: 7371, 1: 3360, 2: 280}),
    (4, 2, 3, {0: 90, 1: 32, 2: 8}),
    # the oracle's tally of 25,734,890 subspaces, about 30 s to enumerate
    (5, 2, 17, {0: 24221090, 1: 1508580, 2: 5220}),
    (0, 0, 2, {0: 1}),
    (7, 0, 5, {0: 1}),
])
def test_euclidean_spectrum_pins(n, k, q, expected):
    spectrum = euclidean_spectrum(n, k, q)
    assert spectrum == expected
    assert list(spectrum) == sorted(expected)


@pytest.mark.parametrize("cell, message", [
    ((4, 2, 6), "q must be a prime power, got 6"),
    ((3, 5, 2), "need 0 <= k <= n, got n=3 k=5"),
    ((-1, 0, 2), "need 0 <= k <= n, got n=-1 k=0"),
    ((3, -1, 2), "need 0 <= k <= n, got n=3 k=-1"),
])
def test_euclidean_spectrum_checks_its_cell(cell, message):
    with pytest.raises(BadRangeError, match=message):
        euclidean_spectrum(*cell)


@pytest.mark.parametrize("n, k, ell, q", [(4, 2, 0, 3), (6, 3, 1, 3), (7, 3, 2, 2)])
def test_a_wrong_ratio_raises_instead_of_returning(monkeypatch, n, k, ell, q):
    real = ratios.alpha_euclidean

    def doubled_at_the_cell(*args):
        alpha = real(*args)
        return 2 * alpha if args == (n, k, ell, q) else alpha

    monkeypatch.setattr(ratios, "alpha_euclidean", doubled_at_the_cell)
    with pytest.raises(ArithmeticError, match="non-integral count"):
        euclidean_spectrum(n, k, q)
