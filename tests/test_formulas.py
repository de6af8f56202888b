"""Closed-form mass formulas and the LCD counts."""

from fractions import Fraction

import pytest

from hullcount import formulas
from hullcount.algebra import FormKind
from hullcount.errors import BadIndexError, BadRangeError, OddAmbientError
from hullcount.exactnum import gaussian_binomial
from hullcount.formulas import (
    HermitianParams,
    SymplecticParams,
    closed_count,
    closed_spectrum,
    closed_step,
    count_hermitian,
    count_symplectic,
    hermitian_lcd_count,
    hull_dims,
    symplectic_lcd_count,
    unified_factor,
)

# Reference count tables, frozen. One tuple per (length, k, q) row,
# counts listed by increasing hull dimension.
HERMITIAN_TABLE = {
    (4, 1, 2): (40, 45),
    (5, 1, 2): (176, 165),
    (6, 1, 2): (672, 693),
    (7, 1, 2): (2752, 2709),
    (4, 2, 2): (240, 90, 27),
    (5, 2, 2): (3520, 1980, 297),
    (6, 2, 2): (59136, 27720, 6237),
    (6, 3, 2): (197120, 166320, 12474, 891),
    (7, 2, 2): (924672, 476784, 89397),
    (7, 3, 2): (13561856, 9535680, 1072764, 38313),
    (8, 2, 2): (14970880, 7368480, 1519749),
    (4, 1, 3): (540, 280),
    (5, 1, 3): (4941, 2440),
    (6, 1, 3): (44226, 22204),
    (4, 2, 3): (5670, 1680, 112),
    (5, 2, 3): (444690, 153720, 6832),
    (6, 2, 3): (36420111, 11990160, 621712),
    (6, 3, 3): (312172380, 125896680, 3730272, 27328),
}
SYMPLECTIC_TABLE = {
    (4, 2, 2): (20, 15),
    (6, 2, 2): (336, 315),
    (8, 2, 2): (5440, 5355),
    (8, 4, 2): (91392, 107100, 2295),
    (10, 2, 2): (87296, 86955),
    (10, 4, 2): (23744512, 29216880, 782595),
    (12, 4, 2): (6100942848, 7596388800, 213648435),
    (12, 6, 2): (98777169920, 127619331840, 4272968700, 4922775),
    (4, 2, 3): (90, 40),
    (6, 2, 3): (7371, 3640),
    (8, 2, 3): (597780, 298480),
    (8, 4, 3): (48958182, 26863200, 91840),
}


def test_hermitian_lcd_examples():
    assert hermitian_lcd_count(6, 0, 5) == 1
    assert hermitian_lcd_count(4, 1, 2) == 40
    assert hermitian_lcd_count(4, 2, 3) == 5670
    with pytest.raises(BadRangeError):
        hermitian_lcd_count(4, 5, 2)
    with pytest.raises(BadRangeError):
        hermitian_lcd_count(4, -1, 2)


def test_symplectic_lcd_examples():
    assert symplectic_lcd_count(5, 0, 3) == 1
    assert symplectic_lcd_count(2, 1, 2) == 20
    assert symplectic_lcd_count(4, 2, 2) == 91392
    with pytest.raises(BadRangeError):
        symplectic_lcd_count(2, 3, 2)


def test_unified_factor_value():
    params = HermitianParams(4, 2, 1, 2)
    assert params.k0 == 1 and params.s == 3 and params.eps == 1
    assert unified_factor(1, params) == Fraction(9, 4)
    # consistency: F_1 * L recovers the count
    assert Fraction(9, 4) * 40 == count_hermitian(params)


def test_unified_factor_sign_rule():
    assert HermitianParams(4, 2, 2, 2).eps == -1
    assert HermitianParams(5, 2, 2, 2).eps == 1


def test_unified_factor_index_range():
    params = HermitianParams(4, 2, 1, 2)
    with pytest.raises(BadIndexError):
        unified_factor(0, params)
    with pytest.raises(BadIndexError):
        unified_factor(2, params)


@pytest.mark.parametrize("params", [
    HermitianParams(0, -2, 1, 2),  # k0 < 0: q^(2*k0) is no integer
    HermitianParams(1, 1, 1, 2),  # l > n - k: the factor reads 0
])
def test_unified_factor_refuses_a_cell_without_that_hull(params):
    with pytest.raises(BadRangeError, match="is not a hull dimension"):
        unified_factor(1, params)


def _a_branch(n: int, k0: int, i: int, q: int) -> Fraction:
    s = n - k0
    return Fraction(
        (q ** (s - 2 * i + 2) + 1) * (q ** (s - 2 * i + 1) - 1),
        q ** (2 * k0) * (q ** (2 * i) - 1),
    )


def _b_branch(n: int, k0: int, i: int, q: int) -> Fraction:
    s = n - k0
    return Fraction(
        (q ** (s - 2 * i + 2) - 1) * (q ** (s - 2 * i + 1) + 1),
        q ** (2 * k0) * (q ** (2 * i) - 1),
    )


def test_unified_factor_matches_parity_branches():
    # the single eps-form must agree with the two separately stated
    # branch formulas on the whole small grid
    for q in (2, 3, 4):
        for n in range(2, 11):
            for k in range(1, n + 1):
                for ell in range(1, min(k, n - k) + 1):
                    params = HermitianParams(n, k, ell, q)
                    k0, s = params.k0, params.s
                    for i in range(1, ell + 1):
                        expected = (
                            _a_branch(n, k0, i, q)
                            if s % 2 == 1
                            else _b_branch(n, k0, i, q)
                        )
                        assert unified_factor(i, params) == expected


def test_unified_factor_is_the_quotient_of_two_counts():
    # F_i = A_H(n, k0+i, i) / A_H(n, k0+i-1, i-1): k and l step together
    # at fixed k0 = k - l, unlike closed_step, which holds k
    checked = 0
    for q in (2, 3, 4, 5):
        for n in range(13):
            for k in range(n + 1):
                for ell in hull_dims(FormKind.HERMITIAN, n, k):
                    params = HermitianParams(n, k, ell, q)
                    k0 = params.k0
                    for i in range(1, ell + 1):
                        after = count_hermitian(HermitianParams(n, k0 + i, i, q))
                        before = count_hermitian(HermitianParams(n, k0 + i - 1, i - 1, q))
                        assert unified_factor(i, params) == Fraction(after, before)
                        checked += 1
    assert checked == 1344


def test_hermitian_table_rows():
    for (n, k, q), counts in HERMITIAN_TABLE.items():
        for ell, expected in enumerate(counts):
            assert count_hermitian(HermitianParams(n, k, ell, q)) == expected
        assert closed_spectrum(FormKind.HERMITIAN, n, k, q) == dict(enumerate(counts))


def test_symplectic_table_rows():
    for (two_n, k, q), counts in SYMPLECTIC_TABLE.items():
        for idx, expected in enumerate(counts):
            params = SymplecticParams(two_n, k, 2 * idx, q)
            assert count_symplectic(params) == expected
        expected = {2 * idx: count for idx, count in enumerate(counts)}
        assert closed_spectrum(FormKind.SYMPLECTIC, two_n, k, q) == expected


def test_factor_product_clears_denominators_despite_fractional_steps():
    # individual factors need not be integral; the full product must be
    params = HermitianParams(6, 3, 3, 2)
    factors = [unified_factor(i, params) for i in range(1, 4)]
    assert any(f.denominator > 1 for f in factors)
    assert count_hermitian(params) == 891


def test_hermitian_out_of_range_counts_zero():
    assert count_hermitian(HermitianParams(4, 5, 0, 2)) == 0
    assert count_hermitian(HermitianParams(4, 2, 3, 2)) == 0
    assert count_hermitian(HermitianParams(4, 1, 2, 2)) == 0


def test_symplectic_parity_vanishing():
    assert count_symplectic(SymplecticParams(4, 3, 0, 2)) == 0
    for two_n in (4, 6, 8):
        for k in range(two_n + 1):
            for ell in range(k + 1):
                if (k - ell) % 2 == 1:
                    assert count_symplectic(SymplecticParams(two_n, k, ell, 2)) == 0


def test_symplectic_ambient_is_full_length():
    # the same (k, l, q) over ambient 4 counts 15; over ambient 2 the cell
    # is out of range and counts 0
    assert count_symplectic(SymplecticParams(4, 2, 2, 2)) == 15
    assert count_symplectic(SymplecticParams(2, 2, 2, 2)) == 0


def test_symplectic_odd_ambient_rejected():
    with pytest.raises(OddAmbientError):
        SymplecticParams(5, 2, 0, 2)


def _symplectic_printed_form(params: SymplecticParams) -> Fraction:
    """Mis-indexed variant of the symplectic count: the running index enters
    the numerator undoubled and the denominator doubled, which breaks the
    telescoping and stops the product from being an integer."""
    q, ell, k0 = params.q, params.ell, (params.k - params.ell) // 2
    n = params.two_n // 2
    acc = Fraction(q ** (2 * k0 * (n - k0 - ell)))
    for m in range(1, ell + 1):
        acc *= Fraction(q ** (2 * (n - k0) - ell + m) - 1, q ** (2 * m) - 1)
    return acc * gaussian_binomial(n, k0, q * q)


def test_printed_form_fails_where_corrected_form_works():
    params = SymplecticParams(4, 2, 2, 2)
    assert _symplectic_printed_form(params) == Fraction(7, 3)
    assert count_symplectic(params) == 15


def test_hermitian_spectrum_completeness():
    for q in (2, 3):
        for n in range(1, 9):
            for k in range(1, n):
                total = sum(
                    count_hermitian(HermitianParams(n, k, ell, q))
                    for ell in range(min(k, n - k) + 1)
                )
                assert total == gaussian_binomial(n, k, q * q)


def test_symplectic_spectrum_completeness():
    for q in (2, 3):
        for two_n in range(2, 13, 2):
            for k in range(two_n + 1):
                total = sum(
                    count_symplectic(SymplecticParams(two_n, k, ell, q))
                    for ell in range(k % 2, min(k, two_n - k) + 1, 2)
                )
                assert total == gaussian_binomial(two_n, k, q)


def test_zero_hull_reduces_to_lcd_counts():
    for q in (2, 3):
        for n in range(1, 7):
            for k in range(n + 1):
                assert count_hermitian(
                    HermitianParams(n, k, 0, q)
                ) == hermitian_lcd_count(n, k, q)
    for q in (2, 3):
        for n_half in range(1, 5):
            for k0 in range(n_half + 1):
                assert count_symplectic(
                    SymplecticParams(2 * n_half, 2 * k0, 0, q)
                ) == symplectic_lcd_count(n_half, k0, q)


def test_counts_are_nonnegative_integers_on_grid():
    for q in (2, 3, 4):
        for n in range(9):
            for k in range(n + 1):
                for ell in range(min(k, n - k) + 1):
                    value = count_hermitian(HermitianParams(n, k, ell, q))
                    assert isinstance(value, int) and value >= 0
    for q in (2, 3):
        for two_n in range(0, 13, 2):
            for k in range(two_n + 1):
                for ell in range(k % 2, min(k, two_n - k) + 1, 2):
                    value = count_symplectic(SymplecticParams(two_n, k, ell, q))
                    assert isinstance(value, int) and value >= 0


def test_params_validation():
    with pytest.raises(BadRangeError):
        HermitianParams(-1, 0, 0, 2)
    with pytest.raises(BadRangeError):
        HermitianParams(4, 2, 0, 6)
    with pytest.raises(BadRangeError):
        SymplecticParams(4, 2, 0, 12)


def test_lcd_counts_reject_non_prime_power_q():
    with pytest.raises(BadRangeError, match="q must be a prime power, got 6"):
        hermitian_lcd_count(4, 1, 6)
    with pytest.raises(BadRangeError, match="q must be a prime power, got 6"):
        symplectic_lcd_count(2, 1, 6)


def test_hull_dims_and_closed_count():
    assert hull_dims(FormKind.HERMITIAN, 6, 4) == range(0, 3)
    assert hull_dims(FormKind.EUCLIDEAN, 7, 3) == range(0, 4)
    assert hull_dims(FormKind.SYMPLECTIC, 10, 3) == range(1, 4, 2)
    assert hull_dims(FormKind.SYMPLECTIC, 8, 4) == range(0, 5, 2)
    assert [closed_count(FormKind.SYMPLECTIC, 8, 4, ell, 2) for ell in (0, 2, 4)] == [
        91392, 107100, 2295,
    ]
    assert closed_count(FormKind.HERMITIAN, 4, 1, 1, 2) == 45
    with pytest.raises(BadRangeError):
        closed_count(FormKind.EUCLIDEAN, 4, 2, 0, 2)


def _hand_step(form, length, k, ell, q, sign=-1, q_shift=0):
    """count(l + step) / count(l) as the written-out quotient: hermitian
    |(-q)^b - 1| |(-q)^(k-l) - 1| / ((q^(2(l+1)) - 1) q^(n-2l-1)) with
    b = n - k - l; symplectic (q^(2b) - 1)(q^(2k0) - 1) /
    ((q^(l+1) - 1)(q^(l+2) - 1) q^(2(k0+b-1))) with b = n - k0 - l.
    sign = +1 turns the -1 of the first factor into +1; q_shift moves
    powers of q into (or, negative, out of) the denominator."""
    if form is FormKind.HERMITIAN:
        b, a = length - k - ell, k - ell
        num = (q ** b + sign * (-1) ** b) * (q ** a - (-1) ** a)
        den = (q ** (2 * (ell + 1)) - 1) * q ** (length - 2 * ell - 1)
    else:
        k0 = (k - ell) // 2
        b = length // 2 - k0 - ell
        num = (q ** (2 * b) + sign) * (q ** (2 * k0) - 1)
        den = (q ** (ell + 1) - 1) * (q ** (ell + 2) - 1) * q ** (2 * (k0 + b - 1))
    return num, den * q ** q_shift if q_shift >= 0 else den // q ** -q_shift


STEP_CELLS = [
    (form, length, k, q)
    for form, lengths in (
        (FormKind.HERMITIAN, range(1, 10)),
        (FormKind.SYMPLECTIC, range(2, 20, 2)),
    )
    for q in (2, 3, 4, 5)
    for length in lengths
    for k in range(length + 1)
    if len(hull_dims(form, length, k)) > 1
]


def test_closed_step_is_the_written_out_quotient():
    for form, length, k, q in STEP_CELLS:
        for ell in hull_dims(form, length, k)[:-1]:
            num, den = closed_step(form, length, k, ell, q)
            hand_num, hand_den = _hand_step(form, length, k, ell, q)
            assert num * hand_den == hand_num * den


@pytest.mark.parametrize(
    "mutation, raised",
    [
        ({"sign": 1}, "some"),  # the first factor's -1 becomes +1
        ({"q_shift": 1}, "all"),  # one power of q too many under the line
        ({"q_shift": -1}, "none"),  # one too few: every count gains powers of q
    ],
)
def test_a_wrong_step_factor_is_caught(monkeypatch, mutation, raised):
    # closed_spectrum's integrality check rejects the spectrum, or the
    # spectrum differs from the cell-by-cell counts
    monkeypatch.setattr(formulas, "closed_step", lambda *cell: _hand_step(*cell, **mutation))
    rejected = 0
    for form, length, k, q in STEP_CELLS:
        try:
            spectrum = closed_spectrum(form, length, k, q)
        except ArithmeticError:
            rejected += 1
            continue
        dims = hull_dims(form, length, k)
        assert spectrum != {ell: closed_count(form, length, k, ell, q) for ell in dims}
    share = "none" if rejected == 0 else "all" if rejected == len(STEP_CELLS) else "some"
    assert share == raised


def test_closed_step_and_spectrum_check_their_cell():
    H, S = FormKind.HERMITIAN, FormKind.SYMPLECTIC
    # the last l, below the range, off k's parity, the symplectic top, no dims
    for bad in ((H, 6, 3, 3, 2), (H, 6, 3, -1, 2), (S, 8, 4, 1, 2), (S, 8, 4, 4, 2),
                (H, 6, 7, 0, 2)):
        with pytest.raises(BadRangeError, match="no step from"):
            closed_step(*bad)
    with pytest.raises(OddAmbientError):
        closed_step(S, 7, 2, 0, 2)
    with pytest.raises(BadRangeError, match="q must be a prime power, got 6"):
        closed_step(H, 6, 3, 0, 6)
    with pytest.raises(BadRangeError, match="euclidean"):
        closed_step(FormKind.EUCLIDEAN, 6, 3, 0, 2)
    # odd ambients raise as from closed_count, also with no hull dimension
    for k in (2, 3, 9):
        with pytest.raises(OddAmbientError):
            closed_count(S, 7, k, k % 2, 2)
        with pytest.raises(OddAmbientError):
            closed_spectrum(S, 7, k, 2)
    with pytest.raises(BadRangeError, match="q must be a prime power, got 6"):
        closed_spectrum(H, 6, 9, 6)
    with pytest.raises(BadRangeError, match="euclidean"):
        closed_spectrum(FormKind.EUCLIDEAN, 6, 3, 2)
    assert closed_spectrum(H, 6, 9, 2) == closed_spectrum(S, 6, -1, 2) == {}
    assert closed_spectrum(S, 6, 3, 2) == {ell: closed_count(S, 6, 3, ell, 2) for ell in (1, 3)}
