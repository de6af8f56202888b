"""Gaussian binomials, the exact count evaluator and the arithmetic helpers."""

import functools
import gc
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hullcount import exactnum
from hullcount.algebra import FormKind
from hullcount.errors import BadRangeError
from hullcount.exactnum import (
    NEG_Q,
    Q,
    Q2,
    exact_count,
    exact_step,
    gaussian_binomial,
    is_prime,
    prime_power_parts,
    rat_str,
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

from naive_counts import (
    mod_count_hermitian,
    mod_count_symplectic,
    mod_gaussian_binomial,
    naive_count_hermitian,
    naive_count_symplectic,
    naive_cyclotomic,
    naive_gaussian_binomial,
)


def test_two_dim_subspaces_of_f2_4_counted_from_scratch():
    # independent ground truth: spans of vector pairs in F_2^4 as bitmask
    # sets closed under xor
    spans = set()
    for u in range(1, 16):
        for v in range(1, 16):
            span = {0, u, v, u ^ v}
            if len(span) == 4:
                spans.add(frozenset(span))
    assert len(spans) == 35
    assert gaussian_binomial(4, 2, 2) == 35


def test_lines_in_f4_4():
    assert gaussian_binomial(4, 1, 4) == (4 ** 4 - 1) // (4 - 1) == 85


def test_zero_dim_is_one():
    for n in range(6):
        assert gaussian_binomial(n, 0, 7) == 1


def test_out_of_range_k_counts_zero():
    assert gaussian_binomial(4, 5, 2) == 0
    assert gaussian_binomial(4, -1, 2) == 0


def test_bad_inputs_raise():
    with pytest.raises(BadRangeError):
        gaussian_binomial(-1, 0, 2)
    with pytest.raises(BadRangeError):
        gaussian_binomial(4, 2, 1)


def test_symmetry_and_pascal_grid():
    for order in (2, 3, 4, 5, 8, 9):
        for n in range(13):
            for k in range(n + 1):
                lhs = gaussian_binomial(n, k, order)
                assert lhs == gaussian_binomial(n, n - k, order)
                if n > 0:
                    assert lhs == gaussian_binomial(
                        n - 1, k - 1, order
                    ) + order ** k * gaussian_binomial(n - 1, k, order)


def test_explicit_small_values():
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(2, 1, 4) == 5
    assert gaussian_binomial(6, 2, 3) == 11011
    assert gaussian_binomial(8, 4, 2) == 200787


# the largest range end that takes each path: 0 sends every count through
# the cyclotomic product tree, a huge value every count through divmod
BOTH_PATHS = pytest.mark.parametrize("divmod_max_top", [0, 10**9], ids=["cyclotomic", "divmod"])


@BOTH_PATHS
def test_exact_count_factor_ranges(monkeypatch, divmod_max_top):
    monkeypatch.setattr(exactnum, "DIVMOD_MAX_TOP", divmod_max_top)
    # |(-q)^m - 1| is q^m + 1 for odd m and q^m - 1 for even m
    assert exact_count(3, 0, ((NEG_Q, 1, 4),), ()) == 4 * 8 * 28 * 80
    assert exact_count(3, 2, ((Q2, 2, 3),), ((Q, 1, 2),)) == 9 * 80 * 728 // (2 * 8)
    assert exact_count(5, 3, (), ()) == 125
    assert exact_count(2, 0, ((Q, 4, 3),), ()) == 1  # empty range


@BOTH_PATHS
def test_exact_count_rejects_non_integral_specs(monkeypatch, divmod_max_top):
    monkeypatch.setattr(exactnum, "DIVMOD_MAX_TOP", divmod_max_top)
    with pytest.raises(ArithmeticError):
        exact_count(3, 0, (), ((Q, 1, 1),))  # 1 / 2
    with pytest.raises(ArithmeticError):
        exact_count(3, 0, ((Q, 1, 3),), ((Q2, 1, 2),))  # 2 * 8 * 26 / (8 * 80)
    with pytest.raises(ArithmeticError):
        exact_count(2, -1, ((Q, 1, 3),), ())  # a negative power of q
    with pytest.raises(BadRangeError):
        exact_count(2, 0, ((Q, 0, 3),), ())  # the m = 0 factor is zero
    with pytest.raises(BadRangeError):
        exact_count(1, 0, ((Q, 1, 3),), ())


@BOTH_PATHS
def test_spectra_do_not_depend_on_the_path(monkeypatch, divmod_max_top):
    cells = [
        (form, length, k, q)
        for q in (2, 3, 4, 5, 8, 9)  # on the product path q^e is a shift at q = 2, 4, 8
        for form, length, k in (
            (FormKind.HERMITIAN, 30, 12),
            (FormKind.HERMITIAN, 90, 45),
            (FormKind.SYMPLECTIC, 60, 29),
            (FormKind.SYMPLECTIC, 180, 90),
        )
    ]

    def spectra():
        return [
            [closed_count(form, length, k, ell, q) for ell in hull_dims(form, length, k)]
            for form, length, k, q in cells
        ] + [closed_spectrum(form, length, k, q) for form, length, k, q in cells] + [
            gaussian_binomial(length, k, q) for _, length, k, q in cells
        ]

    expected = spectra()
    monkeypatch.setattr(exactnum, "DIVMOD_MAX_TOP", divmod_max_top)
    assert spectra() == expected


def _factors(bit_sizes, seed=0):
    """Random factors with the given bit lengths."""
    rng = random.Random(seed)
    return [rng.getrandbits(b) | 1 << b - 1 if b else 0 for b in bit_sizes]


def test_product_equals_math_prod_around_the_leaf_size():
    leaf = exactnum.LEAF_BITS
    cases = [
        [],
        [12345],
        _factors([leaf // 16] * 10),  # all below LEAF_BITS, folded at once
        _factors([leaf // 3 + 1] * 3),  # just over LEAF_BITS, split once
        _factors([leaf + 1, 5, leaf // 2, 3 * leaf]),
    ]
    for factors in cases:
        assert exactnum._product(factors) == math.prod(factors)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 100_000), max_size=16), st.integers(0, 2**32))
def test_product_equals_math_prod(bit_sizes, seed):
    factors = _factors(bit_sizes, seed)
    assert exactnum._product(factors) == math.prod(factors)


# a 64 * 27 = 1728-bit product takes three Toom-3 steps to reach 64 bits
LOW_TOOM_BITS = 64


def _low_toom_mul(a, b):
    """_mul(a, b) under TOOM_BITS = LOW_TOOM_BITS, and how deep its calls
    nest: 1 when it multiplies by `*` at once."""
    inner, depth, deepest = exactnum._mul, 0, 0

    def traced(x, y):
        nonlocal depth, deepest
        depth += 1
        deepest = max(deepest, depth)
        try:
            return inner(x, y)
        finally:
            depth -= 1

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactnum, "TOOM_BITS", LOW_TOOM_BITS)
        mp.setattr(exactnum, "_mul", traced)  # the recursion finds it by name
        return traced(a, b), deepest


def _ones(m):
    return (1 << m) - 1  # m one bits: the most carries


def test_toom_mul_on_edge_operands():
    big = _factors([3000], seed=1)[0]
    x64, y64, x128 = _factors([64, 64, 128], seed=2)
    cases = [  # (a, b, whether _mul must take a Toom-3 step)
        (0, 0, False),
        (0, big, False),
        (1, big, False),
        (big, 1, False),
        (big, big, True),
        (_ones(1728), _ones(1728), True),
        (_ones(1000), _ones(999), True),
        (_ones(3000), _ones(1500), True),  # the smaller has exactly half the bits
        (_ones(3000), _ones(1499), False),
        (_ones(63), _ones(63), False),  # either side of the threshold
        (x64, y64, True),
        (x128, y64, True),
        (x128, _ones(63), False),
        (big, _factors([100])[0], False),  # unbalanced
    ]
    for a, b, toom in cases:
        product, depth = _low_toom_mul(a, b)
        assert product == a * b, (a.bit_length(), b.bit_length())
        assert (depth > 1) == toom, (a.bit_length(), b.bit_length(), depth)
    assert _low_toom_mul(_ones(1728), _ones(1728))[1] >= 4  # three Toom-3 levels, then `*`


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 3000), max_size=16), st.integers(0, 2**32))
def test_product_equals_math_prod_under_a_low_toom_threshold(bit_sizes, seed):
    factors = _factors(bit_sizes, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactnum, "TOOM_BITS", LOW_TOOM_BITS)
        assert exactnum._product(factors) == math.prod(factors)


_TOOM_OPERANDS = st.one_of(
    st.integers(0, 1 << 4000),
    st.integers(0, 4000).map(_ones),
)


@settings(max_examples=100, deadline=None)
@given(_TOOM_OPERANDS, _TOOM_OPERANDS, st.booleans())
def test_toom_mul_equals_the_product(a, b, same):
    if same:
        b = a
    assert _low_toom_mul(a, b)[0] == a * b


def test_big_count_leaves_no_reference_cycle():
    # a self-calling nested function would leave a cycle for the collector
    gc.collect()
    gc.disable()
    try:
        count_symplectic(SymplecticParams(2000, 972, 2, 2))
        assert gc.collect() == 0
    finally:
        gc.enable()


# the largest primes below 2^61 - 1; no q^m is 1 or -1 modulo either for
# q in {2, 3, 4, 9} and m <= 8000, so no denominator factor below vanishes
PRIMES_61 = (2**61 - 31, 2**61 - 45)


def test_modular_counts_are_the_naive_counts_reduced():
    cells = [
        (mod, naive, args)
        for q in (2, 3)
        for n in range(1, 13)
        for k in range(n + 1)
        for mod, naive, args in [
            (mod_gaussian_binomial, naive_gaussian_binomial, (n, k, q)),
            *[(mod_count_hermitian, naive_count_hermitian, (n, k, ell, q)) for ell in range(k + 1)],
            *[
                (mod_count_symplectic, naive_count_symplectic, (2 * n, k, ell, q))
                for ell in range(k + 1)
            ],
        ]
    ]
    for mod, naive, args in cells:
        expected = naive(*args)
        for p in PRIMES_61:
            assert mod(*args, p) == expected % p, (mod.__name__, args, p)
        for p in (7, 13):  # each divides some q^m - 1: the residue or None
            assert mod(*args, p) in (expected % p, None), (mod.__name__, args, p)
    # 2^61 - 1 divides 2^61 - 1, a denominator factor of [200, 100]_2
    assert mod_gaussian_binomial(200, 100, 2, 2**61 - 1) is None
    assert mod_gaussian_binomial(200, 100, 2, 7) is None


def test_large_counts_agree_modulo_two_primes():
    # the Toom-3 top of the product tree against the closed products
    # evaluated modulo p, with no big integer
    cells = [
        (count_symplectic(SymplecticParams(4000, 2000, 0, 2)), mod_count_symplectic, (4000, 2000, 0, 2)),
        (count_symplectic(SymplecticParams(2000, 972, 2, 2)), mod_count_symplectic, (2000, 972, 2, 2)),
        (count_hermitian(HermitianParams(1000, 500, 0, 3)), mod_count_hermitian, (1000, 500, 0, 3)),
        (gaussian_binomial(2000, 1000, 2), mod_gaussian_binomial, (2000, 1000, 2)),
    ]
    for count, mod_count, args in cells:
        assert count.bit_length() > 3 * exactnum.TOOM_BITS
        for p in PRIMES_61:
            assert count % p == mod_count(*args, p), (args, p)


def _spec_value(q, spec):
    """An exact_count spec evaluated factor by factor as a Fraction."""
    q_exp, up, down = spec
    value = Fraction(q) ** q_exp
    for ranges, sign in ((up, 1), (down, -1)):
        for x, lo, hi in ranges:
            base = -q if x == NEG_Q else q ** x
            for m in range(lo, hi + 1):
                value *= Fraction(abs(base ** m - 1)) ** sign
    return value


def test_exact_step_is_the_quotient_of_two_specs():
    pairs = [  # (before, after): shifted, grown, emptied, disjoint and nested ranges
        ((0, ((Q, 3, 6),), ((Q, 1, 2),)), (2, ((Q, 2, 6),), ((Q, 1, 3),))),
        (
            (3, ((NEG_Q, 5, 9),), ((NEG_Q, 1, 4), (Q2, 1, 0))),
            (1, ((NEG_Q, 4, 9),), ((NEG_Q, 1, 3), (Q2, 1, 1))),
        ),
        ((0, ((Q2, 1, 0),), ()), (0, ((Q2, 1, 4),), ())),
        ((5, ((Q2, 2, 5),), ()), (0, ((Q2, 6, 5),), ())),
        ((0, ((Q, 2, 3),), ((NEG_Q, 1, 5),)), (0, ((Q, 6, 8),), ((NEG_Q, 2, 4),))),
        ((0, ((Q, 4, 6),), ()), (0, ((Q, 2, 9),), ())),
    ]
    for q in (2, 3, 4, 9):
        for before, after in pairs:
            for a, b in ((before, after), (after, before)):
                num, den = exact_step(q, a, b)
                assert Fraction(num, den) == _spec_value(q, b) / _spec_value(q, a)
    with pytest.raises(BadRangeError):
        exact_step(2, (0, ((Q, 1, 3),), ()), (0, ((Q2, 1, 3),), ()))
    with pytest.raises(ValueError):
        exact_step(2, (0, ((Q, 1, 3),), ()), (0, ((Q, 1, 3),), ((Q, 1, 2),)))


def test_phi_cache_stays_within_its_bound(monkeypatch):
    # _phi finds itself by its module-level name, so its recursion goes
    # through the small cache too
    small = functools.lru_cache(maxsize=300)(exactnum._phi.__wrapped__)
    monkeypatch.setattr(exactnum, "_phi", small)
    for q in (2, 3, 4):
        for n in (100, 200, 400):  # n = 400 needs Phi_t(q) past t = 300
            assert gaussian_binomial(n, n // 2, q) == naive_gaussian_binomial(n, n // 2, q)
            assert small.cache_info().currsize <= 300


def test_phi_is_the_moebius_formula():
    exactnum._phi.cache_clear()
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 256):
        for t in range(1, 301):
            assert exactnum._phi(q, t) == naive_cyclotomic(q, t), (q, t)


def test_rat_str_round_trip():
    for value in (Fraction(3, 4), Fraction(-8, 9), Fraction(5), Fraction(0)):
        assert Fraction(rat_str(value)) == value
    assert rat_str(Fraction(8, 9)) == "8/9"
    assert rat_str(Fraction(3)) == "3/1"


def test_rationals_are_canonical():
    assert Fraction(6, 8) == Fraction(3, 4)
    assert (Fraction(6, 8).numerator, Fraction(6, 8).denominator) == (3, 4)
    x = Fraction(7, 11)
    assert x * Fraction(11, 7) == 1


def test_prime_helpers():
    assert is_prime(2) and is_prime(13) and not is_prime(1) and not is_prime(9)
    assert prime_power_parts(8) == (2, 3)
    assert prime_power_parts(9) == (3, 2)
    assert prime_power_parts(5) == (5, 1)
    with pytest.raises(BadRangeError):
        prime_power_parts(6)
    with pytest.raises(BadRangeError):
        prime_power_parts(1)
    assert prime_power_parts(27) == (3, 3)
    with pytest.raises(BadRangeError, match="q must be a prime power, got 12"):
        prime_power_parts(12)
