"""Naive closed-form counts: the reference the exact count evaluator is
checked against.

These are the direct evaluations, kept deliberately simple: a Gaussian
binomial by alternating multiply and exact divide (after the i-th pair the
running value is [n, i], so every division is exact), and the hermitian and
symplectic counts as running products of `Fraction` step factors, and
Phi_t(q) by Moebius inversion. They share no code with
`hullcount.exactnum.exact_count` or its cyclotomic values.
"""

from fractions import Fraction


def _as_int(x: Fraction) -> int:
    if x.denominator != 1:
        raise ArithmeticError(f"expected an integer, got {x}")
    return x.numerator


def naive_gaussian_binomial(n: int, k: int, order: int) -> int:
    if k < 0 or k > n:
        return 0
    value = 1
    for i in range(k):
        value *= order ** (n - i) - 1
        quot, rem = divmod(value, order ** (i + 1) - 1)
        if rem:
            raise ArithmeticError(f"non-exact division in [{n}, {k}]_{order}")
        value = quot
    return value


def naive_cyclotomic(q: int, t: int) -> int:
    """Phi_t(q) by Moebius inversion over the squarefree divisors d of t:
    prod_d (q^(t/d) - 1)^mu(d)."""
    primes, rest, p = [], t, 2
    while rest > 1:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    num = den = 1
    for mask in range(1 << len(primes)):
        d, odd = 1, False
        for i, p in enumerate(primes):
            if mask >> i & 1:
                d, odd = d * p, not odd
        if odd:
            den *= q ** (t // d) - 1
        else:
            num *= q ** (t // d) - 1
    quot, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"non-exact division in Phi_{t}({q})")
    return quot


def naive_hermitian_lcd(n: int, k0: int, q: int) -> int:
    acc = Fraction(q ** (k0 * (n - k0)))
    for j in range(1, k0 + 1):
        sign = -1 if (n - k0 + j) % 2 else 1
        acc *= Fraction(q ** (n - k0 + j) - sign, q ** j - (-1 if j % 2 else 1))
    return _as_int(acc)


def naive_count_hermitian(n: int, k: int, ell: int, q: int) -> int:
    """L(n, k0, q) times the step factors F_1..F_ell, k0 = k - ell."""
    if not (0 <= ell <= k <= n and ell <= n - k):
        return 0
    k0 = k - ell
    s = n - k0
    e = 1 if s % 2 else -1
    acc = Fraction(naive_hermitian_lcd(n, k0, q))
    for i in range(1, ell + 1):
        num = (q ** (s - 2 * i + 2) + e) * (q ** (s - 2 * i + 1) - e)
        acc *= Fraction(num, q ** (2 * k0) * (q ** (2 * i) - 1))
    return _as_int(acc)


def naive_count_symplectic(two_n: int, k: int, ell: int, q: int) -> int:
    if not (0 <= ell <= k <= two_n and ell <= two_n - k and (k - ell) % 2 == 0):
        return 0
    n, k0 = two_n // 2, (k - ell) // 2
    acc = Fraction(q ** (2 * k0 * (n - k0 - ell)))
    for m in range(1, ell + 1):
        acc *= Fraction(q ** (2 * (n - k0 - ell + m)) - 1, q ** m - 1)
    acc *= naive_gaussian_binomial(n, k0, q * q)
    return _as_int(acc)
