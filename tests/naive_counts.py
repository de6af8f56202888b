"""Naive closed-form counts: the reference the exact count evaluator is
checked against.

These are the direct evaluations, kept deliberately simple: a Gaussian
binomial by alternating multiply and exact divide (after the i-th pair the
running value is [n, i], so every division is exact), and the hermitian and
symplectic counts as running products of `Fraction` step factors, and
Phi_t(q) by Moebius inversion. They share no code with
`hullcount.exactnum.exact_count` or its cyclotomic values. The `mod_*`
counts evaluate the same closed products modulo a prime p, factor by
factor with no big integers, so they reach counts of a million bits.
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


def _mod_quotient(num_factors, den_factors, p: int) -> int | None:
    """prod num_factors / prod den_factors modulo the prime p, or None when
    p divides a denominator factor, which leaves the residue unknown."""
    num = den = 1
    for f in num_factors:
        num = num * f % p
    for f in den_factors:
        if f % p == 0:
            return None
        den = den * f % p
    return num * pow(den, -1, p) % p


def _q_minus_one(q: int, m: int, p: int) -> int:
    """q^m - 1 modulo p."""
    return (pow(q, m, p) - 1) % p


def _neg_q_minus_one(q: int, m: int, p: int) -> int:
    """|(-q)^m - 1| modulo p: q^m + 1 for odd m, q^m - 1 for even m."""
    return (pow(q, m, p) + (1 if m % 2 else -1)) % p


def mod_gaussian_binomial(n: int, k: int, order: int, p: int) -> int | None:
    """[n, k]_order mod p: prod_{m=n-k+1..n} (Q^m - 1) / prod_{m=1..k} (Q^m - 1)."""
    if k < 0 or k > n:
        return 0
    return _mod_quotient(
        (_q_minus_one(order, m, p) for m in range(n - k + 1, n + 1)),
        (_q_minus_one(order, m, p) for m in range(1, k + 1)),
        p,
    )


def mod_count_hermitian(n: int, k: int, ell: int, q: int, p: int) -> int | None:
    """A_H(n, k, l, q) mod p: q^(k0(n-k-l)) prod_{m=n-k-l+1..n} |(-q)^m - 1|
    / (prod_{j=1..k0} |(-q)^j - 1| prod_{i=1..l} (q^(2i) - 1))."""
    if not (0 <= ell <= k <= n and ell <= n - k):
        return 0
    k0, b = k - ell, n - k - ell
    num = [pow(q, k0 * b, p)] + [_neg_q_minus_one(q, m, p) for m in range(b + 1, n + 1)]
    den = [_neg_q_minus_one(q, j, p) for j in range(1, k0 + 1)]
    den += [_q_minus_one(q, 2 * i, p) for i in range(1, ell + 1)]
    return _mod_quotient(num, den, p)


def mod_count_symplectic(two_n: int, k: int, ell: int, q: int, p: int) -> int | None:
    """A_S(2n, k, l, q) mod p: q^(2k0(n-k0-l)) prod_{j=n-k0-l+1..n} (q^(2j) - 1)
    / (prod_{m=1..l} (q^m - 1) prod_{j=1..k0} (q^(2j) - 1)), k0 = (k - l)/2."""
    if not (0 <= ell <= k <= two_n and ell <= two_n - k and (k - ell) % 2 == 0):
        return 0
    n, k0 = two_n // 2, (k - ell) // 2
    b = n - k0 - ell
    num = [pow(q, 2 * k0 * b, p)] + [_q_minus_one(q, 2 * j, p) for j in range(b + 1, n + 1)]
    den = [_q_minus_one(q, m, p) for m in range(1, ell + 1)]
    den += [_q_minus_one(q, 2 * j, p) for j in range(1, k0 + 1)]
    return _mod_quotient(num, den, p)
