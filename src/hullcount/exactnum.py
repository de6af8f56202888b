"""Exact arithmetic primitives: big integers, reduced rationals, Gaussian binomials.

Python ints are already arbitrary-precision and fractions.Fraction already
keeps a canonical reduced form with exact comparisons, so ExactInt and
ExactRat are aliases rather than wrappers. What this module adds is the
counting-specific layer: Gaussian binomial coefficients evaluated by
alternating multiply / exact-divide steps (every partial quotient is itself
a Gaussian binomial, hence an integer, which the divisions assert), the
rational-to-integer cast used to finish closed-form count evaluations, and
prime-power decomposition for validating field orders.
"""

from fractions import Fraction

from .errors import BadRangeError

ExactInt = int
ExactRat = Fraction


def as_exact_int(x: Fraction | int) -> int:
    """Cast an exact rational with unit denominator to int.

    Raises ArithmeticError when the value is not an integer; closed-form
    evaluators rely on this as their final integrality check.
    """
    if isinstance(x, int):
        return x
    if x.denominator != 1:
        raise ArithmeticError(f"expected an integer, got {x}")
    return x.numerator


def rat_str(x: Fraction | int) -> str:
    """Serialize as 'num/den', denominator always explicit."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def parse_rat(s: str) -> Fraction:
    """Inverse of rat_str; also accepts a bare integer string."""
    return Fraction(s.strip())


def gaussian_binomial(n: int, k: int, order: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional space over F_order.

    Out-of-range k (k < 0 or k > n) returns 0, the usual counting
    convention. Evaluation alternates multiply and exact divide; after the
    i-th pair the running value equals the Gaussian binomial [n, i], so
    every division is exact and is checked to be so.
    """
    if n < 0:
        raise BadRangeError(f"n must be nonnegative, got {n}")
    if order < 2:
        raise BadRangeError(f"order must be at least 2, got {order}")
    if k < 0 or k > n:
        return 0
    k = min(k, n - k)  # symmetry, fewer factors
    value = 1
    for i in range(k):
        value *= order ** (n - i) - 1
        den = order ** (i + 1) - 1
        quot, rem = divmod(value, den)
        if rem:
            raise ArithmeticError(
                f"non-exact division in gaussian_binomial({n}, {k}, {order})"
            )
        value = quot
    return value


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_power_parts(q: int) -> tuple[int, int]:
    """Decompose q = p^e with p prime; raises BadRangeError otherwise."""
    if q < 2:
        raise BadRangeError(f"not a prime power: {q}")
    p = q
    for f in range(2, q):
        if f * f > q:
            break
        if q % f == 0:
            p = f
            break
    # p is the smallest prime factor; q must be a pure power of it
    e = 0
    rest = q
    while rest % p == 0:
        rest //= p
        e += 1
    if rest != 1:
        raise BadRangeError(f"not a prime power: {q}")
    return p, e


def is_prime_power(q: int) -> bool:
    try:
        prime_power_parts(q)
    except BadRangeError:
        return False
    return True
