"""Exact arithmetic primitives: big integers, reduced rationals, exact counts.

Python ints and fractions.Fraction serve as they are; what this module adds
is the counting-specific layer: `exact_count`, the one evaluator of every closed
count (Gaussian binomials, hermitian and symplectic hull counts),
`exact_step`, the quotient of two such counts from only the factors they do
not share, and prime-power decomposition for validating field orders.

Every count is q^e times a quotient of products of |x^m - 1| over a few
ranges of m, with x one of q, q^2 and -q. Since q^m - 1 = prod_{d | m}
Phi_d(q), such a quotient is prod_t Phi_t(q)^(e_t), and each e_t is a sum
of floor differences; the count is an integer polynomial in q exactly when
no e_t is negative. `_phi` takes each Phi_t(q) from the same identity,
and its lru_cache keeps the last PHI_CACHE_SIZE values for all q together.
Large counts are multiplied out from the Phi_t(q) with a balanced product
tree, split where the bit lengths reach half, so no big-integer division
is done (CPython's is quadratic) and each big multiply has operands of
about equal size; q^e joins the tree as one factor, or is a shift when q
is a power of two. The tree's top levels take most of a large count's
time (the top three 69% of a 2n = 2000 symplectic count at q = 2), and
CPython 3.11 multiplies ints by Karatsuba only, so the tree combines its
halves with `_mul`, which splits a multiply of TOOM_BITS bits or more by
Toom-3 into five multiplies of a third the size plus linear shifts and
adds. Small counts take one exact divmod of the two products, which is
faster there.
"""

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import isqrt, prod
from operator import add, sub
from typing import Sequence

from .errors import BadRangeError

# the base x of a factor range: q, q^2 or -q
Q, Q2, NEG_Q = 1, 2, -1
FactorRange = tuple[int, int, int]  # (x, lo, hi): prod_{m=lo..hi} |x^m - 1|

# Counts whose largest range end is at most this take the divmod path.
# Timed at ends 48 to 128, q in {2, ..., 9}, warm Phi cache, CPython 3.11:
# whole hermitian and symplectic spectra tie between 64 and 80; single
# counts tie near 64 on the mean over q, but at q = 2 divmod is faster up to
# about 100 (1.4x at 80). At 48 divmod is up to 2.9x faster, at 128 the
# product tree up to 3.7x.
DIVMOD_MAX_TOP = 80
# Phi_t(q) values kept between calls, for all q together; a whole n = 1000
# spectrum at one q needs t up to 2000.
PHI_CACHE_SIZE = 4096
# _product folds a run of factors of at most this many bits in all with
# math.prod, and splits a longer run in two. 1024 to 4096 time alike on
# counts at n = 81 to 1000; 0 makes those near n = 100 1.5x slower, 8192
# 1.2x.
LEAF_BITS = 2048
# _mul takes a Toom-3 step when its larger operand has at least this many
# bits. One step over `*` on balanced random operands, CPython 3.11: 1.14x
# slower at 12,000 bits, 1.02-1.06x at 20,000-25,000, 0.91x at 30,000,
# 0.88x at 60,000, 0.76x at 250,000. Whole counts at 2n = 2000 and 4000,
# n = 1000: 15,000 to 60,000 time alike, 120,000 is 3-10% slower.
TOOM_BITS = 30000


def _range_product(q: int, ranges: Sequence[FactorRange]) -> int:
    acc = 1
    for x, lo, hi in ranges:
        base = -q if x == NEG_Q else q ** x
        power = base ** (lo - 1)
        for _ in range(lo, hi + 1):
            power *= base
            acc *= power - 1
    return abs(acc)


# Phi_t(q) divides x^m - 1 exactly when step(t) divides m. For each x, the
# t whose step is s, as slices: (first s, s stride, first t, t stride).
# x = q: step(t) = t. x = q^2: t for odd t, t/2 for even t. x = -q: 2t for
# odd t, t/2 for t = 2 (mod 4), t for 4 | t.
_STEP_SLICES = {
    Q: ((1, 1, 1, 1),),
    Q2: ((1, 1, 2, 2), (1, 2, 1, 2)),
    NEG_Q: ((2, 4, 1, 2), (1, 2, 2, 4), (4, 4, 4, 4)),
}


def _add_exponents(exps: list[int], combine, ranges: Sequence[FactorRange]) -> None:
    """Combine (add or sub) into each exps[t] the e_t of the ranges: the
    number of multiples of step(t) in lo..hi."""
    for x, lo, hi in ranges:
        if lo > hi:
            continue
        counts = [0] + [hi // s - (lo - 1) // s for s in range(1, hi + 1)]
        for s0, s_step, t0, t_step in _STEP_SLICES[x]:
            part = counts[s0::s_step]
            t_end = t0 + t_step * len(part)
            exps[t0:t_end:t_step] = map(combine, exps[t0:t_end:t_step], part)


@lru_cache(maxsize=PHI_CACHE_SIZE)
def _phi(q: int, t: int) -> int:
    """Phi_t(q) = (q^t - 1) / prod_{d | t, d < t} Phi_d(q), the divisors
    found in pairs (d, t/d) up to isqrt(t). The division is of numbers of
    about t base-q digits, not of a count."""
    low = [d for d in range(1, isqrt(t) + 1) if t % d == 0]
    proper = {*low, *(t // d for d in low)} - {t}
    phi, rem = divmod(q ** t - 1, prod(_phi(q, d) for d in proper))
    if rem:
        raise ArithmeticError(f"Phi_{t}({q}) left remainder {rem}")
    return phi


def _product(factors: list[int]) -> int:
    """Product by a tree balanced by bit length: each run of factors is cut
    where its running bit length passes half its total, so the two halves
    multiplied have about equal sizes; a run of at most LEAF_BITS bits in
    all is folded by math.prod."""
    ends = list(accumulate(map(int.bit_length, factors), initial=0))
    return _subproduct(factors, ends, 0, len(factors))


def _subproduct(factors: list[int], ends: list[int], lo: int, hi: int) -> int:
    """The product of factors[lo:hi], where ends[i] is the bit length of
    factors[:i] summed. A module-level function, not a nested one: a nested
    function that calls itself is a reference cycle holding the factors."""
    if hi - lo < 2 or ends[hi] - ends[lo] <= LEAF_BITS:
        return prod(factors[lo:hi])
    mid = bisect_left(ends, (ends[lo] + ends[hi]) // 2, lo + 1, hi - 1)
    return _mul(_subproduct(factors, ends, lo, mid), _subproduct(factors, ends, mid, hi))


def _mul(a: int, b: int) -> int:
    """a * b, by one Toom-3 step when the larger operand has at least
    TOOM_BITS bits and the smaller at least half as many, else by `*`.
    Each operand is cut into three k-bit limbs, a = a2 x^2 + a1 x + a0 with
    x = 2^k, and evaluated at 0, 1, -1, -2 and infinity; the five products
    recurse on absolute values, and the product's coefficients come back by
    Bodrato's interpolation sequence (ISSAC 2007): shifts, adds and one
    exact division by 3."""
    small, big = sorted((a.bit_length(), b.bit_length()))
    if big < TOOM_BITS or 2 * small < big:
        return a * b
    k = (big + 2) // 3
    mask = (1 << k) - 1
    a0, a1, a2 = a & mask, a >> k & mask, a >> 2 * k
    b0, b1, b2 = b & mask, b >> k & mask, b >> 2 * k
    a02, b02 = a0 + a2, b0 + b2
    am1, bm1 = a02 - a1, b02 - b1  # the values at -1
    am2, bm2 = (am1 + a2 << 1) - a0, (bm1 + b2 << 1) - b0  # the values at -2
    r0, r_inf = _mul(a0, b0), _mul(a2, b2)
    r1 = _mul(a02 + a1, b02 + b1)
    rm1 = _mul(abs(am1), abs(bm1))
    if (am1 < 0) != (bm1 < 0):
        rm1 = -rm1
    rm2 = _mul(abs(am2), abs(bm2))
    if (am2 < 0) != (bm2 < 0):
        rm2 = -rm2
    # the coefficients r0, r1, r2, r3, r_inf of the product in x
    r3, rem = divmod(rm2 - r1, 3)
    if rem:
        raise ArithmeticError(f"Toom-3 interpolation left remainder {rem} on division by 3")
    r1 = (r1 - rm1) >> 1
    r2 = rm1 - r0
    r3 = (r2 - r3 >> 1) + (r_inf << 1)
    r2 += r1 - r_inf
    r1 -= r3
    return ((((r_inf << k) + r3 << k) + r2 << k) + r1 << k) + r0


def exact_count(
    q: int, q_exp: int, up: Sequence[FactorRange], down: Sequence[FactorRange]
) -> int:
    """q^q_exp * prod over `up` / prod over `down`, where a range (x, lo, hi)
    stands for prod_{m=lo..hi} |x^m - 1| (empty when lo > hi) and x is Q,
    Q2 or NEG_Q for the base q, q^2 or -q.

    Raises ArithmeticError when the value is not an integer: a negative
    power of q, a cyclotomic exponent below zero, or a nonzero remainder.
    """
    if q < 2:
        raise BadRangeError(f"q must be at least 2, got {q}")
    if q_exp < 0:
        raise ArithmeticError(f"negative power q^{q_exp} in an exact count")
    top = 0
    for _, lo, hi in (*up, *down):
        if lo <= hi:
            if lo < 1:
                raise BadRangeError(f"a factor range must start at m >= 1, got {lo}..{hi}")
            if hi > top:
                top = hi
    if top <= DIVMOD_MAX_TOP:
        quot, rem = divmod(_range_product(q, up), _range_product(q, down))
        if rem:
            raise ArithmeticError(f"non-integral count at q={q}: remainder {rem}")
        return quot * q ** q_exp
    exps = [0] * (2 * top + 1)
    _add_exponents(exps, add, up)
    _add_exponents(exps, sub, down)
    if min(exps) < 0:
        t = exps.index(min(exps))
        raise ArithmeticError(f"non-integral count at q={q}: Phi_{t}(q) left in the denominator")
    factors = [_phi(q, t) if e == 1 else _phi(q, t) ** e for t, e in enumerate(exps) if e]
    if q & (q - 1):
        return _product(factors + [q ** q_exp])
    return _product(factors) << q_exp * (q.bit_length() - 1)  # q = 2^j


# exact_count's arguments after q: (q_exp, up, down)
CountSpec = tuple[int, Sequence[FactorRange], Sequence[FactorRange]]


def _minus(ranges: Sequence[FactorRange], others: Sequence[FactorRange]) -> list[FactorRange]:
    """The factors of `ranges` missing from `others`, which pairs each range
    with one of the same base at the same position, as ranges."""
    out = []
    for (x, lo, hi), (other_x, o_lo, o_hi) in zip(ranges, others, strict=True):
        if x != other_x:
            raise BadRangeError(f"range bases differ: {x} against {other_x}")
        if o_lo > o_hi:
            pieces = ((lo, hi),)
        else:  # the parts of lo..hi below and above o_lo..o_hi
            pieces = ((lo, min(hi, o_lo - 1)), (max(lo, o_hi + 1), hi))
        out += [(x, a, b) for a, b in pieces if a <= b]
    return out


def exact_step(q: int, before: CountSpec, after: CountSpec) -> tuple[int, int]:
    """The quotient count(after) / count(before) of two exact_count specs
    (q_exp, up, down) whose ranges pair up position by position, as an
    unreduced (num, den): only the factors the two specs do not share are
    multiplied out."""
    (e0, up0, down0), (e1, up1, down1) = before, after
    num = _range_product(q, _minus(up1, up0) + _minus(down0, down1))
    den = _range_product(q, _minus(up0, up1) + _minus(down1, down0))
    return num * q ** max(e1 - e0, 0), den * q ** max(e0 - e1, 0)


def rat_str(x: Fraction | int) -> str:
    """Serialize as 'num/den', denominator always explicit."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def gaussian_binomial(n: int, k: int, order: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional space over F_order.

    Out-of-range k (k < 0 or k > n) returns 0, the usual counting
    convention. [n, k]_Q = prod_{m=n-k+1..n} (Q^m - 1) / prod_{m=1..k} (Q^m - 1).
    """
    if n < 0:
        raise BadRangeError(f"n must be nonnegative, got {n}")
    if order < 2:
        raise BadRangeError(f"order must be at least 2, got {order}")
    if k < 0 or k > n:
        return 0
    k = min(k, n - k)  # symmetry, fewer factors
    return exact_count(order, 0, ((Q, n - k + 1, n),), ((Q, 1, k),))


def _smallest_factor(n: int) -> int:
    """The smallest prime factor of n >= 2, by trial division (n itself
    when n is prime)."""
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def is_prime(n: int) -> bool:
    return n >= 2 and _smallest_factor(n) == n


@lru_cache(maxsize=256)
def prime_power_parts(q: int) -> tuple[int, int]:
    """Decompose q = p^e with p prime; raises BadRangeError otherwise.
    Every count, record and ratio checks its q here, so the answers for
    the last 256 orders are kept."""
    if q < 2:
        raise BadRangeError(f"q must be a prime power, got {q}")
    p = _smallest_factor(q)
    # q must be a pure power of its smallest prime factor
    e = 0
    rest = q
    while rest % p == 0:
        rest //= p
        e += 1
    if rest != 1:
        raise BadRangeError(f"q must be a prime power, got {q}")
    return p, e
