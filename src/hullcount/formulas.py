"""Closed-form counts of linear codes with prescribed hull dimension.

Hermitian side: codes live in F_{q^2}^n and the hull is taken with respect
to the form <x, y> = sum x_i * y_i^q. With k0 = k - l, the number of
k-dimensional codes whose hull has dimension l is

    A_H(n, k, l, q) = q^(k0*(n-k-l)) * prod_{m=n-k-l+1..n} |(-q)^m - 1|
                      / (prod_{j=1..k0} |(-q)^j - 1| * prod_{i=1..l} (q^(2i) - 1)),

where |(-q)^m - 1| is q^m + 1 for odd m and q^m - 1 for even m. The l = 0
case L(n, k0, q) counts the complementary-dual codes, and the step factor
F_i = A_H(l = i) / A_H(l = i - 1) at fixed k0 is

    F_i = (q^(s-2i+2) + e) * (q^(s-2i+1) - e) / (q^(2*k0) * (q^(2i) - 1)),
    s = n - k0,  e = (-1)^(s+1).

Symplectic side: codes live in F_q^(2n) with the alternating form, hull
dimensions share the parity of k, and with k0 = (k - l)/2:

    A_S(2n, k, l, q) = q^(2*k0*(n-k0-l)) * prod_{j=n-k0-l+1..n} (q^(2j) - 1)
                       / (prod_{m=1..l} (q^m - 1) * prod_{j=1..k0} (q^(2j) - 1)).

Each count is one call of exactnum.exact_count on these ranges, which also
checks that the result is an integer. Out-of-range hull parameters count
zero rather than raising, so spectrum sums can run over a full index range.
hull_dims and closed_count hold the per-form conventions (which l exist, in
which step, and which count answers them) for every caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import FormKind
from .errors import BadIndexError, BadRangeError, OddAmbientError
from .exactnum import NEG_Q, Q, Q2, exact_count, is_prime_power


@dataclass(frozen=True)
class HermitianParams:
    """Length n, code dimension k, hull dimension ell, subfield order q.

    The ambient field is F_{q^2}; q itself must be a prime power.
    """

    n: int
    k: int
    ell: int
    q: int

    def __post_init__(self):
        if self.n < 0:
            raise BadRangeError(f"length must be nonnegative, got {self.n}")
        if not is_prime_power(self.q):
            raise BadRangeError(f"q must be a prime power, got {self.q}")

    @property
    def k0(self) -> int:
        return self.k - self.ell

    @property
    def s(self) -> int:
        return self.n - self.k0

    @property
    def eps(self) -> int:
        # (-1)^(s+1): +1 for odd ambient defect, -1 for even
        return 1 if self.s % 2 else -1

    def in_counting_range(self) -> bool:
        return 0 <= self.ell <= self.k <= self.n and self.ell <= self.n - self.k


@dataclass(frozen=True)
class SymplecticParams:
    """Ambient length two_n (even), dimension k, hull dimension ell, order q."""

    two_n: int
    k: int
    ell: int
    q: int

    def __post_init__(self):
        if self.two_n < 0:
            raise BadRangeError(f"ambient length must be nonnegative, got {self.two_n}")
        if self.two_n % 2 != 0:
            raise OddAmbientError(
                f"symplectic ambient length must be even, got {self.two_n}"
            )
        if not is_prime_power(self.q):
            raise BadRangeError(f"q must be a prime power, got {self.q}")

    @property
    def n_half(self) -> int:
        return self.two_n // 2

    @property
    def k0(self) -> int:
        return (self.k - self.ell) // 2

    def in_counting_range(self) -> bool:
        return (
            0 <= self.ell <= self.k <= self.two_n
            and self.ell <= self.two_n - self.k
            and (self.k - self.ell) % 2 == 0
        )


def _hermitian(n: int, k0: int, ell: int, q: int) -> int:
    b = n - k0 - 2 * ell  # n - k - l
    return exact_count(q, k0 * b, ((NEG_Q, b + 1, n),), ((NEG_Q, 1, k0), (Q2, 1, ell)))


def hermitian_lcd_count(n: int, k0: int, q: int) -> int:
    """Number of k0-dimensional codes in F_{q^2}^n with zero hermitian hull."""
    if not 0 <= k0 <= n:
        raise BadRangeError(f"need 0 <= k0 <= n, got k0={k0}, n={n}")
    if not is_prime_power(q):
        raise BadRangeError(f"q must be a prime power, got {q}")
    return _hermitian(n, k0, 0, q)


def unified_factor(i: int, params: HermitianParams) -> Fraction:
    """Step factor F_i linking hull dimension i-1 to i in the hermitian count."""
    if not 1 <= i <= params.ell:
        raise BadIndexError(f"factor index {i} outside 1..{params.ell}")
    q, s, e, k0 = params.q, params.s, params.eps, params.k0
    num = (q ** (s - 2 * i + 2) + e) * (q ** (s - 2 * i + 1) - e)
    den = q ** (2 * k0) * (q ** (2 * i) - 1)
    return Fraction(num, den)


def count_hermitian(params: HermitianParams) -> int:
    """Exact number of k-dimensional codes in F_{q^2}^n with hermitian hull
    dimension ell; zero when the parameters admit no such code."""
    if not params.in_counting_range():
        return 0
    return _hermitian(params.n, params.k0, params.ell, params.q)


def _symplectic(n: int, k0: int, ell: int, q: int) -> int:
    b = n - k0 - ell
    return exact_count(q, 2 * k0 * b, ((Q2, b + 1, n),), ((Q, 1, ell), (Q2, 1, k0)))


def symplectic_lcd_count(n: int, k0: int, q: int) -> int:
    """Number of 2*k0-dimensional codes in F_q^(2n) with zero symplectic hull."""
    if not 0 <= k0 <= n:
        raise BadRangeError(f"need 0 <= k0 <= n, got k0={k0}, n={n}")
    if not is_prime_power(q):
        raise BadRangeError(f"q must be a prime power, got {q}")
    return _symplectic(n, k0, 0, q)


def count_symplectic(params: SymplecticParams) -> int:
    """Exact number of k-dimensional codes in F_q^(2n) with symplectic hull
    dimension ell; zero off the parity class or out of range."""
    if not params.in_counting_range():
        return 0
    return _symplectic(params.n_half, params.k0, params.ell, params.q)


def hull_dims(form: FormKind, length: int, k: int) -> range:
    """Hull dimensions l a k-dimensional code can have, in step order:
    0..min(k, length-k) in steps of 1, or for the symplectic form (length
    2n) only the l of k's parity, in steps of 2."""
    top = min(k, length - k)
    if form is FormKind.SYMPLECTIC:
        return range(k % 2, top + 1, 2)
    return range(0, top + 1)


def closed_count(form: FormKind, length: int, k: int, ell: int, q: int) -> int:
    """Closed-form count of one cell; length is n, or 2n for symplectic.
    The euclidean form has no closed form here."""
    if form is FormKind.HERMITIAN:
        return count_hermitian(HermitianParams(length, k, ell, q))
    if form is FormKind.SYMPLECTIC:
        return count_symplectic(SymplecticParams(length, k, ell, q))
    raise BadRangeError("no closed-form count for the euclidean form")
