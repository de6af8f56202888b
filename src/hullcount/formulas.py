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
FormKind names the three forms, and hull_dims, require_even_length and
closed_count hold the per-form conventions (which l exist, in which step,
which lengths are allowed, and which count answers them) for every caller.

Neighbouring counts of one spectrum differ by a few small factors. With
b = n - k - l on the hermitian side and b = n - k0 - l on the symplectic,

    A_H(l+1) / A_H(l) = |(-q)^b - 1| * |(-q)^(k-l) - 1|
                        / ((q^(2(l+1)) - 1) * q^(n-2l-1)),
    A_S(l+2) / A_S(l) = (q^(2b) - 1) * (q^(2*k0) - 1)
                        / ((q^(l+1) - 1) * (q^(l+2) - 1) * q^(2(k0+b-1))).

closed_step reads these quotients off the two cells' exact_count ranges
(exactnum.exact_step), and closed_spectrum, the one evaluator of a whole
spectrum, runs exact_count for the first l only and takes each later count
from its predecessor by an exact division. It returns the counts keyed by
l, the shape of the oracle's HullSpectrum.counts.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .errors import BadIndexError, BadRangeError, OddAmbientError
from .exactnum import NEG_Q, Q, Q2, CountSpec, exact_count, exact_step, prime_power_parts


class FormKind(Enum):
    EUCLIDEAN = "euclidean"
    HERMITIAN = "hermitian"
    SYMPLECTIC = "symplectic"


# FormKind's members as plain globals for the per-call checks: on CPython
# 3.11 FormKind.X runs EnumType's __getattr__ hook, about 0.15 us a lookup
EUCLIDEAN, HERMITIAN, SYMPLECTIC = FormKind


class ValidatedRecord:
    """Base of a NamedTuple subclass whose __new__ validates the fields:
    _make, and so _replace, build through __new__ too."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _HermitianFields(NamedTuple):
    n: int
    k: int
    ell: int
    q: int


class HermitianParams(ValidatedRecord, _HermitianFields):
    """Length n, code dimension k, hull dimension ell, subfield order q.

    The ambient field is F_{q^2}; q itself must be a prime power.
    """

    __slots__ = ()

    def __new__(cls, n: int, k: int, ell: int, q: int):
        if n < 0:
            raise BadRangeError(f"length must be nonnegative, got {n}")
        prime_power_parts(q)
        return tuple.__new__(cls, (n, k, ell, q))

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


class _SymplecticFields(NamedTuple):
    two_n: int
    k: int
    ell: int
    q: int


class SymplecticParams(ValidatedRecord, _SymplecticFields):
    """Ambient length two_n (even), dimension k, hull dimension ell, order q."""

    __slots__ = ()

    def __new__(cls, two_n: int, k: int, ell: int, q: int):
        if two_n < 0:
            raise BadRangeError(f"ambient length must be nonnegative, got {two_n}")
        require_even_length(two_n)
        prime_power_parts(q)
        return tuple.__new__(cls, (two_n, k, ell, q))


def _hermitian(n: int, k0: int, ell: int) -> CountSpec:
    b = n - k0 - 2 * ell  # n - k - l
    return k0 * b, ((NEG_Q, b + 1, n),), ((NEG_Q, 1, k0), (Q2, 1, ell))


def hermitian_lcd_count(n: int, k0: int, q: int) -> int:
    """Number of k0-dimensional codes in F_{q^2}^n with zero hermitian hull."""
    if not 0 <= k0 <= n:
        raise BadRangeError(f"need 0 <= k0 <= n, got k0={k0}, n={n}")
    return count_hermitian(HermitianParams(n, k0, 0, q))


def unified_factor(i: int, params: HermitianParams) -> Fraction:
    """Step factor F_i = A_H(n, k0+i, i) / A_H(n, k0+i-1, i-1) of the
    hermitian count, k0 = k - l: it steps k and l together at fixed k0,
    where closed_step steps l at fixed k."""
    if params.ell not in hull_dims(HERMITIAN, params.n, params.k):
        raise BadRangeError(f"l={params.ell} is not a hull dimension of n={params.n} k={params.k}")
    if not 1 <= i <= params.ell:
        raise BadIndexError(f"factor index {i} outside 1..{params.ell}")
    q, s, e, k0 = params.q, params.s, params.eps, params.k0
    num = (q ** (s - 2 * i + 2) + e) * (q ** (s - 2 * i + 1) - e)
    den = q ** (2 * k0) * (q ** (2 * i) - 1)
    return Fraction(num, den)


def count_hermitian(params: HermitianParams) -> int:
    """Exact number of k-dimensional codes in F_{q^2}^n with hermitian hull
    dimension ell; zero when the parameters admit no such code."""
    n, k, ell, q = params
    if ell not in hull_dims(HERMITIAN, n, k):
        return 0
    return exact_count(q, *_hermitian(n, k - ell, ell))


def _symplectic(n: int, k0: int, ell: int) -> CountSpec:
    b = n - k0 - ell
    return 2 * k0 * b, ((Q2, b + 1, n),), ((Q, 1, ell), (Q2, 1, k0))


def symplectic_lcd_count(n: int, k0: int, q: int) -> int:
    """Number of 2*k0-dimensional codes in F_q^(2n) with zero symplectic hull."""
    if not 0 <= k0 <= n:
        raise BadRangeError(f"need 0 <= k0 <= n, got k0={k0}, n={n}")
    return count_symplectic(SymplecticParams(2 * n, 2 * k0, 0, q))


def count_symplectic(params: SymplecticParams) -> int:
    """Exact number of k-dimensional codes in F_q^(2n) with symplectic hull
    dimension ell; zero off the parity class or out of range."""
    two_n, k, ell, q = params
    if ell not in hull_dims(SYMPLECTIC, two_n, k):
        return 0
    return exact_count(q, *_symplectic(two_n // 2, (k - ell) // 2, ell))


def require_even_length(length: int) -> None:
    """The one odd-length check: the symplectic form pairs the two halves
    of an ambient length 2n."""
    if length % 2:
        raise OddAmbientError(f"symplectic ambient length must be even, got {length}")


def hull_dims(form: FormKind, length: int, k: int) -> range:
    """Hull dimensions l a k-dimensional code can have, in step order:
    0..min(k, length-k) in steps of 1, or for the symplectic form (length
    2n) only the l of k's parity, in steps of 2. Every count, step, ratio
    and parameter map reads a cell's shape here: l is counted when it lies
    in the range and has a successor when it lies in hull_dims(...)[:-1].
    An odd symplectic length raises OddAmbientError."""
    top = length - k if 2 * k > length else k  # min(k, length - k), without the call
    if form is SYMPLECTIC:
        require_even_length(length)
        return range(k % 2, top + 1, 2)
    return range(top + 1)


def closed_count(form: FormKind, length: int, k: int, ell: int, q: int) -> int:
    """Closed-form count of one cell; length is n, or 2n for symplectic.
    The euclidean form has no closed form here."""
    if form is FormKind.HERMITIAN:
        return count_hermitian(HermitianParams(length, k, ell, q))
    if form is FormKind.SYMPLECTIC:
        return count_symplectic(SymplecticParams(length, k, ell, q))
    raise BadRangeError("no closed-form count for the euclidean form")


def _spec(form: FormKind, length: int, k: int, ell: int, q: int) -> CountSpec:
    """The exact_count ranges of one cell, with closed_count's checks."""
    if form is FormKind.HERMITIAN:
        HermitianParams(length, k, ell, q)
        return _hermitian(length, k - ell, ell)
    if form is FormKind.SYMPLECTIC:
        SymplecticParams(length, k, ell, q)
        return _symplectic(length // 2, (k - ell) // 2, ell)
    raise BadRangeError("no closed-form count for the euclidean form")


def closed_step(form: FormKind, length: int, k: int, ell: int, q: int) -> tuple[int, int]:
    """count(l + step) / count(l) as an unreduced (num, den), read off the
    two cells' exact_count ranges; l and l + step must both be in
    hull_dims(form, length, k)."""
    before = _spec(form, length, k, ell, q)  # the cell's checks come first
    dims = hull_dims(form, length, k)
    if ell not in dims[:-1]:
        raise BadRangeError(
            f"no step from l={ell}: l and l+{dims.step} must both be hull dimensions "
            f"of length={length} k={k}"
        )
    return exact_step(q, before, _spec(form, length, k, ell + dims.step, q))


def closed_spectrum(form: FormKind, length: int, k: int, q: int) -> dict[int, int]:
    """closed_count of every l in hull_dims(form, length, k), as a dict
    from l to count in that order: one exact_count for the first l, then
    count(l + step) = count(l) * num / den by closed_step, where a nonzero
    remainder raises ArithmeticError."""
    _spec(form, length, k, 0, q)  # the cell's checks, also when dims is empty
    dims = hull_dims(form, length, k)
    if not dims:
        return {}
    count = closed_count(form, length, k, dims.start, q)
    counts = {dims.start: count}
    for ell in dims[:-1]:
        num, den = closed_step(form, length, k, ell, q)
        count, rem = divmod(count * num, den)
        if rem:
            raise ArithmeticError(f"non-integral step from l={ell} at q={q}")
        counts[ell + dims.step] = count
    return counts
