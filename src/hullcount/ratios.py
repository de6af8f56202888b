"""Ratio factors between hull-dimension counts, their exceptions and limits.

Each closed-form count satisfies a one-step decomposition

    count(l) = alpha * cofactor(l) * count(l + step)

with step 1 for the Euclidean and Hermitian forms (cofactor q^(l+1) - 1)
and step 2 for the symplectic form (cofactor (q^(l+1)-1)(q^(l+2)-1)).
This module evaluates alpha exactly, classifies where the usual
"strictly above one" behaviour breaks, and computes the large-parameter
limits of the count ratios.

Exception landscape, with a = k - l and b = n - k - l (ambient 2n and
b = 2n - k - l in the symplectic case):

* Hermitian: alpha < 1 exactly on the boundary family l = 0, a and b
  both odd with min(a, b) = 1 (equivalently l = 0, n even, k in
  {1, n-1}), where alpha = q^max(a,b) / (q^max(a,b) + 1); alpha stays
  above q/(q+1) >= 2/3 everywhere.
* Symplectic: alpha itself is always below 1; the meaningful claim is
  count(l) > count(l+2), i.e. alpha * cofactor > 1, which fails exactly
  on E_S = {q = 2, l = 0, 4 <= k <= 2n-4}.
* Euclidean (no closed-form counts, but alpha is known): for odd q the
  four (n parity) x (k - l parity) cases split further along the
  quadratic character eta((-1)^(n/2)); alpha drops into [1/2, 1) exactly
  when n is even, k - l is odd and eta = +1, with equality 1/2 at
  k = n/2, l = k - 1. For even q alpha is always above 1. With the sum
  [n, k]_q these ratios fix every count, at every q (euclidean_spectrum).
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .errors import (
    BadRangeError,
    BadRegimeError,
    EvenCharacteristicError,
    OutOfValidRangeError,
    ParityViolationError,
)
from .exactnum import gaussian_binomial, prime_power_parts
from .formulas import EUCLIDEAN, HERMITIAN, SYMPLECTIC, FormKind, closed_step, hull_dims

if TYPE_CHECKING:
    from .algebra import FieldElem


class RatioClassification(Enum):
    STRICTLY_ABOVE_ONE = "strictly_above_one"
    HERMITIAN_BOUNDARY = "hermitian_boundary"
    SYMPLECTIC_EXCEPTION_ES = "symplectic_exception_es"
    EUCLIDEAN_HALF_BOUND = "euclidean_half_bound"


class AsymptoticRegime(Enum):
    BOUNDARY_FIXED_A = "boundary_fixed_a"
    JOINT = "joint"


def quadratic_character(x: FieldElem | int, q: int) -> int:
    """Quadratic character of x in F_q (odd q): +1 on nonzero squares,
    -1 on non-squares, 0 at zero, computed as x^((q-1)/2).

    Integer x is reduced into the prime subfield, so the computation never
    needs the extension field itself.
    """
    field = None if isinstance(x, int) else x.field
    p = prime_power_parts(q)[0] if field is None else field.p
    if p == 2:
        raise EvenCharacteristicError("quadratic character needs odd characteristic")
    if field is None:
        r = pow(x % p, (q - 1) // 2, p)
    elif field.order != q:
        raise BadRangeError(f"element of {field!r} against q={q}")
    else:
        r = field.pow_code(x.code, (q - 1) // 2)
    return 0 if r == 0 else 1 if r == 1 else -1


def alpha_hermitian(n: int, k: int, ell: int, q: int) -> Fraction:
    """Ratio factor with count_H(l) = alpha * (q^(l+1)-1) * count_H(l+1)."""
    prime_power_parts(q)
    if ell not in hull_dims(HERMITIAN, n, k)[:-1]:
        raise OutOfValidRangeError(
            f"alpha undefined outside l+1 <= k <= n-l-1, got n={n} k={k} l={ell}"
        )
    a = k - ell
    b = n - k - ell
    num = q ** (n - 2 * ell - 1) * (q ** (ell + 1) + 1)
    den = (q ** a - (-1) ** a) * (q ** b - (-1) ** b)
    return Fraction(num, den)


def alpha_symplectic(two_n: int, k: int, ell: int, q: int) -> Fraction:
    """Ratio factor with count_S(l) = alpha * (q^(l+1)-1)(q^(l+2)-1) * count_S(l+2)."""
    prime_power_parts(q)
    dims = hull_dims(SYMPLECTIC, two_n, k)
    if (k - ell) % 2 != 0:
        raise ParityViolationError(f"k - l must be even, got k={k} l={ell}")
    if ell not in dims[:-1]:
        raise OutOfValidRangeError(
            f"alpha undefined outside l+2 <= k <= 2n-l-2, got 2n={two_n} k={k} l={ell}"
        )
    a = k - ell
    b = two_n - k - ell
    return Fraction(q ** (a + b - 2), (q ** a - 1) * (q ** b - 1))


def alpha_euclidean(n: int, k: int, ell: int, q: int) -> Fraction:
    """Ratio factor with count_E(l) = alpha * (q^(l+1)-1) * count_E(l+1),
    stated for 1 <= k <= n/2 and 0 <= l <= k-1.

    In the odd-q, n even, k-l odd branch with eta((-1)^(n/2)) = -1 the
    denominator vanishes at l = n/2 - 1; the successor count is zero there
    and no finite factor exists, reported as OutOfValidRangeError.
    """
    prime_power_parts(q)
    if k < 1 or 2 * k > n:
        raise OutOfValidRangeError(f"need 1 <= k <= n/2, got n={n} k={k}")
    if ell not in hull_dims(EUCLIDEAN, n, k)[:-1]:
        raise OutOfValidRangeError(f"need 0 <= l <= k-1, got k={k} l={ell}")
    kl = k - ell
    if n % 2 == 1:  # the same factor for odd and even q
        t = q ** (n - k - ell if kl % 2 else kl)
        return Fraction(t, t - 1)
    if q % 2 == 1:
        eta = quadratic_character((-1) ** (n // 2), q)
        if kl % 2 == 1:
            den = q ** (n // 2 - 1) + eta * q ** ell
            if den == 0:
                raise OutOfValidRangeError(
                    "no finite ratio: the hull-(l+1) count vanishes "
                    f"(n={n} k={k} l={ell} q={q})"
                )
            return Fraction(q ** (n // 2 - 1), den)
        num = q ** (n // 2 - ell) * (q ** (n // 2 - ell) + eta)
        den = (q ** (n - k - ell) - 1) * (q ** kl - 1)
        return Fraction(num, den)
    if kl % 2 == 1:
        t = q ** (n - ell - 1)
        return Fraction(t, t - 1)
    return Fraction(
        q ** (n - ell) - 1,
        q ** ell * (q ** (n - k - ell) - 1) * (q ** kl - 1),
    )


# -- classification -----------------------------------------------------------

def _hermitian_boundary(n: int, k: int, ell: int) -> bool:
    # l = 0 with a = k and b = n - k both odd and min(a, b) = 1
    return ell == 0 and n % 2 == 0 and k in (1, n - 1)


def in_hermitian_exception(n: int, k: int, ell: int, q: int) -> bool:
    """Membership in the family where count(l) > count(l+1) fails: the
    boundary family at q = 2."""
    return q == 2 and _hermitian_boundary(n, k, ell)


def in_symplectic_exception(two_n: int, k: int, ell: int, q: int) -> bool:
    """Membership in E_S, the family where count(l) > count(l+2) fails."""
    return q == 2 and ell == 0 and k % 2 == 0 and 4 <= k <= two_n - 4


# per closed-form form, the family where count(l) > count(l + step) fails
COUNT_EXCEPTIONS = {
    FormKind.HERMITIAN: in_hermitian_exception,
    FormKind.SYMPLECTIC: in_symplectic_exception,
}


def in_euclidean_half_bound(n: int, k: int, ell: int, q: int) -> bool:
    """Membership in the Euclidean half-bound regime, where alpha drops into
    [1/2, 1): q odd, n even, k - l odd and eta((-1)^(n/2)) = +1."""
    return (
        q % 2 == 1
        and n % 2 == 0
        and (k - ell) % 2 == 1
        and quadratic_character((-1) ** (n // 2), q) == 1
    )


class HermitianClassification(NamedTuple):
    classification: RatioClassification
    ratio_monotone: bool
    count_monotone: bool


class SymplecticClassification(NamedTuple):
    classification: RatioClassification
    count_monotone: bool


# -- one-step ratio reports ----------------------------------------------------

class RatioReport(NamedTuple):
    """One decomposition step count(l) = alpha * cofactor * count(l + step).

    classification tracks the form's monotonicity discriminant: alpha
    itself for the Euclidean and Hermitian forms, alpha * cofactor for the
    symplectic form (whose alpha is always below 1). equality_boundary
    marks the Euclidean alpha = 1/2 cell (k = n/2, l = k - 1 in the
    half-bound regime); it is descriptive metadata, never asserted.
    """

    form: FormKind
    step: int
    alpha: Fraction
    cofactor: int
    full_ratio: Fraction
    classification: RatioClassification
    monotone_a: bool
    equality_boundary: bool = False


_EXCEPTION_CLASS = {
    FormKind.HERMITIAN: RatioClassification.HERMITIAN_BOUNDARY,
    FormKind.SYMPLECTIC: RatioClassification.SYMPLECTIC_EXCEPTION_ES,
    FormKind.EUCLIDEAN: RatioClassification.EUCLIDEAN_HALF_BOUND,
}


def ratio_report(form: FormKind, length: int, k: int, ell: int, q: int) -> RatioReport:
    """Build the RatioReport for one parameter cell.

    length is the ambient length: n for Euclidean/Hermitian, 2n for
    symplectic.
    """
    if form is FormKind.HERMITIAN:
        alpha = alpha_hermitian(length, k, ell, q)
        cof = q ** (ell + 1) - 1
        exceptional = _hermitian_boundary(length, k, ell)
    elif form is FormKind.SYMPLECTIC:
        alpha = alpha_symplectic(length, k, ell, q)
        cof = (q ** (ell + 1) - 1) * (q ** (ell + 2) - 1)
        exceptional = in_symplectic_exception(length, k, ell, q)
    else:
        alpha = alpha_euclidean(length, k, ell, q)
        cof = q ** (ell + 1) - 1
        exceptional = alpha < 1
    cls = _EXCEPTION_CLASS[form] if exceptional else RatioClassification.STRICTLY_ABOVE_ONE
    equality = (
        form is FormKind.EUCLIDEAN
        and 2 * k == length
        and ell == k - 1
        and in_euclidean_half_bound(length, k, ell, q)
    )
    num, den = alpha.numerator * cof, alpha.denominator  # cof and den are positive
    step = 2 if form is FormKind.SYMPLECTIC else 1
    return RatioReport(form, step, alpha, cof, Fraction(num, den), cls, num > den, equality)


def euclidean_spectrum(n: int, k: int, q: int) -> dict[int, int]:
    """Exact number of k-dimensional codes in F_q^n per Euclidean hull
    dimension l, as a dict in increasing l, from the step ratios alone.

    The chain runs at j = min(k, n - k), as C -> C^perp keeps the hull.
    With r_l the full ratio of ratio_report, count(l) = r_l * count(l + 1),
    so Horner's rule h <- 1 + r_l * h from l = 0 up gives [n, k]_q =
    count(top) * h. Where alpha has no finite value (l = n/2 - 1, eta =
    -1) no self-dual code exists and count(j) = 0 is left out. A
    non-integral count raises ArithmeticError.
    """
    prime_power_parts(q)
    if n < 0 or not 0 <= k <= n:
        raise BadRangeError(f"need 0 <= k <= n, got n={n} k={k}")
    dims = hull_dims(EUCLIDEAN, n, k)
    j = dims[-1]
    steps = []
    for ell in dims[:-1]:
        try:
            steps.append(ratio_report(EUCLIDEAN, n, j, ell, q).full_ratio)
        except OutOfValidRangeError:  # the last step, and only for eta = -1
            break
    h = Fraction(1)
    for r in steps:
        h = 1 + r * h
    count = gaussian_binomial(n, k, q) / h
    counts = {}
    for ell in range(len(steps), -1, -1):
        if count.denominator != 1:
            raise ArithmeticError(f"non-integral count at l={ell} (n={n} k={k} q={q})")
        counts[ell] = count.numerator
        if ell:
            count *= steps[ell - 1]
    return dict(reversed(counts.items()))


def classify_hermitian(n: int, k: int, ell: int, q: int) -> HermitianClassification:
    """Boundary-family classification plus the two monotonicity booleans.

    ratio_monotone is alpha * (q^(l+1) - 1) > 1, taken from ratio_report;
    count_monotone is count(l) > count(l+1), read off the closed form's
    exact step quotient (formulas.closed_step) without evaluating either
    count. They agree whenever both sides are defined, but are computed by
    different routes: ratio_report never touches the closed form.
    """
    rep = ratio_report(FormKind.HERMITIAN, n, k, ell, q)
    boundary = rep.classification is RatioClassification.HERMITIAN_BOUNDARY
    if (rep.alpha < 1) != boundary:
        raise ArithmeticError(
            f"alpha = {rep.alpha} contradicts the boundary family "
            f"at n={n} k={k} l={ell} q={q}"
        )
    num, den = closed_step(FormKind.HERMITIAN, n, k, ell, q)
    return HermitianClassification(rep.classification, rep.monotone_a, num < den)


def classify_symplectic(two_n: int, k: int, ell: int, q: int) -> SymplecticClassification:
    """E_S membership plus the count-level monotonicity boolean
    count(l) > count(l+2), evaluated as alpha * cofactor > 1."""
    rep = ratio_report(FormKind.SYMPLECTIC, two_n, k, ell, q)
    return SymplecticClassification(rep.classification, rep.monotone_a)


# -- asymptotics ----------------------------------------------------------------

class AsymptoticReport(NamedTuple):
    form: FormKind
    regime: AsymptoticRegime
    ell: int
    q: int
    a: int | None
    limit: Fraction


def _check_asymptotic(regime: AsymptoticRegime, ell: int, q: int, a: int | None) -> None:
    """The arguments both forms' limits share: l >= 0, a prime power q,
    and no fixed a in the joint regime."""
    if ell < 0:
        raise BadRegimeError(f"need l >= 0, got l={ell}")
    prime_power_parts(q)
    if regime is AsymptoticRegime.JOINT and a is not None:
        raise BadRegimeError("joint regime takes no fixed a")


def asymptotic_hermitian(
    regime: AsymptoticRegime, ell: int, q: int, a: int | None = None
) -> AsymptoticReport:
    """Limit of count(l)/count(l+1) as b -> infinity.

    Boundary regime fixes a = k - l >= 1; the joint regime sends a and b
    to infinity together, giving (q^(2(l+1)) - 1)/q.
    """
    _check_asymptotic(regime, ell, q, a)
    if regime is AsymptoticRegime.JOINT:
        limit = Fraction(q ** (2 * (ell + 1)) - 1, q)
        return AsymptoticReport(FormKind.HERMITIAN, regime, ell, q, None, limit)
    if a is None or a < 1:
        raise BadRegimeError(f"boundary regime needs a >= 1, got {a}")
    num = q ** (a - 1) * (q ** (ell + 1) + 1) * (q ** (ell + 1) - 1)
    den = q ** a - (-1) ** a
    return AsymptoticReport(FormKind.HERMITIAN, regime, ell, q, a, Fraction(num, den))


def asymptotic_symplectic(
    regime: AsymptoticRegime, ell: int, q: int, a: int | None = None
) -> AsymptoticReport:
    """Limit of count(l)/count(l+2); boundary fixes even a = k - l >= 2,
    joint gives (q^(l+1) - 1)(q^(l+2) - 1)/q^2."""
    _check_asymptotic(regime, ell, q, a)
    if regime is AsymptoticRegime.JOINT:
        limit = Fraction((q ** (ell + 1) - 1) * (q ** (ell + 2) - 1), q * q)
        return AsymptoticReport(FormKind.SYMPLECTIC, regime, ell, q, None, limit)
    if a is None or a < 2 or a % 2 != 0:
        raise BadRegimeError(f"boundary regime needs even a >= 2, got {a}")
    num = q ** (a - 2) * (q ** (ell + 1) - 1) * (q ** (ell + 2) - 1)
    return AsymptoticReport(
        FormKind.SYMPLECTIC, regime, ell, q, a, Fraction(num, q ** a - 1)
    )


# -- cross-form comparison ------------------------------------------------------

class ComparisonRow(NamedTuple):
    form: FormKind
    step: int
    alpha_lower_bound: str
    alpha_asymptotic: str
    count_ratio_limits: Mapping[int, Fraction]  # read-only
    exceptions: str


def comparison_rows(q_values: Sequence[int] = (2, 3)) -> list[ComparisonRow]:
    """Side-by-side summary of the three forms: step size, alpha bounds,
    and the l = 0 joint count-ratio limit at each requested q."""
    herm = MappingProxyType({  # asymptotic_hermitian checks each q first
        q: asymptotic_hermitian(AsymptoticRegime.JOINT, 0, q).limit for q in q_values
    })
    sympl = MappingProxyType({
        q: asymptotic_symplectic(AsymptoticRegime.JOINT, 0, q).limit for q in q_values
    })
    euclid = MappingProxyType({q: Fraction(q * q - 1, q) for q in q_values})
    return [
        ComparisonRow(
            FormKind.EUCLIDEAN,
            1,
            "1/2",
            "(q+1)/q",
            euclid,
            "half-bound regime: n even, k-l odd, eta((-1)^(n/2)) = +1",
        ),
        ComparisonRow(
            FormKind.HERMITIAN,
            1,
            "q/(q+1) >= 2/3",
            "(q+1)/q",
            herm,
            "l = 0, n even, k in {1, n-1}",
        ),
        ComparisonRow(
            FormKind.SYMPLECTIC,
            2,
            "none above 1",
            "1/q^2",
            sympl,
            "E_S: q = 2, l = 0, 4 <= k <= 2n-4",
        ),
    ]
