"""Entanglement-assisted code parameters derived from classical hulls.

An [[n, k_logical, d; c]]_q code uses n channel qudits, protects k_logical
logical qudits, and consumes c preshared maximally entangled pairs. Two
standard constructions relate c to the hull dimension of a classical seed
code: a length-n code with k dimensions and hull dimension l yields the
complementary pair

    [[n, k - l, d; n - k - l]]_q   and   [[n, n - k - l, d_perp; k - l]]_q,

while a 2n-length code with symplectic hull l yields

    [[n, n - (k + l)/2, d; (k - l)/2]]_q.

For a binary quantum check matrix H = [H_Z | H_X] the ebit count is half
the rank of the symplectic Gram matrix of its rows; that rank is always
even because the form is alternating, so an odd value is impossible and
signals a bug rather than bad input.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .errors import BadRangeError, OddGramRankError, ParityViolationError
from .exactnum import prime_power_parts
from .formulas import FormKind, ValidatedRecord, closed_spectrum, hull_dims, require_even_length
from .ratios import COUNT_EXCEPTIONS

if TYPE_CHECKING:
    from .algebra import MatrixGF


class _EaqeccFields(NamedTuple):
    n: int
    k_logical: int
    c: int
    q: int
    d: int | None = None


class EaqeccParams(ValidatedRecord, _EaqeccFields):
    """Parameter tuple [[n, k_logical, d; c]]_q; d stays None when unknown."""

    __slots__ = ()

    def __new__(cls, n: int, k_logical: int, c: int, q: int, d: int | None = None):
        if not 0 <= k_logical <= n:
            raise BadRangeError(f"need 0 <= k_logical <= n, got k={k_logical} n={n}")
        if not 0 <= c <= n:
            raise BadRangeError(f"need 0 <= c <= n, got c={c} n={n}")
        prime_power_parts(q)
        return tuple.__new__(cls, (n, k_logical, c, q, d))

    def __str__(self) -> str:
        d = "d" if self.d is None else str(self.d)
        return f"[[{self.n}, {self.k_logical}, {d}; {self.c}]]_{self.q}"


def gjg_map(
    n: int,
    k: int,
    ell: int,
    q: int,
    d: int | None = None,
    d_dual: int | None = None,
) -> tuple[EaqeccParams, EaqeccParams]:
    """Complementary pair of entanglement-assisted codes from one classical
    code of length n, dimension k, hull dimension ell."""
    if not 0 <= k <= n:
        raise BadRangeError(f"need 0 <= k <= n, got k={k} n={n}")
    if ell not in hull_dims(FormKind.EUCLIDEAN, n, k):
        raise BadRangeError(
            f"hull dimension must lie in 0..min(k, n-k), got l={ell}"
        )
    primary = EaqeccParams(n, k - ell, n - k - ell, q, d)
    partner = EaqeccParams(n, n - k - ell, k - ell, q, d_dual)
    return primary, partner


def wilde_brun_map(
    two_n: int, k: int, ell: int, q: int, d: int | None = None
) -> EaqeccParams:
    """Entanglement-assisted code from a symplectic seed of length 2n."""
    dims = hull_dims(FormKind.SYMPLECTIC, two_n, k)
    if (k - ell) % 2 != 0:
        raise ParityViolationError(f"k - l must be even, got k={k} l={ell}")
    if ell not in dims:
        raise BadRangeError(
            f"hull dimension must lie in 0..min(k, 2n-k), got k={k} l={ell} 2n={two_n}"
        )
    n = two_n // 2
    return EaqeccParams(n, n - (k + ell) // 2, (k - ell) // 2, q, d)


def ebits_from_check_matrix(check: MatrixGF) -> int:
    """Ebits consumed by a binary check matrix [H_Z | H_X]: half the rank of
    the symplectic Gram of its rows. Accepts dependent rows; the Gram rank
    only sees the row space. The rows are packed into ints, so the Gram is
    a parity Gram and its rank an XOR basis (algebra's F_2 route)."""
    from .algebra import _packed_rows, _parity_gram, _xor_rank

    if check.field.order != 2:
        raise BadRangeError("check matrices are binary, need the field of order 2")
    require_even_length(check.cols)
    rank = _xor_rank(_parity_gram(_packed_rows(check), FormKind.SYMPLECTIC, check.cols))
    if rank % 2 != 0:
        raise OddGramRankError(
            f"alternating Gram rank came out odd ({rank}); this is a bug"
        )
    return rank // 2


class CensusRow(NamedTuple):
    ell: int
    ebits: int
    count: int
    exceptional: bool


def entanglement_census(
    length: int, k: int, q: int, form: FormKind
) -> list[CensusRow]:
    """All achievable ebit values for fixed (length, k, q), with the exact
    number of seed codes behind each, ordered by increasing hull dimension.

    Rows in the known count-monotonicity exception families are flagged.
    Only the hermitian and symplectic forms have closed-form counts.
    """
    if form is FormKind.EUCLIDEAN:
        raise BadRangeError("no closed-form census for the euclidean form")
    hull_dims(form, length, k)  # an odd symplectic length is refused first
    hermitian = form is FormKind.HERMITIAN
    if not 0 <= k <= length:
        name = "n" if hermitian else "2n"
        raise BadRangeError(f"need 0 <= k <= {name}, got k={k} {name}={length}")
    rows = []
    for ell, count in closed_spectrum(form, length, k, q).items():
        seed = gjg_map(length, k, ell, q)[0] if hermitian else wilde_brun_map(length, k, ell, q)
        rows.append(CensusRow(ell, seed.c, count, COUNT_EXCEPTIONS[form](length, k, ell, q)))
    return rows
