"""Exact hull spectra over every subspace, and subspace enumeration.

Every k-dimensional subspace of F_Q^n has one generator matrix in reduced
row echelon form for any fixed column order, so counting those matrices
counts each subspace once; the total is the Gaussian binomial [n, k]_Q, a
built-in check on every spectrum. subspace_count is the one range and
work-limit check: it returns [n, k]_Q and refuses a count above the work
limit (default 10^8 subspaces) before anything is counted.

hull_spectrum builds no FieldElem, MatrixGF or Gram matrix: it makes one
call to algebra.gram_kernel's dynamic program, columns(k)'s count(),
which merges all generator prefixes with the same pivot count and partial
Gram key and returns the finished keys with how many generators reach
each. The spectrum unpacks and ranks each distinct key once and tallies
its generators at the key's hull dimension. There are at most as many
keys as Grams the form can give (Q^(k(k+1)/2) Euclidean, q^k Q^(k(k-1)/2)
hermitian with Q = q^2, Q^(k(k-1)/2) symplectic), and never more than
[n, k]_Q. The spectrum reads neither formulas nor ratios, so it stays an
independent check on both.

enumerate_subspaces yields the generators themselves, for the natural
column order: _generators takes one pivot subset at a time and yields
each generator's codes from one itertools.product over its entries, so
the free entries run in lexicographic order.
"""

from __future__ import annotations

import itertools
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

from .algebra import (
    FiniteField,
    FormKind,
    MatrixGF,
    gram_kernel,
    make_field,
)
from .errors import BadRangeError, WorkLimitExceededError
from .exactnum import gaussian_binomial, prime_power_parts
from .formulas import closed_spectrum
from .ratios import euclidean_spectrum

DEFAULT_WORK_LIMIT = 10 ** 8


def subspace_count(
    n: int, k: int, order: int, work_limit: int | None = DEFAULT_WORK_LIMIT
) -> int:
    """[n, k]_Q, the number of k-dimensional subspaces of F_Q^n for Q =
    order, a prime power: the one range, order and work-limit check, made
    before anything is enumerated. work_limit None disables the limit."""
    if n < 0 or not 0 <= k <= n:
        raise BadRangeError(f"need 0 <= k <= n, got n={n} k={k}")
    prime_power_parts(order)
    count = gaussian_binomial(n, k, order)
    if work_limit is not None and count > work_limit:
        raise WorkLimitExceededError(
            f"estimated {count} subspaces exceeds work limit {work_limit}"
        )
    return count


def enumerate_subspaces(
    n: int, k: int, field: FiniteField, work_limit: int | None = DEFAULT_WORK_LIMIT
) -> Iterator[MatrixGF]:
    """All k-dimensional subspaces of F_Q^n as canonical generator matrices.

    The range and the work limit are checked on the call; the generator it
    returns makes one pass."""
    subspace_count(n, k, field.order, work_limit)
    return _generators(n, k, field)


def _generators(n: int, k: int, field: FiniteField) -> Iterator[MatrixGF]:
    trusted = MatrixGF._trusted
    codes = range(field.order)
    for pivots in itertools.combinations(range(n), k):
        # each entry's choices, row by row: a pivot is 1, an entry right of
        # its row's pivot and in no pivot column is free, and the rest are 0
        entries = [
            (1,) if c == p else codes if c > p and c not in pivots else (0,)
            for p in pivots
            for c in range(n)
        ]
        for generator in itertools.product(*entries):
            yield trusted(field, k, n, generator)


# -- spectra --------------------------------------------------------------------

class HullSpectrum(NamedTuple):
    """Exact map hull dimension -> number of k-dim subspaces attaining it,
    as a read-only mapping."""

    n: int
    k: int
    form: FormKind
    field_order: int
    counts: Mapping[int, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def hull_spectrum(
    n: int,
    k: int,
    field: FiniteField,
    form: FormKind,
    work_limit: int | None = DEFAULT_WORK_LIMIT,
) -> HullSpectrum:
    """Count every k-dim subspace of F_Q^n by its hull dimension."""
    subspace_count(n, k, field.order, work_limit)
    kernel = gram_kernel(field, form, n)
    unpack, _, _, count = kernel.columns(k)
    acc = [0] * (k + 1)
    for key, generators in count().items():
        acc[k - kernel.rank_of(unpack(key))] += generators
    counts = MappingProxyType({ell: c for ell, c in enumerate(acc) if c})
    return HullSpectrum(n, k, form, field.order, counts)


# -- oracle vs closed form -------------------------------------------------------

class SpectrumCell(NamedTuple):
    ell: int
    oracle: int
    formula: int


class SpectrumComparison(NamedTuple):
    """Per-hull-dimension diff between enumeration and formula (see
    spectrum_vs_formula); a hull dimension one side lacks counts 0 there."""

    length: int
    k: int
    q: int
    form: FormKind
    cells: tuple[SpectrumCell, ...]
    oracle_total: int
    expected_total: int

    @property
    def passed(self) -> bool:
        return self.first_failure() is None

    def first_failure(self) -> str | None:
        """The first wrong cell, else a wrong total, else None."""
        for c in self.cells:
            if c.formula != c.oracle:
                return f"l={c.ell}: oracle {c.oracle} != formula {c.formula}"
        if self.oracle_total != self.expected_total:
            return f"sum {self.oracle_total} != expected {self.expected_total}"
        return None


def field_for(form: FormKind, q: int) -> FiniteField:
    """The field a form's codes live in for the formula order q: F_{q^2}
    for the hermitian form, F_q otherwise."""
    p, e = prime_power_parts(q)
    return make_field(p, 2 * e if form is FormKind.HERMITIAN else e)


def spectrum_vs_formula(
    length: int,
    k: int,
    q: int,
    form: FormKind,
    work_limit: int | None = DEFAULT_WORK_LIMIT,
) -> SpectrumComparison:
    """Run the oracle at (length, k, q) and diff it against closed_spectrum,
    or for the Euclidean form against the ratio layer's euclidean_spectrum.

    length is the ambient length (2n for symplectic); q is the formula
    order, so hermitian codes are enumerated over F_{q^2}.
    """
    field = field_for(form, q)
    spectrum = hull_spectrum(length, k, field, form, work_limit)
    if form is FormKind.EUCLIDEAN:
        formula = euclidean_spectrum(length, k, q)
    else:
        formula = closed_spectrum(form, length, k, q)
    all_ells = sorted(set(spectrum.counts) | set(formula))
    cells = tuple(
        SpectrumCell(ell, spectrum.counts.get(ell, 0), formula.get(ell, 0))
        for ell in all_ells
    )
    return SpectrumComparison(
        length,
        k,
        q,
        form,
        cells,
        spectrum.total,
        gaussian_binomial(length, k, field.order),
    )
