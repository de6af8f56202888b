"""Exact hull spectra over every subspace, and subspace enumeration.

Every k-dimensional subspace of F_Q^n has one generator matrix in reduced
row echelon form for any fixed column order, so counting those matrices
counts each subspace once; the total is the Gaussian binomial [n, k]_Q, a
built-in check on every spectrum. subspace_count is the one range and
work-limit check: it returns [n, k]_Q and refuses a count above the work
limit (default 10^8 subspaces) before anything is counted. For
hull_spectrum that bounds the cell's size, not its cost, which grows with
the classes and the distinct column Grams below.

hull_spectrum counts by transfer matrices over the congruence classes of
Gram matrices, never a subspace at a time. C -> C^perp keeps the hull, so
it counts at j = min(k, n - k). Each j-subspace has |GL_j(Q)| generator
matrices, all with Grams of one rank, so count(l) = F_j(j - l) / |GL_j(Q)|,
F_j(s) being the number of full-rank j x n matrices whose Gram has rank s.
Moebius inversion over the subspaces of F_Q^j drops "full rank":
F_j(s) = sum_d (-1)^(j-d) Q^C(j-d, 2) [j, d]_Q g_d(s), g_d(s) counting all
d x n matrices with Gram rank s. A d x n matrix's Gram is the sum of one
step Gram per step of its columns (one column, or a symplectic pair), and
the step Grams are closed under congruence, so how many take a Gram K
into each class depends on K's class alone: with T_d that classes x
classes matrix, g_d is the zero class's row of T_d^steps summed by rank.
There are at most 2d + 1 classes (algebra.gram_kernel's class_of). T_d
does not depend on n and is built once per (field, form, d). For one
column a step, it comes from each distinct column Gram against one Gram of
each class, reached by walking from the zero matrix. An alternating Gram's
class is its rank, one isometry type per rank, so the symplectic T_d is a
closed form in Q, d and the rank alone (_alternating_transfer), and no
step Gram is listed. The spectrum reads neither formulas nor ratios, so
it stays an independent check on both.

enumerate_subspaces yields the generators themselves, for the natural
column order: _generators takes one pivot subset at a time and yields
each generator's codes from one itertools.product over its entries, so
the free entries run in lexicographic order.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
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
    gram_kernel(field, form, n)  # the form's errors, before any counting
    q = field.order
    j = min(k, n - k)
    steps = n // 2 if form is FormKind.SYMPLECTIC else n
    full = [0] * (j + 1)  # F_j(s), full-rank j x n matrices by Gram rank
    for d in range(j + 1):
        labels, table = _transfer(field, form, d)
        zero_row = [1] + [0] * (len(labels) - 1)
        for _ in range(steps):
            zero_row = [sum(w * row[c] for w, row in zip(zero_row, table)) for c in range(len(labels))]
        weight = (-1) ** (j - d) * q ** ((j - d) * (j - d - 1) // 2) * gaussian_binomial(j, d, q)
        for (rank, _), matrices in zip(labels, zero_row):
            full[rank] += weight * matrices
    bases = math.prod(q ** j - q ** i for i in range(j))  # |GL_j(Q)|
    counts = {}
    for ell in range(j + 1):
        count, rest = divmod(full[j - ell], bases)
        if rest:
            raise ArithmeticError(f"F_{j}({j - ell}) is not a multiple of |GL_{j}({q})|")
        if count:
            counts[ell] = count
    return HullSpectrum(n, k, form, q, MappingProxyType(counts))


def _step_grams(field: FiniteField, form: FormKind, d: int) -> collections.Counter:
    """Each column's d x d Gram x x^T (x x^* hermitian), as a tuple of rows,
    with how many of the Q^d columns x give it."""
    gram_of = gram_kernel(field, form, 1).gram_of
    vectors = itertools.product(range(field.order), repeat=d)
    return collections.Counter(tuple(map(tuple, gram_of([[a] for a in x]))) for x in vectors)


@functools.lru_cache(maxsize=256)
def _transfer(field: FiniteField, form: FormKind, d: int) -> tuple[tuple, tuple[tuple[int, ...], ...]]:
    """T_d: the class labels (rank, extra) reached from the zero Gram, the
    zero class first, and table[c][c2], how many step fills take a Gram of
    class c to class c2."""
    if form is FormKind.SYMPLECTIC:
        return _alternating_transfer(field.order, d)
    class_of = gram_kernel(field, form, 1).class_of
    add = field.add_table
    steps = _step_grams(field, form, d).items()
    zero = [[0] * d for _ in range(d)]
    index = {class_of(zero): 0}
    reps = [zero]
    rows = []
    for rep in reps:  # grows as the walk reaches new classes
        row = collections.Counter()
        for gram, fills in steps:
            moved = [[add[a][b] for a, b in zip(x, y)] for x, y in zip(rep, gram)]
            c = index.setdefault(class_of(moved), len(index))
            if c == len(reps):
                reps.append(moved)
            row[c] += fills
        rows.append(row)
    return tuple(index), tuple(tuple(row[c] for c in range(len(reps))) for row in rows)


def _alternating_transfer(q: int, d: int) -> tuple[tuple, tuple[tuple[int, ...], ...]]:
    """The symplectic T_d from the rank alone, labels (0, 0), (2, 0), ...,
    (2 floor(d/2), 0) in the walk's order. Take K alternating of rank 2r,
    with image S and w = d - 2r: a fill (u, v) adds u v^T - v u^T. The
    rank goes up by two for the q^4r (q^w - 1)(q^w - q) fills with u, v
    independent modulo S. It goes down by two for the (q^2r - 1) q^(2r-1)
    fills with u, v in S to which the form K induces on S gives the one
    nonzero value that makes the Pfaffian of K + u^v on S vanish: any
    u != 0, then an affine hyperplane of v. It stays for the rest of the
    q^2d fills."""
    top = d // 2
    table = []
    for r in range(top + 1):
        w = d - 2 * r
        row = [0] * (top + 1)
        if r < top:
            row[r + 1] = q ** (4 * r) * (q ** w - 1) * (q ** w - q)
        if r:
            row[r - 1] = (q ** (2 * r) - 1) * q ** (2 * r - 1)
        row[r] = q ** (2 * d) - sum(row)
        table.append(tuple(row))
    return tuple((2 * r, 0) for r in range(top + 1)), tuple(table)


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
    order, so hermitian codes are enumerated over F_{q^2}. An
    ArithmeticError of either side (a count that a check finds not
    integral) is raised again with its side, "oracle: " or "formula: ",
    before its message.
    """
    field = field_for(form, q)
    try:
        spectrum = hull_spectrum(length, k, field, form, work_limit)
    except ArithmeticError as exc:
        raise ArithmeticError(f"oracle: {exc}") from exc
    try:
        if form is FormKind.EUCLIDEAN:
            formula = euclidean_spectrum(length, k, q)
        else:
            formula = closed_spectrum(form, length, k, q)
    except ArithmeticError as exc:
        raise ArithmeticError(f"formula: {exc}") from exc
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
