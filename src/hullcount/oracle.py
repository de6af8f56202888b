"""Brute-force hull spectra by exhaustive subspace enumeration.

Every k-dimensional subspace of F_Q^n has a unique generator matrix in
reduced row echelon form, so enumerating those matrices enumerates the
subspaces exactly once: pivot-column subsets are visited in
lexicographic order, and for each subset the free entries run through the
element codes 0..Q-1 in loopless reflected Q-ary Gray order (Knuth, TAOCP
4A, 7.2.1.1, Algorithm H), so consecutive matrices differ in one entry by
one code step. The total yield is the Gaussian binomial [n, k]_Q, which
doubles as a built-in consistency check on every spectrum.

subspace_count is the one range and work-limit check: it returns
[n, k]_Q and refuses a count above the work limit (default 10^8
subspaces) before anything is enumerated.

The walk is taken in blocks. In a reflected Gray walk the lowest w free
entries run through all Q^w of their values between two moves of the
higher entries, forwards and backwards in turn, so those moves are
precomputed, with Q^w <= BLOCK_STATES, as a forward and a reflected
table of (digit, old, new), kept once per Q. _gray_blocks, the one
odometer, yields each pivot subset once, as its first generator, its
free entries and one iterator of its moves: the forward table, then each
move of the higher entries followed by the next table. The generators
of enumerate_subspaces apply the moves themselves.

The spectrum loop never builds FieldElem or MatrixGF objects and keeps
no Gram matrix: hull_spectrum hands each pivot subset to
algebra.gram_kernel's walk, which keys the first generator's Gram as an
int, updates the O(k) key entries each move touches and tallies the
hull dimension looked up on the key. In characteristic 2 (Q = 2, 4, 8,
...) the walk may instead change the key by one XOR per move: the change
depends only on the moved row, its pairing table, old ^ new and the
partner column packed as one int, and it comes from a memo per (row,
pairing table) that builds a change on a miss. The kernel takes that
walk where a move changes at least two key entries and every key such a
memo can meet fits algebra.DELTA_MEMO_CAP, and the per-entry walk
elsewhere. The hull lookup goes to an
algebra.CappedMemo that lives for one spectrum, sees the key as an
opaque int and holds at most RANK_MEMO_CAP entries; a key it lacks is
unpacked into its Gram matrix by the kernel and ranked, and past the cap
it is not remembered.
"""

from __future__ import annotations

import itertools
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

from .algebra import (
    CappedMemo,
    FiniteField,
    FormKind,
    MatrixGF,
    gram_kernel,
    make_field,
)
from .errors import BadRangeError, WorkLimitExceededError
from .exactnum import gaussian_binomial, prime_power_parts
from .formulas import closed_spectrum

DEFAULT_WORK_LIMIT = 10 ** 8
RANK_MEMO_CAP = 4096  # most Gram keys one spectrum remembers hull dimensions for
BLOCK_STATES = 256  # most Gray states one precomputed block of moves covers

Move = tuple[int, int, int]  # (digit, old code, new code)
Rows = list[list[int]]


def _gray(q: int, m: int) -> Iterator[Move]:
    """Algorithm H: the q^m - 1 moves of the loopless reflected q-ary Gray
    walk over m digits from all zeros, digit 0 the fastest.

    a[j] is digit j (Knuth's a_j), focus[j] names the digit to move
    next, delta[j] is digit j's direction, and a digit reflects when it
    reaches 0 or q - 1.
    """
    top = q - 1
    a = [0] * m
    focus = list(range(m + 1))
    delta = [1] * m
    while (j := focus[0]) < m:
        focus[0] = 0
        old = a[j]
        new = a[j] = old + delta[j]
        if new == 0 or new == top:
            delta[j] = -delta[j]
            focus[j] = focus[j + 1]
            focus[j + 1] = j + 1
        yield j, old, new


_MOVES: dict[int, tuple[tuple[Move, ...], tuple[Move, ...]]] = {}  # per q: the widest walk built


def _gray_moves(q: int, w: int) -> tuple[tuple[Move, ...], tuple[Move, ...]]:
    """The w-digit walk's moves, forward and reflected (reversed, each move
    undone). The first q^w - 1 moves of a wider walk are the w-digit walk,
    so one pair per q, the widest asked for, serves every width by slicing."""
    size = q ** w - 1
    forward, reflected = _MOVES.get(q, ((), ()))
    if len(forward) < size:
        forward = tuple(_gray(q, w))
        reflected = tuple((d, new, old) for d, old, new in reversed(forward))
        _MOVES[q] = forward, reflected
    return forward[:size], reflected[len(reflected) - size:]


def _gray_blocks(
    n: int, k: int, q: int
) -> Iterator[tuple[Rows, list[tuple[int, int]], Iterator[Move]]]:
    """The one odometer: walk every canonical RREF generator, yielding
    (rows, free, moves) once per pivot subset.

    rows is a k x n buffer of codes holding the subset's first generator
    (every free entry 0); free lists the free entries (r, c), lowest Gray
    digit first. moves yields (digit, old, new), and the consumer sets
    rows[r][c] = new for (r, c) = free[digit], one move to each later
    generator in turn: the table over free[:w], then each move of a
    higher digit followed by the next table, reflected and forward in
    turn. The consumer must apply every move before asking for the next
    pivot subset, and copy what it keeps of rows.
    """
    width = 0
    while width < k * (n - k) and q ** (width + 1) <= BLOCK_STATES:
        width += 1
    # widest first, so the rest are slices of it; a pivot subset with
    # w < width free entries is one block of q^w states
    tables = {w: _gray_moves(q, w) for w in range(width, -1, -1)}
    chain = itertools.chain.from_iterable

    def blocks(forward, reflected, w, higher):
        # the table over the w low digits, then Algorithm H over the higher
        # ones with a table after each of its moves
        yield forward
        for i, (d, old, new) in enumerate(_gray(q, higher)):
            yield ((w + d, old, new),)
            yield forward if i % 2 else reflected

    for pivots in itertools.combinations(range(n), k):
        rows = [[0] * n for _ in range(k)]
        for row, c in zip(rows, pivots):
            row[c] = 1
        free = [
            (r, c) for r in range(k) for c in range(pivots[r] + 1, n) if c not in pivots
        ]
        w = min(width, len(free))
        yield rows, free, chain(blocks(*tables[w], w, len(free) - w))


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
    chain = itertools.chain.from_iterable
    for rows, free, moves in _gray_blocks(n, k, field.order):
        yield trusted(field, k, n, tuple(chain(rows)))
        for d, _, new in moves:
            r, c = free[d]
            rows[r][c] = new
            yield trusted(field, k, n, tuple(chain(rows)))


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
    """Enumerate every k-dim subspace of F_Q^n and tally hull dimensions."""
    subspace_count(n, k, field.order, work_limit)
    kernel = gram_kernel(field, form, n)
    unpack, walk = kernel.stepper(k)
    memo = CappedMemo(lambda key: k - kernel.rank_of(unpack(key)), RANK_MEMO_CAP)
    acc = [0] * (k + 1)
    for rows, free, moves in _gray_blocks(n, k, field.order):
        walk(rows, free, moves, memo, acc)
    counts = MappingProxyType({ell: c for ell, c in enumerate(acc) if c})
    return HullSpectrum(n, k, form, field.order, counts)


# -- oracle vs closed form -------------------------------------------------------

class SpectrumCell(NamedTuple):
    ell: int
    oracle: int
    formula: int | None


class SpectrumComparison(NamedTuple):
    """Per-hull-dimension diff between enumeration and closed form.

    formula entries are None for the Euclidean form, which has no closed
    count here; the Gaussian-binomial sum check still applies.
    """

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
            if c.formula is not None and c.formula != c.oracle:
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
    """Run the oracle at (length, k, q) and diff it against the closed form.

    length is the ambient length (2n for symplectic); q is the formula
    order, so hermitian codes are enumerated over F_{q^2}.
    """
    field = field_for(form, q)
    spectrum = hull_spectrum(length, k, field, form, work_limit)
    closed = {} if form is FormKind.EUCLIDEAN else closed_spectrum(form, length, k, q)
    all_ells = sorted(set(spectrum.counts) | set(closed))
    cells = tuple(
        SpectrumCell(ell, spectrum.counts.get(ell, 0), closed.get(ell))
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
