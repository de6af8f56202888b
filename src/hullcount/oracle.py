"""Exact hull spectra over every subspace, and subspace enumeration.

Every k-dimensional subspace of F_Q^n has one generator matrix in reduced
row echelon form for any fixed column order, so counting those matrices
counts each subspace once; the total is the Gaussian binomial [n, k]_Q, a
built-in check on every spectrum. subspace_count is the one range and
work-limit check: it returns [n, k]_Q and refuses a count above the work
limit (default 10^8 subspaces) before anything is counted. For
hull_spectrum that bounds the cell's size, not its cost, which grows with
the classes and the steps below.

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
into each class depends on K's class alone. A class is (rank, extra): the
rank alone for the hermitian and symplectic forms, and for the Euclidean
form also the square class of the discriminant (odd q) or whether the
diagonal is nonzero (even q), at most 2d + 1 classes. T_d is its list of
moves (class, class after, fills), one for each pair of classes a step
joins, each fill count a closed form in Q, d and the class, read from how
a step's columns lie against the image of K; no Gram is built, no field
table read and no classes x classes matrix formed. _gram_classes steps a
dict {class: matrices} from the zero class, `steps` times, straight off
the moves, which gives g_d by class. T_d does not depend on n, and its
moves are built once per (Q, form, d). The spectrum reads neither
formulas nor ratios, so it stays an independent check on both.

enumerate_subspaces yields the generators themselves, for the natural
column order: _generators takes one pivot subset at a time and yields
each generator's codes from one itertools.product over its entries, so
the free entries run in lexicographic order.
"""

from __future__ import annotations

import functools
import itertools
import math
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

from .algebra import FiniteField, FormKind, MatrixGF, make_field, require_form
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
    """Count every k-dim subspace of F_Q^n by its hull dimension: F_j by
    class from _gram_classes, summed by Gram rank, over |GL_j(Q)|."""
    subspace_count(n, k, field.order, work_limit)
    require_form(field, form, n)
    q = field.order
    j = min(k, n - k)
    full = [0] * (j + 1)  # F_j(s), full-rank j x n matrices by Gram rank
    for (rank, _), matrices in _gram_classes(n, j, q, form).items():
        full[rank] += matrices
    bases = math.prod(q ** j - q ** i for i in range(j))  # |GL_j(Q)|
    counts = {}
    for ell in range(j + 1):
        count, rest = divmod(full[j - ell], bases)
        if rest:
            raise ArithmeticError(f"F_{j}({j - ell}) is not a multiple of |GL_{j}({q})|")
        if count:
            counts[ell] = count
    return HullSpectrum(n, k, form, q, MappingProxyType(counts))


def _gram_classes(n: int, j: int, q: int, form: FormKind) -> dict[tuple[int, int], int]:
    """F_j by class: how many full-rank j x n matrices over F_q (q the
    field's order) have a Gram in each class. For each d <= j, g_d by
    class steps a dict {class: matrices} from the zero class, one step a
    column (a symplectic pair of columns), straight off T_d's moves; the
    Moebius weights then drop "full rank"."""
    steps = n // 2 if form is FormKind.SYMPLECTIC else n
    full = {}
    for d in range(j + 1):
        moves = _transfer(q, form, d)
        reached = {(0, 0): 1}
        for _ in range(steps):
            stepped = {}
            for c, after, fills in moves:
                matrices = reached.get(c)
                if matrices:
                    stepped[after] = stepped.get(after, 0) + matrices * fills
            reached = stepped
        weight = (-1) ** (j - d) * q ** ((j - d) * (j - d - 1) // 2) * gaussian_binomial(j, d, q)
        for c, matrices in reached.items():
            full[c] = full.get(c, 0) + weight * matrices
    return full


@functools.lru_cache(maxsize=256)
def _transfer(q: int, form: FormKind, d: int) -> tuple[tuple, ...]:
    """T_d as its moves (class, class after, fills) on the d x d Grams over
    F_q, q the field's order: how many step fills take a Gram of the class
    to the class after, from the form's closed forms, summed into one move
    for each pair of classes, and only the nonzero ones."""
    if form is FormKind.SYMPLECTIC:
        moves = _alternating_moves(q, d)
    elif form is FormKind.HERMITIAN:
        moves = _hermitian_moves(q, d)
    elif q % 2:
        moves = _odd_symmetric_moves(q, d)
    else:
        moves = _even_symmetric_moves(q, d)
    merged = {}
    for c, after, fills in moves:
        merged[c, after] = merged.get((c, after), 0) + fills
    return tuple((c, after, fills) for (c, after), fills in merged.items() if fills)


def _alternating_moves(q: int, d: int) -> list:
    """The symplectic moves, for K alternating of rank r (even), image S
    and w = d - r: a fill (u, v) adds u v^T - v u^T. The rank goes up by
    two for the q^2r (q^w - 1)(q^w - q) fills with u, v independent
    modulo S. It goes down by two for the (q^r - 1) q^(r-1) fills with
    u, v in S to which the form K induces on S gives the one nonzero
    value that makes the Pfaffian of K + u^v on S vanish: any u != 0,
    then an affine hyperplane of v. It stays for the rest of the q^2d."""
    moves = []
    for r in range(0, d + 1, 2):
        w = d - r
        up = q ** (2 * r) * (q ** w - 1) * (q ** w - q)
        down = (q ** r - 1) * q ** r // q
        moves += [((r, 0), (r + 2, 0), up), ((r, 0), (r - 2, 0), down),
                  ((r, 0), (r, 0), q ** (2 * d) - up - down)]
    return moves


def _hermitian_moves(order: int, d: int) -> list:
    """The hermitian moves, for K of rank r, order = q^2: of the columns x
    in S, the q^(2r-1) - (-1)^r q^(r-1) with x^* K_S^-1 x = -1 drop the
    rank (a hermitian form's count at a nonzero value of F_q), and the
    order^d - order^r columns outside S raise it."""
    q = math.isqrt(order)
    moves = []
    for r in range(d + 1):
        drop = (q ** (2 * r) - (-q) ** r) // q
        moves += [((r, 0), (r + 1, 0), order ** d - order ** r), ((r, 0), (r - 1, 0), drop),
                  ((r, 0), (r, 0), order ** r - drop)]
    return moves


def _odd_symmetric_moves(q: int, d: int) -> list:
    """The Euclidean moves at odd q, for K of class (r, e), e = 1 when the
    determinant of its nondegenerate part K_S is a nonsquare. A column x
    outside S raises the rank and keeps e. For x in S, c = x^T K_S^-1 x,
    det(K_S + x x^T) = det(K_S) (1 + c): c = -1 drops the rank and
    multiplies the discriminant by -1, any other c keeps the rank and
    flips e when 1 + c is a nonsquare. at[eta] counts the x in S with c
    equal to any one value of quadratic character eta (0 for c = 0): the
    counts of a nondegenerate quadratic form of rank r with sign
    s = eta((-1)^h det K_S), h = r // 2. The c outside {0, -1} by
    (eta(c), eta(1 + c)) are the cyclotomic numbers of order 2."""
    m = 1 if q % 4 == 1 else -1  # eta(-1)
    pairs = (((1, 1), (q - 4 - m) // 4), ((1, -1), (q - m) // 4),
             ((-1, 1), (q - 2 + m) // 4), ((-1, -1), (q - 2 + m) // 4))
    moves = []
    for r, e in [(0, 0)] + [(r, e) for r in range(1, d + 1) for e in (0, 1)]:
        h = r // 2
        s = m ** h * (-1) ** e
        if r % 2:
            at = {eta: q ** (r - 1) + q ** h * s * eta for eta in (-1, 0, 1)}
        else:
            at = {eta: (q ** r - q ** h * s + (eta == 0) * q ** (h + 1) * s) // q for eta in (-1, 0, 1)}
        moves += [((r, e), (r + 1, e), q ** d - q ** r), ((r, e), (r - 1, e ^ (m < 0)), at[m]),
                  ((r, e), (r, e), at[0])]
        moves += [((r, e), (r, e ^ (b < 0)), count * at[a]) for (a, b), count in pairs]
    return moves


def _even_symmetric_moves(q: int, d: int) -> list:
    """The Euclidean moves at even q, for K of class (r, e), e = 1 when its
    diagonal is nonzero. Then x^T K x = (lam . x)^2 for one lam in S, and
    x^T K_S^-1 x = 1 on an affine hyperplane of S: its q^(r-1) columns
    drop the rank, lam among them when r is odd. The diagonal of K + x x^T
    is zero only at x = lam. K alternating (e = 0, r even) has lam = 0,
    and x^T K_S^-1 x = 0 on all of S."""
    moves = []
    for r in range(d + 1):
        if r % 2 == 0:
            moves += [((r, 0), (r + 1, 1), q ** d - q ** r), ((r, 0), (r, 0), 1),
                      ((r, 0), (r, 1), q ** r - 1)]
        if r:
            odd = r % 2
            drop = q ** (r - 1)
            moves += [((r, 1), (r + 1, 1), q ** d - q ** r), ((r, 1), (r - 1, 0), odd),
                      ((r, 1), (r - 1, 1), drop - odd), ((r, 1), (r, 0), 1 - odd),
                      ((r, 1), (r, 1), q ** r - drop - 1 + odd)]
    return moves


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
