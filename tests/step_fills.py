"""Every fill of one step's columns, and the congruence class of a Gram,
by brute force: the test-side reference for the step Grams and the
classes that the oracle's transfer matrices count."""

import collections
import functools
import itertools
from typing import Callable

from hullcount.algebra import FiniteField, FormKind, RawRows, gram_kernel


@functools.lru_cache(maxsize=None)
def fill_grams(field: FiniteField, form: FormKind, d: int) -> collections.Counter:
    """How many fills of one step's d x w block give each d x d step Gram
    (a tuple of rows): every column x (w = 1), or every symplectic pair
    (u, v) (w = 2), through gram_kernel(field, form, w).gram_of."""
    width = 2 if form is FormKind.SYMPLECTIC else 1
    gram_of = gram_kernel(field, form, width).gram_of
    grams: collections.Counter = collections.Counter()
    for fill in itertools.product(range(field.order), repeat=width * d):
        rows = [fill[i * width:(i + 1) * width] for i in range(d)]
        grams[tuple(map(tuple, gram_of(rows)))] += 1
    return grams


@functools.lru_cache(maxsize=None)
def class_of(field: FiniteField, form: FormKind) -> Callable[[RawRows], tuple[int, int]]:
    """The function that maps a Gram matrix of the form, left unchanged,
    to its congruence class (rank, extra): two Grams are P G P^T (P G P^*
    for the hermitian form) for an invertible P exactly when their
    classes are equal. A hermitian or alternating Gram's class is its rank
    (extra 0). A symmetric one also needs, in characteristic 2, whether
    its diagonal is nonzero, and in odd characteristic the square class of
    the determinant of its nondegenerate part, K[J, J] for the pivot
    columns J of rank_of: extra is the parity of that determinant's log.
    rank_of's own pivots give det K[I, J], I the pivot rows, whose square
    class can differ, so the determinant is a second elimination that
    tracks its row swaps."""
    mul = field.mul_table
    add = field.add_table
    neg = field.neg_table
    inv = field.inv_table
    log = field._log
    rank_of = gram_kernel(field, form, 2).rank_of

    def rank_class(g: RawRows) -> tuple[int, int]:
        return rank_of([list(row) for row in g]), 0

    def diagonal_class(g: RawRows) -> tuple[int, int]:
        return rank_of([list(row) for row in g]), int(any(row[i] for i, row in enumerate(g)))

    def discriminant_class(g: RawRows) -> tuple[int, int]:
        rows = [list(row) for row in g]
        r = rank_of(rows)
        pivots = [next(c for c, x in enumerate(row) if x) for row in rows[:r]]
        m = [[g[i][j] for j in pivots] for i in pivots]
        parity = 0  # of log det m: each pivot's log, and log(-1) per row swap
        for c in range(r):
            piv = next(i for i in range(c, r) if m[i][c])
            if piv != c:
                m[c], m[piv] = m[piv], m[c]
                parity += log[neg[1]]
            prow = m[c]
            parity += log[prow[c]]
            pinv = inv[prow[c]]
            for i in range(c + 1, r):
                if f := m[i][c]:
                    mrow = mul[mul[f][pinv]]
                    m[i] = [add[x][neg[mrow[y]]] for x, y in zip(m[i], prow)]
        return r, parity % 2

    if form is not FormKind.EUCLIDEAN:
        return rank_class
    return diagonal_class if field.p == 2 else discriminant_class
