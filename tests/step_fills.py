"""Every fill of one step's columns, listed by brute force: the test-side
reference for the step Grams that the oracle's transfer matrices count."""

import collections
import functools
import itertools

from hullcount.algebra import FiniteField, FormKind, gram_kernel


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
