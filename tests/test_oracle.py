"""Exhaustive-enumeration oracle: subspace iteration and hull spectra."""

import collections
import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hullcount import algebra, cli, oracle
from hullcount.algebra import (
    FieldElem,
    FormKind,
    MatrixGF,
    field_of_order,
    gram_kernel,
    make_field,
    rref,
)
from hullcount.errors import (
    BadRangeError,
    NonSquareFieldError,
    OddAmbientError,
    WorkLimitExceededError,
)
from hullcount.exactnum import gaussian_binomial
from hullcount.formulas import closed_spectrum
from hullcount.oracle import (
    enumerate_subspaces,
    hull_spectrum,
    spectrum_vs_formula,
    subspace_count,
)
from hullcount.ratios import euclidean_spectrum
from naive_hull import naive_hull_dim, naive_rref
from step_fills import class_of as reference_class_of
from step_fills import fill_grams

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)


def test_yield_counts_match_gaussian_binomial():
    assert sum(1 for _ in enumerate_subspaces(2, 1, F2)) == 3
    assert sum(1 for _ in enumerate_subspaces(4, 2, F2)) == 35
    assert sum(1 for _ in enumerate_subspaces(2, 1, F4)) == 5
    for field in (F2, F3, F4):
        q = field.order
        for n in range(7):
            for k in range(n + 1):
                got = sum(1 for _ in enumerate_subspaces(n, k, field))
                assert got == subspace_count(n, k, q) == gaussian_binomial(n, k, q)


def test_no_duplicate_subspaces():
    seen = set()
    for mat in enumerate_subspaces(5, 2, F3):
        seen.add(mat.codes)
    assert len(seen) == gaussian_binomial(5, 2, 3)


def test_yield_is_canonical_rref():
    for mat in enumerate_subspaces(4, 2, F4):
        out = rref(mat)
        assert out.rank == 2
        assert out.matrix.codes == mat.codes


@pytest.mark.parametrize("field", [F2, F3, F4], ids=repr)
def test_full_pass_is_the_rref_set(field):
    q = field.order
    saw_no_free = 0
    for n in range(6):
        for k in range(n + 1):
            seen = set()
            runs = []  # [pivot columns, generators] of each run of one subset
            for mat in enumerate_subspaces(n, k, field):
                out = rref(mat)
                assert out.rank == k
                assert out.matrix.codes == mat.codes
                seen.add(mat.codes)
                if not runs or runs[-1][0] != out.pivot_cols:
                    runs.append([out.pivot_cols, 0])
                runs[-1][1] += 1
            assert len(seen) == gaussian_binomial(n, k, q)
            # one run per pivot subset, in combinations order, that takes
            # every fill of the subset's free entries once
            assert [pivots for pivots, _ in runs] == list(itertools.combinations(range(n), k))
            for pivots, size in runs:
                free = sum(n - 1 - c - (k - 1 - r) for r, c in enumerate(pivots))
                assert size == q ** free
                saw_no_free += size == 1
    # exactly one pivot subset per (n, k) has no free entries: {n-k, ..., n-1}
    assert saw_no_free == sum(n + 1 for n in range(6))


def _tiny_cells(q):
    return [(n, k) for n in range(1, 13) for k in range(1, n + 1) if q ** (k * n) <= 4096]


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_generators_are_the_naive_rref_of_every_full_rank_matrix(q):
    # naive_rref is Gauss-Jordan on FieldElem operators and shares no code
    # with the oracle: reducing every full-rank k x n matrix gives each
    # k-dimensional subspace's canonical generator, so the sets must agree
    field = field_of_order(q)
    elems = [FieldElem(field, c) for c in range(q)]
    for n, k in _tiny_cells(q):
        reduced = set()
        for entries in itertools.product(elems, repeat=k * n):
            rows, rank, _ = naive_rref([entries[r * n:(r + 1) * n] for r in range(k)])
            if rank == k:
                reduced.add(tuple(x.code for row in rows for x in row))
        assert {mat.codes for mat in enumerate_subspaces(n, k, field)} == reduced, (n, k)


def _rows(moves):
    """Each class's row of T_d from its moves: the fills to each class after."""
    rows = collections.defaultdict(collections.Counter)
    for c, after, fills in moves:
        rows[c][after] += fills
    return rows


def _check_class_rows(field, form, d, most=50):
    """Walk from the zero Gram by the step Grams, one sum of steps more at
    each of d + 2 layers, admitting up to most new Grams of each class per
    layer, and check that each admitted Gram's transfer row, built afresh
    from the step Grams of every fill, is its class's row of moves."""
    moves = oracle._transfer(field.order, form, d)
    rows = _rows(moves)
    assert all(fills > 0 for _, _, fills in moves)
    assert {after for _, after, _ in moves} <= rows.keys()
    class_of = reference_class_of(field, form)
    steps = fill_grams(field, form, d)
    add = field.add_table
    layer = [((0,) * d,) * d]
    found = set(layer)
    for _ in range(d + 2):
        admitted = collections.Counter()
        grown = []
        for gram in layer:
            row = collections.Counter()
            for step, fills in steps.items():
                moved = tuple(tuple(add[a][b] for a, b in zip(x, y)) for x, y in zip(gram, step))
                label = class_of(moved)
                row[label] += fills
                if moved not in found and admitted[label] < most:
                    found.add(moved)
                    admitted[label] += 1
                    grown.append(moved)
            assert row == rows[class_of(gram)], (field, d, gram)
        layer = grown
    assert len(rows) <= 2 * d + 1


@pytest.mark.parametrize("form", list(FormKind), ids=lambda form: form.name)
def test_every_gram_of_a_class_has_the_class_transfer_row(form):
    # the engine rests on the class invariant being complete: every Gram
    # of a class must go to each class by as many step fills as the
    # class's moves in T_d count; with the rank alone as the
    # Euclidean class, this fails at q = 3 from d = 1 and at q = 2 from
    # d = 2 (at q = 8 only on a Gram that is a sum of three steps)
    for q in (2, 3) if form is FormKind.HERMITIAN else (2, 3, 4, 5, 7, 8, 9):
        field = oracle.field_for(form, q)
        for d in range(1, 4 if q <= 5 else 3):
            _check_class_rows(field, form, d)
    # wider fields at d <= 2, with fewer Grams of each class a layer
    for q in {FormKind.EUCLIDEAN: (16, 25, 27), FormKind.HERMITIAN: (4, 5)}.get(form, ()):
        field = oracle.field_for(form, q)
        for d in (1, 2):
            _check_class_rows(field, form, d, most=10)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_symplectic_transfer_counts_every_fill(q):
    # the closed-form rank transitions against brute force: every (u, v)
    # fill of one symplectic step, through gram_of and the reference
    # class_of, added to a Gram of each rank, r hyperbolic pairs and zeros
    field = field_of_order(q)
    class_of = reference_class_of(field, FormKind.SYMPLECTIC)
    add, neg = field.add_table, field.neg_table
    for d in range(5 if q <= 3 else 4):
        rows = _rows(oracle._transfer(q, FormKind.SYMPLECTIC, d))
        classes = [(2 * r, 0) for r in range(d // 2 + 1)]
        assert sorted(rows) == classes
        steps = fill_grams(field, FormKind.SYMPLECTIC, d)
        assert sum(steps.values()) == q ** (2 * d)
        for r, label in enumerate(classes):
            rep = [[0] * d for _ in range(d)]
            for i in range(0, 2 * r, 2):
                rep[i][i + 1], rep[i + 1][i] = 1, neg[1]
            assert class_of(rep) == label
            row = collections.Counter()
            for step, fills in steps.items():
                row[class_of([[add[a][b] for a, b in zip(x, y)] for x, y in zip(rep, step)])] += fills
            assert set(row) <= set(classes)
            assert row == rows[label], (q, d, r)


GRAM_CELLS = [
    (4, 2, 5, FormKind.SYMPLECTIC),
    (4, 3, 3, FormKind.SYMPLECTIC),
    (6, 2, 3, FormKind.SYMPLECTIC),
    (4, 2, 9, FormKind.HERMITIAN),
    (5, 2, 4, FormKind.EUCLIDEAN),
    (4, 3, 3, FormKind.EUCLIDEAN),
    # characteristic 2, where field addition is XOR on codes
    (6, 3, 2, FormKind.SYMPLECTIC),
    (6, 3, 2, FormKind.EUCLIDEAN),
    (4, 2, 4, FormKind.HERMITIAN),
    (4, 2, 8, FormKind.EUCLIDEAN),
]


def _steps(n, form):
    """The columns of each step: a symplectic pair (t, t + n/2), or one column."""
    if form is FormKind.SYMPLECTIC:
        return [(t, t + n // 2) for t in range(n // 2)]
    return [(t,) for t in range(n)]


@pytest.mark.parametrize("n,k,order,form", GRAM_CELLS)
def test_dp_reaches_every_generators_gram_key(n, k, order, form):
    # full-pass tallies can hide a wrong class (some sign errors keep
    # them), so check that the engine's F_k by class, over |GL_k(Q)|,
    # counts the class of every generator's Gram, from a fresh gram_of and
    # the reference class_of, class by class and count by count; k > n/2
    # cells step the k-row moves directly
    field = field_of_order(order)
    kernel = gram_kernel(field, form, n)
    class_of = reference_class_of(field, form)
    fresh = collections.Counter(
        class_of(kernel.gram_of(mat.to_lists())) for mat in enumerate_subspaces(n, k, field)
    )
    bases = math.prod(order ** k - order ** i for i in range(k))  # |GL_k(Q)|
    counts = {}
    for label, matrices in oracle._gram_classes(n, k, order, form).items():
        count, rest = divmod(matrices, bases)
        assert rest == 0, label
        if count:
            counts[label] = count
    assert counts == fresh
    assert sum(fresh.values()) == gaussian_binomial(n, k, order)


@pytest.mark.parametrize("digits", [1, 2])
@pytest.mark.parametrize("n,k,order,form", GRAM_CELLS)
def test_small_blocks_keep_gram_and_key_current(n, k, order, form, digits):
    # each generator's Gram built block by block, digits steps a block,
    # from step Grams the move lists count (every fill of one step):
    # after each block the sum is a fresh gram_of of the columns so far,
    # and its class is reached from the class before by digits moves of T_k
    field = field_of_order(order)
    add = field.add_table
    kernel = gram_kernel(field, form, n)
    class_of = reference_class_of(field, form)
    step_gram_of = gram_kernel(field, form, 2 if form is FormKind.SYMPLECTIC else 1).gram_of
    listed = fill_grams(field, form, k)
    moves = oracle._transfer(order, form, k)
    reach = {c: {c} for c, _, _ in moves}
    for _ in range(digits):
        reach = {c: {after for src, after, _ in moves if src in ends} for c, ends in reach.items()}
    steps = _steps(n, form)
    for mat in enumerate_subspaces(n, k, field):
        rows = mat.to_lists()
        gram = [[0] * k for _ in range(k)]
        label = (0, 0)
        for start in range(0, len(steps), digits):
            block = steps[start:start + digits]
            for cols in block:
                step = step_gram_of([[row[c] for c in cols] for row in rows])
                assert tuple(map(tuple, step)) in listed, (rows, cols)
                gram = [[add[a][b] for a, b in zip(x, y)] for x, y in zip(gram, step)]
            taken = {c for cols in steps[:start + digits] for c in cols}
            prefix = [[x if c in taken else 0 for c, x in enumerate(row)] for row in rows]
            assert gram == kernel.gram_of(prefix), (rows, start)
            moved = class_of(gram)
            assert moved in reach[label], (rows, start)
            label = moved


def test_the_oracle_equals_the_formulas_on_every_cell_up_to_k_4():
    # every form, q <= 9, every length <= 40 (2n <= 40 symplectic) and
    # 1 <= k <= 4, past any work limit, against the closed forms and the
    # Euclidean chain; in characteristic 2 nothing else checks that chain
    # beyond n = 8
    cells = 0
    for form in FormKind:
        lengths = range(2, 41, 2) if form is FormKind.SYMPLECTIC else range(1, 41)
        for q in (2, 3, 4, 5, 7, 8, 9):
            for length in lengths:
                for k in range(1, min(4, length) + 1):
                    comparison = spectrum_vs_formula(length, k, q, form, work_limit=None)
                    assert comparison.passed, (form, q, length, k, comparison.first_failure())
                    cells += 1
    assert cells == 2702


def test_cells_past_the_enumeration_equal_the_chain_and_the_closed_form():
    # 4.4 * 10^8 subspaces each, four times the default work limit
    spectrum = hull_spectrum(6, 3, field_of_order(9), FormKind.EUCLIDEAN, work_limit=None)
    assert spectrum.counts == euclidean_spectrum(6, 3, 9)
    assert spectrum.counts == {0: 391665456, 1: 49562604, 2: 596960, 3: 1640}
    spectrum = hull_spectrum(6, 3, make_field(3, 2), FormKind.HERMITIAN, work_limit=None)
    assert spectrum.counts == closed_spectrum(FormKind.HERMITIAN, 6, 3, 3)
    assert spectrum.total == gaussian_binomial(6, 3, 9)
    # the middle cells, where the move lists are longest: d runs to 20
    # (41 Euclidean classes) and to 40 for the symplectic form (21 classes)
    for length, k, q, form in (
        (40, 20, 3, FormKind.EUCLIDEAN),
        (40, 20, 2, FormKind.HERMITIAN),
        (80, 40, 2, FormKind.SYMPLECTIC),
    ):
        comparison = spectrum_vs_formula(length, k, q, form, work_limit=None)
        assert comparison.passed, (form, comparison.first_failure())


def test_spectrum_memos_stay_bounded():
    # a spectrum keeps one move list per (order, form, d), one move for
    # each pair of classes it joins and no Gram, and a cell of another
    # length reuses them; enumeration keeps no tables between cells or
    # field orders
    oracle._transfer.cache_clear()
    assert hull_spectrum(8, 4, F3, FormKind.EUCLIDEAN).total == gaussian_binomial(8, 4, 3)
    assert hull_spectrum(30, 3, F3, FormKind.EUCLIDEAN, None).total == gaussian_binomial(30, 3, 3)
    info = oracle._transfer.cache_info()
    assert (info.currsize, info.hits, info.maxsize) == (5, 4, 256)
    for d in range(5):
        moves = oracle._transfer(3, FormKind.EUCLIDEAN, d)
        classes = {c for c, _, _ in moves} | {after for _, after, _ in moves}
        assert len(classes) == 2 * d + 1
        assert all(type(rank) is type(extra) is int for rank, extra in classes)
        assert len({(c, after) for c, after, _ in moves}) == len(moves)
        assert all(type(fills) is int and fills > 0 for _, _, fills in moves)
    fields = [field_of_order(q) for q in (2, 3, 4, 5, 7, 8, 9, 16, 27)]
    tracemalloc.start()
    try:
        for field in fields:
            for n, k in ((2, 1), (4, 2), (8, 4), (12, 6)):
                next(enumerate_subspaces(n, k, field, work_limit=None))
        for field in fields:  # a full pass of a small cell
            total = sum(1 for _ in enumerate_subspaces(3, 1, field))
            assert total == gaussian_binomial(3, 1, field.order)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 100_000  # freed tuples kept for reuse, no tables


def _check_spectra_against_hull_dim_of_every_generator(order):
    # hull_dim ranks a fresh Gram of each generator: a route with no
    # transfer matrix, class or Moebius sum; k runs past n/2, so the
    # spectrum's count at the dual dimension n - k is checked too
    field = field_of_order(order)
    forms = [FormKind.EUCLIDEAN, FormKind.SYMPLECTIC]
    if field.m % 2 == 0:
        forms.append(FormKind.HERMITIAN)
    for form in forms:
        for n in range(1, 7):
            if form is FormKind.SYMPLECTIC and n % 2:
                continue
            for k in range(1, n + 1):
                if gaussian_binomial(n, k, order) > 5000:
                    continue
                tally = collections.Counter(
                    algebra.hull_dim(mat, form) for mat in enumerate_subspaces(n, k, field)
                )
                spectrum = hull_spectrum(n, k, field, form)
                assert spectrum.counts == tally, (n, k, form)
                # keyed l-ascending, the shape closed_spectrum gives
                assert list(spectrum.counts) == sorted(spectrum.counts), (n, k, form)


@pytest.mark.parametrize("order", [2, 4, 8])
def test_characteristic_2_spectra_match_hull_dim_of_every_generator(order):
    _check_spectra_against_hull_dim_of_every_generator(order)


@pytest.mark.parametrize("order", [3, 5, 7, 9])
def test_odd_characteristic_spectra_match_hull_dim_of_every_generator(order):
    # the Euclidean class here needs the discriminant's square class
    _check_spectra_against_hull_dim_of_every_generator(order)


def test_the_benchmark_cells_keep_their_spectra():
    # the six cells of bench's oracle_sweep, length/k/q with q the formula
    # order: 541,688 subspaces, 273,141 of them in k = 2 cells
    cells = {
        (8, 4, 2, FormKind.SYMPLECTIC): {0: 91392, 2: 107100, 4: 2295},
        (10, 2, 2, FormKind.EUCLIDEAN): {0: 87296, 1: 65280, 2: 21675},
        (6, 2, 2, FormKind.HERMITIAN): {0: 59136, 1: 27720, 2: 6237},
        (6, 3, 3, FormKind.SYMPLECTIC): {1: 32760, 3: 1120},
        (6, 3, 3, FormKind.EUCLIDEAN): {0: 22680, 1: 10080, 2: 1120},
        (5, 2, 4, FormKind.EUCLIDEAN): {0: 4352, 1: 1360, 2: 85},
    }
    for (length, k, q, form), counts in cells.items():
        assert hull_spectrum(length, k, oracle.field_for(form, q), form).counts == counts
    assert sum(sum(counts.values()) for counts in cells.values()) == 541_688
    assert sum(sum(c.values()) for (_, k, _, _), c in cells.items() if k == 2) == 273_141


def _naive_cells():
    cells = []
    for order in (2, 3, 4, 5, 8, 9):
        field = field_of_order(order)
        forms = [FormKind.EUCLIDEAN, FormKind.SYMPLECTIC]
        if field.m % 2 == 0:
            forms.append(FormKind.HERMITIAN)
        for form in forms:
            for n in range(7):
                if form is FormKind.SYMPLECTIC and n % 2:
                    continue
                cells += [
                    (n, k, field, form)
                    for k in range(n + 1)
                    if gaussian_binomial(n, k, order) <= 600
                ]
    return cells


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_naive_cells()))
def test_spectrum_matches_naive_tally_property(cell):
    # the tally runs FieldElem arithmetic on every generator; it never
    # touches the kernel's step Grams or classes
    n, k, field, form = cell
    tally: dict[int, int] = {}
    for mat in enumerate_subspaces(n, k, field):
        ell = naive_hull_dim(mat, form)
        tally[ell] = tally.get(ell, 0) + 1
    assert hull_spectrum(n, k, field, form).counts == tally


def _no_counting(monkeypatch):
    """Make the engine's entry, the move lists, fail when reached."""
    def no_counting(*args):
        pytest.fail("counting started")

    monkeypatch.setattr(oracle, "_transfer", no_counting)


def test_form_errors_raise_before_enumeration(monkeypatch):
    # hull_spectrum checks the form itself (algebra.require_form) before it
    # counts; no move list is built
    _no_counting(monkeypatch)
    with pytest.raises(OddAmbientError, match=r"^symplectic ambient length must be even, got 5$"):
        hull_spectrum(5, 2, F2, FormKind.SYMPLECTIC)
    with pytest.raises(OddAmbientError, match=r"^symplectic ambient length must be even, got 7$"):
        spectrum_vs_formula(7, 2, 3, FormKind.SYMPLECTIC)
    with pytest.raises(NonSquareFieldError, match=r"^hermitian form needs a square field order, got 3$"):
        hull_spectrum(4, 2, F3, FormKind.HERMITIAN)
    with pytest.raises(NonSquareFieldError, match=r"^hermitian form needs a square field order, got 8$"):
        hull_spectrum(3, 1, make_field(2, 3), FormKind.HERMITIAN)
    # the range and the work limit come before the form
    with pytest.raises(BadRangeError):
        hull_spectrum(5, 6, F2, FormKind.SYMPLECTIC)
    with pytest.raises(WorkLimitExceededError):
        hull_spectrum(23, 11, F3, FormKind.HERMITIAN)


def test_iterator_range_validation():
    for n, k in ((3, 4), (-1, 0), (3, -1)):
        with pytest.raises(BadRangeError, match=rf"^need 0 <= k <= n, got n={n} k={k}$"):
            subspace_count(n, k, 2)
        with pytest.raises(BadRangeError):
            enumerate_subspaces(n, k, F2)
        with pytest.raises(BadRangeError):
            hull_spectrum(n, k, F2, FormKind.EUCLIDEAN)


def test_subspace_count_refuses_a_non_prime_power_order():
    # no field F_6 or F_12 exists, so there is nothing to count
    for order in (6, 12):
        with pytest.raises(BadRangeError, match=rf"^q must be a prime power, got {order}$"):
            subspace_count(4, 2, order)


def test_work_limit_reports_estimate():
    with pytest.raises(WorkLimitExceededError) as err:
        subspace_count(10, 5, 4, work_limit=1000)
    assert str(err.value) == (
        f"estimated {gaussian_binomial(10, 5, 4)} subspaces exceeds work limit 1000"
    )
    with pytest.raises(WorkLimitExceededError, match=rf"^{err.value}$"):
        enumerate_subspaces(10, 5, F4, work_limit=1000)
    # the default limit is checked before any pivot subset is visited
    with pytest.raises(WorkLimitExceededError):
        enumerate_subspaces(22, 11, F2)
    with pytest.raises(WorkLimitExceededError):
        hull_spectrum(22, 11, F2, FormKind.EUCLIDEAN)
    # a count at the limit passes, and None disables the guard entirely
    total = gaussian_binomial(10, 5, 4)
    assert subspace_count(10, 5, 4, work_limit=total) == total
    assert subspace_count(10, 5, 4, work_limit=None) == total
    first = next(enumerate_subspaces(10, 5, F4, work_limit=None))
    assert first.codes[:10] == (1, 0, 0, 0, 0, 0, 0, 0, 0, 0)


def test_work_limit_none_reaches_the_spectrum(monkeypatch):
    # [10, 5]_4 is far above the default limit; with move lists that
    # reach no class, a spectrum that passes None on returns empty
    # instead of raising
    monkeypatch.setattr(oracle, "_transfer", lambda q, form, d: ())
    with pytest.raises(WorkLimitExceededError):
        hull_spectrum(10, 5, F4, FormKind.EUCLIDEAN)
    spectrum = hull_spectrum(10, 5, F4, FormKind.EUCLIDEAN, work_limit=None)
    assert dict(spectrum.counts) == {} and spectrum.total == 0


def test_enumerate_subspaces_checks_on_the_call(monkeypatch):
    # a plain generator function would raise only at the first next()
    def no_enumeration(*args):
        pytest.fail("enumeration started")

    monkeypatch.setattr(oracle, "_generators", no_enumeration)
    with pytest.raises(BadRangeError):
        enumerate_subspaces(3, 4, F2)
    with pytest.raises(WorkLimitExceededError):
        enumerate_subspaces(10, 5, F4, work_limit=1000)
    monkeypatch.undo()
    # what it returns makes one pass
    gens = enumerate_subspaces(4, 2, F2)
    assert iter(gens) is gens
    assert len(list(gens)) == 35
    assert list(gens) == []


def test_spectrum_hermitian_example():
    spectrum = hull_spectrum(4, 1, F4, FormKind.HERMITIAN)
    assert spectrum.counts == {0: 40, 1: 45}
    assert spectrum.field_order == 4
    spectrum = hull_spectrum(5, 2, F4, FormKind.HERMITIAN)
    assert spectrum.counts == {0: 3520, 1: 1980, 2: 297}


def test_spectrum_symplectic_example():
    spectrum = hull_spectrum(4, 2, F2, FormKind.SYMPLECTIC)
    assert spectrum.counts == {0: 20, 2: 15}
    assert spectrum.field_order == 2


def test_full_space_has_zero_hull():
    assert hull_spectrum(3, 3, F2, FormKind.EUCLIDEAN).counts == {0: 1}
    assert hull_spectrum(3, 3, F4, FormKind.HERMITIAN).counts == {0: 1}
    assert hull_spectrum(4, 4, F2, FormKind.SYMPLECTIC).counts == {0: 1}


def test_symplectic_hull_dims_match_k_parity():
    for two_n in (2, 4, 6):
        for k in range(two_n + 1):
            spectrum = hull_spectrum(two_n, k, F2, FormKind.SYMPLECTIC)
            assert all(ell % 2 == k % 2 for ell in spectrum.counts)
            assert spectrum.total == gaussian_binomial(two_n, k, 2)


def test_hermitian_hull_dims_within_range():
    for n in (2, 3, 4):
        for k in range(n + 1):
            spectrum = hull_spectrum(n, k, F4, FormKind.HERMITIAN)
            assert all(0 <= ell <= min(k, n - k) for ell in spectrum.counts)


def test_spectrum_matches_naive_tally():
    # hull_dim and hull_spectrum share one kernel; the reference built from
    # FieldElem arithmetic is the independent route
    cells = [
        (4, 2, F2, FormKind.SYMPLECTIC),
        (4, 2, F3, FormKind.SYMPLECTIC),
        (5, 2, F2, FormKind.EUCLIDEAN),
        (4, 2, F3, FormKind.EUCLIDEAN),
        (3, 1, F4, FormKind.HERMITIAN),
        (4, 2, F4, FormKind.HERMITIAN),
    ]
    for n, k, field, form in cells:
        tally: dict[int, int] = {}
        for mat in enumerate_subspaces(n, k, field):
            ell = naive_hull_dim(mat, form)
            tally[ell] = tally.get(ell, 0) + 1
        assert hull_spectrum(n, k, field, form).counts == tally


def test_spectrum_vs_formula_symplectic():
    comp = spectrum_vs_formula(6, 2, 3, FormKind.SYMPLECTIC)
    assert comp.passed
    assert comp.oracle_total == comp.expected_total == 11011
    assert all(c.formula == c.oracle for c in comp.cells)
    assert [c.ell for c in comp.cells] == [0, 2]


def test_odd_q_symplectic_sign_cell():
    # the symplectic transfer matrices are counted from the rank alone,
    # so a sign error in the odd-q symplectic Gram no longer reaches a
    # spectrum; it shows in hull_dim: with the second lane's minus sign
    # dropped, generators of S[8,4]_3 get hull dimensions the FieldElem
    # reference does not give them
    assert spectrum_vs_formula(8, 4, 3, FormKind.SYMPLECTIC).passed
    rng = random.Random(843)
    checked = 0
    while checked < 200:
        mat = MatrixGF.from_rows(F3, [[rng.randrange(3) for _ in range(8)] for _ in range(4)])
        if rref(mat).rank == 4:
            assert algebra.hull_dim(mat, FormKind.SYMPLECTIC) == naive_hull_dim(mat, FormKind.SYMPLECTIC)
            checked += 1


def test_spectrum_vs_formula_hermitian():
    comp = spectrum_vs_formula(4, 2, 2, FormKind.HERMITIAN)
    assert comp.passed
    assert {c.ell: c.oracle for c in comp.cells} == {0: 240, 1: 90, 2: 27}
    assert comp.expected_total == gaussian_binomial(4, 2, 4)


def test_spectrum_vs_formula_euclidean():
    # the formula side is the ratio layer's chain, compared at every l
    comp = spectrum_vs_formula(4, 2, 2, FormKind.EUCLIDEAN)
    assert comp.passed
    assert all(c.formula == c.oracle for c in comp.cells)
    assert [c.ell for c in comp.cells] == [0, 1, 2]
    assert comp.expected_total == 35
    assert comp.first_failure() is None
    # no self-dual code of length 2 over F_3: both sides leave l = 1 out
    comp = spectrum_vs_formula(2, 1, 3, FormKind.EUCLIDEAN)
    assert comp.cells == (oracle.SpectrumCell(0, 4, 4),)
    assert comp.passed


@pytest.mark.parametrize(
    "cells, totals, failure",
    [
        (((0, 40, 40), (1, 45, 46)), (85, 85), "l=1: oracle 45 != formula 46"),
        (((0, 40, 40), (1, 45, 45)), (85, 86), "sum 85 != expected 86"),
        # a wrong cell is named before a wrong total
        (((0, 41, 40), (1, 45, 45)), (86, 85), "l=0: oracle 41 != formula 40"),
        (((0, 40, 40), (1, 45, 45)), (85, 85), None),
        # a hull dimension one side lacks counts 0 on both
        (((0, 4, 4), (1, 0, 0)), (4, 4), None),
    ],
)
def test_the_verdict_is_the_first_failure(cells, totals, failure):
    comp = oracle.SpectrumComparison(
        4, 1, 2, FormKind.HERMITIAN, tuple(oracle.SpectrumCell(*c) for c in cells), *totals
    )
    assert comp.first_failure() == failure
    assert comp.passed is (failure is None)


def test_spectra_csv_layout(tmp_path):
    path = tmp_path / "spectra.csv"
    code = cli.main(["verify", "--form", "hermitian", "--max-n", "4", "-q", "2",
                     "--dump", str(path)])
    assert code == 0
    # read_text would translate the CRLF terminators away
    lines = path.read_bytes().decode().split("\r\n")
    assert lines[0] == "n,k,q,form,ell,count"
    assert lines[-1] == ""
    rows = [line.split(",") for line in lines[1:-1]]
    start = rows.index(["4", "1", "2", "hermitian", "0", "40"])
    assert rows[start + 1] == ["4", "1", "2", "hermitian", "1", "45"]
    # every dumped row is a nonzero count of the exhaustive spectrum, and
    # every nonzero count is dumped
    dumped = {}
    for n, k, q, form, ell, count in rows:
        assert (q, form) == ("2", "hermitian")
        dumped.setdefault((int(n), int(k)), {})[int(ell)] = int(count)
    for (n, k), counts in dumped.items():
        spectrum = hull_spectrum(n, k, F4, FormKind.HERMITIAN)
        assert counts == {ell: c for ell, c in spectrum.counts.items() if c}
