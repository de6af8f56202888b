"""Exhaustive-enumeration oracle: subspace iteration and hull spectra."""

import collections
import itertools
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
from hullcount.oracle import (
    enumerate_subspaces,
    hull_spectrum,
    spectrum_vs_formula,
    subspace_count,
)
from naive_hull import naive_hull_dim, naive_rref, packed_key

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


def _dp_keys(n, k, field, form):
    """The column DP's finished keys, key -> how many generators reach it,
    from one count() call."""
    return gram_kernel(field, form, n).columns(k)[3]()


def _generator_keys(n, k, field, form):
    """The packed Gram key of every subspace's generator in reduced row
    echelon form for the DP's column order (0, n/2, 1, n/2 + 1, ... under
    the symplectic form), from rref and a fresh gram_of."""
    kernel = gram_kernel(field, form, n)
    if form is FormKind.SYMPLECTIC:
        order = [t for s in range(n // 2) for t in (s, s + n // 2)]
    else:
        order = list(range(n))
    keys = collections.Counter()
    for mat in enumerate_subspaces(n, k, field):
        rows = rref(MatrixGF.from_rows(field, [[row[c] for c in order] for row in mat.to_lists()]))
        moved = [[0] * n for _ in range(k)]
        for moved_row, row in zip(moved, rows.matrix.to_lists()):
            for c, x in zip(order, row):
                moved_row[c] = x
        keys[packed_key(kernel.gram_of(moved), (field.order - 1).bit_length())] += 1
    return keys


def _check_gram_and_key_at_every_generator(n, k, order, form):
    # the DP finishes each generator at the packed key of its Gram, checked
    # against a fresh gram_of of every generator, key by key and count by count
    field = field_of_order(order)
    keys = _generator_keys(n, k, field, form)
    assert _dp_keys(n, k, field, form) == keys
    assert sum(keys.values()) == gaussian_binomial(n, k, order)


@pytest.mark.parametrize("n,k,order,form", GRAM_CELLS)
def test_dp_reaches_every_generators_gram_key(n, k, order, form):
    # full-pass tallies can hide a wrong update (some sign errors keep
    # them), so check the key the DP reaches for every generator
    _check_gram_and_key_at_every_generator(n, k, order, form)


@pytest.mark.parametrize("digits", [1, 2])
@pytest.mark.parametrize("n,k,order,form", GRAM_CELLS)
def test_small_blocks_keep_gram_and_key_current(monkeypatch, n, k, order, form, digits):
    # step tables streamed in chunks of one and two digits' worth of fills,
    # so most tables are rebuilt at every use and merged chunk by chunk
    monkeypatch.setattr(algebra, "TABLE_CAP", order ** digits)
    _check_gram_and_key_at_every_generator(n, k, order, form)


BLOCK_CELLS = [(5, 2, 3), (6, 3, 2), (5, 2, 4), (4, 2, 9)]  # each has tables of several chunks


def _forms(field, n):
    forms = [FormKind.EUCLIDEAN]
    if n % 2 == 0:
        forms.append(FormKind.SYMPLECTIC)
    if field.m % 2 == 0:
        forms.append(FormKind.HERMITIAN)
    return forms


def _merged(table, r, r2):
    merged = collections.Counter()
    for chunk in table(r, r2):
        merged.update(chunk)
    return merged


@pytest.mark.parametrize("n,k,q", BLOCK_CELLS)
def test_block_walk_is_the_per_state_walk(monkeypatch, n, k, q):
    # a table of more than TABLE_CAP fills is streamed: at caps 0, 1 and q
    # every step table of the cell merges to the kept table, and the DP
    # finishes every generator's key alike
    field = field_of_order(q)
    for form in _forms(field, n):
        kernel = gram_kernel(field, form, n)
        width = 2 if form is FormKind.SYMPLECTIC else 1
        steps = [(r, r2) for r in range(k + 1) for r2 in range(r, min(r + width, k) + 1)]
        kept = [_merged(kernel.columns(k)[2], *step) for step in steps]
        keys = _generator_keys(n, k, field, form)
        assert _dp_keys(n, k, field, form) == keys, form
        for cap in (0, 1, q):
            monkeypatch.setattr(algebra, "TABLE_CAP", cap)
            table = kernel.columns(k)[2]
            assert any(not isinstance(table(*step), list) for step in steps)
            assert [_merged(table, *step) for step in steps] == kept, (form, cap)
            assert _dp_keys(n, k, field, form) == keys, (form, cap)
        monkeypatch.undo()


@pytest.mark.parametrize("n,k,q", BLOCK_CELLS)
def test_spectra_and_generators_do_not_depend_on_the_block_size(monkeypatch, n, k, q):
    field = field_of_order(q)
    forms = _forms(field, n)
    results = []
    for cap in (algebra.TABLE_CAP, q):
        monkeypatch.setattr(algebra, "TABLE_CAP", cap)
        results.append((
            [hull_spectrum(n, k, field, form).counts for form in forms],
            [mat.codes for mat in enumerate_subspaces(n, k, field)],
        ))
    assert results[0] == results[1]


def test_spectrum_ranks_each_finished_key_once(monkeypatch):
    # E[5,4]_8 has 4,096 distinct finished Gram keys among its 4,681
    # generators: the spectrum unpacks each of them once, and ranks nothing
    # else
    unpacked, ranked = [], []

    def kernel(*args):
        made = gram_kernel(*args)

        def columns(k):
            unpack, offset, table, count = made.columns(k)
            return lambda key: unpacked.append(key) or unpack(key), offset, table, count

        def rank_of(m):
            ranked.append(len(m))
            return made.rank_of(m)

        return made._replace(columns=columns, rank_of=rank_of)

    monkeypatch.setattr(oracle, "gram_kernel", kernel)
    field = make_field(2, 3)
    assert hull_spectrum(5, 4, field, FormKind.EUCLIDEAN).counts == {0: 4096, 1: 585}
    finished = gram_kernel(field, FormKind.EUCLIDEAN, 5).columns(4)[3]()
    assert len(finished) == 4096 and sum(finished.values()) == gaussian_binomial(5, 4, 8)
    assert sorted(unpacked) == sorted(finished)
    assert ranked == [4] * 4096


def test_spectrum_memos_stay_bounded(monkeypatch):
    # the DP keeps only tables of at most TABLE_CAP fills, and streams the
    # rest; enumeration keeps no tables between cells or field orders
    monkeypatch.setattr(algebra, "TABLE_CAP", 64)
    _, _, table, count = gram_kernel(make_field(2, 3), FormKind.EUCLIDEAN, 5).columns(4)
    assert sum(count().values()) == gaussian_binomial(5, 4, 8)
    # the (r, r) tables of 8^r fills: those of r <= 2 are kept, the rest
    # streamed in chunks of at most 64 distinct offsets
    assert [isinstance(table(r, r), list) for r in range(5)] == [True] * 3 + [False] * 2
    for r in range(5):
        assert all(len(chunk) <= 64 for chunk in table(r, r))
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


CAP_CELLS = [  # the last three count over F_8 and F_64
    (6, 3, F2, FormKind.SYMPLECTIC),
    (5, 2, F3, FormKind.EUCLIDEAN),
    (4, 2, F4, FormKind.HERMITIAN),
    (4, 3, F4, FormKind.EUCLIDEAN),
    (4, 3, F4, FormKind.HERMITIAN),
    (4, 2, make_field(2, 3), FormKind.SYMPLECTIC),
    (5, 4, make_field(2, 3), FormKind.EUCLIDEAN),
    (3, 2, make_field(2, 6), FormKind.HERMITIAN),
]


def test_block_memo_caps_give_the_same_spectra(monkeypatch):
    # at table cap 0 every table with free entries is streamed, one high
    # block of fills to a chunk, and rebuilt at every use; at cap 1 only
    # the pivot steps' one-fill tables are kept
    expected = [hull_spectrum(*cell).counts for cell in CAP_CELLS]
    for cap in (0, 1, algebra.TABLE_CAP):
        monkeypatch.setattr(algebra, "TABLE_CAP", cap)
        assert [hull_spectrum(*cell).counts for cell in CAP_CELLS] == expected


@pytest.mark.parametrize("n,k,q,form", [
    (6, 3, 2, FormKind.SYMPLECTIC),
    (5, 2, 3, FormKind.EUCLIDEAN),
    (4, 2, 4, FormKind.HERMITIAN),
    (6, 3, 3, FormKind.SYMPLECTIC),
])
def test_tallies_on_remembered_runs_are_fresh_tallies(n, k, q, form):
    # the DP keeps each small step table for the whole spectrum and uses it
    # at every step it serves; after a full count each kept table must be
    # what a fresh columns(k), with nothing kept, builds, and a second
    # count on the kept tables must tally alike
    field = oracle.field_for(form, q)
    kernel = gram_kernel(field, form, n)
    _, _, table, count = kernel.columns(k)
    first = count()
    assert count() == first
    assert sum(first.values()) == gaussian_binomial(n, k, field.order)
    width = 2 if form is FormKind.SYMPLECTIC else 1
    for r in range(k + 1):
        for r2 in range(r, min(r + width, k) + 1):
            fresh = kernel.columns(k)[2]
            assert _merged(table, r, r2) == _merged(fresh, r, r2), (r, r2)


def _check_spectra_against_hull_dim_of_every_generator(order):
    # hull_dim ranks a fresh Gram of each generator: a route with no DP,
    # no key, no step table and no memo
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
                assert hull_spectrum(n, k, field, form).counts == tally, (n, k, form)


@pytest.mark.parametrize("order", [2, 4, 8])
def test_characteristic_2_spectra_match_hull_dim_of_every_generator(order):
    _check_spectra_against_hull_dim_of_every_generator(order)


@pytest.mark.parametrize("order", [3, 5, 7, 9])
def test_odd_characteristic_spectra_match_hull_dim_of_every_generator(order):
    # a free step's offsets combine with the key by entrywise field
    # addition here
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
    # touches the kernel's incremental Gram update or its finished keys
    n, k, field, form = cell
    tally: dict[int, int] = {}
    for mat in enumerate_subspaces(n, k, field):
        ell = naive_hull_dim(mat, form)
        tally[ell] = tally.get(ell, 0) + 1
    assert hull_spectrum(n, k, field, form).counts == tally


def _no_counting(monkeypatch):
    """Make the kernel's DP entry, columns(k), fail when it is reached."""
    def kernel(*args):
        def no_counting(k):
            pytest.fail("counting started")

        return gram_kernel(*args)._replace(columns=no_counting)

    monkeypatch.setattr(oracle, "gram_kernel", kernel)


def test_form_errors_raise_before_enumeration(monkeypatch):
    # gram_kernel raises the form errors; the DP is never reached
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
    # [10, 5]_4 is far above the default limit; with a DP that tallies
    # nothing, a spectrum that passes None on returns empty instead of
    # raising
    def kernel(*args):
        return gram_kernel(*args)._replace(columns=lambda k: (None, None, None, dict))

    monkeypatch.setattr(oracle, "gram_kernel", kernel)
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
    # the smallest cell seen to expose a sign error in the odd-q symplectic
    # Gram: verify's default grid tallies the same with the sign dropped
    assert spectrum_vs_formula(6, 3, 5, FormKind.SYMPLECTIC).passed


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
