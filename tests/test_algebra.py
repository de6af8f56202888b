"""Field construction, matrix reduction, Gram forms, hull dimensions."""

import collections
import itertools
import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hullcount import algebra, oracle
from hullcount.algebra import (
    FieldElem,
    FiniteField,
    FormKind,
    MatrixGF,
    field_of_order,
    frobenius,
    gram,
    gram_kernel,
    hull_dim,
    make_field,
    rref,
)
from hullcount.eaqecc import ebits_from_check_matrix
from hullcount.errors import (
    BadRangeError,
    BadSubfieldOrderError,
    DegreeTooLargeError,
    NonPrimeError,
    NonSquareFieldError,
    OddAmbientError,
    RankDeficientGeneratorError,
)
from naive_hull import _form, generator_rows, naive_hull_dim, naive_rank, naive_rref
from step_fills import class_of as reference_class_of
from step_fills import fill_grams

F2 = make_field(2)
F4 = make_field(2, 2)
F9 = make_field(3, 2)


def test_prime_field():
    assert F2.order == 2
    assert [e.code for e in F2.elements()] == [0, 1]
    assert F2.elem(1) + F2.elem(1) == F2.zero


def test_f4_multiplicative_group():
    for e in F4.elements():
        if not e.is_zero():
            assert e ** 3 == F4.one


def test_f9_has_four_nonzero_squares():
    squares = {(e * e).code for e in F9.elements() if not e.is_zero()}
    assert len(squares) == 4


def test_every_nonzero_element_has_full_order_power():
    for field in (F2, F4, F9, make_field(2, 3), make_field(5), make_field(7)):
        for e in field.elements():
            if not e.is_zero():
                assert e ** (field.order - 1) == field.one


def test_canonical_moduli():
    # low-degree-first coefficient tuples, lexicographically smallest monic
    assert F4.modulus == (1, 1, 1)
    assert make_field(2, 3).modulus == (1, 0, 1, 1)
    assert F9.modulus == (1, 0, 1)
    assert F2.modulus == (0, 1)


def test_construction_errors():
    with pytest.raises(NonPrimeError):
        FiniteField(4, 1)
    with pytest.raises(DegreeTooLargeError):
        make_field(2, 9)
    with pytest.raises(BadRangeError):
        FiniteField(2, 0)
    with pytest.raises(BadRangeError):
        field_of_order(6)


def test_field_cache_and_lookup():
    assert make_field(2, 2) is F4
    assert field_of_order(9) is F9
    # the default degree and an explicit 1 are one cache entry
    assert make_field(2) is make_field(2, 1) is make_field(p=2, m=1) is field_of_order(2)


def test_frobenius_on_f4():
    w = F4.generator
    assert frobenius(F4.one, 2) == F4.one
    assert frobenius(w, 2) == w * w
    # w^2 = w + 1 under the canonical modulus
    assert (w * w).coeffs == (1, 1)


def test_frobenius_is_involution_on_f9():
    for e in F9.elements():
        assert frobenius(frobenius(e, 3), 3) == e


def test_frobenius_subfield_validation():
    with pytest.raises(BadSubfieldOrderError):
        F2.frobenius_table(2)
    with pytest.raises(BadSubfieldOrderError):
        make_field(2, 4).frobenius_table(8)


def test_elem_from_coeffs():
    w = F4.elem((0, 1))
    assert w == F4.generator
    with pytest.raises(BadRangeError):
        F4.elem((2, 0))
    with pytest.raises(BadRangeError):
        F4.elem(4)


def test_field_elem_arithmetic():
    a = F9.elem(5)
    b = F9.elem(7)
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a + (-a) == F9.zero
    assert a != 5
    with pytest.raises(ZeroDivisionError):
        a / F9.zero


# -- field tables against polynomial arithmetic -------------------------------

TABLE_FIELDS = [
    (p, m) for p in (2, 3, 5, 7, 11, 13) for m in range(2, 9) if p ** m <= 256
] + [(2, 1), (3, 1), (251, 1)]


def _digits(code, p, m):
    return [code // p ** i % p for i in range(m)]


def _code(digits, p):
    return sum(d * p ** i for i, d in enumerate(digits))


def _schoolbook_mul(a, b, field):
    """a * b on codes: multiply the polynomials, then reduce mod the modulus."""
    p, m, f = field.p, field.m, field.modulus
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(_digits(a, p, m)):
        for j, y in enumerate(_digits(b, p, m)):
            prod[i + j] += x * y
    for d in range(2 * m - 2, m - 1, -1):
        c = prod[d] % p
        for j in range(m + 1):
            prod[d - m + j] -= c * f[j]
    return _code([c % p for c in prod[:m]], p)


def _multiplicative_order(a, field):
    power, order = a, 1
    while power != 1:
        power = _schoolbook_mul(power, a, field)
        order += 1
    return order


@pytest.mark.parametrize("p, m", TABLE_FIELDS)
def test_field_tables_match_polynomial_arithmetic(p, m):
    field = make_field(p, m)
    q = field.order
    if q <= 64:
        pairs = [(a, b) for a in range(q) for b in range(q)]
    else:
        rng = random.Random(q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(1500)]
    for a, b in pairs:
        assert field.mul_table[a][b] == _schoolbook_mul(a, b, field)
        digitwise = [(x + y) % p for x, y in zip(_digits(a, p, m), _digits(b, p, m))]
        assert field.add_table[a][b] == _code(digitwise, p)
    for a in range(q):
        assert field.neg_table[a] == _code([-x % p for x in _digits(a, p, m)], p)
        if a:
            assert _schoolbook_mul(field.inv_table[a], a, field) == 1
    if m % 2 == 0:
        sub = p ** (m // 2)
        conj = field.frobenius_table(sub)
        for a in range(q):
            power = 1
            for _ in range(sub):
                power = _schoolbook_mul(power, a, field)
            assert conj[a] == power
    # the generator is the smallest code of multiplicative order q - 1
    smallest = next(a for a in range(1, q) if _multiplicative_order(a, field) == q - 1)
    assert field.generator_code == smallest


# -- rref ------------------------------------------------------------------


def test_rref_identity():
    m = MatrixGF.identity(F2, 3)
    out = rref(m)
    assert out.matrix == m
    assert out.rank == 3
    assert tuple(out.pivot_cols) == (0, 1, 2)


def test_rref_zero():
    m = MatrixGF.from_rows(F2, [[0, 0, 0, 0], [0, 0, 0, 0]])
    out = rref(m)
    assert out.matrix == m
    assert out.rank == 0
    assert tuple(out.pivot_cols) == ()


def test_rref_duplicate_rows():
    m = MatrixGF.from_rows(F2, [[1, 1], [1, 1]])
    out = rref(m)
    assert out.matrix == MatrixGF.from_rows(F2, [[1, 1], [0, 0]])
    assert out.rank == 1


def test_rref_scales_pivots_and_clears_above():
    m = MatrixGF.from_rows(F9, [[2, 1, 0], [1, 2, 1]])
    out = rref(m)
    assert out.rank == 2
    for r, c in enumerate(out.pivot_cols):
        assert out.matrix.entry(r, c) == F9.one
        for other in range(out.rank):
            if other != r:
                assert out.matrix.entry(other, c) == F9.zero


def _random_matrix(field, rows, cols, rng):
    return MatrixGF.from_rows(
        field,
        [[rng.randrange(field.order) for _ in range(cols)] for _ in range(rows)],
    )


def test_rref_is_idempotent():
    rng = random.Random(1234)
    for field in (F2, F4, F9):
        for _ in range(25):
            m = _random_matrix(field, rng.randrange(1, 5), rng.randrange(1, 6), rng)
            once = rref(m)
            again = rref(once.matrix)
            assert once.matrix == again.matrix
            assert once.rank == again.rank


@st.composite
def _rref_inputs(draw):
    """A matrix up to 5 x 7 whose rows are random, zero, copies of an earlier
    row or combinations of two earlier rows."""
    field = field_of_order(draw(st.sampled_from([2, 3, 4, 5, 8, 9])))
    nrows = draw(st.integers(0, 5))
    ncols = draw(st.integers(0, 7))
    entry = st.integers(0, field.order - 1)
    rows = []
    for i in range(nrows):
        kind = draw(st.sampled_from(["random", "zero", "copy", "combination"]))
        if kind == "zero" or (kind != "random" and i == 0):
            row = [field.zero] * ncols
        elif kind == "copy":
            row = list(rows[draw(st.integers(0, i - 1))])
        elif kind == "combination":
            x = rows[draw(st.integers(0, i - 1))]
            y = rows[draw(st.integers(0, i - 1))]
            a, b = field.elem(draw(entry)), field.elem(draw(entry))
            row = [a * s + b * t for s, t in zip(x, y)]
        else:
            codes = draw(st.lists(entry, min_size=ncols, max_size=ncols))
            row = [field.elem(c) for c in codes]
        rows.append(row)
    return field, nrows, ncols, rows


@settings(max_examples=300, deadline=None)
@given(_rref_inputs())
def test_rref_matches_naive_reference(case):
    field, nrows, ncols, rows = case
    m = MatrixGF(field, nrows, ncols, tuple(x.code for row in rows for x in row))
    out = rref(m)
    reduced, rank, pivots = naive_rref(rows)
    assert out.matrix.to_lists() == [[x.code for x in row] for row in reduced]
    assert out.rank == rank
    assert out.pivot_cols == pivots


# -- gram ------------------------------------------------------------------


def test_gram_hermitian_unit_vector():
    g = MatrixGF.from_rows(F4, [[1, 0, 0, 0]])
    out = gram(g, FormKind.HERMITIAN)
    assert out.to_lists() == [[1]]


def test_gram_symplectic_single_vector_is_zero():
    g = MatrixGF.from_rows(F2, [[1, 0, 0, 0]])
    out = gram(g, FormKind.SYMPLECTIC)
    assert out.to_lists() == [[0]]


def test_gram_hermitian_isotropic_pair():
    w = F4.generator
    g = MatrixGF.from_rows(F4, [[F4.one, w]])
    out = gram(g, FormKind.HERMITIAN)
    # 1*1 + w * w^2 = 1 + 1 = 0
    assert out.to_lists() == [[0]]


def test_gram_form_preconditions():
    g2 = MatrixGF.from_rows(F2, [[1, 0, 0]])
    with pytest.raises(NonSquareFieldError):
        gram(g2, FormKind.HERMITIAN)
    with pytest.raises(OddAmbientError):
        gram(g2, FormKind.SYMPLECTIC)
    # hull_dim and the ebit count over F_2 pack their rows, and check the
    # form first: with no rows too, and with the kernel's messages
    for g in (g2, MatrixGF(F2, 0, 3, ())):
        with pytest.raises(NonSquareFieldError, match=r"^hermitian form needs a square field order, got 2$"):
            hull_dim(g, FormKind.HERMITIAN)
        with pytest.raises(OddAmbientError, match=r"^symplectic ambient length must be even, got 3$"):
            hull_dim(g, FormKind.SYMPLECTIC)
        with pytest.raises(OddAmbientError, match=r"^symplectic ambient length must be even, got 3$"):
            ebits_from_check_matrix(g)
    for n in (0, 4):
        empty = MatrixGF(F2, 0, n, ())
        assert hull_dim(empty, FormKind.EUCLIDEAN) == hull_dim(empty, FormKind.SYMPLECTIC) == 0
        assert ebits_from_check_matrix(empty) == 0


GRAM_CASES = [
    (form, order)
    for form, orders in (
        (FormKind.EUCLIDEAN, (2, 3, 4, 5, 7, 9)),
        (FormKind.SYMPLECTIC, (2, 3, 4, 5, 7, 9)),
        (FormKind.HERMITIAN, (4, 9, 25)),
    )
    for order in orders
]


@pytest.mark.parametrize("form, order", GRAM_CASES)
def test_gram_entries_match_the_definition(form, order):
    # every entry, both triangles and the diagonal, against the form written
    # out on FieldElem values; the step tests only compare gram_of with the
    # step, which read the same pairing tables
    field = field_of_order(order)
    rng = random.Random(order)
    for n in (2, 3, 4, 6):
        if form is FormKind.SYMPLECTIC and n % 2:
            continue
        for k in range(1, 5):
            for trial in range(6):
                rows = [[rng.randrange(order) for _ in range(n)] for _ in range(k)]
                if trial == 0:
                    rows[rng.randrange(k)] = [0] * n
                elif trial == 1 and k > 1:
                    rows[0] = list(rows[-1])
                m = MatrixGF.from_rows(field, rows)
                elems = generator_rows(m)
                expected = [[_form(x, y, form).code for y in elems] for x in elems]
                assert gram(m, form).to_lists() == expected, rows


@pytest.mark.parametrize("q", [3, 5, 7, 9, 2, 4])
def test_symplectic_step_offset_is_alternating(q):
    # swapping a symplectic step's two lanes negates its Gram,
    # u v^T - v u^T = -(v u^T - u v^T), and its diagonal is 0, for random
    # steps, and the step Gram of every fill of up to three rows is
    # alternating; with the second lane's minus sign dropped, the swap
    # check breaks at odd q (the mirror keeps every Gram's shape)
    field = field_of_order(q)
    neg = field.neg_table
    step_gram_of = gram_kernel(field, FormKind.SYMPLECTIC, 2).gram_of
    rng = random.Random(q)
    for d in range(1, 5):
        for _ in range(40):
            rows = [[rng.randrange(q), rng.randrange(q)] for _ in range(d)]
            g = step_gram_of(rows)
            assert step_gram_of([[b, a] for a, b in rows]) == [[neg[x] for x in row] for row in g], rows
            assert all(g[i][i] == 0 for i in range(d))
    for d in range(1, 4):
        for g in fill_grams(field, FormKind.SYMPLECTIC, d):
            assert all(g[i][i] == 0 and g[j][i] == neg[g[i][j]] for i in range(d) for j in range(d)), g


def _congruent(field, form, p, g):
    """P G P^T, or P G P^* for the hermitian form, on codes."""
    mul, add = field.mul_table, field.add_table
    conj = field.frobenius_table(field.p ** (field.m // 2)) if form is FormKind.HERMITIAN else range(field.order)
    d = len(g)

    def dot(x, y):
        s = 0
        for a, b in zip(x, y):
            s = add[s][mul[a][b]]
        return s

    pg = [[dot(row, [g[i][j] for i in range(d)]) for j in range(d)] for row in p]
    return tuple(tuple(dot(row, [conj[x] for x in other]) for other in p) for row in pg)


@pytest.mark.parametrize("form", list(FormKind), ids=lambda form: form.name)
def test_class_of_is_the_congruence_class(form):
    # every Gram of the form of size d: those with one class_of are one
    # orbit of G -> P G P^T (P G P^*) over all invertible P, by brute force
    cases = [(2, 2), (3, 2)] if form is FormKind.HERMITIAN else [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3)]
    for q, d in cases:
        field = oracle.field_for(form, q)
        kernel = gram_kernel(field, form, 2 if form is FormKind.SYMPLECTIC else 1)
        class_of = reference_class_of(field, form)
        if form is FormKind.HERMITIAN:
            mirror = field.frobenius_table(q)
        else:
            mirror = field.neg_table if form is FormKind.SYMPLECTIC else range(field.order)
        cells = [(i, j) for i in range(d) for j in range(i, d)]
        grams = set()
        for entries in itertools.product(range(field.order), repeat=len(cells)):
            g = [[0] * d for _ in range(d)]
            for (i, j), x in zip(cells, entries):
                g[i][j], g[j][i] = x, mirror[x]
            if all(g[i][i] == mirror[g[i][i]] for i in range(d)) and (
                form is not FormKind.SYMPLECTIC or not any(g[i][i] for i in range(d))
            ):
                grams.add(tuple(map(tuple, g)))
        invertible = [
            p for p in (
                [list(entries[r * d:(r + 1) * d]) for r in range(d)]
                for entries in itertools.product(range(field.order), repeat=d * d)
            )
            if kernel.rank_of([list(row) for row in p]) == d
        ]
        by_class = collections.defaultdict(set)
        for g in grams:
            by_class[class_of(g)].add(g)
        for label, members in by_class.items():
            g = next(iter(members))
            assert {_congruent(field, form, p, g) for p in invertible} == members, (q, d, label)
            assert label[0] == naive_rank([[FieldElem(field, x) for x in row] for row in g])


def test_gram_symplectic_is_alternating():
    rng = random.Random(99)
    for field in (F2, make_field(3)):
        for _ in range(20):
            k = rng.randrange(1, 5)
            m = _random_matrix(field, k, 6, rng)
            g = gram(m, FormKind.SYMPLECTIC)
            for i in range(k):
                assert g.entry(i, i).is_zero()
                for j in range(k):
                    assert g.entry(i, j) == -g.entry(j, i)


def test_gram_euclidean_is_symmetric():
    rng = random.Random(7)
    m = _random_matrix(F9, 3, 5, rng)
    g = gram(m, FormKind.EUCLIDEAN)
    for i in range(3):
        for j in range(3):
            assert g.entry(i, j) == g.entry(j, i)


# -- hull_dim ----------------------------------------------------------------


def test_hull_dim_examples():
    g = MatrixGF.from_rows(F2, [[1, 0, 0, 0]])
    assert hull_dim(g, FormKind.SYMPLECTIC) == 1
    w = F4.generator
    g = MatrixGF.from_rows(F4, [[F4.one, w]])
    assert hull_dim(g, FormKind.HERMITIAN) == 1
    rows = [[1 if i == j else 0 for j in range(5)] for i in range(3)]
    g = MatrixGF.from_rows(F2, rows)
    assert hull_dim(g, FormKind.EUCLIDEAN) == 0


def test_hull_dim_rejects_dependent_rows():
    g = MatrixGF.from_rows(F2, [[1, 1], [1, 1]])
    for form in (FormKind.EUCLIDEAN, FormKind.SYMPLECTIC):
        with pytest.raises(RankDeficientGeneratorError, match=r"^generator has rank 1 < 2 rows$"):
            hull_dim(g, form)


def test_symplectic_hull_parity_on_random_generators():
    rng = random.Random(4321)
    tried = 0
    while tried < 60:
        k = rng.randrange(1, 5)
        m = _random_matrix(F2, k, 6, rng)
        if rref(m).rank != k:
            continue
        tried += 1
        ell = hull_dim(m, FormKind.SYMPLECTIC)
        assert (k - ell) % 2 == 0
        g = gram(m, FormKind.SYMPLECTIC)
        assert rref(g).rank % 2 == 0


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_hull_dim_matches_naive_reference(data):
    order = data.draw(st.sampled_from([2, 3, 4, 5, 8, 9]))
    field = field_of_order(order)
    forms = [FormKind.EUCLIDEAN, FormKind.SYMPLECTIC]
    if field.m % 2 == 0:
        forms.append(FormKind.HERMITIAN)
    form = data.draw(st.sampled_from(forms))
    k = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(k, 6))
    if form is FormKind.SYMPLECTIC:
        n += n % 2
    entries = st.integers(0, order - 1)
    codes = data.draw(st.lists(entries, min_size=k * n, max_size=k * n))
    m = MatrixGF(field, k, n, tuple(codes))
    assume(naive_rank(generator_rows(m)) == k)
    assert hull_dim(m, form) == naive_hull_dim(m, form)


@st.composite
def binary_generators(draw, form):
    """A k x n matrix over F_2, 0 <= k <= 8 and n <= 24 (even for the
    symplectic form), with one row often a sum of others or zero."""
    k = draw(st.integers(0, 8))
    n = draw(st.integers(0, 12)) * 2 if form is FormKind.SYMPLECTIC else draw(st.integers(0, 24))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=k, max_size=k))
    if k and draw(st.booleans()):
        target = draw(st.integers(0, k - 1))
        summands = draw(st.sets(st.integers(0, k - 1))) - {target}
        rows[target] = [sum(rows[i][t] for i in summands) % 2 for t in range(n)]
    return MatrixGF(F2, k, n, tuple(x for row in rows for x in row))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_the_packed_route_matches_independent_routes(data):
    # over F_2, hull_dim and the ebit count run on rows packed into ints;
    # the naive hull (FieldElem operators) and the table kernel share none
    # of that route
    form = data.draw(st.sampled_from([FormKind.EUCLIDEAN, FormKind.SYMPLECTIC]))
    m = data.draw(binary_generators(form))
    if naive_rank(generator_rows(m)) == m.rows:
        assert hull_dim(m, form) == naive_hull_dim(m, form)
    else:
        with pytest.raises(RankDeficientGeneratorError):
            hull_dim(m, form)
    if m.cols % 2 == 0:
        kernel = gram_kernel(F2, FormKind.SYMPLECTIC, m.cols)
        assert ebits_from_check_matrix(m) * 2 == kernel.rank_of(kernel.gram_of(m.to_lists()))


def test_canonical_modulus_without_irreducible_raises(monkeypatch):
    monkeypatch.setattr(algebra, "_is_irreducible", lambda poly, p: False)
    with pytest.raises(ArithmeticError, match="no irreducible polynomial of degree 3 over F_2"):
        algebra._canonical_modulus(2, 3)


def test_matrix_validation():
    with pytest.raises(BadRangeError):
        MatrixGF(F2, 2, 2, (0, 1, 1))
    with pytest.raises(BadRangeError):
        MatrixGF(F2, 1, 2, (0, 5))


def test_from_rows_refuses_elements_of_another_field():
    with pytest.raises(BadRangeError, match="^elements of different fields$"):
        MatrixGF.from_rows(F4, [[make_field(5).elem(3), 1]])
    with pytest.raises(BadRangeError, match="^elements of different fields$"):
        MatrixGF.from_rows(F4, [[0, 1], [F2.one, 0]])
    # elements of the same field and plain codes load alike
    w = F4.generator
    m = MatrixGF.from_rows(F4, [[w, 1], [0, F4.one]])
    assert m == MatrixGF.from_rows(F4, [[w.code, 1], [0, 1]])
    assert m.entry(0, 0) == w and m.entry(1, 1) == F4.one


def test_hermitian_kernels_share_one_pairing_table_per_field():
    # the a*conj(b) table has order^2 entries; one per length would be
    # about 0.55 MB per kernel over F_256
    f256 = make_field(2, 8)
    gram_kernel.cache_clear()
    algebra._conj_mul_table.cache_clear()
    tracemalloc.start()
    try:
        kernels = [gram_kernel(f256, FormKind.HERMITIAN, n) for n in range(1, 33)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(kernels) == 32
    assert peak < 3_000_000
    w = f256.generator
    assert kernels[2].gram_of([[w.code, 1, 0]]) == [[(w * w ** 16 + 1).code]]
