"""Finite fields of small order and dense linear algebra over them.

Fields F_{p^m} are realized as F_p[x] / (f) where f is the canonical
modulus: the lexicographically smallest monic irreducible polynomial of
degree m over F_p, coefficient tuples compared low degree first (for m = 1
this picks f = x, the prime-field convention). Elements are integer codes

    code = c0 + c1*p + ... + c_{m-1}*p^(m-1)

and all arithmetic routes through dense lookup tables, all built when the
field is: exp/log over the generator, which is the smallest nonzero code
whose powers run through every unit, digitwise tables for addition and
negation, and the conjugation table of a square order. The operator API on
FieldElem and the raw-code loops of the Gram kernel hit the same
precomputed data. Orders are capped at 256, which keeps every table
comfortably small.

The matrix side is deliberately plain: immutable MatrixGF, reduced row
echelon form, the three Gram matrices (Euclidean G*G^T, Hermitian
G*conj(G)^T with entrywise q-th power, symplectic G*Omega*G^T), and the
hull dimension k - rank(Gram) for a full-row-rank generator. There is one
table-driven forward elimination, rank_of, built once per field, and one
table-driven Gram, in gram_kernel(field, form, n): gram_of and rank_of.
gram(), rref() and hull_dim over every field of order q > 2 go through
that kernel; rref() adds one back pass for the canonical form. Over F_2,
hull_dim and the ebit count pack each row into one int instead (entry t
at bit 8t), so that a rank is an XOR basis and a Gram entry the parity of
an AND, both done by integer operations in C.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    BadRangeError,
    BadSubfieldOrderError,
    DegreeTooLargeError,
    NonPrimeError,
    NonSquareFieldError,
    RankDeficientGeneratorError,
)
from .exactnum import is_prime, prime_power_parts
from .formulas import FormKind, require_even_length

MAX_FIELD_ORDER = 256


# -- polynomial helpers on coefficient tuples (low degree first) --------------

def _poly_mul_mod(a: Sequence[int], b: Sequence[int], modulus: Sequence[int], p: int) -> tuple[int, ...]:
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_rem(prod, modulus, p)


def _poly_rem(dividend: Sequence[int], divisor: Sequence[int], p: int) -> tuple[int, ...]:
    # divisor is monic
    rem = list(dividend)
    dd = len(divisor) - 1
    for d in range(len(rem) - 1, dd - 1, -1):
        c = rem[d]
        if c:
            base = d - dd
            for j in range(dd + 1):
                rem[base + j] = (rem[base + j] - c * divisor[j]) % p
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return tuple(rem)


def _is_irreducible(poly: Sequence[int], p: int) -> bool:
    m = len(poly) - 1
    if m == 1:
        return True
    for d in range(1, m // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            divisor = (*low, 1)
            rem = _poly_rem(poly, divisor, p)
            if rem == (0,):
                return False
    return True


def _canonical_modulus(p: int, m: int) -> tuple[int, ...]:
    if m == 1:
        return (0, 1)
    for low in itertools.product(range(p), repeat=m):
        candidate = (*low, 1)
        if _is_irreducible(candidate, p):
            return candidate
    raise ArithmeticError(f"no irreducible polynomial of degree {m} over F_{p}")


class FiniteField:
    """F_{p^m} with table-driven arithmetic on integer element codes.

    The constructor builds every table: exp/log over the generator, add and
    neg digitwise, mul and inv through exp/log, and for an even degree m the
    conjugation a -> a^(p^(m/2)).
    """

    def __init__(self, p: int, m: int = 1):
        if not is_prime(p):
            raise NonPrimeError(f"characteristic must be prime, got {p}")
        if m < 1:
            raise BadRangeError(f"extension degree must be positive, got {m}")
        order = p ** m
        if order > MAX_FIELD_ORDER:
            raise DegreeTooLargeError(
                f"order {order} exceeds the supported maximum {MAX_FIELD_ORDER}"
            )
        self.p = p
        self.m = m
        self.order = order
        self.modulus = _canonical_modulus(p, m)
        coeffs = [self._code_to_coeffs(a) for a in range(order)]
        q1 = order - 1
        # a unit's order divides q1, so q1 steps bound each orbit
        for gen in range(1, order):
            powers = [1]
            cur = coeffs[gen]
            while (code := self._coeffs_to_code(cur)) != 1 and len(powers) < q1:
                powers.append(code)
                cur = _poly_mul_mod(cur, coeffs[gen], self.modulus, p)
            if code == 1 and len(powers) == q1:
                break
        else:
            raise ArithmeticError(f"no generator of the unit group of F_{order}")
        self.generator_code = gen
        exp = powers + powers
        log = [0] * order
        for i, code in enumerate(powers):
            log[code] = i
        self._exp = exp
        self._log = log
        if p == 2:
            self.add_table = [[a ^ b for b in range(order)] for a in range(order)]
        else:
            self.add_table = [
                [
                    self._coeffs_to_code([(x + y) % p for x, y in zip(ca, cb)])
                    for cb in coeffs
                ]
                for ca in coeffs
            ]
        self.neg_table = [
            self._coeffs_to_code([(-c) % p for c in ca]) for ca in coeffs
        ]
        self.mul_table = [[0] * order] + [
            [0] + [exp[log[a] + log[b]] for b in range(1, order)]
            for a in range(1, order)
        ]
        # inv[0] is a sentinel 0; elimination and division never read it
        self.inv_table = [0] + [exp[q1 - log[a]] for a in range(1, order)]
        self._conj_table: list[int] | None = None
        if m % 2 == 0:
            sub = p ** (m // 2)
            self._conj_table = [0] + [
                exp[(log[a] * sub) % q1] for a in range(1, order)
            ]

    def _code_to_coeffs(self, code: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.m):
            code, r = divmod(code, self.p)
            out.append(r)
        return tuple(out)

    def _coeffs_to_code(self, coeffs: Sequence[int]) -> int:
        code = 0
        for c in reversed(coeffs):
            code = code * self.p + c
        return code

    def frobenius_table(self, q: int) -> list[int]:
        """Table of the conjugation a -> a^q, for the subfield order q with
        q*q = order (q is then a power of the characteristic)."""
        if q < 2 or q * q != self.order:
            raise BadSubfieldOrderError(
                f"subfield order {q} is not the square root of {self.order}"
            )
        return self._conj_table

    # powers go through exp/log; every other op reads its table ---------

    def pow_code(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        q1 = self.order - 1
        return self._exp[(self._log[a] * e) % q1]

    # element API ---------------------------------------------------------

    def elem(self, value: int | Sequence[int]) -> FieldElem:
        """Element from an integer code or a low-degree-first coefficient vector."""
        if isinstance(value, int):
            code = value
        else:
            coeffs = list(value)
            if len(coeffs) != self.m or any(not 0 <= c < self.p for c in coeffs):
                raise BadRangeError(f"bad coefficient vector {coeffs} for {self}")
            code = self._coeffs_to_code(coeffs)
        if not 0 <= code < self.order:
            raise BadRangeError(f"element code {code} out of range for {self}")
        return FieldElem(self, code)

    @property
    def zero(self) -> FieldElem:
        return FieldElem(self, 0)

    @property
    def one(self) -> FieldElem:
        return FieldElem(self, 1)

    @property
    def generator(self) -> FieldElem:
        """The smallest code that generates the multiplicative group."""
        return FieldElem(self, self.generator_code)

    def elements(self) -> Iterator[FieldElem]:
        for code in range(self.order):
            yield FieldElem(self, code)

    # identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FiniteField)
            and other.p == self.p
            and other.m == self.m
            and other.modulus == self.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __repr__(self) -> str:
        return f"F_{self.order}"


_cached_field = functools.lru_cache(maxsize=None)(FiniteField)


def make_field(p: int, m: int = 1) -> FiniteField:
    """Cached constructor for F_{p^m} on the canonical modulus."""
    # one positional call shape, so make_field(p) and make_field(p, 1)
    # share a cache entry
    return _cached_field(p, m)


def field_of_order(q: int) -> FiniteField:
    """F_q for a prime power q (cached)."""
    p, e = prime_power_parts(q)
    return make_field(p, e)


class FieldElem:
    """Element of a FiniteField, identified by its integer code."""

    __slots__ = ("field", "code")

    def __init__(self, field: FiniteField, code: int):
        self.field = field
        self.code = code

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field._code_to_coeffs(self.code)

    def is_zero(self) -> bool:
        return self.code == 0

    def _coerce(self, other: object) -> int:
        if isinstance(other, FieldElem):
            if other.field != self.field:
                raise BadRangeError("elements of different fields")
            return other.code
        if isinstance(other, int):
            return self.field.elem(other).code
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        code = self._coerce(other)
        if code is NotImplemented:
            return NotImplemented
        return FieldElem(self.field, self.field.add_table[self.code][code])

    __radd__ = __add__

    def __neg__(self):
        return FieldElem(self.field, self.field.neg_table[self.code])

    def __sub__(self, other):
        code = self._coerce(other)
        if code is NotImplemented:
            return NotImplemented
        return FieldElem(
            self.field, self.field.add_table[self.code][self.field.neg_table[code]]
        )

    def __mul__(self, other):
        code = self._coerce(other)
        if code is NotImplemented:
            return NotImplemented
        return FieldElem(self.field, self.field.mul_table[self.code][code])

    __rmul__ = __mul__

    def __truediv__(self, other):
        code = self._coerce(other)
        if code is NotImplemented:
            return NotImplemented
        if code == 0:
            raise ZeroDivisionError("inverse of zero")
        field = self.field
        return FieldElem(field, field.mul_table[self.code][field.inv_table[code]])

    def __pow__(self, e: int):
        return FieldElem(self.field, self.field.pow_code(self.code, e))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FieldElem):
            return other.field == self.field and other.code == self.code
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field, self.code))

    def __repr__(self) -> str:
        return f"{self.field!r}[{self.code}]"


def frobenius(x: FieldElem, q: int) -> FieldElem:
    """x -> x^q for the subfield order q with q^2 = |field|; an involution."""
    tab = x.field.frobenius_table(q)
    return FieldElem(x.field, tab[x.code])


# -- matrices -----------------------------------------------------------------

class MatrixGF:
    """Immutable dense matrix over a FiniteField, entries stored as codes."""

    __slots__ = ("field", "rows", "cols", "codes")

    def __init__(self, field: FiniteField, rows: int, cols: int, codes: tuple[int, ...]):
        if rows < 0 or cols < 0 or len(codes) != rows * cols:
            raise BadRangeError(
                f"shape ({rows}, {cols}) does not match {len(codes)} entries"
            )
        order = field.order
        if any(not 0 <= c < order for c in codes):
            raise BadRangeError("entry code out of range")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.codes = codes

    @classmethod
    def _trusted(cls, field: FiniteField, rows: int, cols: int, codes: tuple[int, ...]) -> MatrixGF:
        # internal fast path: caller guarantees codes are in range
        m = object.__new__(cls)
        m.field = field
        m.rows = rows
        m.cols = cols
        m.codes = codes
        return m

    @classmethod
    def from_rows(cls, field: FiniteField, rows: Iterable[Sequence[int | FieldElem]]) -> MatrixGF:
        row_list = [list(r) for r in rows]
        nrows = len(row_list)
        ncols = len(row_list[0]) if row_list else 0
        codes: list[int] = []
        for r in row_list:
            if len(r) != ncols:
                raise BadRangeError("ragged rows")
            for e in r:
                if isinstance(e, FieldElem):
                    if e.field != field:
                        raise BadRangeError("elements of different fields")
                    e = e.code
                codes.append(e)
        return cls(field, nrows, ncols, tuple(codes))

    @classmethod
    def identity(cls, field: FiniteField, n: int) -> MatrixGF:
        codes = [0] * (n * n)
        for i in range(n):
            codes[i * n + i] = 1
        return cls(field, n, n, tuple(codes))

    def entry(self, i: int, j: int) -> FieldElem:
        return FieldElem(self.field, self.codes[i * self.cols + j])

    def to_lists(self) -> list[list[int]]:
        n = self.cols
        return [list(self.codes[i * n : (i + 1) * n]) for i in range(self.rows)]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MatrixGF)
            and other.field == self.field
            and other.rows == self.rows
            and other.cols == self.cols
            and other.codes == self.codes
        )

    def __hash__(self) -> int:
        return hash((self.field, self.rows, self.cols, self.codes))

    def __repr__(self) -> str:
        return f"MatrixGF({self.field!r}, {self.rows}x{self.cols})"


class RrefResult(NamedTuple):
    matrix: MatrixGF
    rank: int
    pivot_cols: tuple[int, ...]


# -- the elimination and the Gram/rank kernel on raw codes ---------------------

RawRows = list[list[int]]


@functools.lru_cache(maxsize=None)
def _rank_kernel(field: FiniteField) -> Callable[[RawRows], int]:
    """The package's one forward elimination, built once per field.

    rank_of reduces a matrix of codes in place to row echelon form (rows
    swapped, pivots not scaled, zero rows last) and returns its rank.
    """
    mul = field.mul_table
    add = field.add_table
    neg = field.neg_table
    inv = field.inv_table

    def rank_of(m: RawRows) -> int:
        nrows = len(m)
        ncols = len(m[0]) if m else 0
        r = 0
        for c in range(ncols):
            piv = -1
            for i in range(r, nrows):
                if m[i][c]:
                    piv = i
                    break
            if piv < 0:
                continue
            if piv != r:
                m[r], m[piv] = m[piv], m[r]
            prow = m[r]
            pinv = inv[prow[c]]
            for i in range(r + 1, nrows):
                f = m[i][c]
                if f:
                    mrow = mul[mul[f][pinv]]
                    mi = m[i]
                    for t in range(c, ncols):
                        x = prow[t]
                        if x:
                            mi[t] = add[mi[t]][neg[mrow[x]]]
            r += 1
        return r

    return rank_of


def rref(matrix: MatrixGF) -> RrefResult:
    """Reduced row echelon form with rank and pivot columns.

    The forward elimination is the kernel's rank_of; one back pass, from
    the last pivot row up, scales each pivot row to 1 and clears the
    entries above its pivot.
    """
    field = matrix.field
    mul = field.mul_table
    add = field.add_table
    neg = field.neg_table
    inv = field.inv_table
    rows = matrix.to_lists()
    rank = _rank_kernel(field)(rows)
    pivots = [next(c for c, x in enumerate(row) if x) for row in rows[:rank]]
    for r in range(rank - 1, -1, -1):
        c = pivots[r]
        scale = mul[inv[rows[r][c]]]
        prow = rows[r] = [scale[x] for x in rows[r]]
        for i in range(r):
            f = rows[i][c]
            if f:
                fac = mul[f]
                rows[i] = [add[x][neg[fac[y]]] for x, y in zip(rows[i], prow)]
    # every code is a field-table output, so the range check is skipped
    flat = tuple(x for row in rows for x in row)
    reduced = MatrixGF._trusted(matrix.field, matrix.rows, matrix.cols, flat)
    return RrefResult(reduced, rank, tuple(pivots))


@functools.lru_cache(maxsize=None)
def _conj_mul_table(field: FiniteField) -> list[list[int]]:
    """The hermitian pairing a * conj(b), order^2 codes, built once per
    field and shared by the kernels of every length."""
    conj = field.frobenius_table(field.p ** (field.m // 2))
    return [[row[c] for c in conj] for row in field.mul_table]


def require_form(field: FiniteField, form: FormKind, n: int) -> None:
    """Refuse a form that rows of length n over field cannot carry: the
    symplectic form needs an even n, the hermitian form a square order."""
    if form is FormKind.SYMPLECTIC:
        require_even_length(n)
    elif form is FormKind.HERMITIAN and field.m % 2:
        raise NonSquareFieldError(
            f"hermitian form needs a square field order, got {field.order}"
        )


class GramKernel(NamedTuple):
    """The raw-code Gram/rank kernel of one (field, form, length); see
    gram_kernel."""

    gram_of: Callable[[RawRows], RawRows]
    rank_of: Callable[[RawRows], int]


@functools.lru_cache(maxsize=256)
def gram_kernel(field: FiniteField, form: FormKind, n: int) -> GramKernel:
    """The package's one Gram/rank kernel, for rows of length n under form.

    Each form is one table set: lanes, each a pairing table and the lane it
    pairs with, column t being lane t // steps of step t % steps, so that
    <x, y> = sum_t pair[t][x[t]][y[partner[t]]] with partner[t] the paired
    lane's column of the same step; and mirror, which maps g[i][j] to
    g[j][i]. Euclidean: one lane, pair a*b, mirror the identity.
    Hermitian: one lane, pair a*conj(b), mirror conj. Symplectic: lanes t
    and t + n/2, pair a*b and -a*b, mirror negation, and no diagonal.
    gram_of is the only reader of the field's arithmetic, and it reads
    only this table set.

    gram_of maps k rows of element codes to their k x k Gram matrix,
    filling the upper triangle and mirroring it into the lower one.
    rank_of is the field's one forward elimination: it reduces a matrix of
    codes in place and returns its rank; rref() runs it too.

    Built once per (field, form, n); the hermitian pairing table, once per
    field (_conj_mul_table). A kernel holds O(n) table references.
    """
    require_form(field, form, n)
    mul = field.mul_table
    add = field.add_table
    neg = field.neg_table
    identity = list(range(field.order))
    if form is FormKind.SYMPLECTIC:
        # -a*b = (-a)*b: the second lane's table is mul's rows, reordered,
        # or mul itself where negation is the identity
        lanes = [(mul, 1), (mul if neg == identity else [mul[a] for a in neg], 0)]
        mirror = neg
        first = 1
    else:
        if form is FormKind.HERMITIAN:
            mirror = field.frobenius_table(field.p ** (field.m // 2))
            lanes = [(_conj_mul_table(field), 0)]
        else:
            mirror = identity
            lanes = [(mul, 0)]
        first = 0
    steps = n // len(lanes)
    pair = [table for table, _ in lanes for _ in range(steps)]
    partner = [other * steps + t for _, other in lanes for t in range(steps)]
    cols = range(n)

    def gram_of(rows: RawRows) -> RawRows:
        k = len(rows)
        g = [[0] * k for _ in range(k)]
        for i in range(k):
            ri = rows[i]
            gi = g[i]
            for j in range(i + first, k):
                rj = rows[j]
                s = 0
                for t in cols:
                    a = ri[t]
                    if a:
                        b = rj[partner[t]]
                        if b:
                            s = add[s][pair[t][a][b]]
                gi[j] = s
                g[j][i] = mirror[s]
        return g

    return GramKernel(gram_of, _rank_kernel(field))


def gram(generator: MatrixGF, form: FormKind) -> MatrixGF:
    """Gram matrix of the row vectors under the given bilinear/sesquilinear form."""
    gram_of = gram_kernel(generator.field, form, generator.cols).gram_of
    flat = tuple(itertools.chain.from_iterable(gram_of(generator.to_lists())))
    return MatrixGF._trusted(generator.field, generator.rows, generator.rows, flat)


def hull_dim(generator: MatrixGF, form: FormKind) -> int:
    """dim(C intersect C^perp) = k - rank(Gram) for a full-row-rank generator.

    Over F_2 the rows are packed into ints, the Gram is a parity Gram and
    both ranks are XOR bases; over every larger field the Gram and the
    ranks come from gram_kernel. Either route checks the form first."""
    field = generator.field
    k = generator.rows
    if field.order == 2:
        require_form(field, form, generator.cols)
        rows = _packed_rows(generator)
        gram_rows, rank_of = _parity_gram(rows, form, generator.cols), _xor_rank
    else:
        kernel = gram_kernel(field, form, generator.cols)
        rows = generator.to_lists()
        # the Gram first: rank_of reduces the rows in place
        gram_rows, rank_of = kernel.gram_of(rows), kernel.rank_of
    rank = rank_of(rows)
    if rank != k:
        raise RankDeficientGeneratorError(f"generator has rank {rank} < {k} rows")
    return k - rank_of(gram_rows)


# -- F_2: a row packed into one int -------------------------------------------

def _packed_rows(matrix: MatrixGF) -> list[int]:
    """The rows of a binary matrix as ints, entry t at bit 8t (one byte an
    entry), so that integer operations do the row arithmetic."""
    width = 8 * matrix.cols
    whole = int.from_bytes(bytes(matrix.codes), "little")
    mask = (1 << width) - 1
    return [whole >> width * i & mask for i in range(matrix.rows)]


def _xor_rank(vectors: list[int]) -> int:
    """Rank over F_2 of packed vectors: an XOR basis keyed by leading bit,
    each vector reduced by it until it is zero or has a new leading bit."""
    basis: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length()
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return len(basis)


def _parity_gram(rows: list[int], form: FormKind, n: int) -> list[int]:
    """The Euclidean or symplectic Gram of packed rows of length n over F_2,
    <r_i, r_j> being the parity of r_i AND r_j, with r_j's two halves
    swapped for the symplectic form (over F_2, -1 = 1). Row i is packed
    with <r_i, r_j> at bit len(rows) - 1 - j, an order the rank does not
    see."""
    partners = rows
    if form is FormKind.SYMPLECTIC:
        shift = 4 * n  # n / 2 entries of 8 bits
        low = (1 << shift) - 1
        partners = [r >> shift | (r & low) << shift for r in rows]
    packed = []
    for r in rows:
        g = 0
        for p in partners:
            g = g << 1 | (r & p).bit_count() & 1
        packed.append(g)
    return packed
