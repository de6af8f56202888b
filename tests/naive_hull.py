"""Hull dimension and reduced row echelon form by the definition, as an
independent reference.

Built only from FieldElem operators and frobenius, with its own Gauss-Jordan
elimination, so it shares no code with the raw-code elimination and Gram
kernel that algebra.rref, algebra.hull_dim and oracle.hull_spectrum use.
"""

from hullcount.algebra import FieldElem, FormKind, MatrixGF, frobenius


def naive_rref(
    rows: list[list[FieldElem]],
) -> tuple[list[list[FieldElem]], int, tuple[int, ...]]:
    """Gauss-Jordan reduction: (reduced rows, rank, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero()), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][c]
        rows[r] = [x / lead for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, len(pivots), tuple(pivots)


def naive_rank(rows: list[list[FieldElem]]) -> int:
    return naive_rref(rows)[1]


def _form(x: list[FieldElem], y: list[FieldElem], form: FormKind) -> FieldElem:
    field = x[0].field
    if form is FormKind.EUCLIDEAN:
        terms = [a * b for a, b in zip(x, y)]
    elif form is FormKind.HERMITIAN:
        q = field.p ** (field.m // 2)
        terms = [a * frobenius(b, q) for a, b in zip(x, y)]
    else:
        h = len(x) // 2
        terms = [x[t] * y[h + t] - x[h + t] * y[t] for t in range(h)]
    return sum(terms, field.zero)


def generator_rows(generator: MatrixGF) -> list[list[FieldElem]]:
    return [
        [generator.entry(i, j) for j in range(generator.cols)]
        for i in range(generator.rows)
    ]


def naive_hull_dim(generator: MatrixGF, form: FormKind) -> int:
    """k - rank of the Gram matrix, for a full-row-rank generator."""
    rows = generator_rows(generator)
    gram = [[_form(x, y, form) for y in rows] for x in rows]
    return generator.rows - naive_rank(gram)

