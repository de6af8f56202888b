"""Command-line front end.

Subcommands: eval (one parameter cell: count, ratio factor,
classification), table (the reference tables in markdown, CSV or JSON),
verify (enumeration sweeps diffed against the closed forms and the
euclidean chain, plus ratio and classification checks), census
(entanglement-assisted parameter rows).

Exit codes: 0 success, 1 verification mismatch, 2 violated precondition or
infeasible enumeration. verify's work limit resolves from --work-limit,
then the HULLCOUNT_WORK_LIMIT environment variable, then the package
default. Table and census output is byte-stable across runs: plain decimal
integers, no locale formatting, CSV rows terminated with CRLF.

Each command imports the modules it uses when it runs, so only verify
compiles the finite fields and the oracle.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Sequence

from . import formulas
from .errors import (
    BadRangeError,
    HullCountError,
    OutOfValidRangeError,
    ParityViolationError,
    WorkLimitExceededError,
)
from .exactnum import rat_str
from .formulas import FormKind, require_even_length

if TYPE_CHECKING:
    from .oracle import SpectrumComparison

# reference grids: (length, k, q) per row, ambient length first
HERMITIAN_TABLE_ROWS = [
    (4, 1, 2), (5, 1, 2), (6, 1, 2), (7, 1, 2),
    (4, 2, 2), (5, 2, 2), (6, 2, 2), (6, 3, 2),
    (7, 2, 2), (7, 3, 2), (8, 2, 2),
    (4, 1, 3), (5, 1, 3), (6, 1, 3),
    (4, 2, 3), (5, 2, 3), (6, 2, 3), (6, 3, 3),
]
SYMPLECTIC_TABLE_ROWS = [
    (4, 2, 2), (6, 2, 2), (8, 2, 2), (8, 4, 2),
    (10, 2, 2), (10, 4, 2), (12, 4, 2), (12, 6, 2),
    (4, 2, 3), (6, 2, 3), (8, 2, 3), (8, 4, 3),
]


def _resolve_work_limit(flag: int | None) -> int:
    from .oracle import DEFAULT_WORK_LIMIT

    name, value = "work limit", flag
    if flag is None:
        env = os.environ.get("HULLCOUNT_WORK_LIMIT")
        if env is None:
            return DEFAULT_WORK_LIMIT
        name = "HULLCOUNT_WORK_LIMIT"
        try:
            value = int(env)
        except ValueError:
            raise BadRangeError(f"{name} must be an integer, got {env!r}") from None
    if value <= 0:
        raise BadRangeError(f"{name} must be positive, got {value}")
    return value


def _ambient_length(form: FormKind, args: argparse.Namespace) -> int:
    # symplectic lengths always travel as the full ambient 2n
    if form is FormKind.SYMPLECTIC:
        if args.ambient is None:
            raise BadRangeError("the symplectic form takes --ambient 2n, not -n")
        if args.n is not None:
            raise BadRangeError("give --ambient for the symplectic form, not -n")
        if args.ambient < 0:
            raise BadRangeError(f"ambient length must be non-negative, got {args.ambient}")
        require_even_length(args.ambient)
        return args.ambient
    if args.n is None:
        raise BadRangeError(f"the {form.value} form needs -n")
    if args.ambient is not None:
        raise BadRangeError(f"--ambient is symplectic-only; the {form.value} form takes -n")
    if args.n < 0:
        raise BadRangeError(f"length must be non-negative, got {args.n}")
    return args.n


# -- eval -----------------------------------------------------------------------

def cmd_eval(args: argparse.Namespace) -> int:
    form = FormKind(args.form)
    length = _ambient_length(form, args)
    k, ell, q = args.k, args.ell, args.q
    if k < 0 or ell < 0:
        raise BadRangeError(f"k and l must be non-negative, got k={k} l={ell}")
    from .ratios import euclidean_spectrum, ratio_report

    if form is FormKind.EUCLIDEAN:
        count = euclidean_spectrum(length, k, q).get(ell, 0)
    else:
        count = formulas.closed_count(form, length, k, ell, q)
        if k > length:  # euclidean_spectrum refuses such a k; the closed forms count it 0
            raise BadRangeError(f"need 0 <= k <= n, got n={length} k={k}")
    lines = [
        f"form: {form.value}",
        f"length: {length}",
        f"k: {k}",
        f"hull: {ell}",
        f"q: {q}",
        f"count: {count}",
    ]
    # C -> C^perp keeps the Euclidean hull, so the ratios of the dual cell,
    # k = min(k, length - k), hold
    ratio_k = formulas.hull_dims(form, length, k)[-1] if form is FormKind.EUCLIDEAN else k
    try:
        report = ratio_report(form, length, ratio_k, ell, q)
    except (OutOfValidRangeError, ParityViolationError) as exc:
        lines.append(f"alpha: undefined ({exc})")
    else:
        lines.append(f"alpha: {rat_str(report.alpha)}")
        lines.append(f"cofactor: {report.cofactor}")
        lines.append(f"step_ratio: {rat_str(report.full_ratio)}")
        lines.append(f"classification: {report.classification.value}")
        lines.append(f"count_monotone: {'yes' if report.monotone_a else 'no'}")
        if report.equality_boundary:
            lines.append("note: alpha sits exactly on the 1/2 floor")
    if ratio_k != k:
        lines.append(f"note: ratios of the dual cell k={ratio_k}, which has the same counts")
    print("\n".join(lines))
    return 0


# -- table ----------------------------------------------------------------------

def _render(
    fmt: str, keys: Sequence[str], records: Sequence, markdown: Callable | None = None
) -> str:
    """The one output writer: records of values under keys as
    CRLF-terminated CSV with booleans written true/false, as an indented
    JSON list of objects, or as `| a | b |` lines, one per row that the
    markdown callback builds from the records (header and rule included)."""
    if fmt == "markdown":
        return "".join("| " + " | ".join(map(str, row)) + " |\n" for row in markdown(records))
    if fmt == "json":
        import json

        return json.dumps([dict(zip(keys, record)) for record in records], indent=2) + "\n"
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(keys)
    for record in records:
        writer.writerow([str(v).lower() if isinstance(v, bool) else v for v in record])
    return buf.getvalue()


_COUNT_KEYS = ("length", "k", "q", "ell", "count", "monotonicity_violation")


def _count_records(form: FormKind) -> list[tuple[int, int, int, int, int, bool]]:
    """(length, k, q, ell, count, violation) over the form's grid; the
    violation flag marks a count strictly above its predecessor in ell."""
    grid = SYMPLECTIC_TABLE_ROWS if form is FormKind.SYMPLECTIC else HERMITIAN_TABLE_ROWS
    records = []
    for length, k, q in grid:
        prev = None
        for ell, count in formulas.closed_spectrum(form, length, k, q).items():
            records.append((length, k, q, ell, count, prev is not None and count > prev))
            prev = count
    return records


def _counts_markdown(first: str, records) -> list[list[object]]:
    # pivoted: one row per (length, k, q), one column per ell
    ells = sorted({ell for _, _, _, ell, _, _ in records})
    rows: dict[tuple[int, int, int], dict[int, object]] = {}
    for length, k, q, ell, count, violation in records:
        rows.setdefault((length, k, q), {})[ell] = f"**{count}**" if violation else count
    return [
        [first, "k", "q", *(f"A_{e}" for e in ells)],
        ["---:"] * (3 + len(ells)),
        *([*cell, *(by_ell.get(e, "") for e in ells)] for cell, by_ell in rows.items()),
    ]


_COMPARISON_KEYS = (
    "form", "step", "alpha_lower_bound", "alpha_asymptotic",
    "limit_q2", "limit_q3", "exceptions",
)
# markdown row labels for every key after "form", in key order
_COMPARISON_LABELS = (
    "step in l", "alpha lower bound", "alpha asymptotic",
    "count ratio limit, q=2", "count ratio limit, q=3", "exceptions",
)


def _comparison_records() -> list[tuple[object, ...]]:
    from .ratios import comparison_rows

    return [
        (
            row.form.value,
            row.step,
            row.alpha_lower_bound,
            row.alpha_asymptotic,
            rat_str(row.count_ratio_limits[2]),
            rat_str(row.count_ratio_limits[3]),
            row.exceptions,
        )
        for row in comparison_rows((2, 3))
    ]


def _comparison_markdown(records) -> list[list[object]]:
    # transposed: one column per form, one row per quantity
    transposed = list(zip(*records))
    return [
        ["quantity", *transposed[0]],
        [":---"] * (1 + len(records)),
        *([label, *values] for label, values in zip(_COMPARISON_LABELS, transposed[1:])),
    ]


def cmd_table(args: argparse.Namespace) -> int:
    if args.which == "comparison":
        text = _render(args.format, _COMPARISON_KEYS, _comparison_records(), _comparison_markdown)
    else:
        form = FormKind(args.which)
        first = "2n" if form is FormKind.SYMPLECTIC else "n"
        text = _render(
            args.format, _COUNT_KEYS, _count_records(form),
            lambda records: _counts_markdown(first, records),
        )
    sys.stdout.write(text)
    return 0


# -- verify ---------------------------------------------------------------------

def _sweep_cells(form: FormKind, args: argparse.Namespace) -> list[tuple[int, int]]:
    if form is FormKind.SYMPLECTIC:
        cells = [
            (length, k) for length in range(2, args.max_ambient + 1, 2) for k in range(length + 1)
        ]
    else:
        # closed-form sweeps cover every k; the euclidean identities are
        # stated for k up to n/2 only
        cells = [
            (n, k)
            for n in range(2, args.max_n + 1)
            for k in range(1, (n // 2 if form is FormKind.EUCLIDEAN else n - 1) + 1)
        ]
    return [(length, k) for length, k in cells if args.max_k is None or k <= args.max_k]


def _problems(comp: SpectrumComparison) -> list[str]:
    """Check each consecutive pair of hull dimensions of one oracle spectrum
    against ratio_report: the ratio identity, the exception family or the
    Euclidean half-bound regime, count against ratio monotonicity, and the
    alpha floor."""
    from .ratios import (
        COUNT_EXCEPTIONS,
        RatioClassification,
        in_euclidean_half_bound,
        ratio_report,
    )

    form, length, k, q = comp.form, comp.length, comp.k, comp.q
    counts = {cell.ell: cell.oracle for cell in comp.cells}
    dims = formulas.hull_dims(form, length, k)
    problems = []
    for ell in dims[:-1]:
        lo, hi = counts.get(ell, 0), counts.get(ell + dims.step, 0)
        try:
            rep = ratio_report(form, length, k, ell, q)
        except OutOfValidRangeError:
            # no finite factor: the successor count must vanish
            if hi != 0:
                problems.append(f"l={ell}: successor count should vanish")
            continue
        rhs = rep.full_ratio * hi
        if lo != rhs:
            problems.append(f"l={ell}: ratio identity fails ({lo} != {rhs})")
        if form is FormKind.EUCLIDEAN:
            half = rep.classification is RatioClassification.EUCLIDEAN_HALF_BOUND
            if half != in_euclidean_half_bound(length, k, ell, q):
                problems.append(f"l={ell}: half-bound regime mismatch")
        else:
            if (not rep.monotone_a) != COUNT_EXCEPTIONS[form](length, k, ell, q):
                problems.append(f"l={ell}: monotonicity exception set mismatch")
            if (lo > hi) != rep.monotone_a:
                problems.append(f"l={ell}: ratio and count monotonicity disagree")
        if form is FormKind.HERMITIAN and rep.alpha < Fraction(q, q + 1):
            problems.append(f"l={ell}: alpha below q/(q+1)")
        if form is FormKind.EUCLIDEAN and rep.alpha < Fraction(1, 2):
            problems.append(f"l={ell}: alpha below 1/2")
    return problems


def cmd_verify(args: argparse.Namespace) -> int:
    from .oracle import field_for, spectrum_vs_formula, subspace_count

    # a repeated --form or -q names the same cells; check each once
    forms = list(dict.fromkeys(args.forms or ["hermitian", "symplectic", "euclidean"]))
    qs = list(dict.fromkeys(args.qs or [2]))
    limit = _resolve_work_limit(args.work_limit)
    sweeps = {name: _sweep_cells(FormKind(name), args) for name in forms}
    empty = [name for name, sweep in sweeps.items() if not sweep]
    if empty:
        raise BadRangeError(
            f"no cells to verify for {', '.join(empty)} in the requested ranges"
        )
    cells = [(name, q, length, k) for name in forms for q in qs for length, k in sweeps[name]]
    # every cell's subspace count is known up front: refuse a sweep that has
    # an infeasible cell before enumerating any cell
    for name, q, length, k in cells:
        subspace_count(length, k, field_for(FormKind(name), q).order, limit)
    # open the dump file before any cell runs, so a bad path costs no sweep
    try:
        dump = None if args.dump in (None, "-") else open(args.dump, "w", newline="")
    except OSError as exc:
        raise BadRangeError(f"cannot write --dump {args.dump}: {exc.strerror}") from None
    with dump or contextlib.nullcontext():
        dumped: list[tuple[object, ...]] = []
        failures: list[str] = []
        for name, q, length, k in cells:
            label = f"{name} length={length} k={k} q={q}"
            try:
                comp = spectrum_vs_formula(length, k, q, FormKind(name), limit)
            except ArithmeticError as exc:  # a count that is not integral, by side
                problems = [str(exc)]
            else:
                if args.dump:
                    dumped += [
                        (length, k, q, name, cell.ell, cell.oracle)
                        for cell in comp.cells
                        if cell.oracle
                    ]
                problems = [] if comp.passed else [comp.first_failure()]
                problems += _problems(comp)
            if problems:
                failures.append(f"{label}: {problems[0]}")
                print(f"FAIL {label}: {problems[0]}")
            else:
                print(f"PASS {label}")
        if args.dump:
            text = _render("csv", ("n", "k", "q", "form", "ell", "count"), dumped)
            (dump or sys.stdout).write(text)
    if failures:
        print(f"{len(failures)} of {len(cells)} cells failed; first: {failures[0]}")
        return 1
    print(f"all {len(cells)} cells pass")
    return 0


# -- census ---------------------------------------------------------------------

def _census_markdown(rows) -> list[tuple[object, ...]]:
    return [
        ("l", "ebits", "count", "exceptional"),
        ("---:", "---:", "---:", ":---"),
        *((ell, ebits, count, "yes" if exceptional else "no")
          for ell, ebits, count, exceptional in rows),
    ]


def cmd_census(args: argparse.Namespace) -> int:
    from .eaqecc import CensusRow, entanglement_census

    form = FormKind(args.form)
    length = _ambient_length(form, args)
    if args.k < 0:
        raise BadRangeError(f"k must be non-negative, got {args.k}")
    rows = entanglement_census(length, args.k, args.q, form)
    sys.stdout.write(_render(args.format, CensusRow._fields, rows, _census_markdown))
    return 0


# -- parser ---------------------------------------------------------------------

def _add_cell_arguments(parser: argparse.ArgumentParser, with_ell: bool) -> None:
    parser.add_argument("-n", type=int, default=None,
                        help="ambient length (euclidean and hermitian forms)")
    parser.add_argument("--ambient", type=int, default=None,
                        help="ambient length 2n (symplectic form)")
    parser.add_argument("-k", type=int, required=True, help="code dimension")
    if with_ell:
        parser.add_argument("-l", "--hull", dest="ell", type=int, required=True,
                            help="hull dimension")
    parser.add_argument("-q", type=int, required=True,
                        help="field order (subfield order for hermitian)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hullcount",
        description="Exact counts of linear codes by hull dimension.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one parameter cell")
    p_eval.add_argument("--form", required=True, choices=[f.value for f in FormKind])
    _add_cell_arguments(p_eval, with_ell=True)

    p_table = sub.add_parser("table", help="render a reference table")
    p_table.add_argument("which", choices=["hermitian", "symplectic", "comparison"])
    p_table.add_argument("--format", choices=["markdown", "csv", "json"],
                         default="markdown")

    p_verify = sub.add_parser(
        "verify", help="enumeration sweep against the closed forms"
    )
    p_verify.add_argument("--form", action="append", dest="forms",
                          choices=[f.value for f in FormKind],
                          help="repeatable; default all three")
    p_verify.add_argument("--max-n", type=int, default=4,
                          help="largest euclidean/hermitian length")
    p_verify.add_argument("--max-ambient", type=int, default=6,
                          help="largest symplectic ambient length 2n")
    p_verify.add_argument("--max-k", type=int, default=None)
    p_verify.add_argument("-q", action="append", dest="qs", type=int,
                          help="repeatable; default 2")
    p_verify.add_argument("--work-limit", type=int, default=None)
    p_verify.add_argument("--dump", metavar="PATH", default=None,
                          help="write the oracle spectra as CSV ('-' for stdout)")

    p_census = sub.add_parser("census", help="entanglement-assisted parameters")
    p_census.add_argument("--form", required=True,
                          choices=["hermitian", "symplectic"])
    _add_cell_arguments(p_census, with_ell=False)
    p_census.add_argument("--format", choices=["markdown", "csv", "json"],
                          default="markdown")
    return parser


_COMMANDS = {
    "eval": cmd_eval,
    "table": cmd_table,
    "verify": cmd_verify,
    "census": cmd_census,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # exact counts can run past the int-to-str digit limit that Python
    # 3.10.7 and later enforce; lift it for this command only
    has_limit = hasattr(sys, "set_int_max_str_digits")
    if has_limit:
        old_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return _COMMANDS[args.command](args)
    except WorkLimitExceededError as exc:
        print(f"error: infeasible: {exc}", file=sys.stderr)
        return 2
    except HullCountError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if has_limit:
            sys.set_int_max_str_digits(old_limit)


if __name__ == "__main__":
    raise SystemExit(main())
