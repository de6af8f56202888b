"""The three benchmark workloads: inputs from a seed, timed passes, checks.

Every library call a workload makes is one op: it is timed on its own and
its answer is checked by a second route. A wrong answer or an exception
counts as a failed op and the run goes on. Workload code calls the
library through module attributes (``oracle.spectrum_vs_formula``), so a
traced pass sees the wrappers `spans.Tracer` installs; the checks use the
``reference_*`` functions bound at import, which tracing never touches.

Workloads (sizes and q are fixed; the seed picks k and l inside narrow
size classes and the random matrices, so cost does not depend on it):

* ``oracle_sweep``: `oracle.spectrum_vs_formula` over six fixed cells,
  541,688 subspaces in all, plus a slice of `algebra.hull_dim`,
  `algebra.rref` and `eaqecc.ebits_from_check_matrix` calls. The oracle
  kernel and odometer do nearly all the work.
* ``closed_form``: hermitian and symplectic counts at n = 50, 200, 1000,
  the census and ratio/classification layer over the hermitian n=200 and
  symplectic 2n=400 spectra, and a grid of thousands of n <= 20 cells.
  Big-integer Gaussian binomials set the tail; the small cells set the
  median. The oracle is not used.
* ``cli_session``: one client running real ``python -m hullcount.cli``
  commands one after another, checked against golden stdout and exit
  codes. One op is a known defect (see `PROBE_NAME`).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from hullcount import algebra, cli, eaqecc, formulas, oracle, ratios
from hullcount.algebra import FormKind, MatrixGF, make_field
from hullcount.exactnum import gaussian_binomial as reference_gaussian_binomial
from hullcount.exactnum import prime_power_parts

from spans import Target, Tracer

reference_hull_spectrum = oracle.hull_spectrum
reference_count_hermitian = formulas.count_hermitian

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

H, S, E = FormKind.HERMITIAN, FormKind.SYMPLECTIC, FormKind.EUCLIDEAN


# -- speed meter and op log ----------------------------------------------------

_SLICE_TABLE = [[(a * b + a) % 251 for b in range(16)] for a in range(16)]
_SLICE_MODULUS = 10 ** 2000 + 7


def reference_slice() -> int:
    """A fixed piece of work that never touches hullcount: table lookups in
    a Python loop, then big-integer multiply and remainder."""
    table, s = _SLICE_TABLE, 0
    for i in range(10000):
        s = table[(s + i) & 15][i & 15]
    x = 7 ** 2500
    for _ in range(30):
        x = x * x % _SLICE_MODULUS
    return s + (x & 1)


@dataclass
class SpeedMeter:
    """Times `reference_slice` between ops, at most every `EVERY_S`
    seconds, so the machine's speed is sampled all along the work.

    On a shared machine the CPU speed a process gets drifts by tens of
    percent within seconds to minutes. A stretch of work between two
    samples is divided by their mean slowdown against `REF_SLICE_S`, which
    turns it into reference seconds: what it would read at the speed at
    which the slice takes `REF_SLICE_S`.
    """

    starts: list[float] = field(default_factory=list)
    durations: list[float] = field(default_factory=list)

    EVERY_S = 0.05
    REF_SLICE_S = 0.0038  # the slice on a quiet 2-core Intel Xeon, CPython 3.11

    def tick(self) -> None:
        start = time.perf_counter()
        reference_slice()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def maybe_tick(self) -> None:
        if not self.starts or time.perf_counter() - self.starts[-1] >= self.EVERY_S:
            self.tick()

    @property
    def last(self) -> int:
        return len(self.starts) - 1

    def factor(self, i: int) -> float:
        """Slowdown over the stretch between samples i and i + 1."""
        return (self.durations[i] + self.durations[i + 1]) / (2 * self.REF_SLICE_S)

    def reference_seconds(self, first: int, last: int) -> float:
        """The time between samples first and last, without the sampling
        itself, in reference seconds."""
        return sum(
            (self.starts[i + 1] - self.starts[i] - self.durations[i]) / self.factor(i)
            for i in range(first, last)
        )


@dataclass
class OpLog:
    """Times and outcomes of ops; samples the machine's speed between them."""

    meter: SpeedMeter = field(default_factory=SpeedMeter)
    times: list[float] = field(default_factory=list)
    ticks: list[int] = field(default_factory=list)  # meter sample before each op
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    known_defects: list[str] = field(default_factory=list)

    def op(
        self,
        label: str,
        call: Callable[[], Any],
        check: Callable[[Any], str | None] | None = None,
        known_defect: Callable[[str], bool] | None = None,
    ) -> Any:
        """Time call(), then check its result; returns None if it raised.

        A failure whose description `known_defect` accepts is filed as the
        known defect; any other failure is a problem.
        """
        self.meter.maybe_tick()
        self.ticks.append(self.meter.last)
        self.attempted += 1
        start = time.perf_counter()
        result, problem = None, None
        try:
            result = call()
        except Exception as exc:  # a crash is a failed op, never the end of the run
            problem = f"{type(exc).__name__}: {exc}"
        self.times.append(time.perf_counter() - start)
        if problem is None and check is not None:
            try:
                problem = check(result)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            self.fail(label, problem, known_defect is not None and known_defect(problem))
        return result

    def reference_times(self, first: int) -> list[float]:
        """Times of ops[first:] in reference seconds; the meter must have
        sampled after the last of them."""
        return [t / self.meter.factor(i) for t, i in zip(self.times[first:], self.ticks[first:])]

    def fail(self, label: str, problem: str, known_defect: bool = False) -> None:
        """Count one failure; checks that span several ops call this directly."""
        self.failed += 1
        (self.known_defects if known_defect else self.problems).append(f"{label}: {problem}")


def bench_span(tracer: Tracer | None, name: str, label: object = ""):
    return tracer.span(name, label) if tracer else contextlib.nullcontext()


def field_for(form: FormKind, q: int) -> algebra.FiniteField:
    p, e = prime_power_parts(q)
    return make_field(p, 2 * e if form is H else e)


def cell_key(form: FormKind, length: int, k: int, q: int) -> str:
    return f"{form.value}_{length}_{k}_{q}"


# -- tracing targets ------------------------------------------------------------

def _arg(args: tuple, kwargs: dict, i: int, name: str) -> Any:
    return args[i] if len(args) > i else kwargs[name]


def _census_label(args: tuple, kwargs: dict) -> str:
    form, length = _arg(args, kwargs, 3, "form"), _arg(args, kwargs, 0, "length")
    return f"{form.value}_{'2n' if form is S else 'n'}{length}"


TARGETS = [
    Target("algebra.hull_dim", lambda a, kw: _arg(a, kw, 1, "form").value),
    Target("algebra.rref"),
    Target("exactnum.gaussian_binomial", lambda a, kw: f"n{_arg(a, kw, 0, 'n')}"),
    Target("formulas.count_hermitian", lambda a, kw: f"n{_arg(a, kw, 0, 'params').n}"),
    Target("formulas.count_symplectic", lambda a, kw: f"n{_arg(a, kw, 0, 'params').two_n // 2}"),
    Target("ratios.ratio_report"),
    Target("ratios.classify_hermitian"),
    Target("ratios.classify_symplectic"),
    Target(
        "oracle.hull_spectrum",
        lambda a, kw: (_arg(a, kw, 3, "form").value, _arg(a, kw, 1, "k")),
        lambda spectrum: spectrum.total,
    ),
    Target(
        "oracle.spectrum_vs_formula",
        lambda a, kw: cell_key(_arg(a, kw, 3, "form"), _arg(a, kw, 0, "length"),
                               _arg(a, kw, 1, "k"), _arg(a, kw, 2, "q")),
    ),
    Target("eaqecc.ebits_from_check_matrix"),
    Target("eaqecc.entanglement_census", _census_label),
    Target("cli.main", lambda a, kw: (_arg(a, kw, 0, "argv") or [""])[0]),
]


# -- oracle_sweep ---------------------------------------------------------------

ORACLE_CELLS = (  # (form, ambient length, k, q); 541,688 subspaces in all
    (S, 8, 4, 2),
    (E, 10, 2, 2),
    (H, 6, 2, 2),
    (S, 6, 3, 3),
    (E, 6, 3, 3),
    (E, 5, 2, 4),
)


def oracle_sweep_subspaces() -> tuple[int, int]:
    """Subspaces one oracle_sweep pass enumerates: in all, and in k=2 cells."""
    totals = [(k, reference_gaussian_binomial(length, k, field_for(form, q).order))
              for form, length, k, q in ORACLE_CELLS]
    return sum(t for _, t in totals), sum(t for k, t in totals if k == 2)


SLICE_CELLS = ((E, 4, 2, 3), (H, 4, 2, 2), (S, 6, 3, 2))  # enumerated, hull_dim on each
SLICE_RREF = (200, 4, 8, 9)  # matrices, rows, cols, field order
SLICE_EBITS = (200, 4, 6)  # check matrices, rows, half length


def _random_matrix(rng: random.Random, rows: int, cols: int, order: int) -> list[list[int]]:
    return [[rng.randrange(order) for _ in range(cols)] for _ in range(rows)]


def _matmul(fld: algebra.FiniteField, a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    mul, add = fld.mul_table, fld.add_table
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for coef, brow in zip(row, b):
            if coef:
                scaled = mul[coef]
                acc = [add[x][scaled[y]] for x, y in zip(acc, brow)]
        out.append(acc)
    return out


def binary_symplectic_gram_rank(rows: list[list[int]], half: int) -> int:
    """Rank over GF(2) of the symplectic Gram matrix, by bitmask elimination:
    a route independent of `algebra`'s table-driven Gram and rref."""
    masks = []
    for a in rows:
        mask = 0
        for j, b in enumerate(rows):
            bit = sum(a[t] & b[half + t] for t in range(half)) + sum(
                a[half + t] & b[t] for t in range(half)
            )
            mask |= (bit & 1) << j
        masks.append(mask)
    basis: list[int] = []
    for m in masks:
        for v in basis:
            m = min(m, m ^ v)
        if m:
            basis.append(m)
    return len(basis)


@dataclass
class OracleInputs:
    slice_fields: list[algebra.FiniteField]
    slice_spectra: list[dict[int, int]]
    rref_pairs: list[tuple[MatrixGF, MatrixGF]]
    ebits_cases: list[tuple[MatrixGF, int]]


def build_oracle_sweep(rng: random.Random) -> OracleInputs:
    fields = [field_for(form, q) for form, _, _, q in SLICE_CELLS]
    spectra = [
        reference_hull_spectrum(length, k, fld, form).counts
        for (form, length, k, _), fld in zip(SLICE_CELLS, fields)
    ]
    count, rows, cols, order = SLICE_RREF
    f9 = field_for(E, order)
    pairs = []
    for _ in range(count):
        m = _random_matrix(rng, rows, cols, order)
        while True:  # a random invertible row mix
            mix = _random_matrix(rng, rows, rows, order)
            if algebra.rref(MatrixGF.from_rows(f9, mix)).rank == rows:
                break
        pairs.append((MatrixGF.from_rows(f9, m), MatrixGF.from_rows(f9, _matmul(f9, mix, m))))
    count, rows, half = SLICE_EBITS
    f2 = field_for(E, 2)
    cases = []
    for _ in range(count):
        h = _random_matrix(rng, rows, 2 * half, 2)
        cases.append((MatrixGF.from_rows(f2, h), binary_symplectic_gram_rank(h, half) // 2))
    return OracleInputs(fields, spectra, pairs, cases)


def _spectrum_problem(comp, expected_total: int) -> str | None:
    if not comp.passed:
        return comp.first_failure() or "oracle and closed form disagree"
    if comp.oracle_total != expected_total:
        return "oracle total differs from the Gaussian binomial"
    return None


def oracle_sweep_pass(inputs: OracleInputs, log: OpLog, tracer: Tracer | None = None) -> None:
    for form, length, k, q in ORACLE_CELLS:
        total = reference_gaussian_binomial(length, k, field_for(form, q).order)
        log.op(
            f"spectrum {cell_key(form, length, k, q)}",
            lambda: oracle.spectrum_vs_formula(length, k, q, form),
            lambda comp: _spectrum_problem(comp, total),
        )
    for (form, length, k, q), fld, expected in zip(
        SLICE_CELLS, inputs.slice_fields, inputs.slice_spectra
    ):
        label = f"enumerate {cell_key(form, length, k, q)}"

        def enumerate_cell():
            with bench_span(tracer, "bench.enumerate") as span:
                mats = list(oracle.enumerate_subspaces(length, k, fld))
                if span:
                    span.count = len(mats)
            return mats

        total = reference_gaussian_binomial(length, k, fld.order)
        mats = log.op(label, enumerate_cell,
                      lambda ms: None if len(ms) == total else "wrong subspace count")
        tally: dict[int, int] = {}
        for gen in mats or ():
            ell = log.op(f"hull_dim {label}", lambda: algebra.hull_dim(gen, form))
            if ell is not None:
                tally[ell] = tally.get(ell, 0) + 1
        if mats and tally != expected:
            log.fail(label, "hull_dim tally differs from the oracle spectrum")
    for m, mixed in inputs.rref_pairs:
        first = log.op("rref", lambda: algebra.rref(m))
        log.op(
            "rref of row-mixed matrix",
            lambda: algebra.rref(mixed),
            lambda r: None if first is None or (r.matrix == first.matrix and r.rank == first.rank)
            else "row space changed under an invertible row mix",
        )
    for h, ebits in inputs.ebits_cases:
        log.op("ebits", lambda: eaqecc.ebits_from_check_matrix(h),
               lambda e: None if e == ebits else f"ebits {e} != bitwise route {ebits}")


# -- closed_form ------------------------------------------------------------------

BIG_SIZES = (50, 200, 1000)
BIG_Q = 2
CENSUS_Q = 2
SMALL_QS = (2, 3, 4, 5, 7, 8, 9)
SMALL_MAX_N = 20
SMALL_KS_PER_LENGTH = 2


def _count(form: FormKind, length: int, k: int, ell: int, q: int) -> int:
    if form is H:
        return formulas.count_hermitian(formulas.HermitianParams(length, k, ell, q))
    return formulas.count_symplectic(formulas.SymplecticParams(length, k, ell, q))


def _total(form: FormKind, length: int, k: int, q: int) -> int:
    """[length, k]_Q: the number of codes a whole spectrum must add up to."""
    return reference_gaussian_binomial(length, k, q * q if form is H else q)


def _ells(form: FormKind, length: int, k: int) -> range:
    top = min(k, length - k)
    return range(0, top + 1) if form is H else range(k % 2, top + 1, 2)


def _has_ratio(form: FormKind, length: int, k: int, ell: int) -> bool:
    step = 1 if form is H else 2
    return ell + step <= k <= length - ell - step


def _ratio_problem(lo: int | None, hi: int | None, report) -> str | None:
    """count(l) = full_ratio * count(l + step), in integers only."""
    if lo is None or hi is None:
        return None  # the count op already failed
    r = report.full_ratio
    if lo * r.denominator != r.numerator * hi:
        return "ratio identity count(l) = full_ratio * count(l+step) fails"
    return None


def _classify_problem(form: FormKind, counts: dict[int, int], ell: int, cls, report) -> str | None:
    step = 1 if form is H else 2
    if ell not in counts or ell + step not in counts:
        return None
    monotone = counts[ell] > counts[ell + step]
    if cls.count_monotone != monotone:
        return "count_monotone disagrees with the counts"
    if form is H and cls.ratio_monotone != monotone:
        return "ratio_monotone disagrees with the counts"
    if report is not None and cls.classification is not report.classification:
        return "classification disagrees with ratio_report"
    return None


@dataclass
class ClosedInputs:
    big: list[tuple[FormKind, int, int, int, int]]
    census: list[tuple[FormKind, int, int, int]]
    small: list[tuple[FormKind, int, int, int]]


def build_closed_form(rng: random.Random) -> ClosedInputs:
    big = []
    for n in BIG_SIZES:
        spread = max(1, n // 50)
        big.append((H, n, n // 2 + rng.randint(-spread, spread), rng.randint(0, 2), BIG_Q))
        k = n + rng.randint(-2 * spread, 2 * spread)  # ambient 2n, so k0 is near n/2
        big.append((S, 2 * n, k, k % 2 + 2 * rng.randint(0, 1), BIG_Q))
    census = [
        (H, 200, 100 + rng.randint(-4, 4), CENSUS_Q),
        (S, 400, 200 + rng.randint(-8, 8), CENSUS_Q),
    ]
    small = []
    for form in (H, S):
        for q in SMALL_QS:
            for n in range(2, SMALL_MAX_N + 1):
                length = n if form is H else 2 * n
                ks = range(1, length)
                for k in rng.sample(ks, min(SMALL_KS_PER_LENGTH, len(ks))):
                    small.append((form, length, k, q))
    return ClosedInputs(big, census, small)


def _classify(form: FormKind, length: int, k: int, ell: int, q: int):
    if form is H:
        return ratios.classify_hermitian(length, k, ell, q)
    return ratios.classify_symplectic(length, k, ell, q)


def _spectrum_ops(log: OpLog, form: FormKind, length: int, k: int, q: int,
                  counts: dict[int, int]) -> None:
    """ratio_report and classify over one spectrum whose counts are known."""
    step = 1 if form is H else 2
    for ell in _ells(form, length, k):
        if not _has_ratio(form, length, k, ell):
            continue
        label = f"{cell_key(form, length, k, q)} l={ell}"
        report = log.op(
            f"ratio_report {label}",
            lambda: ratios.ratio_report(form, length, k, ell, q),
            lambda rep: _ratio_problem(counts.get(ell), counts.get(ell + step), rep),
        )
        log.op(f"classify {label}", lambda: _classify(form, length, k, ell, q),
               lambda cls: _classify_problem(form, counts, ell, cls, report))


def closed_form_pass(inputs: ClosedInputs, log: OpLog, tracer: Tracer | None = None) -> None:
    for form, length, k, ell, q in inputs.big:
        step = 1 if form is H else 2
        label = f"count {cell_key(form, length, k, q)}"
        lo = log.op(f"{label} l={ell}", lambda: _count(form, length, k, ell, q))
        hi = log.op(f"{label} l={ell + step}", lambda: _count(form, length, k, ell + step, q))
        log.op(f"ratio_report {label} l={ell}",
               lambda: ratios.ratio_report(form, length, k, ell, q),
               lambda rep: _ratio_problem(lo, hi, rep))
    for form, length, k, q in inputs.census:
        label = f"census {cell_key(form, length, k, q)}"
        total = _total(form, length, k, q)
        rows = log.op(
            label,
            lambda: eaqecc.entanglement_census(length, k, q, form),
            lambda rs: None if sum(r.count for r in rs) == total
            and [r.ell for r in rs] == list(_ells(form, length, k))
            else "census counts do not add up to the Gaussian binomial",
        )
        if rows is not None:
            _spectrum_ops(log, form, length, k, q, {r.ell: r.count for r in rows})
    with bench_span(tracer, "bench.small_grid") as span:
        before = log.attempted
        for form, length, k, q in inputs.small:
            counts = {}
            for ell in _ells(form, length, k):
                c = log.op(f"count {cell_key(form, length, k, q)} l={ell}",
                           lambda: _count(form, length, k, ell, q))
                if c is not None:
                    counts[ell] = c
            if sum(counts.values()) != _total(form, length, k, q):
                log.fail(f"spectrum {cell_key(form, length, k, q)}",
                         "counts do not add up to the Gaussian binomial")
            _spectrum_ops(log, form, length, k, q, counts)
        if span:
            span.count = log.attempted - before


# -- cli_session ------------------------------------------------------------------

def _table(which: str, fmt: str) -> tuple[str, list[str]]:
    return f"table_{which}_{fmt}", ["table", which, "--format", fmt]


CLI_COMMANDS = (
    *(_table(w, f) for w in ("hermitian", "symplectic", "comparison")
      for f in ("markdown", "csv", "json")),
    ("census_symplectic_markdown", ["census", "--form", "symplectic", "--ambient", "8", "-k", "4", "-q", "2"]),
    ("census_hermitian_csv", ["census", "--form", "hermitian", "-n", "120", "-k", "60", "-q", "2", "--format", "csv"]),
    ("eval_hermitian", ["eval", "--form", "hermitian", "-n", "4", "-k", "2", "-l", "1", "-q", "2"]),
    ("eval_symplectic", ["eval", "--form", "symplectic", "--ambient", "8", "-k", "4", "-l", "0", "-q", "2"]),
    ("eval_euclidean", ["eval", "--form", "euclidean", "-n", "8", "-k", "3", "-l", "1", "-q", "2"]),
    ("verify_default", ["verify"]),
    ("verify_symplectic", ["verify", "--form", "symplectic", "--max-ambient", "6", "-q", "2", "-q", "3"]),
    ("verify_euclidean", ["verify", "--form", "euclidean", "--max-n", "6", "-q", "3"]),
)
# goldens/ holds the stdout (<name>.out) and exit code (exit_codes.json) of
# each command as the CLI printed them from the sources this benchmark was
# added against. They are data, changed by hand only when an output changes
# on purpose.

# Known defect of those sources: this count has more than 4300 digits and
# its str() conversion raises ValueError, so the command exits 1. Only a
# failure with that signature counts as the known defect; any other failure
# of the probe is a problem. The op passes once the command exits 0 and
# prints the library's count.
PROBE_NAME = "eval_hermitian_n200"
PROBE_CELL = (200, 100, 0, 2)  # n, k, l, q
PROBE_ARGV = "eval --form hermitian -n {} -k {} -l {} -q {}".format(*PROBE_CELL).split()
PROBE_DEFECT = "ValueError: Exceeds the limit (4300 digits) for integer string conversion"


@contextlib.contextmanager
def unlimited_int_digits():
    """Lift the int-to-str digit limit in this process only, for a while."""
    if not hasattr(sys, "set_int_max_str_digits"):  # an interpreter without the limit
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@dataclass(frozen=True)
class CliCase:
    name: str
    argv: list[str]
    stdout: bytes | None  # golden stdout; None for the probe
    exit_code: int
    expected_line: str | None = None  # the probe's required stdout line

    def is_known_defect(self, problem: str) -> bool:
        """Whether a failure of this case is the documented probe defect: the
        ValueError raised in process, or exit code 1 with it on stderr."""
        return self.expected_line is not None and problem.startswith(
            (PROBE_DEFECT, f"exit code 1, expected 0; stderr: {PROBE_DEFECT}"))

    def problem(self, exit_code: int, stdout: bytes, stderr: bytes) -> str | None:
        if exit_code != self.exit_code:
            last = stderr.decode(errors="replace").strip().splitlines()[-1:]
            return f"exit code {exit_code}, expected {self.exit_code}" + "".join(
                f"; stderr: {line}" for line in last)
        if self.expected_line is not None:
            if self.expected_line not in stdout.decode().splitlines():
                return "stdout lacks the library's count line"
        elif stdout != self.stdout:
            return "stdout differs from the golden"
        return None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("HULLCOUNT_WORK_LIMIT", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def load_cli_cases(golden_dir: Path = GOLDEN_DIR) -> list[CliCase]:
    exits = json.loads((golden_dir / "exit_codes.json").read_text())
    cases = [
        CliCase(name, argv, (golden_dir / f"{name}.out").read_bytes(), exits[name])
        for name, argv in CLI_COMMANDS
    ]
    with unlimited_int_digits():
        line = f"count: {reference_count_hermitian(formulas.HermitianParams(*PROBE_CELL))}"
    cases.append(CliCase(PROBE_NAME, PROBE_ARGV, None, 0, line))
    return cases


def build_cli_session(rng: random.Random, golden_dir: Path = GOLDEN_DIR) -> list[CliCase]:
    os.environ.pop("HULLCOUNT_WORK_LIMIT", None)  # in-process runs see the child env too
    cases = load_cli_cases(golden_dir)
    rng.shuffle(cases)
    return cases


def run_cli(argv: list[str], timeout: float = 120.0) -> tuple[int, bytes, bytes]:
    proc = subprocess.run(
        [sys.executable, "-m", "hullcount.cli", *argv],
        cwd=ROOT, env=child_env(), capture_output=True, timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_cli_inprocess(argv: list[str]) -> tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


def cli_session_pass(cases: list[CliCase], log: OpLog, in_process: bool = False) -> None:
    runner = run_cli_inprocess if in_process else run_cli
    for case in cases:
        log.op(case.name, lambda: runner(case.argv),
               lambda res: case.problem(*res), known_defect=case.is_known_defect)
