"""Tests of the benchmark's own code: python3 -m pytest bench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import workloads as w  # noqa: E402
from hullcount import formulas  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _case(cases, name):
    return next(c for c in cases if c.name == name)


@pytest.mark.parametrize("in_process", [False, True])
def test_corrupted_golden_is_a_failed_op(tmp_path, in_process):
    golden = tmp_path / "goldens"
    shutil.copytree(w.GOLDEN_DIR, golden)
    out = golden / "table_comparison_csv.out"
    out.write_bytes(out.read_bytes().replace(b"1/2", b"1/3", 1))
    exits = json.loads((golden / "exit_codes.json").read_text())
    exits["eval_hermitian"] = 2
    (golden / "exit_codes.json").write_text(json.dumps(exits))
    cases = w.load_cli_cases(golden)
    picked = [_case(cases, n) for n in ("table_comparison_csv", "eval_hermitian", "table_hermitian_csv")]
    log = w.OpLog()
    w.cli_session_pass(picked, log, in_process=in_process)
    assert (log.attempted, log.failed) == (3, 2)
    assert "golden" in log.problems[0] and "exit code 0, expected 2" in log.problems[1]


@pytest.mark.parametrize("in_process", [False, True])
def test_known_defect_probe_fails_without_being_a_problem(in_process):
    cases = w.load_cli_cases()
    log = w.OpLog()
    w.cli_session_pass([_case(cases, w.PROBE_NAME)], log, in_process=in_process)
    assert (log.attempted, log.failed, log.problems) == (1, 1, [])
    assert w.PROBE_DEFECT in log.known_defects[0]


@pytest.mark.parametrize("fault", ["wrong count", "exit 2"])
def test_probe_failing_another_way_is_a_problem(monkeypatch, fault):
    right = formulas.count_hermitian

    def count(params):
        if fault == "exit 2":
            raise w.cli.BadRangeError("injected")
        return right(params) + 1

    monkeypatch.setattr(formulas, "count_hermitian", count)
    log = w.OpLog()
    with w.unlimited_int_digits():  # the probe's command then runs to the end
        w.cli_session_pass([_case(w.load_cli_cases(), w.PROBE_NAME)], log, in_process=True)
    assert (log.attempted, log.failed, log.known_defects) == (1, 1, [])
    assert ("count line" if fault == "wrong count" else "exit code 2") in log.problems[0]


def test_wrong_oracle_span_totals_are_a_failure():
    total, k2 = w.oracle_sweep_subspaces()
    log = w.OpLog()
    run.check_oracle_spans({"oracle.subspaces": total, "oracle.share_k2": k2 / total}, log)
    assert log.failed == 0
    run.check_oracle_spans({"oracle.subspaces": total + 1, "oracle.share_k2": k2 / total}, log)
    assert log.failed == 1 and "subspaces" in log.problems[0]


def test_wrong_count_is_a_failed_op(monkeypatch):
    right = formulas.count_hermitian
    monkeypatch.setattr(formulas, "count_hermitian", lambda params: right(params) + 1)
    inputs = w.ClosedInputs(big=[(w.H, 50, 25, 1, 2)], census=[], small=[(w.H, 6, 3, 2)])
    log = w.OpLog()
    w.closed_form_pass(inputs, log)
    assert log.failed >= 2 and len(log.times) == log.attempted
    assert any("ratio identity" in p for p in log.problems)
    assert any("Gaussian binomial" in p for p in log.problems)


def test_right_counts_pass():
    inputs = w.ClosedInputs(big=[(w.H, 50, 25, 1, 2), (w.S, 100, 50, 0, 2)],
                            census=[(w.S, 40, 20, 2)], small=[(w.H, 6, 3, 2), (w.S, 8, 3, 3)])
    log = w.OpLog()
    w.closed_form_pass(inputs, log)
    assert log.attempted > 20 and log.failed == 0


def test_exception_in_op_is_counted_and_run_goes_on():
    log = w.OpLog()
    assert log.op("boom", lambda: 1 // 0) is None
    assert log.op("ok", lambda: 2, lambda r: None) == 2
    assert (log.attempted, log.failed) == (2, 1) and "ZeroDivisionError" in log.problems[0]


def test_binary_gram_rank_matches_library():
    rng = w.random.Random(5)
    f2 = w.field_for(w.E, 2)
    for _ in range(50):
        h = [[rng.randrange(2) for _ in range(8)] for _ in range(4)]
        expected = w.eaqecc.ebits_from_check_matrix(w.MatrixGF.from_rows(f2, h))
        assert w.binary_symplectic_gram_rank(h, 4) == 2 * expected


def test_tail_has_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(100)])
    assert (value, pct) == (89.0, 90.0)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_printed_metrics_are_declared(workload, trace):
    kind = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in DECLARED[kind]}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "2",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    *lines, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert result["failed"] == (3 if trace else 1) * (workload == "cli_session")
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    printed = {line.split()[0]: line.split()[2] for line in lines if not line.startswith("#")}
    assert printed == declared


def test_exits_nonzero_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "closed_form"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""
