"""CLI output of counts longer than the interpreter's int-to-str digit limit."""

import contextlib
import sys

from hullcount import cli
from hullcount.formulas import HermitianParams, count_hermitian

N, K, Q = 200, 100, 2  # count(l=0) has about 6,000 digits


@contextlib.contextmanager
def unlimited_digits():
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _digit_limit():
    if hasattr(sys, "get_int_max_str_digits"):
        return sys.get_int_max_str_digits()
    return None


def _run(argv, capsys):
    before = _digit_limit()
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert _digit_limit() == before  # main restores the limit it lifted
    return code, out, err


def test_eval_prints_count_past_digit_limit(capsys):
    argv = ["eval", "--form", "hermitian", "-n", str(N), "-k", str(K), "-l", "0", "-q", str(Q)]
    code, out, err = _run(argv, capsys)
    assert code == 0, err
    with unlimited_digits():
        expected = str(count_hermitian(HermitianParams(N, K, 0, Q)))
    assert f"count: {expected}" in out.splitlines()


def test_census_prints_counts_past_digit_limit(capsys):
    argv = ["census", "--form", "hermitian", "-n", str(N), "-k", str(K), "-q", str(Q),
            "--format", "csv"]
    code, out, err = _run(argv, capsys)
    assert code == 0, err
    lines = out.split("\r\n")
    assert lines[0] == "ell,ebits,count,exceptional"
    with unlimited_digits():
        for ell in (0, 1, K):
            count = count_hermitian(HermitianParams(N, K, ell, Q))
            assert lines[1 + ell] == f"{ell},{N - K - ell},{count},false"
