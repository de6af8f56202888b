"""Byte-stable CLI output: each command's stdout and exit code against the
recorded goldens in bench/goldens (read only)."""

import json
from pathlib import Path

import pytest

from hullcount import cli

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "bench" / "goldens"

COMMANDS = {
    **{
        f"table_{which}_{fmt}": ["table", which, "--format", fmt]
        for which in ("hermitian", "symplectic", "comparison")
        for fmt in ("markdown", "csv", "json")
    },
    "census_symplectic_markdown": "census --form symplectic --ambient 8 -k 4 -q 2".split(),
    "census_hermitian_csv": "census --form hermitian -n 120 -k 60 -q 2 --format csv".split(),
    "eval_hermitian": "eval --form hermitian -n 4 -k 2 -l 1 -q 2".split(),
    "eval_symplectic": "eval --form symplectic --ambient 8 -k 4 -l 0 -q 2".split(),
    "eval_euclidean": "eval --form euclidean -n 8 -k 3 -l 1 -q 2".split(),
    "verify_default": ["verify"],
    "verify_symplectic": "verify --form symplectic --max-ambient 6 -q 2 -q 3".split(),
    "verify_euclidean": "verify --form euclidean --max-n 6 -q 3".split(),
}


def test_every_golden_has_a_command():
    codes = json.loads((GOLDEN_DIR / "exit_codes.json").read_text())
    assert sorted(codes) == sorted(COMMANDS)
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.out")) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_and_exit_code_match_golden(name, capsys, monkeypatch):
    monkeypatch.delenv("HULLCOUNT_WORK_LIMIT", raising=False)
    code = cli.main(COMMANDS[name])
    out, _ = capsys.readouterr()
    assert out.encode() == (GOLDEN_DIR / f"{name}.out").read_bytes()
    assert code == json.loads((GOLDEN_DIR / "exit_codes.json").read_text())[name]
