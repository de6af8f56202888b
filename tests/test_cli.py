"""CLI behavior: subcommands, formats, exit codes, verify's work-limit plumbing."""

import json

import pytest

from hullcount import cli, formulas, oracle, ratios


def run(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_eval_hermitian_count(capsys):
    code, out, _ = run(
        ["eval", "--form", "hermitian", "-n", "6", "-k", "3", "-l", "3", "-q", "2"],
        capsys,
    )
    assert code == 0
    assert "count: 891" in out
    # l = min(k, n-k): no successor cell, so no finite ratio factor
    assert "alpha: undefined" in out


def test_eval_hermitian_with_ratio(capsys):
    code, out, _ = run(
        ["eval", "--form", "hermitian", "-n", "4", "-k", "2", "-l", "1", "-q", "2"],
        capsys,
    )
    assert code == 0
    assert "count: 90" in out
    assert "alpha: 10/9" in out
    assert "classification: strictly_above_one" in out
    assert "count_monotone: yes" in out


def test_eval_symplectic_exception_cell(capsys):
    code, out, _ = run(
        ["eval", "--form", "symplectic", "--ambient", "8", "-k", "4", "-l", "0",
         "-q", "2"],
        capsys,
    )
    assert code == 0
    assert "count: 91392" in out
    assert "classification: symplectic_exception_es" in out
    assert "count_monotone: no" in out


def test_eval_out_of_range_hull_counts_zero(capsys):
    code, out, _ = run(
        ["eval", "--form", "symplectic", "--ambient", "4", "-k", "3", "-l", "3",
         "-q", "2"],
        capsys,
    )
    assert code == 0
    assert "count: 0" in out


@pytest.mark.parametrize("form, flag, length", [
    ("euclidean", "-n", 3), ("hermitian", "-n", 3), ("symplectic", "--ambient", 4),
])
def test_eval_refuses_k_above_the_length_for_every_form(capsys, form, flag, length):
    code, out, err = run(
        ["eval", "--form", form, flag, str(length), "-k", "5", "-l", "0", "-q", "2"], capsys
    )
    assert (code, out, err) == (2, "", f"error: need 0 <= k <= n, got n={length} k=5\n")


@pytest.mark.parametrize("form, flag, length", [
    ("euclidean", "-n", 4), ("hermitian", "-n", 4), ("symplectic", "--ambient", 4),
])
@pytest.mark.parametrize("k, ell", [(-1, 0), (2, -1)])
def test_eval_refuses_a_negative_k_or_l_for_every_form(capsys, form, flag, length, k, ell):
    code, out, err = run(
        ["eval", "--form", form, flag, str(length), "-k", str(k), "-l", str(ell), "-q", "2"],
        capsys,
    )
    assert (code, out, err) == (2, "", f"error: k and l must be non-negative, got k={k} l={ell}\n")


def test_eval_euclidean_uses_the_ratio_chain(capsys, monkeypatch):
    # eval counts from ratios.euclidean_spectrum and never enumerates
    from hullcount import oracle

    def no_enumeration(*args, **kwargs):
        raise AssertionError("eval enumerated subspaces")

    monkeypatch.setattr(oracle, "hull_spectrum", no_enumeration)
    code, out, _ = run(
        ["eval", "--form", "euclidean", "-n", "4", "-k", "2", "-l", "1", "-q", "2"],
        capsys,
    )
    assert code == 0
    assert "count: 12" in out
    # 25,734,890 subspaces, about 30 s for the oracle, which tallies 1508580
    code, out, _ = run(
        ["eval", "--form", "euclidean", "-n", "5", "-k", "2", "-l", "1", "-q", "17"],
        capsys,
    )
    assert code == 0
    assert "count: 1508580\n" in out


def test_eval_euclidean_above_half_prints_the_dual_cells_ratios(capsys):
    # C -> C^perp keeps the Euclidean hull: E[6,4]_3 has E[6,2]_3's counts
    # and step ratios, and says whose ratios it prints
    _, low, _ = run(["eval", "--form", "euclidean", "-n", "6", "-k", "2", "-l", "1", "-q", "3"], capsys)
    code, high, _ = run(["eval", "--form", "euclidean", "-n", "6", "-k", "4", "-l", "1", "-q", "3"], capsys)
    assert code == 0
    for line in ("count: 3360", "alpha: 3/2", "step_ratio: 12/1"):
        assert line in low.splitlines() and line in high.splitlines()
    assert high.splitlines() == [
        line.replace("k: 2", "k: 4") for line in low.splitlines()
    ] + ["note: ratios of the dual cell k=2, which has the same counts"]
    # a ratio the dual cell lacks is reported as the dual cell's
    code, out, _ = run(["eval", "--form", "euclidean", "-n", "6", "-k", "5", "-l", "1", "-q", "3"], capsys)
    assert code == 0
    assert out.splitlines()[-2:] == [
        "alpha: undefined (need 0 <= l <= k-1, got k=1 l=1)",
        "note: ratios of the dual cell k=1, which has the same counts",
    ]


def test_eval_takes_no_work_limit(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--form", "euclidean", "-n", "4", "-k", "2", "-l", "0",
                  "-q", "2", "--work-limit", "100"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --work-limit 100" in capsys.readouterr().err


def test_eval_rejects_bad_lengths(capsys):
    code, _, err = run(
        ["eval", "--form", "symplectic", "--ambient", "7", "-k", "2", "-l", "0",
         "-q", "2"],
        capsys,
    )
    assert code == 2
    assert "error:" in err
    code, _, err = run(
        ["eval", "--form", "symplectic", "-n", "4", "-k", "2", "-l", "0", "-q", "2"],
        capsys,
    )
    assert code == 2
    code, _, err = run(
        ["eval", "--form", "hermitian", "--ambient", "4", "-k", "2", "-l", "0",
         "-q", "2"],
        capsys,
    )
    assert code == 2


def test_odd_and_negative_ambient_lengths_have_one_message(capsys):
    # the CLI reads the library's one odd-length check
    code, out, err = run(
        ["eval", "--form", "symplectic", "--ambient", "5", "-k", "2", "-l", "0",
         "-q", "2"],
        capsys,
    )
    assert (code, out) == (2, "")
    assert err == "error: symplectic ambient length must be even, got 5\n"
    code, out, err = run(
        ["eval", "--form", "symplectic", "--ambient", "-2", "-k", "2", "-l", "0",
         "-q", "2"],
        capsys,
    )
    assert (code, out) == (2, "")
    assert err == "error: ambient length must be non-negative, got -2\n"


def test_eval_rejects_non_prime_power_order(capsys):
    # the ratio chain (euclidean) and closed-form (hermitian) paths give one message
    for form in ("euclidean", "hermitian"):
        code, out, err = run(
            ["eval", "--form", form, "-n", "4", "-k", "2", "-l", "0", "-q", "6"],
            capsys,
        )
        assert (code, out, err) == (2, "", "error: q must be a prime power, got 6\n")


def test_unknown_choice_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--form", "bogus", "-n", "4", "-k", "2", "-l", "0",
                  "-q", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_table_hermitian_markdown(capsys):
    code, out, _ = run(["table", "hermitian"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("| n | k | q | A_0 |")
    assert len(lines) == 2 + 18
    assert "| 4 | 1 | 2 | 40 | **45** |" in out
    assert "| 6 | 1 | 2 | 672 | **693** |" in out
    # deterministic output: repeated runs are byte identical
    code2, out2, _ = run(["table", "hermitian"], capsys)
    assert out2 == out


def test_table_symplectic_markdown(capsys):
    code, out, _ = run(["table", "symplectic"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("| 2n | k | q | A_0 | A_2 |")
    assert len(lines) == 2 + 12
    assert "| 8 | 4 | 2 | 91392 | **107100** | 2295 |" in out
    assert "| 8 | 4 | 3 | 48958182 | 26863200 | 91840 |" in out


def test_table_csv(capsys):
    code, out, _ = run(["table", "hermitian", "--format", "csv"], capsys)
    assert code == 0
    assert out.startswith("length,k,q,ell,count,monotonicity_violation\r\n")
    assert "4,1,2,1,45,true\r\n" in out
    assert "4,2,2,1,90,false\r\n" in out


def test_table_json(capsys):
    code, out, _ = run(["table", "symplectic", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 30
    cell = next(
        c for c in payload
        if (c["length"], c["k"], c["q"], c["ell"]) == (8, 4, 2, 2)
    )
    assert cell["count"] == 107100
    assert cell["monotonicity_violation"] is True


def test_table_comparison(capsys):
    code, out, _ = run(["table", "comparison"], capsys)
    assert code == 0
    assert "| step in l | 1 | 1 | 2 |" in out
    assert "q/(q+1)" in out
    code, out, _ = run(["table", "comparison", "--format", "json"], capsys)
    payload = json.loads(out)
    assert [row["form"] for row in payload] == [
        "euclidean", "hermitian", "symplectic",
    ]
    assert payload[2]["limit_q2"] == "3/4"


def test_verify_small_sweep_passes(capsys):
    code, out, _ = run(
        ["verify", "--form", "hermitian", "--max-n", "3", "-q", "2"], capsys
    )
    assert code == 0
    assert "PASS hermitian length=2 k=1 q=2" in out
    assert "all 3 cells pass" in out


def test_verify_default_sweep_passes(capsys):
    code, out, _ = run(["verify"], capsys)
    assert code == 0
    assert "all" in out and "cells pass" in out
    assert "FAIL" not in out


@pytest.mark.parametrize(
    "form, name",
    [
        ("hermitian", "count_hermitian"),
        ("hermitian", "alpha_hermitian"),
        ("symplectic", "count_symplectic"),
        ("symplectic", "alpha_symplectic"),
        ("euclidean", "alpha_euclidean"),
    ],
)
def test_verify_catches_corrupted_formula(capsys, monkeypatch, form, name):
    module = formulas if name.startswith("count_") else ratios
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: real(*args) + 1)
    code, out, _ = run(
        ["verify", "--form", form, "--max-n", "3", "--max-ambient", "4", "-q", "2"],
        capsys,
    )
    assert code == 1
    assert "FAIL" in out
    assert "cells failed" in out


def _one_more_fill(monkeypatch):
    """Each T_d with d >= 1 counts one fill too many from the zero class."""
    real = oracle._transfer

    def transfer(q, form, d):
        return real(q, form, d) + (((0, 0), (0, 0), 1),) * (d > 0)

    monkeypatch.setattr(oracle, "_transfer", transfer)


def _one_more_in_each_denominator(monkeypatch):
    """Each closed-form step from l to l + step divides by one more."""
    real = formulas.closed_step

    def closed_step(*args):
        num, den = real(*args)
        return num, den + 1

    monkeypatch.setattr(formulas, "closed_step", closed_step)


@pytest.mark.parametrize(
    "inject, argv, line",
    [
        (
            _one_more_fill,
            ["--form", "symplectic", "--max-ambient", "2", "-q", "3"],
            "FAIL symplectic length=2 k=1 q=3: oracle: F_1(0) is not a multiple of |GL_1(3)|",
        ),
        (
            _one_more_in_each_denominator,
            ["--form", "hermitian", "--max-n", "2", "-q", "2"],
            "FAIL hermitian length=2 k=1 q=2: formula: non-integral step from l=0 at q=2",
        ),
    ],
    ids=["oracle", "formula"],
)
def test_verify_names_the_side_of_a_count_that_is_not_integral(capsys, monkeypatch, inject, argv, line):
    # hull_spectrum's division by |GL_j(Q)| and closed_spectrum's steps
    # both raise ArithmeticError; the FAIL line names the side that did
    inject(monkeypatch)
    code, out, _ = run(["verify", *argv], capsys)
    assert code == 1
    assert line in out.splitlines()
    assert out.count(": oracle: ") + out.count(": formula: ") == 2  # the line and the summary


@pytest.mark.parametrize(
    "argv, empty",
    [
        (["--max-n", "1", "--max-ambient", "0"], "hermitian, symplectic, euclidean"),
        (["--form", "hermitian", "--max-k", "0"], "hermitian"),
        (["--max-k", "0"], "hermitian, euclidean"),
    ],
)
def test_verify_with_no_cells_is_an_error(capsys, argv, empty):
    code, out, err = run(["verify", *argv], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: no cells to verify for {empty} in the requested ranges\n"


def test_verify_work_limit_flag(capsys):
    code, _, err = run(
        ["verify", "--form", "symplectic", "--max-ambient", "8",
         "--work-limit", "10"],
        capsys,
    )
    assert code == 2
    assert "infeasible" in err


def test_verify_refuses_an_infeasible_sweep_before_enumerating(capsys):
    # the hermitian n=5, k=2 cell (5797 subspaces) is over the limit, and
    # the sweep reaches seven feasible cells before it
    code, out, err = run(
        ["verify", "--max-n", "12", "--max-ambient", "10", "--work-limit", "1000"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err == "error: infeasible: estimated 5797 subspaces exceeds work limit 1000\n"


# euclidean cells up to n = 4 over F_2, the largest E[4,2]_2 of 35 subspaces
WORK_LIMIT_SWEEP = ["verify", "--form", "euclidean", "--max-n", "4", "-q", "2"]


def test_work_limit_env_and_flag_precedence(capsys, monkeypatch):
    argv = WORK_LIMIT_SWEEP
    monkeypatch.setenv("HULLCOUNT_WORK_LIMIT", "10")
    code, _, err = run(argv, capsys)
    assert code == 2
    assert "infeasible" in err
    # explicit flag wins over the environment, which is then not parsed
    for env in ("10", "abc", "-5"):
        monkeypatch.setenv("HULLCOUNT_WORK_LIMIT", env)
        code, out, err = run(argv + ["--work-limit", "100"], capsys)
        assert (code, err) == (0, "")
        assert "PASS euclidean length=4 k=2 q=2" in out
        assert "all 4 cells pass" in out


def test_work_limit_env_validation(capsys, monkeypatch):
    argv = WORK_LIMIT_SWEEP
    monkeypatch.setenv("HULLCOUNT_WORK_LIMIT", "abc")
    assert run(argv, capsys) == (
        2, "", "error: HULLCOUNT_WORK_LIMIT must be an integer, got 'abc'\n"
    )
    monkeypatch.setenv("HULLCOUNT_WORK_LIMIT", "-5")
    assert run(argv, capsys) == (
        2, "", "error: HULLCOUNT_WORK_LIMIT must be positive, got -5\n"
    )
    # the flag is checked the same way, under its own name
    monkeypatch.delenv("HULLCOUNT_WORK_LIMIT")
    assert run(argv + ["--work-limit", "0"], capsys) == (
        2, "", "error: work limit must be positive, got 0\n"
    )


def test_verify_dump_to_file(tmp_path, capsys):
    path = tmp_path / "spectra.csv"
    code, _, _ = run(
        ["verify", "--form", "hermitian", "--max-n", "2", "-q", "2",
         "--dump", str(path)],
        capsys,
    )
    assert code == 0
    # read_text would translate the CRLF terminators away
    text = path.read_bytes().decode()
    lines = text.split("\r\n")
    assert lines[0] == "n,k,q,form,ell,count"
    assert all(line.startswith("2,1,2,hermitian,") for line in lines[1:] if line)


@pytest.mark.parametrize("target", ["missing/spectra.csv", "."])
def test_verify_dump_to_an_unwritable_path_fails_before_the_sweep(tmp_path, capsys, target):
    # a path under a missing directory, and a directory: the dump target is
    # opened before any cell runs, so no PASS line is printed and the exit
    # code is the precondition one, not the mismatch one
    path = tmp_path / target
    code, out, err = run(
        ["verify", "--form", "hermitian", "--max-n", "3", "--dump", str(path)],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write --dump {path}: ")
    assert err.count("\n") == 1


def test_verify_dump_to_stdout(capsys):
    code, out, _ = run(
        ["verify", "--form", "hermitian", "--max-n", "4", "-q", "2",
         "--dump", "-"],
        capsys,
    )
    assert code == 0
    # the CSV follows the PASS lines; its rows end in CRLF
    assert "PASS hermitian length=4 k=3 q=2\nn,k,q,form,ell,count\r\n" in out
    assert "\r\n4,1,2,hermitian,0,40\r\n4,1,2,hermitian,1,45\r\n4,2,2," in out
    assert out.endswith("\r\nall 6 cells pass\n")


def test_verify_repeated_form_and_q_check_each_cell_once(capsys):
    code, out, _ = run(
        ["verify", "--form", "hermitian", "--form", "hermitian", "--max-n", "2",
         "-q", "2", "-q", "2", "--dump", "-"],
        capsys,
    )
    assert code == 0
    assert out == (
        "PASS hermitian length=2 k=1 q=2\n"
        "n,k,q,form,ell,count\r\n"
        "2,1,2,hermitian,0,2\r\n"
        "2,1,2,hermitian,1,3\r\n"
        "all 1 cells pass\n"
    )
    # repeats keep the first-seen order of forms and of qs
    code, out, _ = run(
        ["verify", "--form", "symplectic", "--form", "hermitian", "--form", "symplectic",
         "--max-n", "2", "--max-ambient", "2", "-q", "3", "-q", "2", "-q", "3"],
        capsys,
    )
    assert code == 0
    labels = [line.split(" ", 1)[1] for line in out.splitlines()[:-1]]
    assert labels == [
        f"{form} length=2 k={k} q={q}"
        for form, ks in (("symplectic", (0, 1, 2)), ("hermitian", (1,)))
        for q in (3, 2)
        for k in ks
    ]
    assert out.endswith("\nall 8 cells pass\n")


def test_census_markdown(capsys):
    code, out, _ = run(
        ["census", "--form", "symplectic", "--ambient", "8", "-k", "4", "-q", "2"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "| l | ebits | count | exceptional |"
    assert lines[2] == "| 0 | 2 | 91392 | yes |"
    assert lines[3] == "| 2 | 1 | 107100 | no |"
    assert lines[4] == "| 4 | 0 | 2295 | no |"


def test_census_csv_and_json(capsys):
    code, out, _ = run(
        ["census", "--form", "hermitian", "-n", "4", "-k", "1", "-q", "3",
         "--format", "csv"],
        capsys,
    )
    assert code == 0
    assert out == (
        "ell,ebits,count,exceptional\r\n"
        "0,3,540,false\r\n"
        "1,2,280,false\r\n"
    )
    code, out, _ = run(
        ["census", "--form", "hermitian", "-n", "4", "-k", "1", "-q", "2",
         "--format", "json"],
        capsys,
    )
    payload = json.loads(out)
    assert payload[0] == {"ell": 0, "ebits": 3, "count": 40, "exceptional": True}


def test_census_rejects_euclidean(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["census", "--form", "euclidean", "-n", "4", "-k", "2", "-q", "2"])
    assert exc.value.code == 2
    capsys.readouterr()
