"""Entanglement-assisted parameter maps, ebit counts, census tables."""

import random

import pytest

from hullcount import algebra
from hullcount.algebra import FormKind, MatrixGF, hull_dim, make_field, rref
from hullcount.eaqecc import (
    CensusRow,
    EaqeccParams,
    ebits_from_check_matrix,
    entanglement_census,
    gjg_map,
    wilde_brun_map,
)
from hullcount.errors import (
    BadRangeError,
    OddAmbientError,
    OddGramRankError,
    ParityViolationError,
)

F2 = make_field(2, 1)
F3 = make_field(3, 1)


def test_params_str_and_validation():
    assert str(EaqeccParams(5, 1, 2, 2)) == "[[5, 1, d; 2]]_2"
    assert str(EaqeccParams(5, 1, 2, 2, d=3)) == "[[5, 1, 3; 2]]_2"
    with pytest.raises(BadRangeError):
        EaqeccParams(5, 6, 0, 2)
    with pytest.raises(BadRangeError):
        EaqeccParams(5, 1, 6, 2)
    with pytest.raises(BadRangeError):
        EaqeccParams(5, 1, 2, 1)


def test_maps_reject_non_prime_power_q():
    for make in (
        lambda: EaqeccParams(5, 1, 2, 6),
        lambda: gjg_map(4, 2, 0, 6),
        lambda: wilde_brun_map(4, 2, 0, 6),
    ):
        with pytest.raises(BadRangeError, match="q must be a prime power, got 6"):
            make()


def test_gjg_map_examples():
    primary, partner = gjg_map(5, 2, 1, 4, d=3, d_dual=2)
    assert (primary.n, primary.k_logical, primary.c) == (5, 1, 2)
    assert primary.d == 3
    assert (partner.n, partner.k_logical, partner.c) == (5, 2, 1)
    assert partner.d == 2
    # trivial hull: all n - k dual checks need entanglement
    primary, _ = gjg_map(6, 2, 0, 2)
    assert (primary.k_logical, primary.c) == (2, 4)
    # hull as large as the code itself: nothing logical survives
    primary, _ = gjg_map(6, 2, 2, 2)
    assert (primary.k_logical, primary.c) == (0, 2)


def test_gjg_map_range():
    with pytest.raises(BadRangeError):
        gjg_map(4, 5, 0, 2)
    with pytest.raises(BadRangeError):
        gjg_map(4, 2, 3, 2)
    with pytest.raises(BadRangeError):
        gjg_map(4, 1, 2, 2)


def test_gjg_pair_duality():
    # the partner equals the primary of the dual dimension at the same hull
    for n in range(1, 11):
        for k in range(n + 1):
            for ell in range(min(k, n - k) + 1):
                primary, partner = gjg_map(n, k, ell, 2)
                dual_primary, dual_partner = gjg_map(n, n - k, ell, 2)
                assert (partner.k_logical, partner.c) == (
                    dual_primary.k_logical,
                    dual_primary.c,
                )
                assert (primary.k_logical, primary.c) == (
                    dual_partner.k_logical,
                    dual_partner.c,
                )
                assert primary.k_logical + primary.c == n - 2 * ell


def test_wilde_brun_examples():
    out = wilde_brun_map(8, 4, 2, 2, d=3)
    assert (out.n, out.k_logical, out.c, out.q, out.d) == (4, 1, 1, 2, 3)
    out = wilde_brun_map(8, 4, 4, 2)
    assert out.c == 0
    out = wilde_brun_map(8, 4, 0, 2)
    assert (out.k_logical, out.c) == (2, 2)


def test_wilde_brun_invariant():
    # k_logical + c = n - l whatever the split
    for two_n in range(0, 12, 2):
        n = two_n // 2
        for k in range(two_n + 1):
            for ell in range(k % 2, min(k, two_n - k) + 1, 2):
                out = wilde_brun_map(two_n, k, ell, 3)
                assert out.k_logical + out.c == n - ell


def test_wilde_brun_errors():
    with pytest.raises(OddAmbientError):
        wilde_brun_map(7, 2, 0, 2)
    with pytest.raises(ParityViolationError):
        wilde_brun_map(8, 3, 0, 2)
    with pytest.raises(BadRangeError):
        wilde_brun_map(8, 2, 4, 2)
    with pytest.raises(BadRangeError):
        wilde_brun_map(4, 4, 2, 2)


def test_ebits_examples():
    mat = MatrixGF(F2, 2, 4, (1, 0, 0, 0, 0, 0, 1, 0))
    assert ebits_from_check_matrix(mat) == 1
    assert ebits_from_check_matrix(MatrixGF(F2, 1, 4, (1, 1, 0, 1))) == 0
    assert ebits_from_check_matrix(MatrixGF(F2, 0, 4, ())) == 0
    with pytest.raises(BadRangeError):
        ebits_from_check_matrix(MatrixGF(F3, 1, 4, (1, 0, 0, 0)))


def test_an_odd_alternating_rank_is_a_bug(monkeypatch):
    # an alternating Gram has even rank, so an odd one cannot be input
    # error; it is reached only by breaking the rank
    monkeypatch.setattr(algebra, "_xor_rank", lambda vectors: 3)
    with pytest.raises(OddGramRankError, match=r"^alternating Gram rank came out odd \(3\); this is a bug$"):
        ebits_from_check_matrix(MatrixGF(F2, 2, 4, (1, 0, 0, 0, 0, 0, 1, 0)))


def test_ebits_ignore_dependent_rows():
    base = MatrixGF(F2, 2, 4, (1, 0, 0, 0, 0, 0, 1, 0))
    padded = MatrixGF(F2, 3, 4, (1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0))
    assert ebits_from_check_matrix(padded) == ebits_from_check_matrix(base)


def test_ebits_match_rank_minus_hull():
    rng = random.Random(20240817)
    for _ in range(300):
        two_n = 2 * rng.randint(1, 5)
        rows = rng.randint(1, min(6, two_n))
        codes = tuple(rng.randint(0, 1) for _ in range(rows * two_n))
        check = MatrixGF(F2, rows, two_n, codes)
        out = rref(check)
        basis = MatrixGF(
            F2, out.rank, two_n, out.matrix.codes[: out.rank * two_n]
        )
        if out.rank:
            hull = hull_dim(basis, FormKind.SYMPLECTIC)
        else:
            hull = 0
        assert ebits_from_check_matrix(check) == (out.rank - hull) // 2


def test_census_hermitian_examples():
    rows = entanglement_census(4, 2, 2, FormKind.HERMITIAN)
    assert rows == [
        CensusRow(0, 2, 240, False),
        CensusRow(1, 1, 90, False),
        CensusRow(2, 0, 27, False),
    ]
    rows = entanglement_census(4, 1, 2, FormKind.HERMITIAN)
    assert rows[0] == CensusRow(0, 3, 40, True)
    assert rows[1] == CensusRow(1, 2, 45, False)
    rows = entanglement_census(4, 1, 3, FormKind.HERMITIAN)
    assert rows == [CensusRow(0, 3, 540, False), CensusRow(1, 2, 280, False)]


def test_census_symplectic_examples():
    rows = entanglement_census(8, 4, 2, FormKind.SYMPLECTIC)
    assert rows == [
        CensusRow(0, 2, 91392, True),
        CensusRow(2, 1, 107100, False),
        CensusRow(4, 0, 2295, False),
    ]
    rows = entanglement_census(12, 6, 2, FormKind.SYMPLECTIC)
    assert len(rows) == 4
    assert rows[0].exceptional
    assert rows[-1] == CensusRow(6, 0, 4922775, False)


def test_census_flag_marks_exact_monotonicity_breaks():
    for form, lengths, qs in (
        (FormKind.HERMITIAN, range(2, 9), (2, 3)),
        (FormKind.SYMPLECTIC, range(2, 13, 2), (2, 3)),
    ):
        for q in qs:
            for length in lengths:
                for k in range(length + 1):
                    rows = entanglement_census(length, k, q, form)
                    for cur, nxt in zip(rows, rows[1:]):
                        assert (cur.count > nxt.count) == (not cur.exceptional)
                    if rows:
                        assert not rows[-1].exceptional


def test_census_ebits_decrease_to_zero():
    rows = entanglement_census(7, 3, 2, FormKind.HERMITIAN)
    assert [r.ebits for r in rows] == [4, 3, 2, 1]
    rows = entanglement_census(10, 4, 2, FormKind.SYMPLECTIC)
    assert [r.ebits for r in rows] == [2, 1, 0]
    assert rows[-1].ell == 4


def test_census_rejects_euclidean_and_bad_ranges():
    with pytest.raises(BadRangeError):
        entanglement_census(4, 2, 2, FormKind.EUCLIDEAN)
    with pytest.raises(OddAmbientError):
        entanglement_census(7, 2, 2, FormKind.SYMPLECTIC)
    with pytest.raises(BadRangeError):
        entanglement_census(4, 5, 2, FormKind.HERMITIAN)
