"""formulas.hull_dims is the one rule for a cell's shape: every count, step,
ratio and parameter map accepts a cell exactly when it says so."""

import pytest

from hullcount.algebra import FormKind
from hullcount.eaqecc import entanglement_census, gjg_map, wilde_brun_map
from hullcount.errors import (
    BadRangeError,
    OddAmbientError,
    OutOfValidRangeError,
    ParityViolationError,
)
from hullcount.formulas import (
    SymplecticParams,
    closed_count,
    closed_spectrum,
    closed_step,
    count_symplectic,
    hull_dims,
)
from hullcount.ratios import (
    alpha_euclidean,
    alpha_hermitian,
    alpha_symplectic,
    classify_hermitian,
    classify_symplectic,
    ratio_report,
)

E, H, S = FormKind.EUCLIDEAN, FormKind.HERMITIAN, FormKind.SYMPLECTIC
QS = (2, 3)
LENGTHS = range(0, 11)

# the step-layer entry points of each closed form, called as f(length, k, l, q)
STEP_CALLS = {
    H: (alpha_hermitian, classify_hermitian,
        lambda *cell: ratio_report(H, *cell), lambda *cell: closed_step(H, *cell)),
    S: (alpha_symplectic, classify_symplectic,
        lambda *cell: ratio_report(S, *cell), lambda *cell: closed_step(S, *cell)),
}
# what an entry point raises for a cell it refuses
REFUSALS = (OutOfValidRangeError, ParityViolationError, BadRangeError)


def _cells(form):
    for length in LENGTHS:
        if form is S and length % 2:  # refused whole, see the odd-length test
            continue
        for k in range(-1, length + 2):
            for ell in range(-2, length + 2):
                yield length, k, ell


def _accepts(call, *args) -> bool:
    try:
        call(*args)
    except REFUSALS:
        return False
    return True


@pytest.mark.parametrize("form", [H, S])
def test_counts_are_nonzero_exactly_on_hull_dims(form):
    for q in QS:
        for length, k, ell in _cells(form):
            count = closed_count(form, length, k, ell, q)
            assert (count != 0) == (ell in hull_dims(form, length, k)), (length, k, ell, q)


@pytest.mark.parametrize("form", [H, S])
def test_steps_and_ratios_exist_exactly_on_hull_dims_with_a_successor(form):
    for q in QS:
        for length, k, ell in _cells(form):
            has_step = ell in hull_dims(form, length, k)[:-1]
            for call in STEP_CALLS[form]:
                assert _accepts(call, length, k, ell, q) == has_step, (
                    call, length, k, ell, q,
                )


def test_alpha_euclidean_refuses_every_hull_without_a_successor():
    for q in QS:
        for n, k, ell in _cells(E):
            if not 1 <= k <= n / 2:
                continue
            if ell in hull_dims(E, n, k)[:-1]:
                continue
            with pytest.raises(OutOfValidRangeError):
                alpha_euclidean(n, k, ell, q)


def test_parameter_maps_accept_exactly_on_hull_dims():
    for q in QS:
        for n, k, ell in _cells(E):
            assert _accepts(gjg_map, n, k, ell, q) == (ell in hull_dims(E, n, k))
        for two_n, k, ell in _cells(S):
            assert _accepts(wilde_brun_map, two_n, k, ell, q) == (
                ell in hull_dims(S, two_n, k)
            ), (two_n, k, ell, q)


# every symplectic entry point that takes a whole cell (2n, k, l, q)
ODD_CALLS = (
    alpha_symplectic, classify_symplectic, wilde_brun_map,
    lambda *cell: ratio_report(S, *cell),
    lambda *cell: closed_count(S, *cell),
    lambda *cell: closed_step(S, *cell),
    lambda *cell: count_symplectic(SymplecticParams(*cell)),
)


def test_every_symplectic_entry_point_refuses_an_odd_length():
    message = r"^symplectic ambient length must be even, got {}$"
    for two_n in range(1, 11, 2):
        for k in range(-1, two_n + 2):
            with pytest.raises(OddAmbientError, match=message.format(two_n)):
                hull_dims(S, two_n, k)
            with pytest.raises(OddAmbientError, match=message.format(two_n)):
                closed_spectrum(S, two_n, k, 2)
            with pytest.raises(OddAmbientError, match=message.format(two_n)):
                entanglement_census(two_n, k, 2, S)
            for ell in range(-2, two_n + 2):
                for call in ODD_CALLS:
                    with pytest.raises(OddAmbientError, match=message.format(two_n)):
                        call(two_n, k, ell, 2)


def test_even_length_errors_keep_their_type_order_and_text():
    with pytest.raises(ParityViolationError, match=r"^k - l must be even, got k=3 l=0$"):
        alpha_symplectic(8, 3, 0, 2)
    with pytest.raises(
        OutOfValidRangeError,
        match=r"^alpha undefined outside l\+1 <= k <= n-l-1, got n=3 k=5 l=0$",
    ):
        alpha_hermitian(3, 5, 0, 2)
    with pytest.raises(
        OutOfValidRangeError,
        match=r"^alpha undefined outside l\+2 <= k <= 2n-l-2, got 2n=8 k=4 l=4$",
    ):
        alpha_symplectic(8, 4, 4, 2)
    with pytest.raises(OutOfValidRangeError, match=r"^need 0 <= l <= k-1, got k=2 l=2$"):
        alpha_euclidean(6, 2, 2, 3)
    with pytest.raises(OutOfValidRangeError, match=r"^need 1 <= k <= n/2, got n=6 k=4$"):
        alpha_euclidean(6, 4, 0, 3)
    # the q check still comes before the cell's shape
    with pytest.raises(BadRangeError, match=r"^q must be a prime power, got 6$"):
        alpha_symplectic(7, 2, 0, 6)
    with pytest.raises(BadRangeError, match=r"^need 0 <= k <= n, got k=5 n=4$"):
        gjg_map(4, 5, 0, 2)


def test_wilde_brun_map_has_one_range_message():
    message = r"^hull dimension must lie in 0..min\(k, 2n-k\), got k={} l={} 2n={}$"
    for k, ell, two_n in ((4, 6, 8), (6, 4, 8), (10, 0, 8), (2, -2, 8), (2, 0, -4)):
        with pytest.raises(BadRangeError, match=message.format(k, ell, two_n)):
            wilde_brun_map(two_n, k, ell, 2)
