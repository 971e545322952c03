from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sunlr.errors import InvalidInputError
from sunlr.partitions import (
    canonical,
    check_sequence,
    check_sequences,
    conjugate,
    contains,
    lambda_of_set,
    pad,
    partitions_in_box,
    partitions_of_size_in_box,
    size,
    stretch,
)

partitions = st.lists(st.integers(min_value=0, max_value=8), min_size=0, max_size=8).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def test_canonical_trims_trailing_zeros():
    assert canonical((3, 1, 0, 0)) == (3, 1)
    assert canonical((0, 0)) == ()
    assert canonical((2, 0, -1)) == (2, 0, -1)


def test_conjugate_examples():
    assert conjugate(()) == ()
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((2, 2)) == (2, 2)


@given(partitions)
def test_conjugate_involutive(lam):
    assert conjugate(conjugate(lam)) == canonical(lam)


@given(partitions)
def test_conjugate_preserves_size(lam):
    assert size(conjugate(lam)) == size(lam)


def test_lambda_of_set_examples():
    assert lambda_of_set((1, 2, 3), 5) == (0, 0, 0)
    assert lambda_of_set((2, 3), 3) == (1, 1)
    assert lambda_of_set((), 4) == ()


def test_lambda_of_set_range_check():
    with pytest.raises(InvalidInputError):
        lambda_of_set((0,), 3)
    with pytest.raises(InvalidInputError):
        lambda_of_set((4,), 3)


@given(st.integers(min_value=1, max_value=8), st.data())
def test_lambda_of_set_is_partition(n, data):
    subset = tuple(sorted(data.draw(st.sets(st.integers(min_value=1, max_value=n)))))
    lam = lambda_of_set(subset, n)
    assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))
    assert all(0 <= x <= n - len(subset) for x in lam)


def test_contains_examples():
    assert contains((1,), (2, 1))
    assert not contains((2, 2), (2, 1))
    assert contains((), (5, 3))


@given(partitions, partitions, partitions)
def test_contains_partial_order(a, b, c):
    assert contains(a, a)
    if contains(a, b) and contains(b, a):
        assert canonical(a) == canonical(b)
    if contains(a, b) and contains(b, c):
        assert contains(a, c)


def test_stretch():
    assert stretch((2, 1), 3) == (6, 3)
    assert stretch((), 5) == ()
    assert stretch((1, 0, -1), 2) == (2, 0, -2)
    with pytest.raises(InvalidInputError):
        stretch((1,), 0)


def test_pad():
    assert pad((2, 1), 4) == (2, 1, 0, 0)
    with pytest.raises(InvalidInputError):
        pad((1, 1, 1), 2)
    with pytest.raises(InvalidInputError):
        pad((0, -1), 3)


def test_partitions_in_box_counts():
    assert len(partitions_in_box((1,))) == 2
    # 2x2 box: (), (1), (2), (1,1), (2,1), (2,2)
    assert len(partitions_in_box((2, 2))) == 6


@given(st.integers(min_value=0, max_value=9))
def test_partitions_of_size_consistency(total):
    box = (3, 3, 3)
    by_filter = [p for p in partitions_in_box(box) if size(p) == total]
    direct = partitions_of_size_in_box(total, box)
    assert sorted(by_filter) == sorted(direct)


@pytest.mark.parametrize("seq", [(1.5,), ("2",), (True,), (2, 1.0), (Fraction(1),)])
def test_check_sequence_refuses_non_integer_entries(seq):
    with pytest.raises(InvalidInputError, match="integers only"):
        check_sequence(seq)


def test_check_sequence_returns_the_canonical_form():
    assert check_sequence([2, 1, 0, 0]) == (2, 1)
    assert check_sequence((0, -1)) == (0, -1)
    with pytest.raises(InvalidInputError, match="weakly decreasing"):
        check_sequence((1, 2))


def test_check_sequences_returns_canonical_and_never_pads():
    assert check_sequences([(2, 1, 0), [1], ()], 3) == ((2, 1), (1,), ())
    assert check_sequences([(1, -1)], 2) == ((1, -1),)
    # no O(n) work: a huge rank costs nothing
    assert check_sequences([(1,)], 10**12) == ((1,),)


@pytest.mark.parametrize(
    "lambdas, n, partitions, message",
    [
        ([(1,)], 0, False, "rank n must be >= 1, got 0"),
        ([(1,), (1, 1, 1, 0)], 2, False, r"lambda\(2\) = \[1, 1, 1, 0\] has more than n=2 parts"),
        ([(1, -1)], 2, True, r"lambda\(1\) \[1, -1\] has negative parts"),
        ([(0, 1)], 2, False, r"lambda\(1\) \[0, 1\] is not weakly decreasing"),
        ([(1.5,)], 2, False, "integers only"),
    ],
)
def test_check_sequences_refusals(lambdas, n, partitions, message):
    with pytest.raises(InvalidInputError, match=message):
        check_sequences(lambdas, n, partitions=partitions)
