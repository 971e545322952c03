import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sunlr.errors import InvalidInputError
from sunlr.lr import (
    _lr_tableau_count,
    iter_lr_hives,
    lr_coefficient,
    lr_hive_count,
    rectangular_lr,
)
from sunlr.partitions import contains, partitions_in_box, partitions_of_size_in_box, size, stretch

small_partition = st.lists(st.integers(min_value=0, max_value=3), max_size=3).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)
partition_4 = st.lists(st.integers(min_value=0, max_value=4), max_size=4).map(
    lambda xs: tuple(sorted((x for x in xs if x), reverse=True))
)


def reference_count(lam, mu, nu):
    """c^nu_{lam,mu} for canonical partitions: LR skew tableaux of shape nu/lam and content mu.

    The per-content counter, kept as the reference for the row kernel: it
    fills the cells in reverse-reading-word order with an explicit cursor
    and prunes on the content mu itself.
    """
    if size(lam) + size(mu) != size(nu):
        return 0
    if not contains(lam, nu) or not contains(mu, nu):
        return 0
    lam_full = lam + (0,) * (len(nu) - len(lam))
    cells = [(r, c) for r in range(len(nu)) for c in range(nu[r] - 1, lam_full[r] - 1, -1)]
    if not cells:
        return 1
    index = {cell: k for k, cell in enumerate(cells)}
    right = [index.get((r, c + 1)) for r, c in cells]
    above = [index.get((r - 1, c)) for r, c in cells]
    nvals = len(mu)
    counts = [0] * (nvals + 1)
    vals = [0] * len(cells)
    total = 0
    k = 0
    while k >= 0:
        v = vals[k]
        if v:
            counts[v] -= 1
        else:
            v = 0 if above[k] is None else vals[above[k]]
        v += 1
        hi = nvals if right[k] is None else vals[right[k]]
        while v <= hi and (counts[v] >= mu[v - 1] or (v > 1 and counts[v] >= counts[v - 1])):
            v += 1
        if v > hi:
            vals[k] = 0
            k -= 1
            continue
        vals[k] = v
        counts[v] += 1
        if k + 1 == len(cells):
            total += 1
        else:
            k += 1
    return total


def test_spec_values():
    assert lr_coefficient((1,), (1, 1), (2, 1), 3) == 1
    assert lr_coefficient((3, 1), (), (3, 1), 4) == 1
    assert lr_coefficient((1,), (1,), (2, 1), 2) == 0
    assert lr_coefficient((0, -1), (1, 1), (1, 0), 2) == 1


def test_rejects_non_weakly_decreasing():
    with pytest.raises(InvalidInputError):
        lr_coefficient((1, 2), (1,), (2, 2), 2)


def test_too_many_parts_rejected():
    with pytest.raises(InvalidInputError):
        lr_coefficient((1, 1, 1), (1,), (2, 1, 1), 2)


def test_hive_spec_values():
    assert lr_hive_count((1,), (1, 1), (2, 1), 3) == 1
    assert lr_hive_count((), (), (), 3) == 1
    assert lr_hive_count((1,), (1,), (3,), 3) == 0


def test_tableau_count_long_row():
    # one cell per box: the count must not recurse once per cell
    assert lr_coefficient((2000,), (2000,), (4000,), 1) == 1


def test_hive_count_large_rank():
    # about n^2/2 interior choices: the enumeration must not nest once per choice
    assert lr_hive_count((1,), (1,), (2,), 60) == 1


def test_hive_rejects_negative_parts():
    with pytest.raises(InvalidInputError):
        lr_hive_count((0, -1), (1, 1), (1, 0), 2)


def test_oracle_equivalence_small_exhaustive():
    ps = partitions_in_box((2, 2))
    for lam in ps:
        for mu in ps:
            for nu in ps:
                assert lr_coefficient(lam, mu, nu, 2) == lr_hive_count(lam, mu, nu, 2), (
                    lam,
                    mu,
                    nu,
                )


@given(small_partition, small_partition, small_partition)
@settings(max_examples=150)
def test_symmetry(lam, mu, nu):
    assert lr_coefficient(lam, mu, nu, 3) == lr_coefficient(mu, lam, nu, 3)


@given(small_partition, small_partition, small_partition, st.integers(min_value=-2, max_value=2))
@settings(max_examples=150)
def test_shift_invariance(lam, mu, nu, a):
    n = 3
    base = lr_coefficient(lam, mu, nu, n)
    lam_s = tuple(x + a for x in lam + (0,) * (n - len(lam)))
    nu_s = tuple(x + a for x in nu + (0,) * (n - len(nu)))
    assert lr_coefficient(lam_s, mu, nu_s, n) == base


@given(small_partition, small_partition, small_partition)
@settings(max_examples=80)
def test_classical_saturation_status(lam, mu, nu):
    statuses = {
        lr_coefficient(stretch(lam, r), stretch(mu, r), stretch(nu, r), 3) > 0
        for r in (1, 2, 3)
    }
    assert len(statuses) == 1


@given(partition_4, partition_4, partition_4, st.booleans())
@settings(max_examples=200, deadline=None)
def test_row_kernel_matches_per_content_reference(nu, lam, box, inside):
    if inside:  # half the examples put lam inside nu, where rows are nonempty
        lam = tuple(x for x in (min(a, b) for a, b in zip(lam, nu)) if x)
    row = _lr_tableau_count(lam, nu, box)
    mus = partitions_of_size_in_box(size(nu) - size(lam), box)
    want = {mu: c for mu in mus if (c := reference_count(lam, mu, nu))}
    assert row == want, (lam, nu, box)
    for mu in mus[:4]:
        assert row.get(mu, 0) == lr_hive_count(lam, mu, nu, 4), (lam, mu, nu)


def test_hive_labelings_are_consistent():
    for hive in iter_lr_hives((2, 1), (2, 1), (3, 2, 1), 3):
        e, f, g = hive
        for i in range(3):
            for j in range(3 - i):
                assert e[i][j] + f[i][j] == g[i][j]
                assert e[i][j] >= 0 and f[i][j] >= 0
        # boundary: left lambda, right mu, bottom nu
        assert [e[i][0] for i in range(3)] == [2, 1, 0]
        assert [f[2 - j][j] for j in range(3)] == [2, 1, 0]
        assert g[0] == [3, 2, 1]


def test_rectangular_examples():
    assert rectangular_lr((2, 1), (1, 0), 2, 2) == 1
    assert rectangular_lr((3, 3), (), 3, 2) == 1
    assert rectangular_lr((2, 2), (1, 0), 2, 2) == 0


def test_rectangular_matches_lr():
    for N in range(0, 4):
        for n in (1, 2, 3):
            ps = partitions_in_box((N,) * n)
            for lam in ps:
                for mu in ps:
                    want = lr_coefficient(lam, mu, (N,) * n, n)
                    assert rectangular_lr(lam, mu, N, n) == want, (lam, mu, N, n)


def test_memo_is_keyed_on_normalized_triple():
    # two presentations of the same query must agree
    assert lr_coefficient((1, 0), (1, 1), (2, 1), 3) == lr_coefficient((1,), (1, 1), (2, 1, 0), 3)


def test_non_integer_entries_are_refused():
    # a truncating int() would read (1.7,) as (1,) and give 1
    for args in (((1.7,), (1,), (2,)), ((1,), ("1",), (2,)), ((1,), (1,), (2.0,)), ((True,), (1,), (2,))):
        with pytest.raises(InvalidInputError, match="integers only"):
            lr_coefficient(*args, 1)
        with pytest.raises(InvalidInputError, match="integers only"):
            lr_hive_count(*args, 1)


def test_rectangular_lr_refuses_non_integer_entries():
    # canonical() alone would truncate (1.5,) to (1,) and give 1 here
    for lam, mu in (((1.5,), (0.5,)), ((True,), (0,)), (("2",), ())):
        with pytest.raises(InvalidInputError, match="integers only"):
            rectangular_lr(lam, mu, 1, 1)
        with pytest.raises(InvalidInputError, match="integers only"):
            rectangular_lr(mu, lam, 1, 1)
