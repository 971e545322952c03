import itertools
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sunlr import generalized, lr, partitions
from sunlr.errors import BudgetExceededError, InvalidInputError, UnsupportedShapeError
from sunlr.generalized import (
    ChainProblem,
    LevelOneSpec,
    f1,
    f2,
    f_sun,
    level1_f,
    level1_lambdas,
    stretched_table,
)
from sunlr.hive import count_sun_hives
from sunlr.lr import lr_coefficient
from sunlr.partitions import iter_partition_tuples, partitions_in_box, stretch

small_partition = st.lists(st.integers(min_value=0, max_value=2), max_size=2).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def test_f_sun_spec_values():
    assert f_sun([(1,)] * 4, 1) == 2
    assert f_sun([()] * 4, 1) == 1
    assert f_sun([(1, 0)] * 6, 2) == 2


def test_f_sun_shape_errors():
    with pytest.raises(UnsupportedShapeError):
        f_sun([(1,)] * 5, 1)
    with pytest.raises(UnsupportedShapeError):
        f_sun([(1,)] * 2, 1)


def test_f_sun_nonpartition_is_zero():
    assert f_sun([(0, -1), (0, -1), (), ()], 2) == 0


def test_open_chains_nonpartition_is_zero():
    # run past the partition guard, both chain sums would give 1
    assert f1([(), (1,), (1, -1), (1,)], 2) == 0
    assert f2([(0, -1), (1, -1), (1,)], 2) == 0


def test_f_sun_size_balance():
    assert f_sun([(2,), (1,), (1,), (1,)], 1) == 0


def test_f_sun_budget_guard():
    with pytest.raises(BudgetExceededError):
        f_sun([(4, 4, 4)] * 4, 3, budget=3)


def test_open_chain_budget_stops_before_any_coefficient(monkeypatch):
    calls, listed = [], []

    def recording(log, fn):
        def wrapped(*args):
            log.append(args)
            return fn(*args)

        return wrapped

    monkeypatch.setattr(generalized, "_lr_tableau_count", recording(calls, generalized._lr_tableau_count))
    monkeypatch.setattr(generalized, "lr_coefficient", recording(calls, lr_coefficient))
    for name in ("partitions_in_box", "partitions_of_size_in_box"):
        monkeypatch.setattr(generalized, name, recording(listed, getattr(generalized, name)))
    # a budgeted call never reads the memo, so no earlier call can answer these
    with pytest.raises(BudgetExceededError):
        f_sun([(4, 4, 4)] * 4, 3, budget=3)
    with pytest.raises(BudgetExceededError, match="needs 2704156 states"):
        f_sun([(12,) * 12] * 4, 12, budget=10)
    with pytest.raises(BudgetExceededError):
        f2([(1,), (3, 2), (3, 2), (1,)], 2, budget=1)
    with pytest.raises(BudgetExceededError):
        count_sun_hives([(4, 4, 4)] * 4, 3, budget=3)
    # f1 at m = 4 is the closed chain (l1, l3, l2, l4); at m = 5 it counts the box of l3
    with pytest.raises(BudgetExceededError, match="needs 3432 states"):
        f1([(7,) * 7] * 4, 7, budget=1)
    with pytest.raises(BudgetExceededError, match="needs 3 states"):
        f1([(1,), (1,), (2,), (), ()], 2, budget=2)
    # unbalanced at m = 4 (|l1| + |l2| = 36, |l3| + |l4| = 33): 0 before any work
    assert f1([(6, 5, 4, 3), (6, 5, 4, 3), (5, 5, 4, 4), (6, 4, 3, 2)], 4, budget=1) == 0
    assert calls == listed == []
    assert f1([(1,), (1,), (2,), (), ()], 2, budget=3) == 1


def test_budgeted_chain_sum_refuses_after_an_unbudgeted_call():
    # the unbudgeted call stores its value; the budgeted one checks its counts anyway
    for fn, lams, n, value in [
        (f_sun, [(2, 1)] * 4, 2, 10),
        (f2, [(1,), (2, 1), (1, 1)], 3, 1),
        (f1, [(1,)] * 4, 2, 2),
    ]:
        assert fn(lams, n) == value
        with pytest.raises(BudgetExceededError):
            fn(lams, n, budget=1)


def test_f_sun_reads_one_row_per_state():
    # 273 partitions fit in (8,6,4,2), and every slot of the chain shares
    # that box, so a cold run builds one LR row per state
    code = partitions.canonical.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(frame.f_back.f_code.co_name)  # the caller, named on a failure

    generalized._F_SUN_MEMO.clear()
    lr._lr_tableau_count.cache_clear()
    lams = ((8, 6, 4, 2),) * 4
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        value = f_sun(lams, 4)
    finally:
        sys.setprofile(previous)
    assert value == 13222872
    assert lr._lr_tableau_count.cache_info().currsize == len(partitions_in_box((8, 6, 4, 2))) == 273
    # validation makes the sequences canonical once; the walk and the kernel
    # read them as they are, so at most one call per flag plus the start slot
    assert len(calls) <= len(lams) + 1, calls


def test_f_sun_cyclic_symmetry():
    for lams in [
        [(2, 1), (1, 0), (1, 1), (2, 0), (1, 0), (1, 1)],
        [(1, 1), (2, 0), (2, 1), (1, 0), (1, 0), (1, 1)],
    ]:
        base = f_sun(lams, 2)
        rotated = lams[2:] + lams[:2]
        assert f_sun(rotated, 2) == base
        reflected = [lams[0]] + list(reversed(lams[1:]))  # i -> 2 - i fixes flag 1
        assert f_sun(reflected, 2) == base


def test_f1_spec_values():
    assert f1([(1,)] * 4, 2) == 2
    assert f1([(1,), (1,), (1,), (2,)], 2) == 0
    assert f1([()] * 4, 2) == 1
    with pytest.raises(UnsupportedShapeError):
        f1([(1,)] * 3, 1)


def test_f1_m5_hand_value():
    # sum over a1 of c^{a1}_{(1),(1)} c^{(2)}_{a1,a2} c^{a2}_{(0),(0)}:
    # a2 = (), so a1 = (2) and the only chain contributes 1
    assert f1([(1,), (1,), (2,), (), ()], 2) == 1


def test_f1_at_m4_is_a_closed_chain():
    # Hall inner product: f1 = <s_l1 s_l2, s_l3 s_l4> = f_sun(l1, l3, l2, l4)
    nonzero = 0
    for l1, l2, l3, l4 in iter_partition_tuples(2, 2, 4):
        value = f1((l1, l2, l3, l4), 2)
        assert value == f_sun((l1, l3, l2, l4), 2), (l1, l2, l3, l4)
        nonzero += value > 0
    assert nonzero == 180


def test_f1_symmetries():
    # m = 5: f1 is the multi-LR coefficient c^{l3}_{l1,l2,l4,l5}, symmetric in its lower flags
    nonzero = 0
    for l1, l2, l3, l4, l5 in iter_partition_tuples(2, 2, 5):
        value = f1((l1, l2, l3, l4, l5), 2)
        assert f1((l2, l1, l3, l4, l5), 2) == value
        assert f1((l1, l4, l3, l2, l5), 2) == value
        assert f1((l1, l2, l3, l5, l4), 2) == value
        nonzero += value > 0
    assert nonzero == 110
    # m = 6: each merged end is symmetric, and the chain reads the same backwards
    for l1, l2, l3, l4, l5, l6 in iter_partition_tuples(2, 1, 6):
        value = f1((l1, l2, l3, l4, l5, l6), 2)
        assert f1((l2, l1, l3, l4, l5, l6), 2) == value
        assert f1((l1, l2, l3, l4, l6, l5), 2) == value
        assert f1((l5, l6, l4, l3, l1, l2), 2) == value


def test_f2_spec_values():
    assert f2([(1,), (2, 1), (1, 1)], 3) == 1
    assert f2([(2,), (1,), (1,), (1,)], 2) == 0
    assert f2([()] * 4, 2) == 1
    with pytest.raises(UnsupportedShapeError):
        f2([(1,)] * 2, 1)


@given(small_partition, small_partition, small_partition)
@settings(max_examples=120)
def test_f2_m3_is_single_coefficient(lam, mu, nu):
    assert f2([lam, nu, mu], 2) == lr_coefficient(lam, mu, nu, 2)


def _brute_chain_sum(boxes, factor_args):
    """Sum over every chain in the product of the slot boxes of its LR product.

    A reference for the open chains that shares no walk with ``generalized``:
    each factor is one ``lr_coefficient`` call.
    """
    total = 0
    for chain in itertools.product(*(partitions_in_box(b) for b in boxes)):
        term = 1
        for args in factor_args(chain):
            term *= lr_coefficient(*args)
            if not term:
                break
        total += term
    return total


def reference_f1(lams, n):
    """f1 from its definition, l and a indexed from 1 as in the module docstring."""
    m = len(lams)
    l = (None, *lams)
    # a(k) is a lower argument of c^{l(k+2)} for k <= m-4; the last state
    # a(m-3) gets the wide box its upper role in c^{a(m-3)}_{l(m-1),l(m)}
    # allows: at most 2n parts, each at most twice the largest entry
    wide = (2 * max(max(x, default=0) for x in lams),) * (2 * n)
    boxes = [l[k + 2] for k in range(1, m - 3)] + [wide]

    def factor_args(chain):
        a = (None, *chain)
        yield l[1], l[2], a[1], 2 * n
        for k in range(1, m - 3):
            yield a[k], a[k + 1], l[k + 2], 2 * n
        yield l[m - 1], l[m], a[m - 3], 2 * n

    return _brute_chain_sum(boxes, factor_args)


def reference_f2(lams, n):
    """f2 from its definition; a(k) is a lower argument of c^{l(k+1)}."""
    m = len(lams)
    l = (None, *lams)

    def factor_args(chain):
        a = (l[1], *chain, l[m])  # a(0) = l(1) and a(m-2) = l(m) pin the ends
        for k in range(1, m - 1):
            yield a[k - 1], a[k], l[k + 1], n

    return _brute_chain_sum([l[k + 1] for k in range(1, m - 2)], factor_args)


@pytest.mark.parametrize("m", [4, 5, 6])
def test_open_chains_match_brute_force_reference(m):
    for lams in iter_partition_tuples(2, 1, m):
        assert f1(lams, 2) == reference_f1(lams, 2), lams
        assert f2(lams, 2) == reference_f2(lams, 2), lams


@given(
    st.integers(min_value=4, max_value=6).flatmap(
        lambda m: st.lists(small_partition, min_size=m, max_size=m)
    )
)
@example([(1,), (1,), (2, 1), (1,), ()])  # a(2) = (1) is reached from a(1) = (2) and (1, 1)
@example([(1,), (2, 1), (2, 1), (1,), ()])
@settings(max_examples=40, deadline=None)
def test_open_chains_match_brute_force_reference_2x2_box(lams):
    assert f1(lams, 2) == reference_f1(lams, 2)
    assert f2(lams, 2) == reference_f2(lams, 2)


def test_level1_spec_values():
    assert level1_f(LevelOneSpec((1, 1, 1, 1)), 1) == 2
    assert level1_f(LevelOneSpec((1, 2, 1, 2)), 5) == 0
    assert level1_f(LevelOneSpec((1, 1, 1, 1)), 3) == 4


def test_level1_shape_and_input_errors():
    with pytest.raises(UnsupportedShapeError):
        level1_f(LevelOneSpec((1, 1, 1)), 1)
    with pytest.raises(InvalidInputError):
        LevelOneSpec((1, -1, 1, 1))
    with pytest.raises(InvalidInputError):
        level1_f(LevelOneSpec((3, 1, 1, 1)), 1, n=2)


def test_level1_matches_chain_engine_exhaustively():
    for m in (4, 6):
        for j in itertools.product(range(3), repeat=m):
            spec = LevelOneSpec(j)
            for N in (1, 2, 3):
                want = f_sun(level1_lambdas(spec, N), 2)
                assert level1_f(spec, N) == want, (j, N)


def test_level1_rectangular_factors_never_exceed_one():
    # every LR factor on column partitions (N^j) is 0 or 1
    from sunlr.partitions import minimum, partitions_in_box

    spec = LevelOneSpec((2, 1, 1, 2, 1, 1))
    for N in (1, 2, 3):
        lams = level1_lambdas(spec, N)
        m = len(lams)
        for i in range(m):
            nu = lams[i]
            bound_a = minimum(lams[(i - 1) % m], nu)
            for a in partitions_in_box(bound_a):
                for b in partitions_in_box(nu):
                    assert lr_coefficient(a, b, nu, 2) <= 1


def test_stretched_tables():
    assert stretched_table(ChainProblem("f_sun", 1, ((1,),) * 4), 3) == [2, 3, 4]
    assert stretched_table(ChainProblem("f_sun", 2, ((),) * 4), 3) == [1, 1, 1]
    assert stretched_table(ChainProblem("f_sun", 2, ((1,),) * 6), 2) == [2, 3]
    assert stretched_table(ChainProblem("f_sun", 2, ((1, 0),) * 6), 3) == [2, 3, 4]
    assert stretched_table(ChainProblem("f_sun", 1, ((1,), (), (), ())), 3) == [0, 0, 0]
    lams = ((1,), (2, 1), (2, 1), (1,))
    assert stretched_table(ChainProblem("f1", 2, lams), 2) == [3, 6]
    assert stretched_table(ChainProblem("f2", 2, lams), 2) == [2, 3]
    with pytest.raises(InvalidInputError, match="N_max"):
        stretched_table(ChainProblem("f_sun", 1, ((1,),) * 4), 0)


def test_stretched_table_validates_each_tuple_once(monkeypatch):
    calls = []
    check = generalized._check_chain
    monkeypatch.setattr(generalized, "_check_chain", lambda *args: calls.append(args) or check(*args))
    assert stretched_table(ChainProblem("f_sun", 2, ((1,),) * 4), 3) == [2, 3, 4]
    # one check when the problem is built, then one per stretched tuple
    assert len(calls) == 4


def test_stretched_zero_pattern():
    for lams in iter_partition_tuples(2, 1, 4):
        vals = stretched_table(ChainProblem("f_sun", 2, lams), 3)
        assert len({v > 0 for v in vals}) == 1, (lams, vals)


@pytest.mark.parametrize(
    "n, m, max_entry, ones, twos", [(2, 4, 2, 87, 49), (2, 6, 1, 94, 16), (4, 4, 1, 41, 25)]
)
def test_small_values_stretch_like_single_lr_coefficients(n, m, max_entry, ones, twos):
    # c = 1 gives c(N) = 1 (Knutson-Tao-Woodward) and c = 2 gives c(N) = N + 1 (Ikenmeyer)
    found = {1: 0, 2: 0}
    for lams in iter_partition_tuples(n, max_entry, m):
        value = f_sun(lams, n)
        if value in found:
            found[value] += 1
            for N in (2, 3):
                assert f_sun([stretch(l, N) for l in lams], n) == (1 if value == 1 else N + 1), (lams, N)
    assert found == {1: ones, 2: twos}


def test_chain_problem_validation():
    with pytest.raises(InvalidInputError):
        ChainProblem("f_sun", 1, ((1, 1), (1,), (1,), (1,)))
    with pytest.raises(InvalidInputError):
        ChainProblem("nope", 1, ((1,),) * 4)
    assert stretched_table(ChainProblem("f1", 2, ((1,),) * 4), 1) == [2]


@given(st.lists(small_partition, min_size=4, max_size=4), st.sampled_from([2, 3]))
@settings(max_examples=60, deadline=None)
def test_saturation_property(lams, r):
    base = f_sun(lams, 2)
    stretched = f_sun([stretch(l, r) for l in lams], 2)
    assert (base != 0) == (stretched != 0)


@pytest.mark.parametrize("entry", [1.5, "2", True, 1.0])
def test_chain_sums_refuse_non_integer_entries(entry):
    # checked on the raw sequences: canonical would truncate 1.5 and parse "2"
    for fn, m in ((f_sun, 4), (f1, 4), (f2, 3)):
        with pytest.raises(InvalidInputError, match="integers only"):
            fn([(entry,)] * m, 1)
    with pytest.raises(InvalidInputError, match="integers only"):
        ChainProblem("f_sun", 1, ((entry,),) * 4)
