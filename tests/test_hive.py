import hashlib
import random
import re
import time
from fractions import Fraction
from itertools import product
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sunlr import hive
from sunlr.errors import BudgetExceededError, InvalidInputError
from sunlr.generalized import cyclic_slot_boxes, f_sun
from sunlr.hive import (
    build_linear_system,
    count_sun_hives,
    lp_feasible,
    positivity,
    reduced_system,
    system_rows,
)
from sunlr.linprog import eliminate_equalities, fourier_motzkin_feasible, simplex_feasible
from sunlr.lr import iter_lr_hives
from sunlr.partitions import canonical, iter_partition_tuples, partitions_in_box, size, stretch


def iter_sun_hives(lambdas, n):
    """Test oracle: every integral sun hive with the given boundary (small cases).

    Each hive is a tuple of per-array (e, f, g) labelings.  Chains of shared
    sides are enumerated slot by slot with their sizes forced; each chain
    contributes the cartesian product of per-array hive labelings.
    """
    m = len(lambdas)
    lams = [canonical(l) for l in lambdas]
    boxes = cyclic_slot_boxes(lams)
    if boxes is None:
        return
    cands = [partitions_in_box(box) for box in boxes]
    chains = [(a,) for a in cands[0]]
    for i in range(1, m):
        chains = [c + (a,) for c in chains for a in cands[i] if size(c[-1]) + size(a) == size(lams[i - 1])]
    for chain in chains:
        if size(chain[-1]) + size(chain[0]) == size(lams[-1]):
            yield from product(*(iter_lr_hives(chain[r], chain[(r + 1) % m], lams[r], n) for r in range(m)))


def count_sun_hives_raw_n1(lambdas) -> int:
    """Third oracle for n = 1: direct enumeration of the shared-edge cycle.

    With a single triangle per array the system is e_r + f_r = l(r)_1,
    f_r = e_{r+1}, all labels nonnegative; count the integral solutions.
    """
    tops = [l[0] if l else 0 for l in lambdas]
    count = 0
    for e1 in range(tops[0] + 1):
        e = e1
        for top in tops:
            e = top - e
            if e < 0:
                break
        else:
            count += e == e1
    return count


def test_count_spec_values():
    assert count_sun_hives([()] * 4, 2) == 1
    assert count_sun_hives([(1,)] * 4, 1) == 2
    assert count_sun_hives([(1, 0)] * 6, 2) == 2


def test_count_matches_f_sun_when_the_walk_starts_past_slot_0():
    # slot 2 has the fewest states (4 against 7 in slot 0), so the walk
    # starts there; the trace does not depend on where it starts
    lams = [(3, 2), (3, 1), (3,), (3, 2), (3, 2), (3, 1)]
    states = [len(partitions_in_box(box)) for box in cyclic_slot_boxes(lams)]
    assert states == [7, 7, 4, 4, 9, 7]
    assert count_sun_hives(lams, 2) == f_sun(lams, 2) == 17


def test_raw_n1_oracle():
    random.seed(1)
    for _ in range(40):
        m = random.choice([4, 6])
        lams = [(random.randint(0, 3),) for _ in range(m)]
        assert count_sun_hives_raw_n1(lams) == count_sun_hives(lams, 1) == f_sun(lams, 1)


def test_linear_system_shape():
    system = build_linear_system([(1,)] * 4, 1)
    rows = system.ineqs + system.eqs
    entries = {c for coeffs, _ in rows for c in coeffs}
    assert entries <= {-1, 0, 1}
    assert all(isinstance(rhs, Fraction) for _, rhs in rows)


def test_linear_system_homogeneity():
    lams = [(2, 1), (1, 0), (1, 0), (2, 1)]
    s1 = build_linear_system(lams, 2)
    s2 = build_linear_system([stretch(l, 3) for l in lams], 2)
    zero = build_linear_system([()] * 4, 2)
    rows = [s.ineqs + s.eqs for s in (s1, s2, zero)]
    assert len(set(map(len, rows))) == 1
    for (a1, b1), (a2, b2), (a0, b0) in zip(*rows):
        assert a1 == a2 == a0
        assert 3 * b1 == b2
        assert b0 == 0


def test_lp_feasibility_examples():
    assert lp_feasible(build_linear_system([()] * 4, 2))
    assert lp_feasible(build_linear_system([(1, 0)] * 6, 2))
    assert not lp_feasible(build_linear_system([(1,), (), (), ()], 1))


def test_lp_backends_agree():
    cases = [
        [(1, 0)] * 6,
        [(1,)] * 4,
        [(2, 1), (1, 0), (1, 1), (2, 0)],
        [(1, 0), (3, 0), (1, 0), (), (1, 0), ()],
        [(2,), (1,), (1,), (2,)],
    ]
    for lams in cases:
        n = max((len(l) for l in lams), default=1) or 1
        system = build_linear_system(lams, n)
        nvars = len(system.variables)
        ok, reduced = eliminate_equalities(system.ineqs, system.eqs, nvars)
        by_fm = ok and fourier_motzkin_feasible(reduced, nvars)
        by_raw_simplex = simplex_feasible(system.ineqs, system.eqs, nvars)
        assert by_fm == by_raw_simplex == lp_feasible(system), lams


def test_positivity_examples():
    assert positivity([(1, 0)] * 6, 2)
    assert not positivity([(1, 0), (3, 0), (1, 0), (), (1, 0), ()], 2)
    assert positivity([()] * 4, 2)


def test_positivity_n3_m4_matches_chain_sum():
    cases = [(lams, 3) for lams in iter_partition_tuples(3, 1, 4)]
    cases += [(((2,), (1, 1), (), ()), 3), (((2, 1),) * 4, 3), (((1,),) * 4, 4)]
    for lams, n in cases:
        assert positivity(lams, n, 4) == (f_sun(lams, n) > 0), (lams, n)


@pytest.mark.parametrize(
    "lams, n",
    [([(2, 1)] * 4, 4), ([(3, 2, 1)] * 4, 5), ([(4,), (1, 1, 1, 1), (4,), (1, 1, 1, 1)], 4)],
    ids=["21-n4", "321-n5", "balanced-infeasible-n4"],
)
def test_positivity_at_n4_and_n5_matches_chain_sum(lams, n):
    # the chain sum shares no code with the LP, while the uncached system
    # now shares its presolve; the last tuple is balanced and gives f = 0
    assert positivity(lams, n) == (f_sun(lams, n) > 0)


def test_positivity_stretch_consistency():
    random.seed(7)
    for _ in range(10):
        lams = []
        for _ in range(4):
            a = random.randint(0, 2)
            lams.append((a, random.randint(0, a)))
        base = positivity(lams, 2)
        for N in (2, 3):
            assert positivity([stretch(l, N) for l in lams], 2) == base


@pytest.mark.parametrize(
    "lams, n",
    [([(2, 1)] * 4, 3), ([(3, 2, 1)] * 4, 4), ([(2,), (1, 1), (), ()], 4)],
    ids=["21-n3", "321-n4", "infeasible-n4"],
)
def test_positivity_pivots_do_not_depend_on_the_stretch(monkeypatch, lams, n):
    # the strongly polynomial claim: scaling the boundary by N scales every
    # rhs and changes no pivot, so the LP's work does not grow with the entries
    from sunlr import linprog

    pivots = []
    pivot = linprog._pivot

    def record(vec, col, r, piv, det):
        pivots.append((r, piv, det))
        return pivot(vec, col, r, piv, det)

    monkeypatch.setattr(linprog, "_pivot", record)

    def run(N):
        pivots.clear()
        answer = positivity([stretch(l, N) for l in lams], n)
        return answer, list(pivots)

    answer, base = run(1)
    assert base and answer == (f_sun(lams, n) > 0)
    for N in (2, 7, 1000, 10**9):
        assert run(N) == (answer, base), N


def test_m4_n1_integer_points_match_lp():
    system = build_linear_system([(1,)] * 4, 1)
    assert lp_feasible(system)
    assert count_sun_hives([(1,)] * 4, 1) == 2


def test_count_larger_samples_match_all_oracles():
    from sunlr.quiver import SunQuiver, dim_si_sun, weight_sigma1

    samples = [
        ([(2, 1), (1, 1), (2, 0), (1, 1), (1, 0), (2, 2)], 2),
        ([(2, 1), (2, 1), (1, 1), (1, 1), (1, 0), (1, 0)], 2),
        ([(2, 1, 1), (1, 1, 0), (2, 1, 0), (1, 1, 1)], 3),
        ([(3, 1), (2, 0), (2, 2), (1, 0)], 3),
        ([(2, 2, 1), (2, 1, 0), (1, 1, 1), (2, 2, 0)], 3),
    ]
    for lams, n in samples:
        value = f_sun(lams, n)
        assert count_sun_hives(lams, n) == value, (lams, n)
        Q = SunQuiver(n, len(lams) // 2)
        assert dim_si_sun(Q, weight_sigma1(lams, n)) == value, (lams, n)
        assert positivity(lams, n) == (value > 0), (lams, n)


def boundaries(n, m, top=2):
    part = st.lists(st.integers(0, top), min_size=n, max_size=n).map(lambda xs: tuple(sorted(xs, reverse=True)))
    return st.lists(part, min_size=m, max_size=m)


# (3, 6) only with entries <= 1: its chain sums grow fast with the entries
shapes = st.tuples(st.integers(1, 3), st.sampled_from([4, 6])).filter(lambda s: s != (3, 6))
queries = st.one_of(
    shapes.flatmap(lambda s: st.tuples(boundaries(*s), st.just(s[0]), st.just(s[1]))),
    st.tuples(boundaries(3, 6, top=1), st.just(3), st.just(6)),
)


# n = 4 to 6, where the simplex does most of the work: (1)^4 and (2,1)^4
# are positive, then one unbalanced tuple and balanced tuples with f = 0
@example(([(1,)] * 4, 6, 4))
@example(([(3,), (1, 1, 1), (), ()], 5, 4))
@example(([(1,)] * 4, 4, 4))
@example(([(2, 1)] * 4, 4, 4))
@example(([(2, 1), (1,), (), ()], 4, 4))
@example(([(2,), (1, 1), (), ()], 4, 4))
@given(queries)
@settings(max_examples=60, deadline=None)
def test_positivity_matches_uncached_lp_and_chain_sum(query):
    lams, n, m = query
    expected = f_sun(lams, n) > 0
    assert lp_feasible(build_linear_system(lams, n, m)) == expected
    assert positivity(lams, n, m) == expected


@given(st.lists(queries, min_size=2, max_size=6), st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_positivity_does_not_depend_on_the_cache(batch, rng):
    cold = []
    for lams, n, m in batch:
        reduced_system.cache_clear()
        cold.append(positivity(lams, n, m))
    warm = [positivity(lams, n, m) for lams, n, m in batch]
    order = list(range(len(batch)))
    rng.shuffle(order)
    interleaved = {k: positivity(*batch[k]) for k in order}
    assert cold == warm == [interleaved[k] for k in range(len(batch))]


@pytest.mark.parametrize("n, m", [(1, 4), (2, 4), (3, 4), (4, 4), (1, 6), (2, 6), (3, 6), (1, 8), (1, 10)])
def test_reduced_rows_hold_the_sign_row_of_every_live_column(n, m):
    # the reduced rows imply x >= 0, so a simplex over x >= 0 would need no free split
    reduced = reduced_system(n, m)
    k = len(reduced.live)
    rows = set(reduced.ineqs)
    for j in range(k):
        assert (tuple(-(i == j) for i in range(k)), (0,) * (m * n)) in rows, (n, m, j)


def test_positivity_runs_one_elimination_or_one_simplex(monkeypatch):
    from sunlr import linprog

    calls = []
    for name in ("eliminate_equalities", "simplex_feasible"):
        fn = getattr(linprog, name)
        monkeypatch.setattr(linprog, name, lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    evaluate = hive._evaluate
    monkeypatch.setattr(hive, "_evaluate", lambda *args: calls.append("_evaluate") or evaluate(*args))
    reduced_system.cache_clear()
    # balanced and unbalanced, cold and warm
    for lams, n, balanced in [
        ([(1,)] * 4, 3, True),
        ([(2, 1), (1,), (), ()], 3, False),
        ([(1,)] * 4, 3, True),
        ([(1, 0)] * 6, 2, True),
    ]:
        calls.clear()
        positivity(lams, n)
        if balanced:
            # the per-shape rows leave nothing to eliminate: one simplex
            assert calls.count("eliminate_equalities") == 0, lams
            assert calls.count("simplex_feasible") == 1, lams
        else:
            # the leftover balance equations alone refuse it, before any
            # inequality form is evaluated
            nbalance = len(reduced_system(n, len(lams)).eqs)
            assert calls == ["_evaluate"] * nbalance + ["eliminate_equalities"], lams


@pytest.mark.parametrize(
    "lams, n",
    [
        ([(1,)] * 6, 2),
        ([(), (), (), (2,), (2, 2), (1, 1)], 2),
        ([(2, 1)] * 4, 3),
        ([(2,), (1, 1), (), ()], 3),
        ([(2, 1)] * 4, 4),
        ([(3,), (1, 1, 1), (), ()], 4),
    ],
)
def test_positivity_splits_no_live_column(monkeypatch, lams, n):
    # every live column has a sign row, so the phase-1 problem has one column
    # per live variable and one slack per row; the free split had 56 columns
    # over 42 rows at (2, 6), 14 more than rows for 7 live variables.  Some
    # of these boundaries make a sign direction's tightest row read b < 0.
    from sunlr import linprog

    shapes = []
    phase1 = linprog._phase1

    def record(columns, rhs, basis):
        shapes.append((len(columns), len(rhs)))
        return phase1(columns, rhs, basis)

    monkeypatch.setattr(linprog, "_phase1", record)
    answer = positivity(lams, n)
    assert answer == (f_sun(lams, n) > 0)
    (columns, rows), = shapes
    assert columns - rows == len(reduced_system(n, len(lams)).live)


def test_reduced_system_cache_is_bounded():
    reduced_system.cache_clear()
    for m in range(4, 24, 2):  # ten shapes at n = 1
        assert positivity([(1,)] * m, 1) and f_sun([(1,)] * m, 1) > 0
        assert not positivity([(2,)] + [(1,)] * (m - 1), 1)
    info = reduced_system.cache_info()
    assert info.currsize == info.maxsize < 10


def test_system_rows_counts_the_built_system():
    for n, m in [(1, 4), (2, 4), (2, 6), (3, 4), (4, 4), (3, 8)]:
        system = build_linear_system([()] * m, n, m)
        assert system_rows(n, m) == len(system.ineqs) + len(system.eqs), (n, m)


def test_reduced_system_sizes():
    # the odd/even balance is the only boundary equation left at m = 4
    for n, live, rows in [(2, 5, 35), (3, 13, 87)]:
        reduced = reduced_system(n, 4)
        assert (len(reduced.live), len(reduced.ineqs)) == (live, rows)
        assert reduced.eqs == (tuple(x for r in range(4) for x in [(-1) ** r] * n),)


@given(shapes.flatmap(lambda s: st.tuples(boundaries(*s, top=3), st.just(s[0]), st.just(s[1]))))
@settings(max_examples=40, deadline=None)
def test_rhs_forms_reproduce_the_built_system(query):
    lams, n, m = query
    system = build_linear_system(lams, n, m)
    names, ineqs, eqs = hive._hive_rows(n, m)
    beta = [x for lam in lams for x in lam]
    k = len(names)
    assert names == system.variables
    for rows, built in ((ineqs, system.ineqs), (eqs, system.eqs)):
        assert [(tuple(row[:k]), hive._evaluate(row[k:], beta)) for row in rows] == built


def hive_point(h, names):
    """The values a sun hive gives the variables of its linear system."""
    point = []
    for name in names:
        kind, r, i, j = re.fullmatch(r"([efg])(\d+)\[(\d+),(\d+)\]", name).groups()
        point.append(h[int(r) - 1]["efg".index(kind)][int(i)][int(j)])
    return point


def test_sun_hives_satisfy_the_built_and_reduced_systems():
    # every integral hive is a point of the unreduced system, equations tight,
    # and of the reduced one at its boundary, so no reduced rhs is too small
    cases = [
        ([(1, 0)] * 6, 2),
        ([(2, 1), (2, 1), (1, 1), (1, 1), (1, 0), (1, 0)], 2),
        ([(1, 1, 0), (1, 0, 0), (1, 0, 0), (1, 1, 0)], 3),
        ([(2, 1, 0)] * 4, 3),
    ]
    for lams, n in cases:
        m = len(lams)
        system = build_linear_system(lams, n, m)
        reduced = reduced_system(n, m)
        beta = [x for lam in lams for x in lam]
        seen = 0
        for h in iter_sun_hives(lams, n):
            x = hive_point(h, system.variables)
            assert all(sum(map(mul, a, x)) <= b for a, b in system.ineqs)
            assert all(sum(map(mul, a, x)) == b for a, b in system.eqs)
            y = [x[j] for j in reduced.live]
            assert all(sum(map(mul, a, y)) <= hive._evaluate(form, beta) for a, form in reduced.ineqs)
            assert all(hive._evaluate(form, beta) == 0 for form in reduced.eqs)
            seen += 1
        assert seen == f_sun(lams, n) > 0, lams


@pytest.mark.parametrize(
    "lams, n, count, digest",
    [
        ([(1, 0)] * 6, 2, 2, "e4e5bcd64343485bbffda47f2c72c56fbe42d5e23b0a32a22693b91a3a0c591e"),
        (
            [(2, 1), (2, 1), (1, 1), (1, 1), (1, 0), (1, 0)],
            2,
            3,
            "d00c54269546108f27cd6981bad404dc9d17ee1895a3acfbcf67959bb02fd2cc",
        ),
        (
            [(1, 1, 0), (1, 0, 0), (1, 0, 0), (1, 1, 0)],
            3,
            2,
            "8f8188dc5630002efcb39348e548eba14b8958d517eafd68af4940485144d431",
        ),
        ([(2, 1, 0)] * 4, 3, 10, "9c8d05401d2ca62c4fb8cf4cc9354acd9de77825ca58f1e214b935467dae3208"),
        ([(3, 2, 1)] * 4, 3, 148, "31de8977e47ba8fc2da8ad36315d38a65830b1eb6f0dbf04cd868842e20713ac"),
        # unbalanced: odd sizes 3, even sizes 2
        ([(2,), (1,), (1,), (1,)], 2, 0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    ],
)
def test_iter_sun_hives_pinned(lams, n, count, digest):
    # the yielded sequence is pinned by the sha256 of repr of each hive's (e, f, g) arrays
    hives = [list(h) for h in iter_sun_hives(lams, n)]
    assert len(hives) == count
    assert len({repr(h) for h in hives}) == count
    assert hashlib.sha256(repr(hives).encode()).hexdigest() == digest


def test_non_integer_entries_are_refused():
    for lams in ([(True,)] * 4, [(1.5,)] * 4, [("1",)] * 4):
        with pytest.raises(InvalidInputError, match="integers only"):
            positivity(lams, 1)
        with pytest.raises(InvalidInputError, match="integers only"):
            count_sun_hives(lams, 1)


def test_positivity_refuses_a_large_shape_without_a_budget(monkeypatch):
    # the rows grow as n^4: (1)^4 at n = 40 would fill 800 MB before any answer
    assert system_rows(15, 4) <= hive.DEFAULT_LP_ROWS < system_rows(16, 4)
    reduced_system.cache_clear()
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as exc:
        positivity([(1,)] * 4, 40)
    assert time.perf_counter() - start < 1.0
    assert str(exc.value) == f"linear program needs {system_rows(40, 4)} rows, budget is {hive.DEFAULT_LP_ROWS}"
    assert reduced_system.cache_info().currsize == 0
    # an explicit budget replaces the default, upwards too
    monkeypatch.setattr(hive, "DEFAULT_LP_ROWS", 63)
    with pytest.raises(BudgetExceededError):
        positivity([(1,)] * 4, 2)
    assert positivity([(1,)] * 4, 2, budget=64)
