"""Acceptance suite: the exit criteria for this package, one test each.

Every check is exact (integer or rational equality, no tolerances); the
stated runtime bounds are asserted where given.  Each criterion prints a
single PASS line (visible with ``pytest -s`` or in the captured output).
"""

import itertools
import random
import time
from math import comb

from sunlr.generalized import LevelOneSpec, f2, f_sun, level1_f, level1_lambdas
from sunlr.hive import count_sun_hives, positivity
from sunlr.horn import (
    factorization_check,
    find_tight_tuples,
    in_cone,
    verify_facets_2_6,
)
from sunlr.lr import lr_coefficient, lr_hive_count, rectangular_lr
from sunlr.partitions import iter_partition_tuples, partitions_in_box, stretch
from sunlr.quiver import SunQuiver, dim_si_sun, weight_sigma1


def _report(num, message):
    print(f"ACCEPTANCE {num}: PASS - {message}")


def test_criterion_1_four_way_oracle_equivalence():
    started = time.time()
    checked = 0
    for n in (1, 2):
        Q = SunQuiver(n, 2)
        for lams in iter_partition_tuples(n, 2, 4):
            chain = f_sun(lams, n)
            hives = count_sun_hives(lams, n)
            weight_space = dim_si_sun(Q, weight_sigma1(lams, n))
            lp_positive = positivity(lams, n, 4)
            assert chain == hives == weight_space, (n, lams, chain, hives, weight_space)
            assert lp_positive == (chain > 0), (n, lams, chain, lp_positive)
            checked += 1
    elapsed = time.time() - started
    assert elapsed < 60, f"criterion 1 exceeded its runtime bound: {elapsed:.1f}s"
    _report(1, f"four methods agree on all {checked} tuples (n<=2, m=4, entries<=2) in {elapsed:.1f}s")


def test_criterion_2_saturation():
    started = time.time()
    rng = random.Random(20260808)

    def rand_partition(n, max_entry):
        parts = sorted((rng.randint(0, max_entry) for _ in range(n)), reverse=True)
        return tuple(p for p in parts if p)

    checked = 0
    for _ in range(200):
        n = rng.choice([1, 2, 3])
        m = rng.choice([4, 6])
        lams = [rand_partition(n, 3) for _ in range(m)]
        statuses = {f_sun([stretch(l, r) for l in lams], n) > 0 for r in (1, 2, 3)}
        assert len(statuses) == 1, (n, m, lams)
        checked += 1
    elapsed = time.time() - started
    assert elapsed < 300, f"criterion 2 exceeded its runtime bound: {elapsed:.1f}s"
    _report(2, f"zero/nonzero status constant under stretching for {checked} random tuples in {elapsed:.1f}s")


def test_criterion_3_horn_equivalence():
    checked = 0
    for n in (1, 2):
        for lams in iter_partition_tuples(n, 2, 4):
            member = in_cone(lams, n, 4, "one")
            assert member == (f_sun(lams, n) != 0), (n, lams)
            checked += 1

    rng = random.Random(424242)

    def rand_decreasing_pair():
        a = rng.randint(-2, 3)
        return (a, rng.randint(-2, a))

    sampled = 0
    balanced = 0
    while sampled < 50:
        lams = [rand_decreasing_pair() for _ in range(6)]
        odd = sum(sum(lams[i]) for i in range(0, 6, 2))
        even = sum(sum(lams[i]) for i in range(1, 6, 2))
        if balanced < 25 and odd != even:
            continue  # force a balanced first half so inequalities are exercised
        if odd == even:
            balanced += 1
        member = in_cone(lams, 2, 6, "one")
        member_nz = in_cone(lams, 2, 6, "nonzero")
        want = f_sun(lams, 2) != 0
        assert member == member_nz == want, (lams, member, member_nz, want)
        sampled += 1
    _report(3, f"cone membership equals nonvanishing on {checked} exhaustive + {sampled} random tuples")


def test_criterion_4_golden_facets():
    report = verify_facets_2_6()
    assert report["passed"], report
    assert report["golden_count"] == 14 and report["computed_count"] == 14
    _report(4, "regenerated (2,6) facet data matches the embedded golden list bit-exactly (14 orbits)")


def test_criterion_5_level1_closed_form():
    checked = 0
    for m in (4, 6):
        for jumps in itertools.product(range(3), repeat=m):
            spec = LevelOneSpec(jumps)
            values = {}
            for N in (1, 2, 3):
                closed = level1_f(spec, N, n=2)
                chain = f_sun(level1_lambdas(spec, N), 2)
                assert closed == chain, (jumps, N, closed, chain)
                odd = sum(jumps[i] for i in range(0, m, 2))
                even = sum(jumps[i] for i in range(1, m, 2))
                J = spec.J
                if odd == even and all(x >= 0 for x in J):
                    s = min(min(jumps), min(J))
                    assert closed == comb(N + s, N), (jumps, N)
                else:
                    assert closed == 0, (jumps, N)
                values[N] = closed
                checked += 1
            if values[1] == 1:
                assert values[2] == 1 and values[3] == 1, (jumps, values)
            if values[1] == 2:
                assert values[2] == 3 and values[3] == 4, (jumps, values)
    _report(5, f"closed form C(N+s,N) matches the chain engine on {checked} stretched level-1 cases"
               " (including the P(1)=1 and P(1)=2 patterns)")


def test_criterion_6_factorization_on_walls():
    checked = 0
    witnesses = []
    for m in (4, 6):
        for lams in iter_partition_tuples(2, 1, m):
            if checked >= 20:
                break
            if f_sun(lams, 2) == 0:
                continue
            tight = find_tight_tuples(lams, 2)
            if not tight:
                continue
            report = factorization_check(lams, tight[0], 2)
            assert report["passed"], (lams, tight[0].subsets, report)
            witnesses.append((lams, tight[0].subsets))
            checked += 1
    assert checked >= 20, f"wall search found only {checked} tuples"
    _report(6, f"factorization identity verified on {checked} wall tuples")


def test_criterion_7_single_lr():
    started = time.time()
    box = partitions_in_box((4, 4, 4))
    checked = 0
    for lam in box:
        for mu in box:
            for nu in box:
                assert lr_coefficient(lam, mu, nu, 3) == lr_hive_count(lam, mu, nu, 3), (lam, mu, nu)
                checked += 1
    rect_checked = 0
    for n in (1, 2, 3):
        for N in (0, 1, 2, 3, 4):
            ps = partitions_in_box((N,) * n)
            for lam in ps:
                for mu in ps:
                    want = lr_coefficient(lam, mu, (N,) * n, n)
                    assert rectangular_lr(lam, mu, N, n) == want, (lam, mu, N, n)
                    rect_checked += 1
    _report(7, f"tableau and hive counts agree on {checked} triples; rectangular shortcut on "
               f"{rect_checked} cases ({time.time() - started:.1f}s)")


def test_criterion_8_f2_degeneration():
    rng = random.Random(808)

    def rand_partition():
        parts = sorted((rng.randint(0, 3) for _ in range(3)), reverse=True)
        return tuple(p for p in parts if p)

    for _ in range(100):
        lam, mu, nu = rand_partition(), rand_partition(), rand_partition()
        assert f2([lam, nu, mu], 3) == lr_coefficient(lam, mu, nu, 3), (lam, mu, nu)
    _report(8, "f2 with m=3 equals the single coefficient on 100 random triples")


def test_criterion_9_out_of_reach_claims_documented():
    # The strongly-polynomial complexity bound for positivity and the
    # dimension count mn-1 for the cone are statements about asymptotics
    # and geometry; they are not reproducible at desk scale and are covered
    # here only through the property suites above (criteria 1-4).
    _report(9, "complexity and cone-dimension claims are documentation-only; property suites stand in")
