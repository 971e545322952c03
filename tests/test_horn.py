import hashlib
import json
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sunlr import generalized, horn
from sunlr.errors import (
    BudgetExceededError,
    InvalidInputError,
    WallPreconditionError,
)
from sunlr.generalized import f_sun
from sunlr.horn import (
    VARIANTS,
    SubsetTuple,
    apply_permutation,
    canonical_orbit_representative,
    facets_2_6_golden,
    factorization_check,
    find_tight_tuples,
    generate_T,
    in_cone,
    is_trivial_facet,
    minimal_facets,
    orbit,
    regular_facets,
    symmetry_group,
    underline_lambda,
    verify_facets_2_6,
)
from sunlr.linprog import cone_columns, cone_implied
from sunlr.partitions import is_partition, iter_partition_tuples, pad


def test_underline_examples():
    # all subsets full: every attached sequence is empty
    assert underline_lambda([(1, 2, 3)] * 4, 3) == ((), (), (), ())
    # even flag {2,3} in n=3: conjugate of (1,1) is (2), one slot
    under = underline_lambda([(1, 2, 3), (2, 3), (1, 2, 3), (1, 2, 3)], 3)
    assert under[1] == (2,)
    # odd flag, empty subset with singleton neighbors: subtracting -2 over one slot
    under = underline_lambda([(), (1,), (1,), (1,)], 1)
    assert under[0] == (2,)


def test_generate_T_small():
    for variant in ("one", "nonzero"):
        T = generate_T(1, 4, variant)
        assert T, variant
        for st in T:
            under = underline_lambda(st, 1)
            val = f_sun(under, 1)
            assert val == 1 if variant == "one" else val != 0
            assert any(len(s) < 1 for s in st.subsets)
    t_one = {st.subsets for st in generate_T(2, 4, "one")}
    t_nz = {st.subsets for st in generate_T(2, 4, "nonzero")}
    assert t_one <= t_nz


def _reference_T(n, m):
    """Both generate_T lists by the definition, one candidate at a time:
    underline_lambda, is_partition on every attached sequence, then f_sun.
    Shares f_sun (and its memo) with generate_T, nothing else of it."""
    subsets = [tuple(j + 1 for j in range(n) if mask >> j & 1) for mask in range(2**n)]
    out = {"one": [], "nonzero": []}
    for subs in product(subsets, repeat=m):
        if all(len(s) == n for s in subs):
            continue
        under = underline_lambda(subs, n)
        if not all(is_partition(u) for u in under):
            continue
        val = f_sun(under, n)
        if val == 1:
            out["one"].append(subs)
        if val != 0:
            out["nonzero"].append(subs)
    return out


@pytest.mark.parametrize("n, m", [(1, 4), (1, 6), (1, 8), (1, 10), (2, 4), (2, 6), (3, 4)])
def test_generate_T_matches_reference(monkeypatch, n, m):
    monkeypatch.setattr(horn, "_T_CACHE", {})
    ref = _reference_T(n, m)
    for variant in VARIANTS:
        assert [t.subsets for t in generate_T(n, m, variant)] == sorted(ref[variant]), variant


def test_generate_T_budget(monkeypatch):
    monkeypatch.setattr(horn, "_T_CACHE", {})
    with pytest.raises(BudgetExceededError):
        generate_T(3, 6, "one")
    generate_T(1, 4, "one")
    in_cone([(1,)] * 4, 1, 4, "one")
    before = dict(horn._T_CACHE)
    # refused before any enumeration: nothing of (2, 4) is classified or cached
    with pytest.raises(BudgetExceededError):
        generate_T(2, 4, "one", budget=4)
    assert horn._T_CACHE == before
    with pytest.raises(BudgetExceededError):
        in_cone([(1, 0)] * 4, 2, 4, "one", budget=4)
    assert horn._T_CACHE == before
    # in_cone reads cached rows without generate_T, yet a refusal does not
    # depend on earlier calls: with the (2, 4) rows built, it still refuses
    assert in_cone([(1, 0)] * 4, 2, 4)
    assert ("rows", 2, 4, "one") in horn._T_CACHE
    with pytest.raises(BudgetExceededError):
        in_cone([(1, 0)] * 4, 2, 4, budget=4)


def test_candidates_validate_nothing(monkeypatch):
    # a cold generate_T builds every attached sequence as a partition, so it
    # runs no ChainProblem validation; it sums only balanced chains, and the
    # chain sums it runs and the memo entries it leaves are pinned
    validated, chain_sums = [], []

    def counting(calls, fn):
        def wrapped(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(horn, "_T_CACHE", {})
    monkeypatch.setattr(generalized, "_F_SUN_MEMO", {})
    monkeypatch.setattr(generalized, "_validated", counting(validated, generalized._validated))
    monkeypatch.setattr(
        generalized, "cyclic_chain_sum", counting(chain_sums, generalized.cyclic_chain_sum)
    )
    generate_T(2, 6)
    assert validated == []
    assert len(chain_sums) == 41
    generalized._F_SUN_MEMO.clear()
    horn._candidates(2, 8)
    assert len(generalized._F_SUN_MEMO) == 216


# (n, m) -> variant -> (length, sha256 of the repr of its subsets), computed
# by the classification of the whole 2^(nm) product
GENERATE_T_PINS = {
    (2, 8): {
        "one": (1548, "8dc05ddcd8ddc06344e5305e6e74a82b01be6ec4ca2cfff29626f3779fc5838f"),
        "nonzero": (1549, "98adfb5f1380c13de69416714d765fbc6e0d3089305a3667571231fee3299217"),
    },
    (4, 4): {
        "one": (1202, "58ca788189eb9cfb66acfa7ead1bd2fcb2a99ca27b5ddac80a326194c825d66b"),
        "nonzero": (1472, "fcc8e83a388660f3820231b8939a34ef93b9ffad4f29c6ea6d13062b2df439fd"),
    },
}


@pytest.mark.parametrize("n, m", sorted(GENERATE_T_PINS))
def test_generate_T_pinned(monkeypatch, n, m):
    # the shapes where the balanced enumeration skips the most, too slow for _reference_T
    monkeypatch.setattr(horn, "_T_CACHE", {})
    for variant, (count, digest) in GENERATE_T_PINS[n, m].items():
        subsets = [st.subsets for st in generate_T(n, m, variant)]
        assert len(subsets) == count, variant
        assert hashlib.sha256(repr(subsets).encode()).hexdigest() == digest, variant


@pytest.mark.parametrize("n, m", [(1, 4), (2, 4), (1, 6), (3, 4), (2, 6), (4, 4), (5, 6)])
def test_generate_T_budget_refuses_exactly_when_2_to_the_nm_exceeds_it(monkeypatch, n, m):
    # nothing is classified: a budget that passes gets an empty candidate list
    monkeypatch.setattr(horn, "_T_CACHE", {})
    monkeypatch.setattr(horn, "_candidates", lambda n, m: ())
    k = n * m
    budgets = {-(2**k), -5, -1, 0, 1, 2, 3, 2 ** (k - 1), 2**k - 1, 2**k, 2**k + 1, 2 ** (k + 1), 10**30}
    for budget in sorted(budgets):
        horn._T_CACHE.clear()
        if 2**k > budget:
            with pytest.raises(BudgetExceededError, match=rf"2\^{k} subset tuples, budget is {budget}$"):
                generate_T(n, m, "one", budget=budget)
        else:
            assert generate_T(n, m, "one", budget=budget) == []


def test_generate_T_closed_under_symmetry():
    for n, m in ((1, 4), (2, 4)):
        tset = {st.subsets for st in generate_T(n, m, "one")}
        for subs in tset:
            for g in symmetry_group(m):
                assert apply_permutation(g, subs) in tset


def test_size_bounds_along_odd_flags():
    # max(|I_{i-1}|, |I_{i+1}|) <= |I_i| <= |I_{i-1}| + |I_{i+1}| + s_i, odd i
    for st in generate_T(2, 6, "one"):
        subs = st.subsets
        m, n = 6, 2
        for i in range(1, m + 1, 2):
            cur = set(subs[i - 1])
            prev = len(subs[(i - 2) % m])
            nxt = len(subs[i % m])
            s_i = next(k for k in range(n + 1) if (n - k) not in cur)
            assert max(prev, nxt) <= len(cur) <= prev + nxt + s_i, subs


def test_in_cone_examples():
    assert in_cone([(1, 0)] * 6, 2, 6)
    assert not in_cone([(1, 0), (3, 0), (1, 0), (0, 0), (1, 0), (0, 0)], 2, 6)
    assert not in_cone([(1, 0), (), (), (), (), ()], 2, 6)
    assert in_cone([(Fraction(1, 2), 0)] * 6, 2, 6)


def _rational_tuple(data, n, m):
    """Weakly decreasing rational tuple, as given and zero-padded: entries
    with mixed denominators, as Fraction, "p/q" string or int, negative in
    about half the tuples; trailing zeros sometimes dropped, so a negative
    entry only appears in a sequence of n entries.  Balanced by raising one
    top entry unless the draw says otherwise."""
    low = data.draw(st.sampled_from((0, -4)))
    entry = st.builds(Fraction, st.integers(low, 6), st.sampled_from((1, 2, 3, 4, 6)))
    full = [sorted(data.draw(st.lists(entry, min_size=n, max_size=n)), reverse=True) for _ in range(m)]
    if data.draw(st.booleans()):
        gap = sum(map(sum, full[0::2])) - sum(map(sum, full[1::2]))
        full[1 if gap > 0 else 0][0] += abs(gap)
    lams = []
    for lam in full:
        zeros = lam.count(0) if lam[-1] == 0 else 0
        keep = len(lam) - data.draw(st.integers(0, zeros))
        form = data.draw(st.sampled_from((Fraction, str, lambda x: int(x) if x.denominator == 1 else str(x))))
        lams.append([form(x) for x in lam[:keep]])
    return lams, full


@pytest.mark.parametrize("n, m", [(1, 6), (2, 4), (2, 6)])
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_in_cone_matches_fraction_inequalities(n, m, data):
    lams, full = _rational_tuple(data, n, m)
    variant = data.draw(st.sampled_from(VARIANTS))
    balanced = sum(map(sum, full[0::2])) == sum(map(sum, full[1::2]))
    expected = balanced and all(t.holds(full) for t in generate_T(n, m, variant))
    assert in_cone(lams, n, m, variant) == expected


@pytest.mark.parametrize("n, m", [(1, 6), (1, 8), (2, 4), (1, 10), (2, 6), (3, 4)])
def test_two_term_sums_are_certificates(monkeypatch, n, m):
    # every dropped row is the sum of two rows of its list, less the balance
    # row for a cover, checked by integer addition; both were still kept when
    # it was dropped (kept to the end, or dropped later in the walk), so the
    # rows kept at the end and the balance equality imply it
    monkeypatch.setattr(horn, "_T_CACHE", {})
    balance = horn._balance_row(n, m)
    facets = {st.subsets for st in minimal_facets(n, m)}
    for variant in VARIANTS:
        tuples = generate_T(n, m, variant)
        position = {st.subsets: k for k, st in enumerate(tuples)}
        vec = {subs: SubsetTuple(subs, n).coefficient_vector() for subs in position}
        sums = horn._two_term_sums(tuples, n, m, variant)
        assert sums and not facets & sums.keys(), variant
        for subs, (J, K) in sums.items():
            assert J in position and K in position and subs not in (J, K)
            for later in (J, K):
                assert later not in sums or position[later] > position[subs]
            pair = [a + b for a, b in zip(vec[J], vec[K])]
            assert vec[subs] in (tuple(pair), tuple(x - b for x, b in zip(pair, balance))), (subs, J, K)


def test_in_cone_matches_the_full_list_exhaustive():
    # in_cone reads only the rows the sieve keeps; members make it read them all
    n, m = 2, 4
    for lams in iter_partition_tuples(n, 2, m):
        full = [pad(l, n) for l in lams]
        tuples = [full]
        if f_sun(lams, n):
            tuples += [[[Fraction(5, 3) * x for x in lam] for lam in full], [[x - 1 for x in lam] for lam in full]]
        for lam_full in tuples:
            balanced = sum(map(sum, lam_full[0::2])) == sum(map(sum, lam_full[1::2]))
            for variant in VARIANTS:
                expected = balanced and all(st.holds(lam_full) for st in generate_T(n, m, variant))
                assert in_cone(lam_full, n, m, variant) == expected, (lam_full, variant)


def test_sieve_pins_at_2_6(monkeypatch):
    # the "one" list has 244 rows, in_cone reads 77 of them, and minimal_facets
    # solves 19 of its 56 orbits by LP, the others being sieved or zero; each
    # LP prices only the 76 nonzero kept rows less its target, plus 6 chamber
    # columns and the 2 halves of the balance equality
    monkeypatch.setattr(horn, "_T_CACHE", {})
    monkeypatch.setattr(horn, "_FACET_CACHE", {})
    widths = []

    def counting(c, columns):
        widths.append(len(columns))
        return cone_implied(c, columns)

    monkeypatch.setattr(horn, "cone_implied", counting)
    tuples = generate_T(2, 6)
    assert len(tuples) == 244
    assert len(horn._index_rows(tuples, 2, 6, "one")) == 77
    assert len(minimal_facets(2, 6)) == 69
    assert len(widths) == 19
    assert max(widths) <= 76 - 1 + 8


def test_in_cone_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        in_cone([(0, 1)] * 6, 2, 6)
    with pytest.raises(InvalidInputError):
        in_cone([(1, 0)] * 5, 2, 5)
    for bad in (True, 1.0, "x", "1/0", None):
        with pytest.raises(InvalidInputError):
            in_cone([[bad], [bad], [], []], 1, 4)


def test_in_cone_reads_the_length_after_trimming_trailing_zeros():
    # sequences that differ by trailing zeros are one sequence, as in f_sun
    assert f_sun([[1, 0], [1], [1], [1]], 1) == 2
    assert in_cone([[1, 0], [1], [1], [1]], 1, 4)
    assert in_cone([["1/2", 0, 0], [Fraction(1, 2)], [1, 0], [1]], 1, 4)
    assert not in_cone([[2, 0, 0], [1], [1, 0], [1]], 1, 4)
    # a refused tuple reads as f_sun reads it: weak decrease first, then the length
    with pytest.raises(InvalidInputError, match=r"lambda\(1\) \[0, 1, 0\] is not weakly decreasing"):
        in_cone([[0, 1, 0], [1], [1], [1]], 2, 4)
    with pytest.raises(InvalidInputError, match=r"lambda\(1\) has more than n=1 entries"):
        in_cone([[1, 1, 0], [1], [1], [1]], 1, 4)
    with pytest.raises(InvalidInputError, match="negative tail but fewer than n=2 parts"):
        in_cone([[-1], [], [], [-1]], 2, 4)


@pytest.mark.parametrize("n, m", [(2, 4), (1, 6)])
def test_in_cone_int_and_rational_paths_agree(n, m):
    # a tuple of plain ints skips the Fraction conversion and the scaling;
    # the same tuple as Fractions, as "p/1" and as "2p/2" takes them
    forms = (
        lambda x: x,
        Fraction,
        lambda x: f"{x}/1",
        lambda x: f"{2 * x}/2",
    )
    for lams in iter_partition_tuples(n, 2, m):
        for variant in VARIANTS:
            answers = {in_cone([[form(x) for x in lam] for lam in lams], n, m, variant) for form in forms}
            assert len(answers) == 1, (lams, variant)


def test_in_cone_int_path_refuses_as_the_golden_corpus_does():
    golden = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
    refused = [
        (json.loads(case["stdin"]), json.loads(case["stdout"])["message"])
        for case in golden
        if case["argv"][:1] == ["cone"] and "float or boolean" in case["stdout"]
    ]
    assert len(refused) == 2
    # the corpus's float and bool in the first flag, and the same entries
    # behind flags of plain ints, which take the integer path
    cases = [(doc["lambdas"], doc["n"], message) for doc, message in refused] + [
        ([[1], [1], [1], [0.5]], 1, "lambda(4) [0.5] has a float or boolean entry; integers only, or 'p/q' in a cone"),
        ([[1], [1], [False], []], 1, "lambda(3) [False] has a float or boolean entry; integers only, or 'p/q' in a cone"),
        # an earlier flag of ints is refused first, as before
        ([[0, 1], [0.5], [], []], 2, "lambda(1) [0, 1] is not weakly decreasing"),
    ]
    for lams, n, message in cases:
        with pytest.raises(InvalidInputError) as err:
            in_cone(lams, n, 4)
        assert str(err.value) == message


def test_in_cone_checks_the_variant_and_the_rank_before_the_balance():
    # an unbalanced tuple is outside the cone, but a bad request must not read as one
    unbalanced = [(1,), (), (), ()]
    with pytest.raises(InvalidInputError, match="variant must be one of"):
        in_cone(unbalanced, 1, 4, "bogus")
    for lams in (unbalanced, [()] * 4):
        with pytest.raises(InvalidInputError, match=r"rank n must be >= 1, got 0"):
            in_cone(lams, 0, 4)


def test_in_cone_variant_agreement_exhaustive():
    for n in (1, 2):
        for lams in iter_partition_tuples(n, 2, 4):
            one = in_cone(lams, n, 4, "one")
            nz = in_cone(lams, n, 4, "nonzero")
            assert one == nz == (f_sun(lams, n) != 0), (n, lams)


def test_cone_convexity_spot():
    a = [(2, 1), (2, 1), (1, 1), (1, 1), (1, 0), (1, 0)]  # chain value 3
    b = [(1, 0)] * 6
    assert in_cone(a, 2, 6) and in_cone(b, 2, 6)
    total = [tuple(x + y for x, y in zip(pad(p, 2), pad(q, 2))) for p, q in zip(a, b)]
    assert in_cone(total, 2, 6)
    scaled = [[Fraction(3, 7) * x for x in pad(p, 2)] for p in total]
    assert in_cone(scaled, 2, 6)


def test_factorization_zero_tuple():
    some = next(st for st in generate_T(2, 6, "one") if any(st.subsets))
    rep = factorization_check([()] * 6, some, 2)
    assert rep["passed"] and rep["value"] == 1


def test_factorization_rejects_multiplicity_two_candidate():
    # attached multiplicity 2: inequality is redundant and does not factor
    with pytest.raises(InvalidInputError):
        factorization_check([(1, 1)] * 4, SubsetTuple(((1,), (2,), (1,), (2,)), 2), 2)


def test_factorization_requires_tightness():
    with pytest.raises(WallPreconditionError) as err:
        factorization_check([(1, 0)] * 6, SubsetTuple(((1,), (1,), (1,), (), (), ()), 2), 2)
    assert err.value.slack == 1


def test_factorization_on_found_walls():
    checked = 0
    for lams in iter_partition_tuples(2, 1, 6):
        if f_sun(lams, 2) == 0:
            continue
        for st in find_tight_tuples(lams, 2)[:2]:
            rep = factorization_check(lams, st, 2)
            assert rep["passed"], (lams, st.subsets, rep)
            checked += 1
        if checked >= 20:
            break
    assert checked >= 20


def test_factorization_sorts_subsets():
    # {2, 1} is the subset {1, 2}: the same split, values and inequality
    lams = [(), (), (3, 2), (3, 2)]
    unsorted, ordered = [[1, 2], [], [2, 1], [1, 2]], [[1, 2], [], [1, 2], [1, 2]]
    rep = factorization_check(lams, unsorted, 2)
    assert rep == factorization_check(lams, ordered, 2)
    assert rep["passed"] and rep["star"] == [[0, 0], [], [3, 2], [3, 2]]
    assert SubsetTuple(unsorted, 2) == SubsetTuple(ordered, 2)
    assert SubsetTuple(unsorted, 2).schema() == "|l(4)| <= |l(1)| + |l(3)|"


def test_cold_rebuilds_compare_equal(monkeypatch):
    # the benchmark compares the answers of rounds that each start on empty caches
    builds = []
    for _ in range(2):
        monkeypatch.setattr(horn, "_T_CACHE", {})
        monkeypatch.setattr(horn, "_FACET_CACHE", {})
        builds.append(generate_T(2, 4) + minimal_facets(2, 4))
    first, again = builds
    assert len(first) == len(again)
    for a, b in zip(first, again):
        assert a is not b and a == b and hash(a) == hash(b)


def test_symmetry_group_structure():
    group = symmetry_group(6)
    assert symmetry_group(6) is group  # built once per m
    assert len(group) == 6
    identity = tuple(range(1, 7))
    assert identity in group
    for g in group:
        assert sorted(g) == list(range(1, 7))
        # parity of every flag is preserved
        assert all((i % 2) == (g[i - 1] % 2) for i in range(1, 7))


def test_orbit_sizes_divide_group():
    subs = ((1,), (1,), (1,), (), (), ())
    assert len(orbit(subs, 6)) in (1, 2, 3, 6)
    rep = canonical_orbit_representative(subs, 6)
    assert rep in orbit(subs, 6)


def test_trivial_facet_detection():
    # single simple root at a central vertex: I_5 = {n}, rest empty
    assert is_trivial_facet(SubsetTuple(((), (), (), (), (2,), ()), 2))
    # complement a simple root: one even flag missing its top position
    assert is_trivial_facet(SubsetTuple(((1, 2), (1,), (1, 2), (1, 2), (1, 2), (1, 2)), 2))
    assert not is_trivial_facet(SubsetTuple(((1,), (1,), (1,), (), (), ()), 2))


def test_golden_file_is_selfconsistent():
    golden = facets_2_6_golden()
    assert golden["n"] == 2 and golden["m"] == 6
    assert len(golden["facets"]) == 14
    reps = set()
    for rec in golden["facets"]:
        st = SubsetTuple(tuple(tuple(s) for s in rec["subsets"]), 2)
        assert st.schema() == rec["inequality"]
        under = underline_lambda(st, 2)
        assert f_sun(under, 2) == 1
        reps.add(canonical_orbit_representative(st.subsets, 6))
    assert len(reps) == 14


def test_first_golden_facet_matches_printed_diagram():
    rec = facets_2_6_golden()["facets"][0]
    assert rec["inequality"] == "l(2)_1 <= l(1)_1 + l(3)_1"
    assert rec["beta1_central_as_printed"] == [1, 1, 0, 1, 0, 0]
    assert rec["subsets"] == [[1], [1], [1], [], [], []]


def test_golden_inequalities_hold_on_interior_point():
    full = [pad((1, 0), 2)] * 6
    for rec in facets_2_6_golden()["facets"]:
        st = SubsetTuple(tuple(tuple(s) for s in rec["subsets"]), 2)
        assert st.holds(full)


def test_minimal_facets_split_into_trivial_and_regular():
    minimal = minimal_facets(2, 6)
    regular = regular_facets(2, 6)
    trivial = [st for st in minimal if is_trivial_facet(st)]
    assert len(minimal) == len(regular) + len(trivial)
    assert len(trivial) == 6  # l(i)_2 >= 0 for each flag, up to the balance relation


def _reference_minimal_facets(n, m):
    """minimal_facets by its definition: each candidate is solved against all
    the other candidates, the chamber rows and the balance equality, with no
    orbits and no column dropped.  Shares the LP with minimal_facets."""
    vectors = {st.subsets: st.coefficient_vector() for st in generate_T(n, m)}
    chamber = horn._chamber_rows(n, m)
    balance = horn._balance_row(n, m)
    kept = []
    for subs, vec in vectors.items():
        others = [v for s, v in vectors.items() if s != subs] + chamber
        if any(vec) and not cone_implied(vec, cone_columns(others, [balance])):
            kept.append(subs)
    return sorted(kept)


@pytest.mark.parametrize("n, m", [(1, 6), (1, 8), (2, 4), (1, 10), (2, 6), (3, 4)])
def test_minimal_facets_matches_reference(monkeypatch, n, m):
    monkeypatch.setattr(horn, "_FACET_CACHE", {})
    assert [st.subsets for st in minimal_facets(n, m)] == _reference_minimal_facets(n, m)


@pytest.mark.parametrize(
    "n, m, count, digest",
    [
        (3, 4, 70, "bcf18aaa8698c0ecf9281be4e03c1fe7e4762a17180cb0a56457b6dde70c561d"),
        (2, 8, 248, "303f7583b595ad90edb89f580a19789693b666ce31fae7939ea582a4625c2fd8"),
        (1, 10, 25, "fd012b49522c8208d0ad345531a8590fcc9a9b697d6379debb145a3cfa295528"),
    ],
)
def test_minimal_facets_pinned(monkeypatch, n, m, count, digest):
    # no golden data exists for these shapes: the subset lists are pinned by
    # the sha256 of their repr
    monkeypatch.setattr(horn, "_FACET_CACHE", {})
    subsets = [st.subsets for st in minimal_facets(n, m)]
    assert len(subsets) == count
    assert hashlib.sha256(repr(subsets).encode()).hexdigest() == digest


def test_verify_facets_2_6_bit_exact():
    rep = verify_facets_2_6()
    assert rep["passed"], rep
    assert rep["golden_count"] == rep["computed_count"] == 14


def _set_flag(facets):
    facets[2]["beta1_flags"][3][1] = 0


def _drop_record_6(facets):
    del facets[5]


def _flip_inequality(facets):
    facets[0]["inequality"] = facets[0]["inequality"].replace("<=", ">=")


def _renumber(facets):
    facets[4]["id"] = 99


def _move_to_other_orbit(facets):
    facets[1]["subsets"] = [[1], [1], [], [], [], []]


def _payload(passed, golden=14, missing=(), extra=()):
    return {
        "passed": passed,
        "golden_count": golden,
        "computed_count": 14,
        "missing": list(missing),
        "extra": list(extra),
    }


@pytest.mark.parametrize(
    "alter, expected",
    [
        (_set_flag, _payload(False)),
        (_drop_record_6, _payload(False, golden=13, extra=[[[], [], [1, 2], [1, 2], [1, 2], []]])),
        (_flip_inequality, _payload(False)),
        (_renumber, _payload(True)),
        (
            _move_to_other_orbit,
            _payload(False, missing=[[[], [], [], [], [1], [1]]], extra=[[[], [], [1], [2], [2], []]]),
        ),
    ],
)
def test_verify_facets_2_6_on_altered_golden_data(monkeypatch, alter, expected):
    # one change to a copy of the golden data: only a changed id still passes
    original = horn.facets_2_6_golden
    returned = []

    def altered():
        data = original()
        alter(data["facets"])
        returned.append(data)
        return data

    monkeypatch.setattr(horn, "facets_2_6_golden", altered)
    assert verify_facets_2_6() == expected
    fresh = original()
    alter(fresh["facets"])
    assert returned == [fresh, fresh]  # neither read was modified by the check
