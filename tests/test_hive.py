import random
from fractions import Fraction

import pytest

from sunlr.errors import InvalidInputError, UnsupportedShapeError
from sunlr.generalized import f_sun
from sunlr.hive import (
    SunHive,
    TriangularHive,
    build_linear_system,
    count_sun_hives,
    count_sun_hives_raw_n1,
    iter_sun_hives,
    lp_feasible,
    positivity,
    sun_hive_from_json,
    sun_hive_to_json,
    validate_sun_hive,
)
from sunlr.linprog import eliminate_equalities, fourier_motzkin_feasible, simplex_feasible
from sunlr.partitions import iter_partition_tuples, stretch


def hand_hive_m4_n1(chain=(0, 1, 0, 1), tops=(1, 1, 1, 1)):
    arrays = []
    for r in range(4):
        e = chain[r]
        f = tops[r] - e
        arrays.append(TriangularHive(1, [[e]], [[f]], [[tops[r]]]))
    return SunHive(1, 4, arrays)


def test_validate_hand_built():
    # the chain ((), (1), (), (1)) as a glued hive; pins the base orientation
    h = hand_hive_m4_n1()
    assert validate_sun_hive(h, [(1,)] * 4)
    h2 = hand_hive_m4_n1(chain=(1, 0, 1, 0))
    assert validate_sun_hive(h2, [(1,)] * 4)


def test_validate_rejects_broken_triangle():
    h = hand_hive_m4_n1()
    h.arrays[1].g[0][0] += 1
    assert not validate_sun_hive(h, [(1,)] * 4)


def test_validate_rejects_broken_flip():
    h = hand_hive_m4_n1()
    h.arrays[2].e[0][0] += 1
    h.arrays[2].f[0][0] -= 1  # keeps the triangle equality, breaks the glue
    assert not validate_sun_hive(h, [(1,)] * 4)


def test_validate_rejects_negative_labels():
    h = hand_hive_m4_n1(chain=(-1, 2, -1, 2))
    assert not validate_sun_hive(h, [(1,)] * 4)


def test_validate_zero_hive():
    za = [TriangularHive(2, [[0, 0], [0]], [[0, 0], [0]], [[0, 0], [0]]) for _ in range(4)]
    assert validate_sun_hive(SunHive(2, 4, za), [()] * 4)


def test_validate_dimension_mismatch_raises():
    h = hand_hive_m4_n1()
    with pytest.raises(InvalidInputError):
        validate_sun_hive(h, [(1,)] * 6)
    with pytest.raises(UnsupportedShapeError):
        SunHive(1, 3, h.arrays[:3])


def test_count_spec_values():
    assert count_sun_hives([()] * 4, 2) == 1
    assert count_sun_hives([(1,)] * 4, 1) == 2
    assert count_sun_hives([(1, 0)] * 6, 2) == 2


def test_raw_n1_oracle():
    random.seed(1)
    for _ in range(40):
        m = random.choice([4, 6])
        lams = [(random.randint(0, 3),) for _ in range(m)]
        assert count_sun_hives_raw_n1(lams) == count_sun_hives(lams, 1) == f_sun(lams, 1)


def test_every_enumerated_hive_validates():
    for lams in ([(1, 0)] * 6, [(2, 1), (2, 1), (1, 1), (1, 1), (1, 0), (1, 0)]):
        seen = 0
        for h in iter_sun_hives(lams, 2):
            assert validate_sun_hive(h, lams)
            seen += 1
        assert seen == count_sun_hives(lams, 2) == f_sun(lams, 2) > 0


def test_cross_array_gaps_are_reported_not_enforced():
    from sunlr.hive import cross_array_gaps

    lams = [(2, 1), (2, 1), (1, 1), (1, 1), (1, 0), (1, 0)]
    hives = list(iter_sun_hives(lams, 2))
    assert hives
    gaps = {
        (gap["e_vs_f_wing"], gap["g_vs_g_wing"]) for h in hives for gap in cross_array_gaps(h)
    }
    assert gaps  # observed per instance, whatever their signs


def test_hive_json_roundtrip():
    h = hand_hive_m4_n1()
    assert validate_sun_hive(sun_hive_from_json(sun_hive_to_json(h)), [(1,)] * 4)


def test_linear_system_shape():
    system = build_linear_system([(1,)] * 4, 1)
    entries = {c for coeffs, _ in system.paired_rows() for c in coeffs}
    assert entries <= {-1, 0, 1}
    assert all(isinstance(rhs, Fraction) for _, rhs in system.paired_rows())


def test_linear_system_homogeneity():
    lams = [(2, 1), (1, 0), (1, 0), (2, 1)]
    s1 = build_linear_system(lams, 2)
    s2 = build_linear_system([stretch(l, 3) for l in lams], 2)
    zero = build_linear_system([()] * 4, 2)
    for (a1, b1), (a2, b2), (a0, b0) in zip(s1.paired_rows(), s2.paired_rows(), zero.paired_rows()):
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


def test_m4_n1_integer_points_match_lp():
    system = build_linear_system([(1,)] * 4, 1)
    assert lp_feasible(system)
    assert count_sun_hives([(1,)] * 4, 1) == 2


def test_lp_export_text():
    text = build_linear_system([(1,)] * 4, 1).export_lp_text()
    assert text.startswith("Subject To")
    assert "<=" in text and text.endswith("End")


def test_count_larger_samples_match_all_oracles():
    from sunlr.quiver import build_sun_quiver, dim_si_sun, weight_sigma1

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
        Q = build_sun_quiver(n, len(lams) // 2)
        assert dim_si_sun(Q, weight_sigma1(lams, n)) == value, (lams, n)
        assert positivity(lams, n) == (value > 0), (lams, n)
