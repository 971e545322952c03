import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from sunlr.linprog import (
    cone_implied,
    eliminate_equalities,
    feasible,
    fourier_motzkin_feasible,
    simplex_feasible,
)


def checked_feasible(ineqs, eqs, nvars):
    """feasible(...), asserted equal to two routes that each skip half of it.

    One keeps the equality elimination but decides the rest by
    Fourier-Motzkin; the other runs the simplex on the raw system, with its
    equalities, and eliminates nothing.
    """
    ok, reduced = eliminate_equalities(ineqs, eqs, nvars)
    by_fm = ok and fourier_motzkin_feasible(reduced, nvars)
    by_raw_simplex = simplex_feasible(ineqs, eqs, nvars)
    value = feasible(ineqs, eqs, nvars)
    assert by_fm == by_raw_simplex == value, (ineqs, eqs)
    return value


def test_basic_cases():
    assert not checked_feasible([((-1,), 0), ((1,), -1)], [], 1)
    assert feasible([((-1, 0), 0), ((0, -1), 0)], [((1, 1), 1)], 2)
    assert not feasible([((-1, 0), 0), ((0, -1), 0)], [((1, 1), -1)], 2)


def test_rational_rhs():
    ineqs = [((2,), Fraction(1, 3)), ((-2,), Fraction(1, 3))]
    assert checked_feasible(ineqs, [], 1)
    assert not feasible([((2,), Fraction(-1, 3)), ((-2,), Fraction(-1, 3))], [], 1)


def test_inconsistent_equalities():
    ok, _ = eliminate_equalities([], [((0, 0), 1)], 2)
    assert not ok
    assert not checked_feasible([], [((0, 0), 1)], 2)


def test_empty_system_is_feasible():
    assert checked_feasible([], [], 3)
    assert checked_feasible([], [], 0)


rows = st.tuples(
    st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3).map(tuple),
    st.integers(min_value=-4, max_value=4),
)


@given(st.lists(rows, max_size=6), st.lists(rows, max_size=2))
@settings(max_examples=120, deadline=None)
def test_backends_agree(ineqs, eqs):
    checked_feasible(ineqs, eqs, 3)


wide_rows = st.tuples(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3).map(tuple),
    st.builds(Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=5)),
)


@given(st.lists(wide_rows, max_size=6), st.lists(wide_rows, max_size=2))
@settings(max_examples=150, deadline=None)
def test_backends_agree_wide_coefficients(ineqs, eqs):
    # pivots other than +-1 take the fraction-free tableau's common
    # denominator away from 1, so its exact divisions are exercised
    checked_feasible(ineqs, eqs, 3)


def test_backends_agree_randomized_larger():
    random.seed(2024)
    for _ in range(120):
        nv = random.randint(1, 5)
        ineqs = [
            (tuple(random.randint(-3, 3) for _ in range(nv)), random.randint(-4, 4))
            for _ in range(random.randint(0, 7))
        ]
        eqs = [
            (tuple(random.randint(-2, 2) for _ in range(nv)), random.randint(-3, 3))
            for _ in range(random.randint(0, 2))
        ]
        checked_feasible(ineqs, eqs, nv)


def test_cone_implied_basics():
    assert cone_implied((1, 1), [(1, 0), (0, 1)], [], 2)
    assert not cone_implied((1, -1), [(1, 0), (0, 1)], [], 2)
    assert cone_implied((1, -1), [(1, 0)], [(0, 1)], 2)
    assert cone_implied((0, 0), [], [], 2)


def implied_by_fm(c, gens, eqs, nv):
    """c.x <= 0 is implied  <=>  no x with gens.x <= 0, eqs.x = 0, c.x >= 1.

    Decided by Fourier-Motzkin, which shares no pivot loop with
    ``cone_implied`` (the simplex would: both run ``_phase1``).
    """
    rows = [(r, 0) for r in gens] + [(tuple(-x for x in c), -1)]
    rows += [(h, 0) for h in eqs] + [(tuple(-x for x in h), 0) for h in eqs]
    return not fourier_motzkin_feasible(rows, nv)


def degenerate(c, gens):
    """c and gens with one of the degenerate draws applied, or unchanged.

    c = 0 is implied before any pivot; c equal to a generator, or a
    generator repeated, gives ties in the ratio test and zero-rhs pivots.
    """
    draw = random.randrange(4)
    if draw == 0:
        return tuple(0 for _ in c), gens
    if draw == 1 and gens:
        return random.choice(gens), gens
    if draw == 2 and gens:
        return c, gens + [random.choice(gens)] * random.randint(1, 2)
    return c, gens


def test_cone_implied_matches_primal_feasibility():
    random.seed(5)
    for _ in range(200):
        nv = random.randint(1, 4)
        gens = [tuple(random.randint(-2, 2) for _ in range(nv)) for _ in range(random.randint(0, 5))]
        eqs = [tuple(random.randint(-2, 2) for _ in range(nv)) for _ in range(random.randint(0, 2))]
        c = tuple(random.randint(-2, 2) for _ in range(nv))
        c, gens = degenerate(c, gens)
        assert cone_implied(c, gens, eqs, nv) == implied_by_fm(c, gens, eqs, nv), (c, gens, eqs)


def test_cone_implied_degenerate_draws():
    assert cone_implied((0, 0, 0), [], [], 3)
    assert cone_implied((0, 0), [(1, -1)], [(2, 1)], 2)
    assert cone_implied((1, -2), [(1, -2)], [], 2)
    assert cone_implied((1, -2), [(1, -2), (1, -2), (0, 1)], [], 2)
    assert not cone_implied((1, 0), [(0, 1), (0, 1)], [], 2)
    assert cone_implied((2, 2), [(1, 1), (1, 1), (1, 0)], [(0, 1)], 2)


def test_simplex_zero_rhs_is_feasible():
    # x = 0 solves every homogeneous system: phase 1 exits before a pivot
    random.seed(17)
    for _ in range(60):
        nv = random.randint(1, 4)
        ineqs = [(tuple(random.randint(-3, 3) for _ in range(nv)), 0) for _ in range(random.randint(0, 6))]
        eqs = [(tuple(random.randint(-3, 3) for _ in range(nv)), 0) for _ in range(random.randint(0, 3))]
        assert simplex_feasible(ineqs, eqs, nv)
        assert checked_feasible(ineqs, eqs, nv)


def test_cone_implied_is_scale_invariant():
    # Fraction vectors against integer multiples of them: the cone, and so
    # the answer, does not change when a vector is scaled by a positive
    # factor (an equality by any nonzero one)
    def rational(nv):
        return tuple(Fraction(random.randint(-4, 4), random.randint(1, 5)) for _ in range(nv))

    def integer_multiple(v, sign=1):
        mult = sign * random.randint(1, 9) * math.lcm(*(x.denominator for x in v))
        return tuple(int(x * mult) for x in v)

    random.seed(11)
    for _ in range(120):
        nv = random.randint(1, 4)
        gens = [rational(nv) for _ in range(random.randint(0, 5))]
        eqs = [rational(nv) for _ in range(random.randint(0, 2))]
        c, gens = degenerate(rational(nv), gens)
        value = cone_implied(c, gens, eqs, nv)
        scaled_gens = [integer_multiple(r) for r in gens]
        scaled_eqs = [integer_multiple(h, random.choice((-1, 1))) for h in eqs]
        assert cone_implied(integer_multiple(c), scaled_gens, scaled_eqs, nv) == value
        assert value == implied_by_fm(c, gens, eqs, nv)


def test_fm_drops_unbounded_directions():
    # single inequality in 2 vars: always feasible
    assert fourier_motzkin_feasible([((1, 1), -5)], 2)
