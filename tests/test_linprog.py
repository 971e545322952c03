import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sunlr import horn, linprog
from sunlr.linprog import (
    cone_columns,
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


@pytest.mark.parametrize(
    "ineqs, columns, rows, answer",
    [
        # x >= -1 says nothing of the sign: x stays free, split in two
        ([((-1,), 1), ((2,), -1)], 4, 2, True),
        # x >= 1/2 makes x nonnegative and is kept
        ([((-2,), -1), ((1,), 1)], 3, 2, True),
        # x >= 0 makes x nonnegative and is dropped, as is x >= -3
        ([((-1,), 0), ((-1,), 3), ((1,), -1)], 2, 1, False),
        # a sign row on y alone: x is split, y is not
        ([((0, -1), 0), ((1, 1), -1)], 4, 1, True),
    ],
)
def test_simplex_reads_sign_rows(monkeypatch, ineqs, columns, rows, answer):
    shapes = []
    phase1 = linprog._phase1

    def record(cols, rhs, basis):
        shapes.append((len(cols), len(rhs)))
        return phase1(cols, rhs, basis)

    monkeypatch.setattr(linprog, "_phase1", record)
    nvars = len(ineqs[0][0])
    assert simplex_feasible(ineqs, [], nvars) == answer == fourier_motzkin_feasible(ineqs, nvars)
    assert shapes == [(columns, rows)]


def test_sign_row_presolve_matches_fourier_motzkin():
    # free and sign-rowed variables mixed, one-variable rows -c x_k <= b with
    # b < 0, b = 0 and b > 0; a variable whose only such row has b > 0 must
    # stay free
    random.seed(29)
    for _ in range(300):
        nv = random.randint(1, 4)
        ineqs = []
        for k in range(nv):
            for _ in range(random.randint(0, 2)):
                unit = [0] * nv
                unit[k] = -random.randint(1, 3)
                ineqs.append((tuple(unit), random.randint(-2, 2)))
        ineqs += [
            (tuple(random.randint(-3, 3) for _ in range(nv)), random.randint(-4, 4))
            for _ in range(random.randint(0, 5))
        ]
        random.shuffle(ineqs)
        eqs = [
            (tuple(random.randint(-2, 2) for _ in range(nv)), random.randint(-3, 3))
            for _ in range(random.choice((0, 0, 1)))
        ]
        assert checked_feasible(ineqs, eqs, nv) == (
            fourier_motzkin_feasible(ineqs + eqs + [(tuple(-x for x in a), -b) for a, b in eqs], nv)
        ), (ineqs, eqs)


def test_cone_implied_basics():
    assert cone_implied((1, 1), cone_columns([(1, 0), (0, 1)], []))
    assert not cone_implied((1, -1), cone_columns([(1, 0), (0, 1)], []))
    assert cone_implied((1, -1), cone_columns([(1, 0)], [(0, 1)]))
    assert cone_implied((0, 0), cone_columns([], []))


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
        assert cone_implied(c, cone_columns(gens, eqs)) == implied_by_fm(c, gens, eqs, nv), (c, gens, eqs)


def test_cone_implied_degenerate_draws():
    assert cone_implied((0, 0, 0), cone_columns([], []))
    assert cone_implied((0, 0), cone_columns([(1, -1)], [(2, 1)]))
    assert cone_implied((1, -2), cone_columns([(1, -2)], []))
    assert cone_implied((1, -2), cone_columns([(1, -2), (1, -2), (0, 1)], []))
    assert not cone_implied((1, 0), cone_columns([(0, 1), (0, 1)], []))
    assert cone_implied((2, 2), cone_columns([(1, 1), (1, 1), (1, 0)], [(0, 1)]))


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
        value = cone_implied(c, cone_columns(gens, eqs))
        scaled_gens = [integer_multiple(r) for r in gens]
        scaled_eqs = [integer_multiple(h, random.choice((-1, 1))) for h in eqs]
        assert cone_implied(integer_multiple(c), cone_columns(scaled_gens, scaled_eqs)) == value
        assert value == implied_by_fm(c, gens, eqs, nv)


def test_fm_drops_unbounded_directions():
    # single inequality in 2 vars: always feasible
    assert fourier_motzkin_feasible([((1, 1), -5)], 2)


# ---------------------------------------------------------------------------
# the dense-tableau phase 1 that the revised kernel replaced, kept as the
# reference that it must follow pivot for pivot


def _tableau_phase1(rows, basis, ncols) -> bool:
    """Whether the equations ``rows`` have a solution in ncols nonnegative variables.

    Each row is ``[coefficients..., rhs]`` of ints.  ``basis[r]`` is a
    column that is the unit vector of row r (a slack), or None.  Rows with a
    negative rhs are negated and lose their slack; every row without one
    gets an artificial variable.  Phase 1 then minimizes the sum of the
    artificials, with Bland's rule (smallest entering column, ties in the
    ratio test to the smallest basic column) so that it cannot cycle, until
    every artificial is zero (feasible) or no column can enter (infeasible).

    The tableau is kept fraction-free: the true entries are the integer
    entries over ``det``, the last pivot entry, which is the absolute value
    of the basis determinant; every entry is then a minor of the starting
    tableau, so the division in each update is exact.
    """
    for r, row in enumerate(rows):
        if row[-1] < 0:
            rows[r] = [-x for x in row]
            basis[r] = None
    needs_art = [r for r, bc in enumerate(basis) if bc is None]
    tableau = [row[:-1] + [0] * len(needs_art) + row[-1:] for row in rows]
    first_art = ncols
    for k, r in enumerate(needs_art):
        tableau[r][first_art + k] = 1
        basis[r] = first_art + k
    ncols += len(needs_art)
    det = 1

    while True:
        art_rows = [tableau[r] for r, bc in enumerate(basis) if bc >= first_art]
        if not any(row[-1] for row in art_rows):
            # every artificial is zero: this basis is already feasible
            return True
        # Bland: the first column whose reduced cost, times det, is positive:
        # its sum over the rows with a basic artificial, less det if the
        # column is itself artificial.  Reaching index ncols, the rhs, means
        # there is none, so the artificial sum has a positive minimum.
        for enter, col in enumerate(zip(*art_rows)):
            if sum(col) > (det if enter >= first_art else 0):
                break
        if enter == ncols:
            return False
        # ratio test rhs/entry over the positive entries (a positive reduced
        # cost needs one), ties to the smallest basic column; the quotients
        # are compared cross-multiplied
        r = None
        for rr, row in enumerate(tableau):
            e = row[enter]
            if e > 0 and (
                r is None
                or row[-1] * e_best < rhs_best * e
                or (row[-1] * e_best == rhs_best * e and basis[rr] < basis[r])
            ):
                r, e_best, rhs_best = rr, e, row[-1]
        pivot_row = tableau[r]
        piv = pivot_row[enter]
        for rr, row in enumerate(tableau):
            factor = row[enter]
            # a row without the entering column keeps its entries when the
            # denominator does not change; a unit pivot on a unit
            # denominator (most pivots of cone_implied) needs no division
            if rr == r or not (factor or piv != det):
                continue
            if piv == det == 1:
                tableau[rr] = [x - factor * p for x, p in zip(row, pivot_row)]
            else:
                tableau[rr] = [(piv * x - factor * p) // det for x, p in zip(row, pivot_row)]
        det = piv
        basis[r] = enter


class RecordedPhase1:
    """Within ``with``, every call of ``linprog._phase1``, checked against the tableau on exit.

    A call is kept as its columns, rhs and starting basis, with the answer
    and the final basis of the revised kernel; on exit each one is replayed
    on the dense tableau, which must give the same answer and end in the
    same basis.
    """

    def __enter__(self):
        self.calls = []
        self._patch = pytest.MonkeyPatch()
        real = linprog._phase1

        def record(columns, rhs, basis):
            start = (list(rhs), list(basis))
            answer = real(columns, rhs, basis)
            self.calls.append((columns, *start, answer, list(basis)))
            return answer

        self._patch.setattr(linprog, "_phase1", record)
        return self

    def __exit__(self, *exc):
        self._patch.undo()
        if exc[0] is None:
            for columns, rhs, basis, answer, final in self.calls:
                rows = [[0] * len(columns) + [b] for b in rhs]
                for j, (idx, vals) in enumerate(columns):
                    for i, v in zip(idx, vals):
                        rows[i][j] = v
                assert _tableau_phase1(rows, basis, len(columns)) == answer, (columns, rhs)
                assert basis == final, (columns, rhs)


small_rows = st.tuples(st.lists(st.integers(-3, 3), min_size=3, max_size=3).map(tuple), st.integers(-4, 4))


@st.composite
def simplex_systems(draw):
    """Inequalities and equalities over three variables; a quarter degenerate.

    A degenerate draw has a zero rhs everywhere (x = 0 is feasible before
    any pivot) or repeats rows, which ties the ratio test.
    """
    ineqs = draw(st.lists(small_rows, max_size=7))
    eqs = draw(st.lists(small_rows, max_size=2))
    if draw(st.integers(0, 3)) == 0:
        if draw(st.booleans()):
            ineqs = [(a, 0) for a, _ in ineqs]
            eqs = [(a, 0) for a, _ in eqs]
        elif ineqs:
            ineqs += [draw(st.sampled_from(ineqs))] * draw(st.integers(1, 2))
    return ineqs, eqs


@st.composite
def cone_systems(draw):
    """(c, generators, equalities) over up to four coordinates; a quarter degenerate.

    A degenerate draw sets c = 0, makes c a generator, or repeats one.
    """
    nv = draw(st.integers(1, 4))
    vec = st.lists(st.integers(-2, 2), min_size=nv, max_size=nv).map(tuple)
    c = draw(vec)
    gens = draw(st.lists(vec, max_size=6))
    eqs = draw(st.lists(vec, max_size=2))
    if draw(st.integers(0, 3)) == 0:
        kind = draw(st.sampled_from(("zero", "generator", "repeat")))
        if kind == "zero":
            c = (0,) * nv
        elif gens and kind == "generator":
            c = draw(st.sampled_from(gens))
        elif gens:
            gens = gens + [draw(st.sampled_from(gens))] * draw(st.integers(1, 2))
    return c, gens, eqs


@given(simplex_systems())
@settings(max_examples=200, deadline=None)
def test_revised_kernel_follows_the_tableau_on_simplex_systems(system):
    ineqs, eqs = system
    with RecordedPhase1() as rec:
        simplex_feasible(ineqs, eqs, 3)
    assert len(rec.calls) == 1


@given(cone_systems())
@settings(max_examples=200, deadline=None)
def test_revised_kernel_follows_the_tableau_on_cone_systems(system):
    c, gens, eqs = system
    with RecordedPhase1() as rec:
        cone_implied(c, cone_columns(gens, eqs))
    assert len(rec.calls) == 1


@pytest.mark.parametrize("n, m", [(2, 4), (1, 8), (2, 6)])
def test_revised_kernel_follows_the_tableau_on_minimal_facets(monkeypatch, n, m):
    monkeypatch.setattr(horn, "_FACET_CACHE", {})
    with RecordedPhase1() as rec:
        horn.minimal_facets(n, m)
    assert rec.calls
