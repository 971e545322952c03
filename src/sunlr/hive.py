"""Glued hive polytopes: m triangular arrays around a polygon.

A sun hive is a cyclic arrangement of m triangular edge-labeled arrays of
side n (see ``lr`` for the per-array labeling and rhombus inequalities).
Array r exposes its base g^r[0][j] on the polygon boundary, carrying the
partition attached to that side, and shares its two other sides with the
neighboring arrays under the flip identity

    e^{r+1}[j][0] = f^{r}[n-1-j][j]      (indices cyclic, r+1 through m+1=1).

Geometrically every second array is drawn mirrored, so bases read left to
right for odd r and right to left for even r; at the data level each array
uses the identical index scheme and inequality set.  Rhombi formed by
edges of two different arrays carry no inequality: with one array flipped
there is no canonical direction for them.

All edge labels are required to be nonnegative.  Without this the
constraint set has a lineality (add t to every e and subtract it from
every f, alternating around the polygon), the fibers over a fixed boundary
are unbounded, and neither the lattice-point count nor the feasibility
equivalence below could hold.  Nonnegativity is exactly what makes the
shared sides weakly decreasing nonnegative, i.e. partitions, so

    #integral sun hives with boundary (l(1), ..., l(m))  =  f_sun(l(1), ..., l(m)),

computed here by decomposing along shared-side labelings: each chain of
side partitions contributes the product of per-array hive counts.

``_hive_rows`` writes the whole constraint set of a shape (n, m) once, as
A x <= b, E x = d with A and E entries in {-1, 0, 1} and every rhs a
homogeneous integer linear form in the boundary entries; shared sides are
substituted out via the flip identities.  These rows are the module's one
encoding of the glued hive conditions: a labeling is a sun hive exactly
when it is a point of them.  ``build_linear_system`` evaluates the forms at
one boundary and is the uncached reference.  Real feasibility
of that system decides positivity of the chain sum: the vertices of a
nonempty polytope are rational (Cramer), a rational point scales to an
integral hive for a stretched boundary, and the zero/nonzero status of the
chain sum is stretch invariant.

Because only the rhs depends on the boundary, ``positivity`` eliminates the
equalities once per shape with the rhs forms carried along
(``reduced_system``, cached for a few shapes).  Per call it evaluates the
leftover boundary equalities, which have no variables; when one of them
is nonzero, ``linprog.feasible`` refuses them alone.  Only a balanced
boundary has its reduced rows evaluated and handed to ``linprog.feasible``.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from operator import mul

from .errors import BudgetExceededError, InvalidInputError
from .generalized import cyclic_chain_sum
from .linprog import _echelon, _reduce, feasible
from .lr import lr_hive_count
from .partitions import check_flag_count, check_sequences, partitions_of_size_in_box, size

# ``positivity``'s cap on system_rows(n, m) without a budget: n <= 15 at m = 4, n <= 12 at m = 6
DEFAULT_LP_ROWS = 5000


def _check_boundary(lambdas, n, m):
    """The m boundary partitions, canonical and unpadded."""
    if len(lambdas) != m:
        raise InvalidInputError(f"expected {m} boundary sequences, got {len(lambdas)}")
    check_flag_count(m)
    return check_sequences(lambdas, n, partitions=True)


def count_sun_hives(lambdas, n: int, *, budget=None) -> int:
    """Number of integral sun hives with the given boundary.

    Decomposes over shared-side chains; per-array counts come from the hive
    enumerator, never the tableau counter, so this is an oracle independent
    of the chain sum it must agree with.
    """
    lams = _check_boundary(lambdas, n, len(lambdas))

    rows = {}

    def row(a, nu, box):
        """{b: c^nu_{a,b}} over the b inside box, one hive count per b, built once per call."""
        key = a, nu, box
        if key not in rows:
            bs = partitions_of_size_in_box(size(nu) - size(a), box)
            rows[key] = {b: c for b in bs if (c := lr_hive_count(a, b, nu, n))}
        return rows[key]

    return cyclic_chain_sum(lams, row, budget=budget)


class LinearSystem(namedtuple("LinearSystem", "variables ineqs eqs")):
    """Exact system A x <= b, E x = d describing a sun hive polytope.

    ``ineqs`` and ``eqs`` hold (coeffs, rhs) rows over ``variables``.  Every
    coefficient is in {-1, 0, 1} and every rhs is a homogeneous integer
    linear form in the boundary entries, evaluated.
    """

    __slots__ = ()


def system_rows(n: int, m: int) -> int:
    """Rows (inequalities plus equations) of ``build_linear_system`` for the shape (n, m).

    Per array: n(n+1)/2 triangles and one border equation, and at each of
    the n(n-1)/2 interior edges one equation and six rhombus inequalities;
    then one nonnegativity row per variable (n(n+1)/2 + n(n-1) per array).
    """
    tri, inner = n * (n + 1) // 2, n * (n - 1) // 2
    return m * (2 * tri + 9 * inner + 1)


def _hive_rows(n: int, m: int):
    """The sun hive constraints of the shape (n, m), right-hand sides kept symbolic.

    Returns (names, ineqs, eqs).  Each row is one integer list: the
    coefficients over ``names``, then the m*n coefficients of its rhs as a
    linear form in the padded boundary, flattened flag-major.  Shared sides
    are substituted out through the flip identities, so the variables are
    each array's f edges plus its e edges off the left border and g edges
    off the base; the base edges g^r[0][j] are the boundary coordinates.
    """
    names = []
    index = {}
    for r in range(m):
        for i in range(n):
            for j in range(n - i):
                index["f", r, i, j] = len(names)
                names.append(f"f{r + 1}[{i},{j}]")
    for r in range(m):
        for i in range(n):
            for j in range(1, n - i):
                index["e", r, i, j] = len(names)
                names.append(f"e{r + 1}[{i},{j}]")
        for i in range(1, n):
            for j in range(n - i):
                index["g", r, i, j] = len(names)
                names.append(f"g{r + 1}[{i},{j}]")
    nvars = len(names)

    def e(r, i, j):
        # a left border edge is the previous array's right border edge
        return index["f", (r - 1) % m, n - 1 - i, i] if j == 0 else index["e", r, i, j]

    def f(r, i, j):
        return index["f", r, i, j]

    def g(r, i, j):
        # a base edge is a boundary coordinate, stored past the variables
        return nvars + r * n + j if i == 0 else index["g", r, i, j]

    ineqs = []
    eqs = []

    def row(plus, minus):
        """sum(plus) - sum(minus) (<= or ==) 0, boundary terms moved to the rhs."""
        out = [0] * (nvars + m * n)
        for k in plus:
            out[k] += 1 if k < nvars else -1
        for k in minus:
            out[k] -= 1 if k < nvars else -1
        return out

    for r in range(m):
        for i in range(n):
            for j in range(n - i):
                # triangle: e + f = g
                eqs.append(row([e(r, i, j), f(r, i, j)], [g(r, i, j)]))
        for i in range(n):
            for j in range(n - i - 1):
                eqs.append(row([e(r, i, j + 1), f(r, i, j)], [g(r, i + 1, j)]))
                # rhombus inequalities, written as (smaller) - (larger) <= 0
                ineqs.append(row([e(r, i, j + 1)], [e(r, i, j)]))
                ineqs.append(row([g(r, i + 1, j)], [g(r, i, j)]))
                ineqs.append(row([f(r, i, j)], [f(r, i + 1, j)]))
                ineqs.append(row([e(r, i + 1, j)], [e(r, i, j + 1)]))
                ineqs.append(row([f(r, i, j + 1)], [f(r, i, j)]))
                ineqs.append(row([g(r, i, j + 1)], [g(r, i + 1, j)]))
        # border condition: left side + right side = base
        eqs.append(
            row(
                [e(r, i, 0) for i in range(n)] + [f(r, n - 1 - j, j) for j in range(n)],
                [g(r, 0, j) for j in range(n)],
            )
        )
    for k in range(nvars):
        ineqs.append(row([], [k]))
    return tuple(names), ineqs, eqs


def _boundary_vector(lams, n):
    """The boundary coordinates: each partition padded to n parts, flag-major."""
    return [x for lam in lams for x in lam + (0,) * (n - len(lam))]


def _evaluate(form, beta) -> int:
    return sum(map(mul, form, beta))


def build_linear_system(lambdas, n: int, m=None) -> LinearSystem:
    """All sun hive constraints over the non-external edges, at one boundary.

    The rows of ``_hive_rows`` with their rhs forms evaluated; external
    base edges enter the right-hand sides as boundary constants.
    """
    from fractions import Fraction  # only this uncached reference needs it: no request loads it

    m = len(lambdas) if m is None else m
    beta = _boundary_vector(_check_boundary(lambdas, n, m), n)
    names, ineqs, eqs = _hive_rows(n, m)
    k = len(names)

    def evaluated(rows):
        return [(tuple(row[:k]), Fraction(_evaluate(row[k:], beta))) for row in rows]

    return LinearSystem(names, evaluated(ineqs), evaluated(eqs))


def lp_feasible(system: LinearSystem) -> bool:
    """Exact rational feasibility of the system (no floating point)."""
    return feasible(system.ineqs, system.eqs, len(system.variables))


class ReducedSystem(namedtuple("ReducedSystem", "live ineqs eqs")):
    """The hive system of one shape (n, m) with its equations eliminated, rhs symbolic.

    ``live`` holds the indices (into ``_hive_rows``' variables) of the
    columns some inequality still uses.  ``ineqs`` are the distinct rows
    (coefficients over ``live``, rhs form) and ``eqs`` the rhs forms of the
    boundary equalities left over, each reading 0 = form . boundary.
    """

    __slots__ = ()


@lru_cache(maxsize=8)
def reduced_system(n: int, m: int) -> ReducedSystem:
    """``_hive_rows(n, m)`` with its equations substituted into its inequalities.

    Only variable columns are pivoted, so the rhs forms are carried along
    by the same fraction-free steps that ``linprog.eliminate_equalities``
    applies to numbers; every reduced row is a positive multiple of a
    combination of input rows, valid at every boundary.  Cached per shape.

    Every live column is a variable of ``_hive_rows`` that no pivot
    removed, so its sign row -x_j <= 0, which touches no pivot column,
    comes through unchanged, with a zero rhs form: the reduced rows imply
    x >= 0.
    """
    names, ineqs, eqs = _hive_rows(n, m)
    k = len(names)
    pivots, residual = _echelon(eqs, k)
    rows = {}
    for row in ineqs:
        row = _reduce(row, pivots)
        if any(row):
            rows[tuple(row)] = None
    live = tuple(j for j in range(k) if any(row[j] for row in rows))
    # a leftover equation and its negative are one condition
    balances = {}
    for row in residual:
        form = tuple(row[k:])
        if next(x for x in form if x) < 0:
            form = tuple(-x for x in form)
        balances[form] = None
    return ReducedSystem(live, tuple((tuple(row[j] for j in live), row[k:]) for row in rows), tuple(balances))


def positivity(lambdas, n: int, m=None, budget=None) -> bool:
    """Whether the chain multiplicity is positive, decided by LP feasibility.

    The leftover boundary equalities of ``reduced_system(n, m)`` are
    evaluated first.  They have no variables, so an unbalanced boundary
    makes one of them read 0 = d with d != 0, and the equality elimination
    refuses them alone, before any inequality is evaluated.  Otherwise the
    reduced inequalities, evaluated at the boundary, are decided by
    ``linprog.feasible``.
    ``budget`` (``DEFAULT_LP_ROWS`` when None) caps ``system_rows(n, m)``,
    the rows of the unreduced system, and is checked before any padding to
    n or any system is built.
    """
    m = len(lambdas) if m is None else m
    lams = _check_boundary(lambdas, n, m)
    cap = DEFAULT_LP_ROWS if budget is None else budget
    rows = system_rows(n, m)
    if rows > cap:
        raise BudgetExceededError(f"linear program needs {rows} rows, budget is {cap}")
    beta = _boundary_vector(lams, n)
    reduced = reduced_system(n, m)
    balance = [_evaluate(form, beta) for form in reduced.eqs]
    if any(balance):
        return feasible([], [((), d) for d in balance], 0)
    ineqs = [(a, _evaluate(form, beta)) for a, form in reduced.ineqs]
    return feasible(ineqs, [], len(reduced.live))
