"""Exact rational linear feasibility.

No floating point anywhere: coefficients are ints or fractions.Fraction.

* ``feasible`` decides {Ax <= b, Ex = d}: ``eliminate_equalities``
  substitutes the equalities out, the columns they leave zero in every row
  are dropped, and ``simplex_feasible`` decides the reduced inequalities.
* ``simplex_feasible`` decides {Ax <= b, Ex = d} directly by a phase-1
  simplex with Bland's rule (termination guaranteed).
* ``cone_implied`` decides whether c.x <= 0 follows from a homogeneous
  system {rows.x <= 0, eqs.x = 0}; by LP duality this is membership of c in
  the cone spanned by the rows plus the span of the equalities, solved as a
  small phase-1 problem in the dual (one equation per ambient coordinate).
* ``fourier_motzkin_feasible`` decides Ax <= b by variable elimination.  It
  is exponential in the worst case and no route of the package uses it: it
  is the reference the tests compare the simplex against, sharing no
  arithmetic with it.

The simplex and ``cone_implied`` share one pivot loop, ``_phase1``.
Rows are dense sequences of length nvars; a constraint is (coeffs, rhs).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import InvalidInputError


def _normalize_int_row(coeffs, rhs):
    """Scale a rational row to coprime integers (returns tuple, int)."""
    denoms = [Fraction(c).denominator for c in coeffs] + [Fraction(rhs).denominator]
    mult = 1
    for d in denoms:
        mult = mult * d // gcd(mult, d)
    ints = [int(Fraction(c) * mult) for c in coeffs]
    r = int(Fraction(rhs) * mult)
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    g = gcd(g, abs(r))
    if g > 1:
        ints = [c // g for c in ints]
        r = r // g
    return tuple(ints), r


def eliminate_equalities(ineqs, eqs, nvars):
    """Substitute out equality-pinned variables.

    Returns (status, new_ineqs) with status False when the equalities alone
    are inconsistent.  Output inequalities still use the original variable
    indexing; eliminated columns are identically zero.  Rows carry the rhs
    as their last entry internally.
    """
    eq_rows = [[Fraction(c) for c in a] + [Fraction(b)] for a, b in eqs]
    ineq_rows = [[Fraction(c) for c in a] + [Fraction(b)] for a, b in ineqs]
    for idx in range(len(eq_rows)):
        row = eq_rows[idx]
        pivot = None
        for j in range(nvars):
            if row[j] != 0:
                pivot = j
                if abs(row[j]) == 1:
                    break
        if pivot is None:
            if row[nvars] != 0:
                return False, []
            continue
        pc = row[pivot]
        for other in eq_rows[idx + 1 :]:
            cj = other[pivot]
            if cj:
                factor = cj / pc
                for j in range(nvars + 1):
                    other[j] -= factor * row[j]
        for other in ineq_rows:
            cj = other[pivot]
            if cj:
                factor = cj / pc
                for j in range(nvars + 1):
                    other[j] -= factor * row[j]
    return True, [(tuple(r[:nvars]), r[nvars]) for r in ineq_rows]


_FM_MAX_ROWS = 20000


def fourier_motzkin_feasible(ineqs, nvars) -> bool:
    """Feasibility of Ax <= b over the rationals by variable elimination."""
    rows = set()
    for a, b in ineqs:
        ia, ib = _normalize_int_row(a, b)
        rows.add((ia, ib))
    for ia, ib in rows:
        if all(c == 0 for c in ia) and ib < 0:
            return False
    active = set(rows)
    while True:
        # pick the live variable with the fewest pairings
        counts = {}
        for ia, _ in active:
            for j, c in enumerate(ia):
                if c:
                    pos, neg = counts.get(j, (0, 0))
                    counts[j] = (pos + (c > 0), neg + (c < 0))
        live = {j: pn for j, pn in counts.items() if pn[0] or pn[1]}
        if not live:
            return all(b >= 0 for a, b in active)
        var = min(live, key=lambda j: live[j][0] * live[j][1])
        pos, neg, rest = [], [], set()
        for a, b in active:
            if a[var] > 0:
                pos.append((a, b))
            elif a[var] < 0:
                neg.append((a, b))
            else:
                rest.add((a, b))
        for ap, bp in pos:
            for an, bn in neg:
                s, t = -an[var], ap[var]
                comb = tuple(s * x + t * y for x, y in zip(ap, an))
                rhs = s * bp + t * bn
                ia, ib = _normalize_int_row(comb, rhs)
                if all(c == 0 for c in ia):
                    if ib < 0:
                        return False
                    continue
                rest.add((ia, ib))
        active = rest
        if len(active) > _FM_MAX_ROWS:
            raise InvalidInputError(f"Fourier-Motzkin exceeded {_FM_MAX_ROWS} rows")


def _phase1(rows, basis, ncols) -> bool:
    """Whether the equations ``rows`` have a solution in ncols nonnegative variables.

    Each row is ``[coefficients..., rhs]`` of Fractions.  ``basis[r]`` is a
    column that is the unit vector of row r (a slack), or None.  Rows with a
    negative rhs are negated and lose their slack; every row without one
    gets an artificial variable.  Phase 1 then minimizes the sum of the
    artificials, with Bland's rule (smallest entering column, ties in the
    ratio test to the smallest basic column) so that it cannot cycle.
    """
    for r, row in enumerate(rows):
        if row[-1] < 0:
            rows[r] = [-x for x in row]
            basis[r] = None
    needs_art = [r for r, bc in enumerate(basis) if bc is None]
    tableau = [row[:-1] + [Fraction(0)] * len(needs_art) + row[-1:] for row in rows]
    first_art = ncols
    for k, r in enumerate(needs_art):
        tableau[r][first_art + k] = Fraction(1)
        basis[r] = first_art + k
    ncols += len(needs_art)

    while True:
        # reduced cost of column j: its sum over the rows with a basic
        # artificial, less 1 if j is itself artificial
        art_rows = [tableau[r] for r, bc in enumerate(basis) if bc >= first_art]
        enter = next(
            (j for j in range(ncols) if sum(row[j] for row in art_rows) > (j >= first_art)),
            None,
        )
        if enter is None:
            return all(row[-1] == 0 for row in art_rows)
        # a positive reduced cost needs a positive entry in some row
        _, _, r = min(
            (row[-1] / row[enter], basis[rr], rr)
            for rr, row in enumerate(tableau)
            if row[enter] > 0
        )
        piv = tableau[r][enter]
        pivot_row = tableau[r] = [x / piv for x in tableau[r]]
        for rr, row in enumerate(tableau):
            factor = row[enter]
            if rr != r and factor:
                tableau[rr] = [x - factor * p for x, p in zip(row, pivot_row)]
        basis[r] = enter


def simplex_feasible(ineqs, eqs, nvars) -> bool:
    """Phase-1 simplex feasibility for {Ax <= b, Ex = d}, x free.

    Free variables are split x = u - v and every inequality gets a slack,
    which is its starting basic variable when its rhs is nonnegative.
    """
    n_ineq = len(ineqs)
    rows = [
        [Fraction(c) for c in a] + [-Fraction(c) for c in a] + [Fraction(0)] * n_ineq + [Fraction(b)]
        for a, b in [*ineqs, *eqs]
    ]
    basis = [2 * nvars + i for i in range(n_ineq)] + [None] * len(eqs)
    for i in range(n_ineq):
        rows[i][basis[i]] = Fraction(1)
    return _phase1(rows, basis, 2 * nvars + n_ineq)


def feasible(ineqs, eqs, nvars) -> bool:
    """Exact feasibility of {Ax <= b, Ex = d} over the rationals."""
    ok, reduced = eliminate_equalities(ineqs, eqs, nvars)
    if not ok:
        return False
    live = [j for j in range(nvars) if any(a[j] for a, _ in reduced)]
    return simplex_feasible([(tuple(a[j] for j in live), b) for a, b in reduced], [], len(live))


def cone_implied(c, rows, eqs, nvars) -> bool:
    """Does c.x <= 0 follow from {r.x <= 0 for r in rows, h.x = 0 for h in eqs}?

    Equivalent, by LP duality for homogeneous systems, to
    c = sum y_r r + sum t_h h with y >= 0, t free; decided as a phase-1
    problem with one equation per coordinate and one variable per row.
    """
    # variables: y_r >= 0, t_h split into two nonnegative halves
    cols = [tuple(Fraction(x) for x in r) for r in rows]
    for h in eqs:
        h = tuple(Fraction(x) for x in h)
        cols.append(h)
        cols.append(tuple(-x for x in h))
    eq_rows = [[col[k] for col in cols] + [Fraction(c[k])] for k in range(nvars)]
    return _phase1(eq_rows, [None] * nvars, len(cols))
