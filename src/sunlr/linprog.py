"""Exact rational linear feasibility in integer arithmetic.

No floating point anywhere: inputs are ints or fractions.Fraction, and each
input row is scaled once, by a positive factor, to coprime integers.  Every
later step computes in Python integers; no Fraction is made here.

* ``feasible`` decides {Ax <= b, Ex = d}: ``eliminate_equalities``
  substitutes the equalities out, the columns they leave zero in every row
  are dropped, one row is kept per direction (``_directions`` and
  ``_tightest_rows``), and ``simplex_feasible`` decides the reduced
  inequalities.
* ``_echelon`` is that elimination's pivot loop over any number of
  trailing rhs columns; ``hive`` runs it once per shape on rhs forms, and
  groups the reduced rows by direction once per shape too.
* ``simplex_feasible`` decides {Ax <= b, Ex = d} directly by a phase-1
  simplex with Bland's rule (termination guaranteed).  A variable with a
  sign row -c x_k <= b, c > 0, b <= 0 is nonnegative and needs one column;
  only the others are split into two.
* ``cone_implied`` decides whether c.x <= 0 follows from a homogeneous
  system {rows.x <= 0, eqs.x = 0}; by LP duality this is membership of c in
  the cone spanned by the rows plus the span of the equalities, solved as a
  small phase-1 problem in the dual (one equation per ambient coordinate,
  one variable per column of ``cone_columns(rows, eqs)``, which a caller
  can build once for many targets).
* ``fourier_motzkin_feasible`` decides Ax <= b by variable elimination.  It
  is exponential in the worst case and no route of the package uses it: it
  is the reference the tests compare the simplex and ``cone_implied``
  against, sharing no arithmetic with either.

The simplex and ``cone_implied`` share one pivot loop, ``_phase1``, a
revised simplex (Chvatal 1983) over sparse columns ``(indices, values)``.
It never forms the tableau: it keeps det B^-1 by columns and det B^-1 b,
prices a column as one dot product with the sum of the rows of det B^-1
that hold an artificial variable, and forms only the entering column.
Both are kept fraction-free: integers over one positive common denominator
``det``, updated by exact-division pivots (Edmonds 1967, Bareiss 1968), so
every entry is a minor of the input and the numbers stay small.  The pivoting
rule is Bland's, as in a rational tableau; the ratio test compares
rhs/entry quotients cross-multiplied.  Phase 1 stops at the first basis in
which every artificial variable is zero: that basis is feasible, and the
pivots Bland's rule would still take from it are degenerate.  Its pivots
are those of the dense fraction-free tableau, which the tests keep as its
reference.
Rows are dense sequences of length nvars; a constraint is (coeffs, rhs).
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul

from .errors import InvalidInputError


def _normalize_int_row(coeffs, rhs):
    """Scale a rational row by a positive factor to coprime integers (returns tuple, int)."""
    row = (*coeffs, rhs)
    if all(x.denominator == 1 for x in row):
        ints = [x.numerator for x in row]
    else:
        mult = lcm(*(x.denominator for x in row))
        ints = [x.numerator * (mult // x.denominator) for x in row]
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints[:-1]), ints[-1]


def _substitute(row, pivot_row, j):
    """``row`` with column j cleared by a positive multiple of itself, in lowest terms.

    The result is |p| row - sgn(p) c pivot_row, where p and c are the column
    j entries of ``pivot_row`` and ``row``; as the multiplier of ``row`` is
    positive, an inequality keeps its sense.
    """
    c, p = row[j], pivot_row[j]
    if p < 0:
        c, p = -c, -p
    new = [p * x - c * y for x, y in zip(row, pivot_row)]
    g = gcd(*new)
    return [x // g for x in new] if g > 1 else new


def _echelon(eq_rows, ncols):
    """Reduce integer equality rows among themselves, pivoting in the first ncols columns.

    ``eq_rows`` is reduced in place.  Returns (pivots, residual): ``pivots``
    lists (row, column) in the order taken, and ``residual`` the rows that
    are zero in the first ncols columns but not beyond them.  For a numeric
    system (one trailing rhs entry) a residual row is a contradiction; for
    a symbolic one (rhs forms) it is a condition on the parameters.
    """
    pivots = []
    residual = []
    for idx, row in enumerate(eq_rows):
        # the first unit entry, else the last nonzero one
        pivot = None
        for j in range(ncols):
            if row[j]:
                pivot = j
                if abs(row[j]) == 1:
                    break
        if pivot is None:
            if any(row[ncols:]):
                residual.append(row)
            continue
        for k in range(idx + 1, len(eq_rows)):
            if eq_rows[k][pivot]:
                eq_rows[k] = _substitute(eq_rows[k], row, pivot)
        pivots.append((row, pivot))
    return pivots, residual


def _reduce(row, pivots):
    """``row`` with every pivot column cleared, a positive multiple of the input."""
    for pivot_row, pivot in pivots:
        if row[pivot]:
            row = _substitute(row, pivot_row, pivot)
    return row


def eliminate_equalities(ineqs, eqs, nvars):
    """Substitute out equality-pinned variables.

    Returns (status, new_ineqs) with status False when the equalities alone
    are inconsistent; the inequalities are then not touched.  Output
    inequalities are integer rows (positive multiples of the substituted
    ones) and still use the original variable indexing; eliminated columns
    are identically zero.  Rows carry the rhs as their last entry
    internally.
    """
    pivots, residual = _echelon([[*a, b] for a, b in (_normalize_int_row(a, b) for a, b in eqs)], nvars)
    if residual:
        return False, []
    reduced = []
    for a, b in ineqs:
        ia, ib = _normalize_int_row(a, b)
        row = _reduce([*ia, ib], pivots)
        reduced.append((tuple(row[:nvars]), row[nvars]))
    return True, reduced


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


def _sparse(vec):
    """The nonzero entries of an integer vector as a column (indices, values)."""
    idx = tuple(k for k, x in enumerate(vec) if x)
    return idx, tuple(vec[k] for k in idx)


def _pivot(vec, col, r, piv, det):
    """``vec``, a column of inv or beta, after the pivot on entry r of ``col``.

    Every entry but the one in the pivot row becomes (piv x - p c) / det,
    with p the entry of ``vec`` in that row, which stays.
    """
    p = vec[r]
    # zero in the pivot row: no change while the denominator does not
    # change; a unit pivot on a unit denominator (most pivots of
    # cone_implied) needs no division
    if not p:
        return vec if piv == det else [piv * x // det for x in vec]
    if piv == det == 1:
        new = [x - p * c for x, c in zip(vec, col)]
    else:
        new = [(piv * x - p * c) // det for x, c in zip(vec, col)]
    new[r] = p
    return new


def _phase1(columns, rhs, basis) -> bool:
    """Whether sum_j x_j columns[j] = rhs has a solution with every x_j >= 0.

    ``columns[j]`` is a sparse column ``(indices, values)`` of ints over the
    len(rhs) equations and ``rhs`` a list of ints; neither is modified.
    ``basis[r]`` is a column that is the unit vector of row r (a slack), or
    None.  Rows with a negative rhs are negated and lose their slack; every
    row without one gets an artificial variable, numbered after the columns
    in row order.  Phase 1 then minimizes the sum of the artificials, with
    Bland's rule (smallest entering column, ties in the ratio test to the
    smallest basic column) so that it cannot cycle, until every artificial
    is zero (feasible) or no column can enter (infeasible).  ``basis`` is
    updated in place and ends as the last basis.

    The simplex is revised and fraction-free.  With B the basis of the
    system with its rows negated as above and S the diagonal of row signs,
    it keeps ``inv`` = det B^-1 S by columns and ``beta`` = det B^-1 S rhs,
    where ``det``, the last pivot entry, is |det B|.  Column j of the
    tableau is then inv a_j, every entry is a minor of the input, and each
    update divides exactly.
    """
    m = len(rhs)
    first_art = len(columns)
    sign = [1] * m
    for r, b in enumerate(rhs):
        if b < 0:
            sign[r] = -1
            basis[r] = None
    beta = [abs(b) for b in rhs]
    inv = [[0] * m for _ in range(m)]
    for i in range(m):
        inv[i][i] = sign[i]
    needs_art = [r for r, bc in enumerate(basis) if bc is None]
    for k, r in enumerate(needs_art):
        basis[r] = first_art + k
    det = 1

    while True:
        art = [r for r, bc in enumerate(basis) if bc >= first_art]
        if not any(beta[r] for r in art):
            # every artificial is zero: this basis is already feasible
            return True
        # Bland: the first column whose reduced cost, times det, is positive:
        # w.a_j, w the sum of the rows of inv with a basic artificial, less
        # det if the column is itself artificial
        w = [sum(map(vec.__getitem__, art)) for vec in inv]
        price = w.__getitem__
        for enter, (idx, vals) in enumerate(columns):
            if sum(map(mul, map(price, idx), vals)) > 0:
                col = [sum(map(mul, vals, row)) for row in zip(*map(inv.__getitem__, idx))]
                break
        else:
            for k, rr in enumerate(needs_art):
                if sign[rr] * w[rr] > det:
                    enter = first_art + k
                    col = [sign[rr] * x for x in inv[rr]]
                    break
            else:
                # the artificial sum has a positive minimum
                return False
        # ratio test beta/entry over the positive entries (a positive reduced
        # cost needs one), ties to the smallest basic column; the quotients
        # are compared cross-multiplied
        r = None
        for rr, e in enumerate(col):
            if e > 0 and (
                r is None
                or beta[rr] * e_best < rhs_best * e
                or (beta[rr] * e_best == rhs_best * e and basis[rr] < basis[r])
            ):
                r, e_best, rhs_best = rr, e, beta[rr]
        piv = col[r]
        inv = [_pivot(vec, col, r, piv, det) for vec in inv]
        beta = _pivot(beta, col, r, piv, det)
        det = piv
        basis[r] = enter


def simplex_feasible(ineqs, eqs, nvars) -> bool:
    """Phase-1 simplex feasibility for {Ax <= b, Ex = d}.

    A one-variable inequality -c x_k <= b with c > 0 and b <= 0 (a sign
    row) bounds x_k below by -b/c >= 0, so x_k is nonnegative and gets one
    column; every other variable is free and is split x = u - v.  On a
    nonnegative variable a one-variable row -c x_k <= b with b >= 0 holds
    everywhere and is dropped.  Every inequality kept gets a slack, which
    is its starting basic variable when its rhs is nonnegative.  The
    columns are those of u, then v, then the slacks.
    """
    rows = [_normalize_int_row(a, b) for a, b in ineqs]
    sign_var = {}
    for i, (a, _) in enumerate(rows):
        nonzero = [k for k, x in enumerate(a) if x]
        if len(nonzero) == 1 and a[nonzero[0]] < 0:
            sign_var[i] = nonzero[0]
    nonneg = {k for i, k in sign_var.items() if rows[i][1] <= 0}
    rows = [row for i, row in enumerate(rows) if not (sign_var.get(i) in nonneg and row[1] >= 0)]
    n_ineq = len(rows)
    rows += [_normalize_int_row(a, b) for a, b in eqs]
    u = [_sparse([a[j] for a, _ in rows]) for j in range(nvars)]
    v = [(idx, tuple(-x for x in vals)) for j, (idx, vals) in enumerate(u) if j not in nonneg]
    first_slack = len(u) + len(v)
    slacks = [((i,), (1,)) for i in range(n_ineq)]
    basis = [first_slack + i for i in range(n_ineq)] + [None] * len(eqs)
    return _phase1(u + v + slacks, [b for _, b in rows], basis)


def _directions(coeffs):
    """The rows of ``coeffs`` grouped by direction a/gcd(a), in order of first appearance.

    Each group lists (row index, gcd(a)); a zero row is its own direction.
    """
    groups = {}
    for k, a in enumerate(coeffs):
        g = gcd(*a) or 1
        groups.setdefault(tuple(x // g for x in a), []).append((k, g))
    return [tuple(group) for group in groups.values()]


def _tightest_rows(coeffs, rhs, directions):
    """One row (coeffs[k], rhs[k]) per group of ``directions``: the smallest rhs[k]/gcd, the first on ties.

    Within a direction that row implies the others, so the system keeps its
    solutions.
    """
    rows = []
    for group in directions:
        k, g = group[0]
        for k2, g2 in group[1:]:
            if rhs[k2] * g < rhs[k] * g2:
                k, g = k2, g2
        rows.append((coeffs[k], rhs[k]))
    return rows


def feasible(ineqs, eqs, nvars) -> bool:
    """Exact feasibility of {Ax <= b, Ex = d} over the rationals."""
    ok, reduced = eliminate_equalities(ineqs, eqs, nvars)
    if not ok:
        return False
    live = [j for j in range(nvars) if any(a[j] for a, _ in reduced)]
    coeffs = [tuple(a[j] for j in live) for a, _ in reduced]
    rows = _tightest_rows(coeffs, [b for _, b in reduced], _directions(coeffs))
    return simplex_feasible(rows, [], len(live))


def cone_columns(rows, eqs) -> list:
    """The sparse columns of ``cone_implied`` for {r.x <= 0 for r in rows, h.x = 0 for h in eqs}.

    Each vector is scaled to coprime integers by a positive factor, which
    changes neither the cone nor the answer; each equality gives two
    columns, h and -h, the halves of its free multiplier.
    """
    cols = [_sparse(_normalize_int_row(r, 0)[0]) for r in rows]
    for h in eqs:
        idx, vals = _sparse(_normalize_int_row(h, 0)[0])
        cols += [(idx, vals), (idx, tuple(-x for x in vals))]
    return cols


def cone_implied(c, columns) -> bool:
    """Does c.x <= 0 follow from the homogeneous system of ``columns``?

    ``columns`` comes from ``cone_columns(rows, eqs)``, over len(c)
    coordinates.  By LP duality for homogeneous systems the answer is
    c = sum y_r r + sum t_h h with y >= 0, t free: a phase-1 problem with
    one equation per coordinate and one variable per column.
    """
    target = _normalize_int_row(c, 0)[0]
    return _phase1(columns, list(target), [None] * len(target))
