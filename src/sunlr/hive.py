"""Glued hive polytopes: m triangular arrays around a polygon.

A sun hive is a cyclic arrangement of m triangular edge-labeled arrays of
side n (see ``lr`` for the per-array labeling and rhombus inequalities).
Array r exposes its base g^r[0][j] on the polygon boundary, carrying the
partition attached to that side, and shares its two other sides with the
neighboring arrays under the flip identity

    e^{r+1}[j][0] = f^{r}[n-1-j][j]      (indices cyclic, r+1 through m+1=1).

Geometrically every second array is drawn mirrored, so bases read left to
right for odd r and right to left for even r; at the data level each array
uses the identical index scheme and inequality set, which is what the
m = 4, n = 1 unit test pins down.  Rhombi formed by edges of two different
arrays carry no inequality: with one array flipped there is no canonical
direction for them.

All edge labels are required to be nonnegative.  Without this the
constraint set has a lineality (add t to every e and subtract it from
every f, alternating around the polygon), the fibers over a fixed boundary
are unbounded, and neither the lattice-point count nor the feasibility
equivalence below could hold.  Nonnegativity is exactly what makes the
shared sides weakly decreasing nonnegative, i.e. partitions, so

    #integral sun hives with boundary (l(1), ..., l(m))  =  f_sun(l(1), ..., l(m)),

computed here by decomposing along shared-side labelings: each chain of
side partitions contributes the product of per-array hive counts.

``build_linear_system`` emits the whole constraint set as one exact system
A x <= b with A entries in {-1, 0, 1} and b homogeneous linear forms in the
boundary entries; shared sides are substituted out via the flip identities.
Real feasibility of that system decides positivity of the chain sum: the
vertices of a nonempty polytope are rational (Cramer), a rational point
scales to an integral hive for a stretched boundary, and the zero/nonzero
status of the chain sum is stretch invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceededError, InvalidInputError, UnsupportedShapeError
from .generalized import cyclic_chain_sum, cyclic_slot_candidates
from .linprog import feasible
from .lr import iter_lr_hives, lr_hive_count
from .partitions import canonical, check_partition, is_partition, pad, size


@dataclass
class TriangularHive:
    """One edge-labeled triangular array; row i holds entries j = 0..n-1-i."""

    n: int
    e: list
    f: list
    g: list

    def __post_init__(self):
        for name, arr in (("e", self.e), ("f", self.f), ("g", self.g)):
            if len(arr) != self.n or any(len(arr[i]) != self.n - i for i in range(self.n)):
                raise InvalidInputError(f"{name}-array does not have triangular shape for n={self.n}")


@dataclass
class SunHive:
    n: int
    m: int
    arrays: list[TriangularHive]

    def __post_init__(self):
        if self.m < 4 or self.m % 2:
            raise UnsupportedShapeError(f"sun hives need an even number m >= 4 of arrays, got {self.m}")
        if len(self.arrays) != self.m:
            raise InvalidInputError(f"expected {self.m} arrays, got {len(self.arrays)}")
        for arr in self.arrays:
            if arr.n != self.n:
                raise InvalidInputError("all arrays must have the same side length n")


def _check_boundary(lambdas, n, m):
    if len(lambdas) != m:
        raise InvalidInputError(f"expected {m} boundary sequences, got {len(lambdas)}")
    if m < 4 or m % 2:
        raise UnsupportedShapeError(f"need an even number m >= 4 of boundary sequences, got {m}")
    out = []
    for idx, lam in enumerate(lambdas, start=1):
        parts = check_partition(lam, f"lambda({idx})")
        if len(parts) > n:
            raise InvalidInputError(f"lambda({idx}) = {list(lam)} has more than n={n} parts")
        out.append(pad(parts, n))
    return out


def _array_constraints_hold(arr: TriangularHive) -> bool:
    """Per-array rhombus inequalities, triangle equalities, nonnegativity."""
    n, e, f, g = arr.n, arr.e, arr.f, arr.g
    for i in range(n):
        for j in range(n - i):
            if e[i][j] < 0 or f[i][j] < 0 or g[i][j] < 0:
                return False
            if e[i][j] + f[i][j] != g[i][j]:
                return False
    for i in range(n):
        for j in range(n - i - 1):  # i + j <= n-2
            if e[i][j + 1] + f[i][j] != g[i + 1][j]:
                return False
            if e[i][j] < e[i][j + 1] or g[i][j] < g[i + 1][j]:
                return False
            if f[i + 1][j] < f[i][j] or e[i][j + 1] < e[i + 1][j]:
                return False
            if f[i][j] < f[i][j + 1] or g[i + 1][j] < g[i][j + 1]:
                return False
    return True


def _border_condition_holds(arr: TriangularHive) -> bool:
    n = arr.n
    left = sum(arr.e[i][0] for i in range(n))
    right = sum(arr.f[n - 1 - j][j] for j in range(n))
    base = sum(arr.g[0][j] for j in range(n))
    return left + right == base


def validate_sun_hive(h: SunHive, lambdas) -> bool:
    """Full validity check against a boundary tuple.

    Dimension mismatches raise; constraint violations return False.
    """
    full = _check_boundary(lambdas, h.n, h.m)
    n, m = h.n, h.m
    for r in range(m):
        arr = h.arrays[r]
        if not _array_constraints_hold(arr):
            return False
        if not _border_condition_holds(arr):
            return False
        if any(arr.g[0][j] != full[r][j] for j in range(n)):
            return False
    for r in range(m):
        nxt = h.arrays[(r + 1) % m]
        cur = h.arrays[r]
        if any(nxt.e[j][0] != cur.f[n - 1 - j][j] for j in range(n)):
            return False
    return True


def count_sun_hives(lambdas, n: int, m=None, budget=None) -> int:
    """Number of integral sun hives with the given boundary.

    Decomposes over shared-side chains; per-array counts come from the hive
    enumerator, never the tableau counter, so this is an oracle independent
    of the chain sum it must agree with.
    """
    m = len(lambdas) if m is None else m
    lams = [canonical(l) for l in _check_boundary(lambdas, n, m)]
    if not all(is_partition(l) for l in lams):
        return 0

    def factor(a, b, nu):
        return lr_hive_count(a, b, nu, n)

    return cyclic_chain_sum(tuple(lams), factor, budget=budget)


def iter_sun_hives(lambdas, n: int):
    """Yield every integral sun hive with the given boundary (small cases).

    Chains of shared sides are enumerated first; each chain contributes the
    cartesian product of per-array hive labelings.
    """
    m = len(lambdas)
    lams = [canonical(l) for l in _check_boundary(lambdas, n, m)]
    cands = cyclic_slot_candidates(lams)
    if cands is None:
        return

    def chains(i, chain):
        if i == m:
            yield tuple(chain)
            return
        need = size(lams[i - 1]) - size(chain[-1])
        for a in cands[i]:
            if size(a) == need:
                chain.append(a)
                yield from chains(i + 1, chain)
                chain.pop()

    for a0 in cands[0]:
        for chain in chains(1, [a0]):
            if size(chain[-1]) + size(chain[0]) != size(lams[m - 1]):
                continue
            per_array = []
            dead = False
            for r in range(m):
                labelings = list(iter_lr_hives(chain[r], chain[(r + 1) % m], lams[r], n))
                if not labelings:
                    dead = True
                    break
                per_array.append(labelings)
            if dead:
                continue
            idx = [0] * m
            while True:
                arrays = [
                    TriangularHive(n, *[[row[:] for row in part] for part in per_array[r][idx[r]]])
                    for r in range(m)
                ]
                yield SunHive(n, m, arrays)
                pos = m - 1
                while pos >= 0:
                    idx[pos] += 1
                    if idx[pos] < len(per_array[pos]):
                        break
                    idx[pos] = 0
                    pos -= 1
                if pos < 0:
                    break


def count_sun_hives_raw_n1(lambdas) -> int:
    """Third oracle for n = 1: direct enumeration of the shared-edge cycle.

    With a single triangle per array the system is e_r + f_r = l(r)_1,
    f_r = e_{r+1}, all labels nonnegative; count the integral solutions.
    """
    m = len(lambdas)
    lams = [canonical(l) for l in _check_boundary(lambdas, 1, m)]
    tops = [l[0] if l else 0 for l in lams]
    count = 0
    for e1 in range(0, tops[0] + 1 if tops else 1):
        e = e1
        ok = True
        for r in range(m):
            f = tops[r] - e
            if f < 0:
                ok = False
                break
            e = f
        if ok and e == e1:
            count += 1
    return count


@dataclass
class LinearSystem:
    """Exact inequality system A x <= b describing a sun hive polytope.

    ``ineqs`` and ``eqs`` hold (coeffs, rhs) rows over ``variables``; the
    A x <= b view with equalities encoded as paired inequalities is
    ``paired_rows()``.  Every coefficient is in {-1, 0, 1} and every rhs is
    a homogeneous integer linear form in the boundary entries, evaluated.
    """

    variables: tuple[str, ...]
    ineqs: list
    eqs: list
    n: int = 0
    m: int = 0

    def paired_rows(self):
        rows = list(self.ineqs)
        for coeffs, rhs in self.eqs:
            rows.append((coeffs, rhs))
            rows.append((tuple(-c for c in coeffs), -rhs))
        return rows

    def export_lp_text(self) -> str:
        lines = ["Subject To"]
        for k, (coeffs, rhs) in enumerate(self.paired_rows()):
            terms = []
            for c, name in zip(coeffs, self.variables):
                if c == 0:
                    continue
                sign = "+" if c > 0 else "-"
                mag = abs(c)
                coef = "" if mag == 1 else f"{mag} "
                terms.append(f"{sign} {coef}{name}")
            body = " ".join(terms) if terms else "0"
            lines.append(f" r{k}: {body} <= {rhs}")
        lines.append("End")
        return "\n".join(lines)


def build_linear_system(lambdas, n: int, m=None) -> LinearSystem:
    """All sun hive constraints over the non-external edges.

    Shared sides are substituted out through the flip identities, so the
    variables are each array's f edges plus its e edges off the left border
    and g edges off the base.  External base edges enter the right-hand
    sides as boundary constants.
    """
    m = len(lambdas) if m is None else m
    full = _check_boundary(lambdas, n, m)

    names = []
    index = {}

    def var(name):
        if name not in index:
            index[name] = len(names)
            names.append(name)
        return index[name]

    for r in range(1, m + 1):
        for i in range(n):
            for j in range(n - i):
                var(f"f{r}[{i},{j}]")
    for r in range(1, m + 1):
        for i in range(n):
            for j in range(1, n - i):
                var(f"e{r}[{i},{j}]")
        for i in range(1, n):
            for j in range(n - i):
                var(f"g{r}[{i},{j}]")

    nvars = len(names)

    def e_ref(r, i, j):
        """(var index, constant) pair for e^r[i][j]; shared sides resolve."""
        if j == 0:
            prev = r - 1 if r > 1 else m
            return index[f"f{prev}[{n - 1 - i},{i}]"], 0
        return index[f"e{r}[{i},{j}]"], 0

    def f_ref(r, i, j):
        return index[f"f{r}[{i},{j}]"], 0

    def g_ref(r, i, j):
        if i == 0:
            return None, full[r - 1][j]
        return index[f"g{r}[{i},{j}]"], 0

    ineqs = []
    eqs = []

    def add(kind, plus, minus):
        """Row sum(plus) - sum(minus) (<= or ==) 0, refs as (var, const)."""
        coeffs = [0] * nvars
        rhs = Fraction(0)
        for vi, const in plus:
            if vi is None:
                rhs -= const
            else:
                coeffs[vi] += 1
        for vi, const in minus:
            if vi is None:
                rhs += const
            else:
                coeffs[vi] -= 1
        row = (tuple(coeffs), rhs)
        if kind == "eq":
            eqs.append(row)
        else:
            ineqs.append(row)

    for r in range(1, m + 1):
        for i in range(n):
            for j in range(n - i):
                # triangle: e + f = g
                add("eq", [e_ref(r, i, j), f_ref(r, i, j)], [g_ref(r, i, j)])
        for i in range(n):
            for j in range(n - i - 1):
                add("eq", [e_ref(r, i, j + 1), f_ref(r, i, j)], [g_ref(r, i + 1, j)])
                # rhombus inequalities, written as (smaller) - (larger) <= 0
                add("le", [e_ref(r, i, j + 1)], [e_ref(r, i, j)])
                add("le", [g_ref(r, i + 1, j)], [g_ref(r, i, j)])
                add("le", [f_ref(r, i, j)], [f_ref(r, i + 1, j)])
                add("le", [e_ref(r, i + 1, j)], [e_ref(r, i, j + 1)])
                add("le", [f_ref(r, i, j + 1)], [f_ref(r, i, j)])
                add("le", [g_ref(r, i, j + 1)], [g_ref(r, i + 1, j)])
        # border condition: left side + right side = base
        add(
            "eq",
            [e_ref(r, i, 0) for i in range(n)] + [f_ref(r, n - 1 - j, j) for j in range(n)],
            [g_ref(r, 0, j) for j in range(n)],
        )
    for vi in range(nvars):
        coeffs = [0] * nvars
        coeffs[vi] = -1
        ineqs.append((tuple(coeffs), Fraction(0)))

    return LinearSystem(tuple(names), ineqs, eqs, n, m)


def lp_feasible(system: LinearSystem) -> bool:
    """Exact rational feasibility of the system (no floating point)."""
    return feasible(system.ineqs, system.eqs, len(system.variables))


def positivity(lambdas, n: int, m=None, budget=None) -> bool:
    """Whether the chain multiplicity is positive, decided by LP feasibility.

    ``budget`` caps the number of rows (inequalities plus equations) of the
    system, which depends only on n and m; it is checked before any
    elimination or pivot.
    """
    system = build_linear_system(lambdas, n, m)
    if budget is not None:
        rows = len(system.ineqs) + len(system.eqs)
        if rows > budget:
            raise BudgetExceededError(f"linear program needs {rows} rows, budget is {budget}")
    return lp_feasible(system)


def cross_array_gaps(h: SunHive) -> list[dict]:
    """Observed (not enforced) rhombus gaps across each glued side.

    For every shared edge, the two triangles meeting it from neighboring
    arrays form a rhombus whose wing-edge differences have no canonical
    sign (one array is flipped).  This reports the differences per shared
    edge for debugging; validation never constrains them.
    """
    n, m = h.n, h.m
    out = []
    for r in range(m):
        cur = h.arrays[r]
        nxt = h.arrays[(r + 1) % m]
        for j in range(n):
            i = n - 1 - j
            out.append(
                {
                    "arrays": [r + 1, (r + 1) % m + 1],
                    "edge": j,
                    "e_vs_f_wing": cur.e[i][j] - nxt.f[j][0],
                    "g_vs_g_wing": cur.g[i][j] - nxt.g[j][0],
                }
            )
    return out


def sun_hive_to_json(h: SunHive) -> dict:
    return {
        "n": h.n,
        "m": h.m,
        "arrays": [{"e": a.e, "f": a.f, "g": a.g} for a in h.arrays],
    }


def sun_hive_from_json(d: dict) -> SunHive:
    arrays = [TriangularHive(d["n"], a["e"], a["f"], a["g"]) for a in d["arrays"]]
    return SunHive(d["n"], d["m"], arrays)
