"""Single Littlewood-Richardson coefficients, two independent ways.

``lr_coefficient`` counts LR skew tableaux: semistandard fillings of
nu/lambda with content mu whose reverse reading word (rows top to bottom,
each row right to left) is a lattice word.  The kernel behind it,
``_lr_tableau_count(lambda, nu, box)``, counts those tableaux by content
and so returns a whole row {mu: c^nu_{lambda,mu}} of the skew expansion of
s_{nu/lambda}, over the mu inside box; a single coefficient is the row
with box = mu.  Negative entries in weakly decreasing input are handled
by determinant twists: the coefficient is invariant under
lambda -> lambda + (a^n), nu -> nu + (a^n), and likewise under
mu -> mu + (b^n), nu -> nu + (b^n), so inputs are shifted until all three
are partitions.

``lr_hive_count`` counts integer edge-labeled triangular arrays instead.
Labeling of one array of side n (row index i from the bottom, diagonal
index j from the left, 0 <= i, j, i+j <= n-1):

* ``e[i][j]``  ascending-diagonal edges; the left border e[i][0] carries
  lambda bottom to top,
* ``f[i][j]``  descending-diagonal edges; the antidiagonal f[n-1-j][j]
  carries mu top to bottom,
* ``g[i][j]``  horizontal edges; the bottom row g[0][j] carries nu left to
  right.

Constraints are the triangle equalities e[i][j] + f[i][j] = g[i][j] and
e[i][j+1] + f[i][j] = g[i+1][j], plus, for every rhombus (i+j <= n-2),

    e[i][j] >= e[i][j+1],    g[i][j]   >= g[i+1][j],
    f[i+1][j] >= f[i][j],    e[i][j+1] >= e[i+1][j],
    f[i][j] >= f[i][j+1],    g[i+1][j] >= g[i][j+1].

The enumeration walks columns of e left to right with interval bounds taken
from the rhombus inequalities; it shares no logic with the tableau counter,
so the two serve as genuinely independent oracles for each other.

The tableau rows and the hive counts are memoized.  functools.cache gives
atomic get-or-insert on a single dict, so concurrent use is safe and
schedule independent.
"""

from __future__ import annotations

from functools import cache
from operator import le

from .partitions import (
    IntSeq, canonical, check_negative_tail, check_partition, check_sequence, check_sequences, pad, size,
)


def _normalize_triple(lam, mu, nu, n):
    """Check lam, mu, nu as lambda(1..3) with length-n views, twist them into partitions; None means zero."""
    lam, mu, nu = lams = check_sequences((lam, mu, nu), n)
    for idx, parts in enumerate(lams, start=1):
        check_negative_tail(parts, n, f"lambda({idx})")
    if size(lam) + size(mu) != size(nu):
        return None
    # only a twist pads to n: it needs a negative part, and so n parts
    if all(not x or x[-1] >= 0 for x in (lam, mu, nu)):
        return lam, mu, nu
    lam, mu, nu = (x + (0,) * (n - len(x)) for x in (lam, mu, nu))
    a = max(0, -lam[-1], -nu[-1])
    lam = tuple(x + a for x in lam)
    nu = tuple(x + a for x in nu)
    b = max(0, -mu[-1], -nu[-1])
    mu = tuple(x + b for x in mu)
    nu = tuple(x + b for x in nu)
    return canonical(lam), canonical(mu), canonical(nu)


def lr_coefficient(lam, mu, nu, n: int) -> int:
    """c^nu_{lam,mu} for GL(n), by LR skew tableau enumeration."""
    norm = _normalize_triple(lam, mu, nu, n)
    if norm is None:
        return 0
    lam, mu, nu = norm
    return _lr_tableau_count(lam, nu, mu).get(mu, 0)


@cache
def _lr_tableau_count(lam: IntSeq, nu: IntSeq, box: IntSeq) -> dict[IntSeq, int]:
    """{mu: c^nu_{lam,mu}} over the partitions mu inside ``box``.

    One row of the skew expansion s_{nu/lam} = sum_mu c^nu_{lam,mu} s_mu:
    the LR skew tableaux of shape nu/lam, counted by content, with at most
    box[v-1] entries v.  With box = mu of size |nu| - |lam| the content
    must be mu, so the row holds the single coefficient.  The row is cached
    and shared by every caller, who must not modify it.  Cells are filled
    in reverse-reading-word order (rows top to bottom, each row right to
    left), so the lattice condition is a running-count check.  The
    backtracking keeps its own cursor over the cells, so its depth does not
    grow with the number of cells.  ``lam``, ``nu`` and ``box`` must be
    canonical partitions, so containment is read on them as they are.
    """
    if len(lam) > len(nu) or not all(map(le, lam, nu)):
        return {}
    lam_full = lam + (0,) * (len(nu) - len(lam))
    cells = [(r, c) for r in range(len(nu)) for c in range(nu[r] - 1, lam_full[r] - 1, -1)]
    # a content lies inside both nu and box
    if sum(min(x, y) for x, y in zip(box, nu)) < len(cells):
        return {}
    if not cells:
        return {(): 1}
    index = {cell: k for k, cell in enumerate(cells)}
    # the earlier cells bounding each cell: right (value <=) and above (value <)
    right = [index.get((r, c + 1)) for r, c in cells]
    above = [index.get((r - 1, c)) for r, c in cells]
    nvals = len(box)
    counts = [0] * (nvals + 1)
    vals = [0] * len(cells)  # 0 while a cell holds no value
    row = {}
    k = 0
    while k >= 0:
        v = vals[k]
        if v:
            counts[v] -= 1
        else:
            v = 0 if above[k] is None else vals[above[k]]
        v += 1
        hi = nvals if right[k] is None else vals[right[k]]
        while v <= hi and (counts[v] >= box[v - 1] or (v > 1 and counts[v] >= counts[v - 1])):
            v += 1
        if v > hi:
            vals[k] = 0
            k -= 1
            continue
        vals[k] = v
        counts[v] += 1
        if k + 1 == len(cells):
            # the lattice condition keeps counts weakly decreasing
            mu = tuple(x for x in counts[1:] if x)
            row[mu] = row.get(mu, 0) + 1
        else:
            k += 1
    return row


def iter_lr_hives(lam, mu, nu, n: int):
    """Yield every integer hive labeling (e, f, g) with the given boundary.

    Boundary sequences must be partitions with at most n parts.  Each yield
    is a triple of fresh lists of lists; row i holds entries j = 0..n-1-i.
    """
    lam = pad(lam, n)
    mu = pad(mu, n)
    nu = pad(nu, n)
    if size(lam) + size(mu) != size(nu):
        return
    e = [[None] * (n - i) for i in range(n)]
    f = [[None] * (n - i) for i in range(n)]
    g = [[None] * (n - i) for i in range(n)]
    for i in range(n):
        e[i][0] = lam[i]
    for j in range(n):
        g[0][j] = nu[j]

    # choice points in enumeration order: column j picks e[i][j+1] for i = 0..n-2-j
    steps = [(j, i) for j in range(n - 1) for i in range(n - 1 - j)]
    top = [None] * len(steps)  # value tried last at each choice point, None before the first

    def column_starts(j):
        """Set f[0][j] from the base and check it against its left neighbour."""
        f[0][j] = g[0][j] - e[0][j]
        return f[0][j] >= 0 and (j == 0 or f[0][j] <= f[0][j - 1])

    def place(j, i, val):
        """Put e[i][j+1] = val and propagate g and f, if the rhombi allow it."""
        gg = val + f[i][j]
        # g[i+1][j] >= g[i][j+1]: the right operand is boundary data at
        # i = 0 and was produced by the previous column otherwise
        if i == 0 and gg < g[0][j + 1]:
            return False
        if j > 0 and g[i + 2][j - 1] < gg:
            return False
        ff = gg - e[i + 1][j]
        if ff < 0 or ff < f[i][j]:
            return False
        if j > 0 and ff > f[i + 1][j - 1]:
            return False
        if i == n - 2 - j and ff != mu[j]:  # column j ends on the antidiagonal
            return False
        e[i][j + 1] = val
        g[i + 1][j] = gg
        f[i + 1][j] = ff
        return True

    # backtracking with an explicit cursor k over the choice points, so the
    # depth does not grow with n
    k = 0
    while k >= 0:
        if k == len(steps):
            if column_starts(n - 1) and f[0][n - 1] == mu[n - 1]:
                yield ([r[:] for r in e], [r[:] for r in f], [r[:] for r in g])
            k -= 1
            continue
        j, i = steps[k]
        if top[k] is None:
            if i == 0 and not column_starts(j):
                k -= 1
                continue
            val = e[i + 1][j]
        else:
            val = top[k] + 1
        while val <= e[i][j] and not place(j, i, val):
            val += 1
        if val > e[i][j]:
            top[k] = None
            k -= 1
        else:
            top[k] = val
            k += 1


def lr_hive_count(lam, mu, nu, n: int) -> int:
    """c^nu_{lam,mu} as the number of integer hives with boundary (lam, mu, nu)."""
    parts = []
    for name, seq in (("lambda", lam), ("mu", mu), ("nu", nu)):
        parts.append(check_partition(seq, name))
        if len(parts[-1]) > n:
            return 0
    return _lr_hive_count_cached(*parts, n)


@cache
def _lr_hive_count_cached(lam, mu, nu, n):
    return sum(1 for _ in iter_lr_hives(lam, mu, nu, n))


def rectangular_lr(lam, mu, N: int, n: int) -> int:
    """c^{(N^n)}_{lam,mu}: 1 iff lam_i + mu_{n+1-i} = N for i = 1..n, else 0."""
    lam = check_sequence(lam, "lambda")
    mu = check_sequence(mu, "mu")
    if len(lam) > n or len(mu) > n:
        return 0
    if (lam and lam[-1] < 0) or (mu and mu[-1] < 0):
        return 0
    lam_full = lam + (0,) * (n - len(lam))
    mu_full = mu + (0,) * (n - len(mu))
    ok = all(lam_full[i] + mu_full[n - 1 - i] == N for i in range(n))
    return 1 if ok else 0
