"""Single Littlewood-Richardson coefficients, two independent ways.

``lr_coefficient`` counts LR skew tableaux: semistandard fillings of
nu/lambda with content mu whose reverse reading word (rows top to bottom,
each row right to left) is a lattice word.  Negative entries in weakly
decreasing input are handled by determinant twists: the coefficient is
invariant under lambda -> lambda + (a^n), nu -> nu + (a^n), and likewise
under mu -> mu + (b^n), nu -> nu + (b^n), so inputs are shifted until all
three are partitions.

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

Both counters are memoized.  functools.cache gives atomic get-or-insert on
a single dict, so concurrent use is safe and schedule independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .errors import InvalidInputError
from .partitions import (
    IntSeq,
    canonical,
    check_sequence,
    contains,
    is_weakly_decreasing,
    pad,
    size,
)


@dataclass(frozen=True)
class LrTriple:
    """A coefficient query c^nu_{lam,mu} in ambient rank n."""

    lam: IntSeq
    mu: IntSeq
    nu: IntSeq
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInputError(f"rank n must be >= 1, got {self.n}")
        for name, seq in (("lambda", self.lam), ("mu", self.mu), ("nu", self.nu)):
            parts = check_sequence(seq, name)
            if len(parts) > self.n:
                raise InvalidInputError(
                    f"{name} {list(seq)} has more than n={self.n} parts"
                )


def _full_view(seq, n, name):
    """Length-n view of a weakly decreasing sequence, validating the tail."""
    parts = check_sequence(seq, name)
    if len(parts) > n:
        raise InvalidInputError(f"{name} {list(seq)} has more than {n} parts")
    full = parts + (0,) * (n - len(parts))
    if not is_weakly_decreasing(full):
        raise InvalidInputError(
            f"{name} {list(seq)} has a negative tail but fewer than n={n} parts"
        )
    return full


def _normalize_triple(lam, mu, nu, n):
    """Twist (lam, nu) and then (mu, nu) into partitions; None means zero."""
    lam = _full_view(lam, n, "lambda")
    mu = _full_view(mu, n, "mu")
    nu = _full_view(nu, n, "nu")
    if size(lam) + size(mu) != size(nu):
        return None
    a = max(0, -lam[-1], -nu[-1])
    lam = tuple(x + a for x in lam)
    nu = tuple(x + a for x in nu)
    b = max(0, -mu[-1], -nu[-1])
    mu = tuple(x + b for x in mu)
    nu = tuple(x + b for x in nu)
    return canonical(lam), canonical(mu), canonical(nu)


def lr_coefficient(lam, mu, nu, n: int) -> int:
    """c^nu_{lam,mu} for GL(n), by LR skew tableau enumeration."""
    if n < 1:
        raise InvalidInputError(f"rank n must be >= 1, got {n}")
    norm = _normalize_triple(lam, mu, nu, n)
    if norm is None:
        return 0
    plam, pmu, pnu = norm
    if max(len(plam), len(pmu), len(pnu)) > n:
        return 0
    return _lr_tableau_count(plam, pmu, pnu)


def lr_coefficient_triple(t: LrTriple) -> int:
    return lr_coefficient(t.lam, t.mu, t.nu, t.n)


@cache
def _lr_tableau_count(lam: IntSeq, mu: IntSeq, nu: IntSeq) -> int:
    """Number of LR skew tableaux of shape nu/lam and content mu.

    Cells are filled in reverse-reading-word order (rows top to bottom, each
    row right to left), so the lattice condition is a running-count check.
    """
    if size(lam) + size(mu) != size(nu):
        return 0
    if not contains(lam, nu) or not contains(mu, nu):
        return 0
    rows = len(nu)
    if rows == 0:
        return 1
    lam_full = lam + (0,) * (rows - len(lam))
    nvals = len(mu)
    if nvals == 0:
        return 1  # lam == nu forced by size and containment
    counts = [0] * (nvals + 1)
    total = 0

    def rec(r, c, cur_row, prev_row):
        nonlocal total
        if c < lam_full[r]:  # row r complete
            if r + 1 == rows:
                total += 1
            else:
                rec(r + 1, nu[r + 1] - 1, {}, cur_row)
            return
        hi = cur_row.get(c + 1, nvals)
        lo = prev_row[c] + 1 if c in prev_row else 1
        for v in range(lo, hi + 1):
            if counts[v] >= mu[v - 1]:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue
            counts[v] += 1
            cur_row[c] = v
            rec(r, c - 1, cur_row, prev_row)
            del cur_row[c]
            counts[v] -= 1

    rec(0, nu[0] - 1, {}, {})
    return total


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

    def snapshot():
        return ([r[:] for r in e], [r[:] for r in f], [r[:] for r in g])

    def do_column(j):
        f[0][j] = g[0][j] - e[0][j]
        if f[0][j] < 0:
            return
        if j > 0 and f[0][j] > f[0][j - 1]:
            return
        if j == n - 1:
            if f[0][j] == mu[j]:
                yield snapshot()
            return
        yield from choose(j, 0)

    def choose(j, i):
        """Pick e[i][j+1] in its rhombus interval, propagate g and f."""
        if i > n - 2 - j:
            if f[n - 1 - j][j] == mu[j]:
                yield from do_column(j + 1)
            return
        for val in range(e[i + 1][j], e[i][j] + 1):
            gg = val + f[i][j]
            # g[i+1][j] >= g[i][j+1]: the right operand is boundary data at
            # i = 0 and was produced by the previous column otherwise
            if i == 0 and gg < g[0][j + 1]:
                continue
            if j > 0 and g[i + 2][j - 1] < gg:
                continue
            ff = gg - e[i + 1][j]
            if ff < 0 or ff < f[i][j]:
                continue
            if j > 0 and ff > f[i + 1][j - 1]:
                continue
            e[i][j + 1] = val
            g[i + 1][j] = gg
            f[i + 1][j] = ff
            yield from choose(j, i + 1)
            e[i][j + 1] = None
            g[i + 1][j] = None
            f[i + 1][j] = None

    yield from do_column(0)


def lr_hive_count(lam, mu, nu, n: int) -> int:
    """c^nu_{lam,mu} as the number of integer hives with boundary (lam, mu, nu)."""
    for name, seq in (("lambda", lam), ("mu", mu), ("nu", nu)):
        parts = check_sequence(seq, name)
        if parts and parts[-1] < 0:
            raise InvalidInputError(f"{name} {list(seq)} must be a partition")
        if len(parts) > n:
            return 0
    return _lr_hive_count_cached(canonical(lam), canonical(mu), canonical(nu), n)


@cache
def _lr_hive_count_cached(lam, mu, nu, n):
    return sum(1 for _ in iter_lr_hives(lam, mu, nu, n))


def rectangular_lr(lam, mu, N: int, n: int) -> int:
    """c^{(N^n)}_{lam,mu}: 1 iff lam_i + mu_{n+1-i} = N for i = 1..n, else 0."""
    lam = canonical(lam)
    mu = canonical(mu)
    if len(lam) > n or len(mu) > n:
        return 0
    if (lam and lam[-1] < 0) or (mu and mu[-1] < 0):
        return 0
    lam_full = lam + (0,) * (n - len(lam))
    mu_full = mu + (0,) * (n - len(mu))
    ok = all(lam_full[i] + mu_full[n - 1 - i] == N for i in range(n))
    return 1 if ok else 0
