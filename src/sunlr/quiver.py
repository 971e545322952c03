"""The 2k-flag quiver, its standard dimension vector, and weight machinery.

Vertices are pairs (j, i) with 1 <= j <= n along flag i, 1 <= i <= 2k; the
(n, i) are the central vertices of the 2k-gon.  Flag i is an equioriented
A_n chain directed into its central vertex when i is even and out of it
when i is odd; the central arrow joining (n, i) and (n, i+1) always runs
from the even-numbered vertex to the odd one.  Index arithmetic on i wraps
cyclically, so (n, 2k+1) = (n, 1).

Dimension vectors and weights are plain dicts keyed by vertex.  The
standard dimension vector is beta(j, i) = j.

``dim_si_sun`` evaluates the dimension of a weight space of semi-invariants
for beta: zero unless (-1)^i sigma(j,i) >= 0 everywhere, and otherwise the
cyclic chain sum on the partitions

    phi(i) = conjugate of (n^{s_n}, ..., 1^{s_1}),   s_j = (-1)^i sigma(j,i),

which reduces the computation to ``generalized.f_sun``.  Feeding it the
weight built by ``weight_sigma1`` recovers the chain multiplicity of the
attached sequences, which is the cross-check the tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInputError, UnsupportedShapeError
from .generalized import f_sun
from .partitions import IntSeq, check_sequence, check_subset, conjugate, pad

Vertex = tuple[int, int]
VertexMap = dict[Vertex, int]


@dataclass(frozen=True)
class SunQuiver:
    n: int
    k: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInputError(f"flag length n must be >= 1, got {self.n}")
        if self.k < 2:
            raise UnsupportedShapeError(f"need k >= 2 central pairs, got k={self.k}")

    @property
    def m(self) -> int:
        return 2 * self.k

    def vertices(self) -> list[Vertex]:
        return [(j, i) for i in range(1, self.m + 1) for j in range(1, self.n + 1)]

    def flag_arrows(self) -> list[tuple[Vertex, Vertex]]:
        out = []
        for i in range(1, self.m + 1):
            for j in range(1, self.n):
                if i % 2 == 0:  # flag points into the central vertex
                    out.append(((j, i), (j + 1, i)))
                else:
                    out.append(((j + 1, i), (j, i)))
        return out

    def central_arrows(self) -> list[tuple[Vertex, Vertex]]:
        out = []
        for i in range(1, self.m + 1):
            nxt = i % self.m + 1
            if i % 2 == 0:  # arrows run even -> odd
                out.append(((self.n, i), (self.n, nxt)))
            else:
                out.append(((self.n, nxt), (self.n, i)))
        return out

    def arrows(self) -> list[tuple[Vertex, Vertex]]:
        return self.flag_arrows() + self.central_arrows()


def build_sun_quiver(n: int, k: int) -> SunQuiver:
    return SunQuiver(n, k)


def _check_defined(Q, vec, what):
    missing = [v for v in Q.vertices() if v not in vec]
    if missing:
        raise InvalidInputError(f"{what} undefined at vertices {missing[:4]}")


def euler_form(Q: SunQuiver, a: VertexMap, b: VertexMap) -> int:
    """<a, b> = sum_x a(x) b(x) - sum_{arrows} a(tail) b(head)."""
    _check_defined(Q, a, "dimension vector")
    _check_defined(Q, b, "dimension vector")
    total = sum(a[v] * b[v] for v in Q.vertices())
    total -= sum(a[t] * b[h] for t, h in Q.arrows())
    return total


def sigma_apply(sigma: VertexMap, a: VertexMap) -> int:
    """sigma(a) = sum_x sigma(x) a(x) over the common vertex set."""
    if set(sigma) != set(a):
        raise InvalidInputError("weight and dimension vector live on different vertex sets")
    return sum(sigma[v] * a[v] for v in sigma)


def weight_sigma1(lambdas, n: int) -> VertexMap:
    """The weight whose weight space dimension is the chain multiplicity.

    sigma(j, i) = (-1)^i (l(i)_j - l(i)_{j+1}) for j < n and
    sigma(n, i) = (-1)^i l(i)_n, with each l(i) padded to exactly n parts.
    """
    m = len(lambdas)
    if m < 4 or m % 2:
        raise UnsupportedShapeError(f"need an even number m >= 4 of sequences, got {m}")
    full = []
    for idx, lam in enumerate(lambdas, start=1):
        parts = check_sequence(lam, f"lambda({idx})")
        signed = parts and parts[-1] < 0
        if signed and len(parts) != n:
            raise InvalidInputError(
                f"lambda({idx}) = {list(parts)} has negative tail but fewer than n={n} parts"
            )
        full.append(parts if signed else pad(parts, n))
    sigma: VertexMap = {}
    for i in range(1, m + 1):
        lam = full[i - 1]
        sgn = 1 if i % 2 == 0 else -1
        for j in range(1, n):
            sigma[(j, i)] = sgn * (lam[j - 1] - lam[j])
        sigma[(n, i)] = sgn * lam[n - 1]
    return sigma


def dim_si_sun(Q: SunQuiver, sigma: VertexMap) -> int:
    """Weight space dimension for the standard dimension vector.

    Zero when some (-1)^i sigma(j, i) is negative; otherwise the chain sum
    over the column-multiplicity partitions phi(i) read off from sigma.
    """
    _check_defined(Q, sigma, "weight")
    n, m = Q.n, Q.m
    phis = []
    for i in range(1, m + 1):
        sgn = 1 if i % 2 == 0 else -1
        mult = [sgn * sigma[(j, i)] for j in range(1, n + 1)]  # mult[j-1] columns of height j
        if any(c < 0 for c in mult):
            return 0
        col_partition = []
        for j in range(n, 0, -1):
            col_partition.extend([j] * mult[j - 1])
        phis.append(conjugate(tuple(col_partition)))
    return f_sun(phis, n)


def beta_from_subsets(subsets, Q: SunQuiver) -> VertexMap:
    """Dimension vector with value #{z in I_i : z <= j} at vertex (j, i)."""
    if len(subsets) != Q.m:
        raise InvalidInputError(f"expected {Q.m} subsets, got {len(subsets)}")
    checked = [check_subset(s, Q.n) for s in subsets]
    vec: VertexMap = {}
    for i in range(1, Q.m + 1):
        elems = checked[i - 1]
        for j in range(1, Q.n + 1):
            vec[(j, i)] = sum(1 for z in elems if z <= j)
    return vec


def jump_sets(b: VertexMap, Q: SunQuiver) -> tuple[IntSeq, ...]:
    """Inverse of beta_from_subsets: positions where each flag value increases."""
    _check_defined(Q, b, "dimension vector")
    out = []
    for i in range(1, Q.m + 1):
        prev = 0
        jumps = []
        for j in range(1, Q.n + 1):
            step = b[(j, i)] - prev
            if step not in (0, 1):
                raise InvalidInputError(
                    f"flag {i} is not weakly increasing with jumps <= 1 at vertex ({j},{i})"
                )
            if step == 1:
                jumps.append(j)
            prev = b[(j, i)]
        out.append(tuple(jumps))
    return tuple(out)


def sigma_from_subsets(subsets, Q: SunQuiver) -> VertexMap:
    """The weight <beta_I, .> written directly in terms of the subsets.

    At flag vertices (l < n): indicator of l in I_i for even i, minus the
    indicator of l+1 in I_i for odd i.  At central vertices: indicator of
    n in I_i for even i, and |I_i| - |I_{i-1}| - |I_{i+1}| for odd i, with
    I_0 = I_m.
    """
    if len(subsets) != Q.m:
        raise InvalidInputError(f"expected {Q.m} subsets, got {len(subsets)}")
    checked = [check_subset(s, Q.n) for s in subsets]
    m, n = Q.m, Q.n
    sigma: VertexMap = {}
    for i in range(1, m + 1):
        I = set(checked[i - 1])
        for l in range(1, n):
            if i % 2 == 0:
                sigma[(l, i)] = 1 if l in I else 0
            else:
                sigma[(l, i)] = -1 if (l + 1) in I else 0
        if i % 2 == 0:
            sigma[(n, i)] = 1 if n in I else 0
        else:
            prev = checked[(i - 2) % m]
            nxt = checked[i % m]
            sigma[(n, i)] = len(I) - len(prev) - len(nxt)
    return sigma


def is_fundamental_schur(Q: SunQuiver, b: VertexMap) -> bool:
    """Fundamental-region test: connected support and tau_x(b) <= 0 at all x.

    Sufficient (with indivisibility) for b to be a Schur root; not a
    complete test, e.g. simple roots are Schur but fail it.
    """
    _check_defined(Q, b, "dimension vector")
    support = {v for v in Q.vertices() if b[v] != 0}
    if not support:
        return False
    if any(b[v] < 0 for v in Q.vertices()):
        raise InvalidInputError("dimension vector must be nonnegative")
    # connectivity of the support in the underlying graph
    adj = {v: set() for v in support}
    for t, h in Q.arrows():
        if t in support and h in support:
            adj[t].add(h)
            adj[h].add(t)
    seen = set()
    stack = [next(iter(support))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adj[v] - seen)
    if seen != support:
        return False
    # tau_x(b) = <e_x, b> + <b, e_x> = 2 b(x) - sum over arrows at x of the
    # opposite endpoint's value
    neighbor_sum = {v: 0 for v in Q.vertices()}
    for t, h in Q.arrows():
        neighbor_sum[t] += b[h]
        neighbor_sum[h] += b[t]
    return all(2 * b[v] - neighbor_sum[v] <= 0 for v in Q.vertices())

