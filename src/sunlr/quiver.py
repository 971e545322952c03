"""The 2k-flag quiver, the weight sigma_1 and its weight space dimension.

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

from collections import namedtuple

from .errors import InvalidInputError
from .generalized import f_sun
from .partitions import check_flag_count, check_negative_tail, check_rank, check_sequences, conjugate

Vertex = tuple[int, int]
VertexMap = dict[Vertex, int]


class SunQuiver(namedtuple("SunQuiver", "n k")):
    """The paper's quiver: 2k flags of length n glued around a central 2k-gon.

    Weights and dimension vectors live on its vertices; the Euler form and
    the fundamental region are read off its arrows.
    """

    __slots__ = ()

    def __new__(cls, n, k):
        check_rank(n)
        check_flag_count(2 * k)
        return super().__new__(cls, n, k)

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


def _check_defined(Q, vec, what):
    missing = [v for v in Q.vertices() if v not in vec]
    if missing:
        raise InvalidInputError(f"{what} undefined at vertices {missing[:4]}")


def weight_sigma1(lambdas, n: int) -> VertexMap:
    """The weight whose weight space dimension is the chain multiplicity.

    sigma(j, i) = (-1)^i (l(i)_j - l(i)_{j+1}) for j < n and
    sigma(n, i) = (-1)^i l(i)_n, with each l(i) padded to exactly n parts.
    """
    check_flag_count(len(lambdas))
    lams = check_sequences(lambdas, n)
    for idx, parts in enumerate(lams, start=1):
        check_negative_tail(parts, n, f"lambda({idx})")
    sigma: VertexMap = {}
    for i, lam in enumerate(lams, start=1):
        lam = lam + (0,) * (n - len(lam))
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
