import random

import pytest

from sunlr.errors import InvalidInputError, UnsupportedShapeError
from sunlr.generalized import f_sun
from sunlr.partitions import iter_partition_tuples
from sunlr.quiver import SunQuiver, dim_si_sun, weight_sigma1


def beta_standard(Q):
    return {(j, i): j for j, i in Q.vertices()}


def unit_vector(Q, x):
    assert x in Q.vertices()
    return {v: int(v == x) for v in Q.vertices()}


def euler_form(Q, a, b):
    """<a, b> = sum_x a(x) b(x) - sum_{arrows} a(tail) b(head)."""
    return sum(a[v] * b[v] for v in Q.vertices()) - sum(a[t] * b[h] for t, h in Q.arrows())


def sigma_apply(sigma, a):
    return sum(sigma[v] * a[v] for v in sigma)


def beta_from_subsets(subsets, Q):
    """beta_I: the value #{z in I_i : z <= j} at vertex (j, i)."""
    return {(j, i): sum(z <= j for z in subsets[i - 1]) for j, i in Q.vertices()}


def sigma_from_subsets(subsets, Q):
    """sigma_I = <beta_I, .> written in the subsets, with I_0 = I_m.

    At flag vertices (l < n): [l in I_i] for even i, -[l+1 in I_i] for odd
    i.  At central vertices: [n in I_i] for even i, and |I_i| - |I_{i-1}| -
    |I_{i+1}| for odd i.
    """
    m, n = Q.m, Q.n
    sigma = {}
    for i in range(1, m + 1):
        I = subsets[i - 1]
        for l in range(1, n):
            sigma[(l, i)] = int(l in I) if i % 2 == 0 else -int(l + 1 in I)
        sigma[(n, i)] = int(n in I) if i % 2 == 0 else len(I) - len(subsets[i - 2]) - len(subsets[i % m])
    return sigma


def is_fundamental_schur(Q, b):
    """Fundamental region: connected support and tau_x(b) <= 0 at every x.

    tau_x(b) = <e_x, b> + <b, e_x> = 2 b(x) - the sum of b over the arrows at x.
    """
    neighbors = {v: [] for v in Q.vertices()}
    for t, h in Q.arrows():
        neighbors[t].append(h)
        neighbors[h].append(t)
    support = {v for v in neighbors if b[v]}
    seen, stack = set(), sorted(support)[:1]
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(w for w in neighbors[v] if w in support)
    connected = bool(support) and seen == support
    return connected and all(2 * b[v] - sum(b[w] for w in neighbors[v]) <= 0 for v in neighbors)


def test_construction_counts():
    Q = SunQuiver(1, 2)
    assert len(Q.vertices()) == 4
    assert len(Q.flag_arrows()) == 0
    assert len(Q.central_arrows()) == 4
    Q = SunQuiver(2, 3)
    assert len(Q.vertices()) == 12
    assert len(Q.flag_arrows()) == 6
    assert len(Q.central_arrows()) == 6
    assert len(SunQuiver(3, 3).vertices()) == 18


def test_flag_orientation():
    Q = SunQuiver(2, 2)
    # even flags point into the center, odd flags point out
    assert ((1, 2), (2, 2)) in Q.flag_arrows()
    assert ((2, 1), (1, 1)) in Q.flag_arrows()
    # central arrows run from even to odd
    assert ((2, 2), (2, 1)) in Q.central_arrows()
    assert ((2, 2), (2, 3)) in Q.central_arrows()


def test_k_lower_bound():
    with pytest.raises(UnsupportedShapeError):
        SunQuiver(2, 1)


def test_euler_form_examples():
    Q = SunQuiver(1, 2)
    b = beta_standard(Q)
    assert euler_form(Q, b, b) == 0
    e = unit_vector(Q, (1, 1))
    assert euler_form(Q, e, e) == 1
    t, h = Q.central_arrows()[0]
    assert euler_form(Q, unit_vector(Q, t), unit_vector(Q, h)) == -1


def test_sigma1_values():
    s = weight_sigma1([(2, 1), (2, 1), (), ()], 2)
    assert s[(1, 1)] == -1 and s[(2, 1)] == -1
    assert s[(1, 2)] == 1 and s[(2, 2)] == 1


def test_sigma1_balance_iff_sigma_of_beta_zero():
    Q = SunQuiver(2, 3)
    beta = beta_standard(Q)
    assert sigma_apply(weight_sigma1([(1, 0)] * 6, 2), beta) == 0
    perturbed = [(1, 0), (2, 0), (1, 0), (1, 0), (1, 0), (1, 0)]
    assert sigma_apply(weight_sigma1(perturbed, 2), beta) != 0


def test_dim_si_sun_examples():
    Q = SunQuiver(2, 3)
    sigma = weight_sigma1([(1, 0)] * 6, 2)
    assert dim_si_sun(Q, sigma) == 2
    bad = dict(sigma)
    bad[(1, 1)] = 1
    assert dim_si_sun(Q, bad) == 0
    assert dim_si_sun(Q, {v: 0 for v in Q.vertices()}) == 1


def test_dim_si_sun_matches_chain_sum_exhaustively():
    for n in (1, 2):
        Q = SunQuiver(n, 2)
        for lams in iter_partition_tuples(n, 2, 4):
            assert dim_si_sun(Q, weight_sigma1(lams, n)) == f_sun(lams, n)


def test_beta_from_subsets_examples():
    Q = SunQuiver(3, 2)
    full = beta_from_subsets([(1, 2, 3)] * 4, Q)
    assert full == beta_standard(Q)
    b = beta_from_subsets([(2,), (1, 3), (), (1, 2, 3)], Q)
    assert [b[(j, 1)] for j in (1, 2, 3)] == [0, 1, 1]
    assert [b[(j, 2)] for j in (1, 2, 3)] == [1, 1, 2]
    assert b[(3, 1)] == 1  # |I_1|


def test_sigma_from_subsets_hand_values():
    Q = SunQuiver(2, 3)
    zero = sigma_from_subsets([()] * 6, Q)
    assert all(v == 0 for v in zero.values())
    s = sigma_from_subsets([(2,)] * 6, Q)
    for i in range(1, 7):
        assert s[(1, i)] == (0 if i % 2 == 0 else -1)
        assert s[(2, i)] == (1 if i % 2 == 0 else -1)


def test_sigma_from_subsets_is_euler_pairing():
    random.seed(9)
    for n, k in [(1, 2), (2, 2), (2, 3), (3, 2)]:
        Q = SunQuiver(n, k)
        for _ in range(12):
            subs = [
                tuple(sorted(random.sample(range(1, n + 1), random.randint(0, n))))
                for _ in range(2 * k)
            ]
            sI = sigma_from_subsets(subs, Q)
            bI = beta_from_subsets(subs, Q)
            for v in Q.vertices():
                assert sI[v] == euler_form(Q, bI, unit_vector(Q, v))


def test_sigma1_of_beta_I_matches_horn_sides():
    from sunlr.horn import SubsetTuple
    from sunlr.partitions import pad

    Q = SunQuiver(2, 3)
    random.seed(17)
    for _ in range(25):
        subs = tuple(
            tuple(sorted(random.sample((1, 2), random.randint(0, 2)))) for _ in range(6)
        )
        lams = []
        for _ in range(6):
            a = random.randint(0, 3)
            lams.append((a, random.randint(0, a)))
        sigma = weight_sigma1(lams, 2)
        bI = beta_from_subsets(subs, Q)
        even, odd = SubsetTuple(subs, 2).sides([pad(l, 2) for l in lams])
        assert sigma_apply(sigma, bI) == even - odd


def test_fundamental_region():
    for n in (1, 2, 3, 4):
        for k in (2, 3):
            Q = SunQuiver(n, k)
            assert is_fundamental_schur(Q, beta_standard(Q))
    Q = SunQuiver(2, 2)
    assert not is_fundamental_schur(Q, unit_vector(Q, (1, 1)))
    disconnected = {v: 0 for v in Q.vertices()}
    disconnected[(1, 1)] = 1
    disconnected[(1, 3)] = 1
    assert not is_fundamental_schur(Q, disconnected)



def test_weight_sigma1_signed_and_non_integer_sequences():
    # a negative tail is kept as given when it has exactly n parts
    s = weight_sigma1([(1, -1)] * 4, 2)
    assert [s[(1, i)] for i in range(1, 5)] == [-2, 2, -2, 2]
    assert [s[(2, i)] for i in range(1, 5)] == [1, -1, 1, -1]
    with pytest.raises(InvalidInputError, match="negative tail"):
        weight_sigma1([(0, -1)] * 4, 3)
    with pytest.raises(InvalidInputError, match="more than"):
        weight_sigma1([(1, 1, 1)] * 4, 2)
    with pytest.raises(InvalidInputError, match="integers only"):
        weight_sigma1([(1.5,)] * 4, 1)
