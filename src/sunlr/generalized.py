"""Cyclic and open chain sums of Littlewood-Richardson coefficients.

Three multiplicities are computed here, all as sums over chains of
partitions alpha with every factor a single LR coefficient:

* ``f_sun``   sum of c^{l(1)}_{a(1),a(2)} c^{l(2)}_{a(2),a(3)} ... c^{l(m)}_{a(m),a(1)}
              over all partition chains, for an even number m >= 4 of
              weakly decreasing sequences.  This is the branching
              multiplicity for the diagonal embedding when m = 6.
* ``f1``      sum of c^{a(1)}_{l(1),l(2)} c^{l(3)}_{a(1),a(2)} ...
              c^{a(m-3)}_{l(m-1),l(m)} for m >= 4.
* ``f2``      sum of c^{l(2)}_{l(1),a(1)} c^{l(3)}_{a(1),a(2)} ...
              c^{l(m-1)}_{a(m-3),l(m)} for m >= 3, which is f_sun of
              (l(1), ..., l(m), ∅), with a second ∅ for m even: c^∅_{a,b}
              forces a = b = ∅ and so pins the ends at l(1) and l(m).

All three run one walk, ``_walk``: a sparse weight vector {a: w} is pushed
through a list of chain slots (nu, box).  Each slot is a sparse LR matrix
with rows row(a, nu, box) = {b: c^nu_{a,b}} over the partitions b inside
box, the skew expansion of s_{nu/a}; one skew-tableau enumeration gives a
whole row, zeros left out.  The closed chain is the trace of the product
of its slot matrices: the walk starts from each state of the slot with
the fewest states, the only slot it lists, and closes on it.  ``f1``
walks its middle slots; its end factors vary in their upper argument, so
they are single coefficients.  ``cyclic_chain_sum`` is parameterized by
the row function so the hive-counting module can run the same
decomposition with an independent per-factor engine.

Inputs are validated once, by ``_check_chain``.  The walk then reads rows
of the cached partition-only kernel ``lr._lr_tableau_count`` directly.
Every argument it sees is a canonical partition: a slot state lies inside
the upper argument of each factor it enters, and the ends of ``f1`` have
at most 2n parts.  So a rank would never zero a factor, and
``lr_coefficient``'s checks, padding and twists would be repeated work.

Stretched evaluation recomputes each N from scratch; polynomiality in N is
a property we test, never an assumption we exploit.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb

from .errors import BudgetExceededError, InvalidInputError, UnsupportedShapeError
# lr_coefficient is not called here; benchmark/tracing.py and the budget test rebind it
from .lr import _lr_tableau_count, lr_coefficient
from .partitions import (
    IntSeq,
    check_sequences,
    count_partitions_in_box,
    minimum,
    partitions_in_box,
    partitions_of_size_in_box,
    size,
    stretch,
)

KINDS = ("f_sun", "f1", "f2")


def _check_chain(kind, n, lambdas) -> tuple[IntSeq, ...]:
    """Check a chain-sum request on its raw sequences; return them canonical."""
    if kind not in KINDS:
        raise InvalidInputError(f"unknown kind {kind!r}, expected one of {KINDS}")
    m = len(lambdas)
    if kind == "f_sun" and (m < 4 or m % 2):
        raise UnsupportedShapeError(f"f_sun needs an even number m >= 4 of sequences, got m={m}")
    if kind == "f1" and m < 4:
        raise UnsupportedShapeError(f"f1 needs m >= 4 sequences, got m={m}")
    if kind == "f2" and m < 3:
        raise UnsupportedShapeError(f"f2 needs m >= 3 sequences, got m={m}")
    return check_sequences(lambdas, n)


class ChainProblem(namedtuple("ChainProblem", "kind n lambdas")):
    """One chain-sum evaluation request."""

    __slots__ = ()

    def __new__(cls, kind, n, lambdas):
        _check_chain(kind, n, lambdas)
        return super().__new__(cls, kind, n, lambdas)


def _validated(lambdas, n, kind):
    """The canonical sequences, checked by ``_check_chain``; None if one is not a partition."""
    lams = _check_chain(kind, n, tuple(lambdas))
    return None if any(l and l[-1] < 0 for l in lams) else lams


def _check_budget(counts, budget):
    """Refuse a chain whose largest slot count in ``counts`` exceeds ``budget``."""
    if budget is not None and max(counts) > budget:
        raise BudgetExceededError(f"chain enumeration needs {max(counts)} states, budget is {budget}")


def _walk(cur, slots, row):
    """Push the sparse weight vector ``cur = {a: w}`` through chain slots.

    Slot ``(nu, box)`` sends a to every b inside box with weight
    c^nu_{a,b}, read from the row row(a, nu, box) = {b: c^nu_{a,b}}.  Stops
    early once the vector is empty.
    """
    for nu, box in slots:
        nxt = {}
        for a, wt in cur.items():
            for b, val in row(a, nu, box).items():
                nxt[b] = nxt.get(b, 0) + wt * val
        cur = nxt
        if not cur:
            break
    return cur


def cyclic_slot_boxes(lams):
    """Box of each slot of the cyclic chain through ``lams``.

    Slot i holds the partitions inside min(lams[i-1], lams[i]).  Returns
    None when the odd and even size totals differ: then no chain closes.
    """
    if sum(size(l) for l in lams[0::2]) != sum(size(l) for l in lams[1::2]):
        return None
    return [minimum(lams[i - 1], lams[i]) for i in range(len(lams))]


def cyclic_chain_sum(lams, row, budget=None) -> int:
    """Sum over cyclic chains of products c^{lams[i]}_{a_i, a_{i+1}}.

    ``lams`` must be canonical partitions, and row(a, nu, box) must return
    {b: c^nu_{a,b}} over the partitions b inside box.  Slot i of the chain
    is bounded componentwise by min(lams[i-1], lams[i]).  The sum is the
    trace of the product of the slots' LR matrices, so the walk starts at
    the slot with the fewest states, the only one listed, and closes on it.
    """
    boxes = cyclic_slot_boxes(lams)
    if boxes is None:
        return 0
    counts = [count_partitions_in_box(box) for box in boxes]
    _check_budget(counts, budget)
    m = len(lams)
    s = counts.index(min(counts))
    # slot i takes a_i to a_{i+1}, inside the box of slot i + 1
    slots = [(lams[i % m], boxes[(i + 1) % m]) for i in range(s, s + m - 1)]
    nu = lams[s - 1]
    total = 0
    for a0 in partitions_in_box(boxes[s]):
        # the closing slot needs only the a0 entry of each row
        last = _walk({a0: 1}, slots, row)
        total += sum(wt * row(a, nu, boxes[s]).get(a0, 0) for a, wt in last.items())
    return total


_F_SUN_MEMO: dict[tuple, int] = {}


def f_sun(lambdas, n: int, budget=None) -> int:
    """The cyclic multiplicity for m even; 0 on non-partition input."""
    lams = _validated(lambdas, n, "f_sun")
    return 0 if lams is None else _f_sun_partitions(lams, budget)


def _f_sun_partitions(lams, budget=None) -> int:
    """f_sun of a tuple of canonical partitions, memoized; nothing is validated."""
    hit = _F_SUN_MEMO.get(lams)
    if hit is None:
        hit = _F_SUN_MEMO[lams] = cyclic_chain_sum(lams, _lr_tableau_count, budget=budget)
    return hit


def f1(lambdas, n: int, budget=None) -> int:
    """Open chain with merged ends: branching for the direct sum embedding."""
    lams = _validated(lambdas, n, "f1")
    if lams is None:
        return 0
    m = len(lams)
    row = _lr_tableau_count
    box = (sum(l[0] for l in lams[:2] if l),) * (len(lams[0]) + len(lams[1]))
    if m > 4:
        box = minimum(box, lams[2])
    # a(k) is a lower argument of c^{l(k+2)} for k <= m-4 and of c^{l(k+1)} for k >= 2
    boxes = [minimum(lams[i], lams[i + 1]) for i in range(2, m - 3)]
    if m > 4:
        boxes.append(lams[m - 3])
    starts = partitions_of_size_in_box(size(lams[0]) + size(lams[1]), box)
    _check_budget([len(starts), *map(count_partitions_in_box, boxes)], budget)
    # the end factors c^{a}_{l(1),l(2)} and c^{a}_{l(m-1),l(m)} vary in their
    # upper argument, so each is one coefficient: the row of a/l with box l'
    first = {a: v for a in starts if (v := row(lams[0], a, lams[1]).get(lams[1]))}
    last = _walk(first, list(zip(lams[2 : m - 2], boxes)), row)
    return sum(wt * row(lams[m - 2], a, lams[m - 1]).get(lams[m - 1], 0) for a, wt in last.items())


def f2(lambdas, n: int, budget=None) -> int:
    """Open chain pinned at both ends; tensor multiplicity for extremal weight crystals.

    f_sun(l(1), ..., l(m), ∅), a second ∅ for m even: c^∅_{a,b} forces a = b = ∅.
    """
    lams = _validated(lambdas, n, "f2")
    return 0 if lams is None else _f_sun_partitions((*lams, *((),) * (2 - len(lams) % 2)), budget)


class LevelOneSpec(namedtuple("LevelOneSpec", "jumps")):
    """Jump positions of a weight with at most one nonzero entry per flag.

    jumps[i] = 0 means the weight vanishes on flag i+1.  J is recomputed on
    access, never stored.
    """

    __slots__ = ()

    def __new__(cls, jumps):
        if any(j < 0 for j in jumps):
            raise InvalidInputError(f"jump numbers must be nonnegative, got {list(jumps)}")
        return super().__new__(cls, jumps)

    @property
    def J(self) -> tuple[int, ...]:
        j = self.jumps
        m = len(j)
        return tuple(j[i] - j[(i + 1) % m] + j[(i + 2) % m] for i in range(m))


def level1_f(spec: LevelOneSpec, N: int, n=None) -> int:
    """Closed form for the stretched chain sum on column partitions (N^{j_i}).

    Equals C(N+s, N) with s = min over all jumps and cyclic combinations
    J_i = j_i - j_{i+1} + j_{i+2} when the odd and even jump totals agree
    and every J_i >= 0; equals 0 otherwise.
    """
    j = spec.jumps
    m = len(j)
    if m < 4 or m % 2:
        raise UnsupportedShapeError(f"level-1 closed form needs even m >= 4, got m={m}")
    if n is not None and any(x > n for x in j):
        raise InvalidInputError(f"jump numbers {list(j)} exceed flag length n={n}")
    if N < 1:
        raise InvalidInputError(f"stretch factor N must be >= 1, got {N}")
    odd = sum(j[i] for i in range(0, m, 2))
    even = sum(j[i] for i in range(1, m, 2))
    if odd != even:
        return 0
    J = spec.J
    if any(x < 0 for x in J):
        return 0
    s = min(min(j), min(J))
    return comb(N + s, N)


def level1_lambdas(spec: LevelOneSpec, N: int) -> tuple[IntSeq, ...]:
    """The partition tuple (N^{j_1}), ..., (N^{j_m}) realizing a stretched level-1 weight."""
    return tuple((N,) * j for j in spec.jumps)


def stretched_table(problem: ChainProblem, N_max: int, budget=None) -> list[int]:
    """[f(N * lambdas)] for N = 1..N_max, each N evaluated independently."""
    if N_max < 1:
        raise InvalidInputError(f"N_max must be >= 1, got {N_max}")
    # looked up per call, so a rebinding of f_sun, f1 or f2 is seen here
    fn = {"f_sun": f_sun, "f1": f1, "f2": f2}[problem.kind]
    return [
        fn(tuple(stretch(l, N) for l in problem.lambdas), problem.n, budget=budget)
        for N in range(1, N_max + 1)
    ]
