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
              c^{l(m-1)}_{a(m-3),l(m)} for m >= 3; the m = 3 case is the
              plain LR coefficient c^{l(2)}_{l(1),l(3)}.

All three run one walk, ``_walk``: a sparse weight vector {a: w} is pushed
through a list of chain slots, each slot a target nu with its candidate
partitions grouped by size, and multiplied by factor(a, b, nu).  Candidates
are pruned by containment (a factor c^nu_{., .} dies unless both lower
arguments fit inside nu componentwise) and by exact size bookkeeping.  The
closed chain of ``f_sun`` starts the walk from each state of its first
slot and closes on it; ``f1`` and ``f2`` supply only their end data.
``cyclic_chain_sum`` is parameterized by the factor function so the
hive-counting module can run the same decomposition with an independent
per-factor engine.

Inputs are validated once, by ``_check_chain``.  The walk then calls the
cached partition-only kernel ``lr._lr_tableau_count`` directly.  Every
argument it sees is a canonical partition: a slot state lies inside the
upper argument of each factor it enters, the ends of ``f2`` have at most n
parts and those of ``f1`` at most 2n.  So a rank would never zero a factor,
and ``lr_coefficient``'s checks, padding and twists would be repeated work.

Stretched evaluation recomputes each N from scratch; polynomiality in N is
a property we test, never an assumption we exploit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import BudgetExceededError, InvalidInputError, UnsupportedShapeError
from .lr import _lr_tableau_count, lr_coefficient
from .partitions import (
    IntSeq,
    check_sequence,
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
    if n < 1:
        raise InvalidInputError(f"rank n must be >= 1, got {n}")
    m = len(lambdas)
    if kind == "f_sun" and (m < 4 or m % 2):
        raise UnsupportedShapeError(f"f_sun needs an even number m >= 4 of sequences, got m={m}")
    if kind == "f1" and m < 4:
        raise UnsupportedShapeError(f"f1 needs m >= 4 sequences, got m={m}")
    if kind == "f2" and m < 3:
        raise UnsupportedShapeError(f"f2 needs m >= 3 sequences, got m={m}")
    out = []
    for idx, lam in enumerate(lambdas, start=1):
        parts = check_sequence(lam, f"lambda({idx})")
        if len(parts) > n:
            raise InvalidInputError(f"lambda({idx}) = {list(lam)} has more than n={n} parts")
        out.append(parts)
    return tuple(out)


@dataclass(frozen=True)
class ChainProblem:
    """One chain-sum evaluation request."""

    kind: str
    n: int
    lambdas: tuple[IntSeq, ...]

    def __post_init__(self):
        _check_chain(self.kind, self.n, self.lambdas)


def _validated(lambdas, n, kind):
    """The canonical sequences, checked by ``_check_chain``; None if one is not a partition."""
    lams = _check_chain(kind, n, tuple(lambdas))
    return None if any(l and l[-1] < 0 for l in lams) else lams


def _group_by_size(cands):
    by = {}
    for p in cands:
        by.setdefault(size(p), []).append(p)
    return by


def _check_budget(slots, budget):
    """Refuse a chain whose largest slot has more than ``budget`` candidate states."""
    if budget is not None:
        states = max(len(c) for c in slots)
        if states > budget:
            raise BudgetExceededError(f"chain enumeration needs {states} states, budget is {budget}")


def _walk(cur, slots, factor):
    """Push the sparse weight vector ``cur = {a: w}`` through chain slots.

    Slot ``(nu, by_size)`` sends a to every b in by_size[|nu| - |a|] with
    weight factor(a, b, nu).  Stops early once the vector is empty.
    """
    for nu, by_size in slots:
        target = size(nu)
        nxt = {}
        for a, wt in cur.items():
            for b in by_size.get(target - size(a), ()):
                val = factor(a, b, nu)
                if val:
                    nxt[b] = nxt.get(b, 0) + wt * val
        cur = nxt
        if not cur:
            break
    return cur


def _slots(lams, cands):
    """Chain slots (lams[i], cands[i] grouped by size), paired in order."""
    return [(nu, _group_by_size(c)) for nu, c in zip(lams, cands)]


def cyclic_slot_candidates(lams):
    """Candidates of each slot of the cyclic chain through ``lams``.

    Slot i holds the partitions inside min(lams[i-1], lams[i]).  Returns
    None when the odd and even size totals differ: then no chain closes.
    """
    if sum(size(l) for l in lams[0::2]) != sum(size(l) for l in lams[1::2]):
        return None
    return [partitions_in_box(minimum(lams[i - 1], lams[i])) for i in range(len(lams))]


def cyclic_chain_sum(lams, factor, budget=None) -> int:
    """Sum over cyclic chains of products factor(a_i, a_{i+1}, lams[i]).

    ``lams`` must be canonical partitions.  Slot i of the chain is bounded
    componentwise by min(lams[i-1], lams[i]) and slot sizes are forced by
    |a_{i+1}| = |lams[i]| - |a_i|.
    """
    cands = cyclic_slot_candidates(lams)
    if cands is None:
        return 0
    _check_budget(cands, budget)
    slots = _slots(lams, cands[1:])
    total = 0
    for a0 in cands[0]:
        close = (lams[-1], {size(a0): [a0]})
        total += _walk({a0: 1}, [*slots, close], factor).get(a0, 0)
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
    kernel = _lr_tableau_count
    box = (sum(l[0] for l in lams[:2] if l),) * (len(lams[0]) + len(lams[1]))
    if m > 4:
        box = minimum(box, lams[2])
    # a(k) is a lower argument of c^{l(k+2)} for k <= m-4 and of c^{l(k+1)} for k >= 2
    cands = [partitions_of_size_in_box(size(lams[0]) + size(lams[1]), box)]
    cands += [partitions_in_box(minimum(lams[i], lams[i + 1])) for i in range(2, m - 3)]
    if m > 4:
        cands.append(partitions_in_box(lams[m - 3]))
    _check_budget(cands, budget)
    first = {a: v for a in cands[0] if (v := kernel(lams[0], lams[1], a))}
    last = _walk(first, _slots(lams[2 : m - 2], cands[1:]), kernel)
    return sum(wt * kernel(lams[m - 2], lams[m - 1], a) for a, wt in last.items())


def f2(lambdas, n: int, budget=None) -> int:
    """Open chain pinned at both ends; tensor multiplicity for extremal weight crystals."""
    lams = _validated(lambdas, n, "f2")
    if lams is None:
        return 0
    m = len(lams)
    if m == 3:
        return lr_coefficient(lams[0], lams[2], lams[1], n)
    # slot k feeds c^{lams[k]}_{a(k-1), a(k)} with a(0) = lams[0]; the closing
    # slot c^{lams[m-2]}_{a(m-3), lams[m-1]} has the single state lams[m-1]
    cands = [partitions_of_size_in_box(size(lams[1]) - size(lams[0]), minimum(lams[1], lams[2]))]
    cands += [partitions_in_box(minimum(lams[i], lams[i + 1])) for i in range(2, m - 2)]
    _check_budget(cands, budget)
    end = lams[m - 1]
    slots = [*_slots(lams[1 : m - 2], cands), (lams[m - 2], {size(end): [end]})]
    return _walk({lams[0]: 1}, slots, _lr_tableau_count).get(end, 0)


@dataclass(frozen=True)
class LevelOneSpec:
    """Jump positions of a weight with at most one nonzero entry per flag.

    jumps[i] = 0 means the weight vanishes on flag i+1.  J is recomputed on
    access, never stored.
    """

    jumps: tuple[int, ...]

    def __post_init__(self):
        if any(j < 0 for j in self.jumps):
            raise InvalidInputError(f"jump numbers must be nonnegative, got {list(self.jumps)}")

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


def evaluate(problem: ChainProblem, budget=None) -> int:
    if problem.kind == "f_sun":
        return f_sun(problem.lambdas, problem.n, budget=budget)
    if problem.kind == "f1":
        return f1(problem.lambdas, problem.n, budget=budget)
    return f2(problem.lambdas, problem.n, budget=budget)


def stretched_table(problem: ChainProblem, N_max: int, budget=None) -> list[int]:
    """[f(N * lambdas)] for N = 1..N_max, each N evaluated independently."""
    if N_max < 1:
        raise InvalidInputError(f"N_max must be >= 1, got {N_max}")
    out = []
    for N in range(1, N_max + 1):
        scaled = ChainProblem(
            problem.kind, problem.n, tuple(stretch(l, N) for l in problem.lambdas)
        )
        out.append(evaluate(scaled, budget=budget))
    return out
