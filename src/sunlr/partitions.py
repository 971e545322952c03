"""Weakly decreasing integer sequences and partitions.

Conventions used throughout the package:

* A sequence is any weakly decreasing tuple of integers; a partition is the
  nonnegative case.
* Two sequences that differ only by trailing zeros are identified.  The
  canonical form trims trailing zeros; ``pad(seq, n)`` produces the
  fixed-length view when an operation needs "a sequence of n integers".
* Subsets of {1..n} are sorted tuples of distinct integers.  Desk-scale
  instances only; n <= 62 is assumed everywhere subsets index bit positions.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

from itertools import accumulate, product, zip_longest
from operator import ge

from .errors import InvalidInputError

IntSeq = tuple[int, ...]


def canonical(seq) -> IntSeq:
    """Trim trailing zeros and return the sequence as a tuple."""
    parts = tuple(int(x) for x in seq)
    end = len(parts)
    while end > 0 and parts[end - 1] == 0:
        end -= 1
    return parts[:end]


def is_weakly_decreasing(seq) -> bool:
    parts = tuple(seq)
    return all(map(ge, parts, parts[1:]))


def check_sequence(seq, name="sequence") -> IntSeq:
    """Validate integer entries and weak decrease; return the canonical form."""
    parts = tuple(seq)
    if not all(type(x) is int for x in parts):
        raise InvalidInputError(f"{name} {list(parts)} must contain integers only")
    if not is_weakly_decreasing(parts):
        raise InvalidInputError(f"{name} {list(parts)} is not weakly decreasing")
    return canonical(parts)


def check_partition(seq, name="partition") -> IntSeq:
    parts = check_sequence(seq, name)
    if parts and parts[-1] < 0:
        raise InvalidInputError(f"{name} {list(seq)} has negative parts")
    return parts


def check_sequences(lambdas, n: int, partitions=False) -> tuple[IntSeq, ...]:
    """Canonical l(1), ..., l(m), each of at most n parts, none negative with ``partitions``; unpadded."""
    if n < 1:
        raise InvalidInputError(f"rank n must be >= 1, got {n}")
    check = check_partition if partitions else check_sequence
    out = []
    for idx, lam in enumerate(lambdas, start=1):
        parts = check(lam, f"lambda({idx})")
        if len(parts) > n:
            raise InvalidInputError(f"lambda({idx}) = {list(lam)} has more than n={n} parts")
        out.append(parts)
    return tuple(out)


def is_partition(seq) -> bool:
    parts = tuple(seq)
    return is_weakly_decreasing(parts) and (not parts or parts[-1] >= 0)


def pad(seq, n: int) -> IntSeq:
    """Fixed-length view: extend with zeros to length n.

    Fails if the canonical length already exceeds n, or if padding would
    break weak decrease (a negative tail cannot be zero-extended).
    """
    parts = canonical(seq)
    if len(parts) > n:
        raise InvalidInputError(f"sequence {list(seq)} has more than {n} parts")
    if parts and parts[-1] < 0:
        raise InvalidInputError(
            f"sequence {list(seq)} with negative tail cannot be padded with zeros"
        )
    return parts + (0,) * (n - len(parts))


def size(seq) -> int:
    return sum(seq)


def conjugate(lam) -> IntSeq:
    """Transpose of the Young diagram: result[j] = #{i : lam_i >= j+1}."""
    parts = check_partition(lam)
    if not parts:
        return ()
    out = []
    for j in range(parts[0]):
        out.append(sum(1 for p in parts if p >= j + 1))
    return tuple(out)


def contains(alpha, lam) -> bool:
    """Componentwise alpha_i <= lam_i after zero padding (Young diagram containment)."""
    return all(x <= y for x, y in zip_longest(canonical(alpha), canonical(lam), fillvalue=0))


def stretch(seq, r: int) -> IntSeq:
    """Componentwise multiple r*seq for r >= 1."""
    if r <= 0:
        raise InvalidInputError(f"stretch factor must be >= 1, got {r}")
    return tuple(r * x for x in seq)


def check_subset(subset, n: int) -> IntSeq:
    """Validate a subset of {1..n}; returns the sorted tuple."""
    if not all(isinstance(z, int) and not isinstance(z, bool) for z in subset):
        raise InvalidInputError(f"subset {list(subset)} must contain integers only")
    elems = tuple(sorted(set(subset)))
    if len(elems) != len(tuple(subset)):
        raise InvalidInputError(f"subset {list(subset)} has repeated elements")
    if elems and (elems[0] < 1 or elems[-1] > n):
        raise InvalidInputError(f"subset {list(subset)} not contained in 1..{n}")
    return elems


def lambda_of_set(subset, n: int) -> IntSeq:
    """The partition (z_r - r, ..., z_1 - 1) attached to I = {z_1 < ... < z_r}.

    Has r parts, each between 0 and n - r.
    """
    return lambda_of_sorted_set(check_subset(subset, n))


def lambda_of_sorted_set(elems) -> IntSeq:
    """``lambda_of_set`` of a subset that is already validated and sorted; no checks."""
    r = len(elems)
    return tuple(elems[r - 1 - k] - (r - k) for k in range(r))


def minimum(lam, mu) -> IntSeq:
    """Componentwise minimum after zero padding (intersection of diagrams)."""
    return canonical(min(x, y) for x, y in zip_longest(canonical(lam), canonical(mu), fillvalue=0))


def partitions_in_box(bound) -> list[IntSeq]:
    """All partitions contained in the partition ``bound``, canonical form."""
    box = canonical(bound)
    out = []

    def rec(i, prev, acc):
        out.append(tuple(acc))
        if i >= len(box):
            return
        hi = min(prev, box[i])
        for v in range(hi, 0, -1):
            acc.append(v)
            rec(i + 1, v, acc)
            acc.pop()

    if not box:
        return [()]
    rec(0, box[0], [])
    return out


def count_partitions_in_box(bound) -> int:
    """``len(partitions_in_box(bound))`` by prefix sums; tail[j]: fillings ending on the j-th top value."""
    box = canonical(bound)
    tail = [1] * (box[0] + 1) if box else [1]
    for r in box[1:]:
        tail = list(accumulate(tail))[-1 - r :]
    return sum(tail)


def partitions_of_size_in_box(total: int, bound) -> list[IntSeq]:
    """Partitions of given size contained in ``bound``."""
    box = canonical(bound)
    if total < 0 or total > size(box):
        return []
    out = []

    def rec(i, prev, remaining, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        if i >= len(box):
            return
        # remaining must fit in the rest of the box
        tail = size(box[i:])
        if remaining > min(prev, box[i]) * (len(box) - i) or remaining > tail:
            return
        hi = min(prev, box[i], remaining)
        for v in range(hi, 0, -1):
            acc.append(v)
            rec(i + 1, v, remaining - v, acc)
            acc.pop()

    if total == 0:
        return [()]
    if not box:
        return []
    rec(0, box[0], total, [])
    return out


def iter_partition_tuples(n_parts: int, max_entry: int, length: int):
    """Cartesian product of partitions in an (n_parts x max_entry) box.

    Exhaustive-test helper: iterates over every ``length``-tuple of partitions
    with at most n_parts parts and entries at most max_entry.
    """
    return product(partitions_in_box((max_entry,) * n_parts), repeat=length)
