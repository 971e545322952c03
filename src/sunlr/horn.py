"""Horn-type inequality machinery for the cyclic chain multiplicity.

A tuple I = (I_1, ..., I_m) of subsets of {1..n} indexes the candidate
inequality

    sum_{i even} sum_{j in I_i} l(i)_j  <=  sum_{i odd} sum_{j in I_i} l(i)_j .

``underline_lambda`` attaches to I the tuple of sequences (one per flag,
n - |I_i| entries each)

    conj(lambda(I_i))                                       i even,
    conj(lambda(I_i)) - ((|I_i| - |I_{i-1}| - |I_{i+1}|)^{n-|I_i|})   i odd,

with I_0 = I_m, where lambda(I) = (z_r - r, ..., z_1 - 1) for
I = {z_1 < ... < z_r}.  ``generate_T`` keeps the tuples with some
|I_i| < n whose attached sequences are all partitions and whose chain
multiplicity is 1 (variant "one") or nonzero (variant "nonzero"); the
"one" list is the minimal-candidate list, the "nonzero" list the valid
one, and cone membership must agree between them.  The size of each
attached sequence depends only on I_i and on |I_{i-1}| and |I_{i+1}|, so
``_candidates`` expands only the tuples whose odd and even flags attach
sequences of equal total size.  That drops no tuple of either list: a
skipped tuple is unbalanced, so ``cyclic_slot_boxes`` returns None and its
chain multiplicity is 0.

The cone K(n, m) of weakly decreasing rational tuples is cut out by the
total-size balance equality and the inequalities above.  Most of those rows
are the sum of two others, less the balance row for some; a sieve over
the rows as bitmasks (``_two_term_sums``) finds such sums by integer
operations, and ``in_cone`` reads only the rows it keeps.  The facet
subset is recovered exactly here by redundancy elimination: a row is kept
iff it is not a nonnegative combination of the other rows plus the
chamber rows and the balance equality, shown by a two-term sum where the
sieve has one and by exact LP over the rows the sieve keeps otherwise;
for n = 2, m = 6 the result is pinned bit-exactly against embedded golden
data, up to the symmetry group of the polygon that preserves the odd/even
alternation (rotations by an even number of flags and the
parity-preserving reflections).

On a wall (a tight inequality), the multiplicity factors into the chain
multiplicities of the subtuples picked out by the I_i and their
complements; ``factorization_check`` verifies that identity exactly.
"""

from __future__ import annotations

import json
from collections import namedtuple
from itertools import chain, product
from math import lcm
from operator import itemgetter

from .errors import BudgetExceededError, InvalidInputError, WallPreconditionError
from .generalized import _f_sun_partitions, f_sun
from .linprog import cone_columns, cone_implied
from .partitions import (
    IntSeq, canonical, check_decreasing, check_exact, check_flag_count, check_negative_tail, check_rank,
    check_sequences, check_subset, conjugate, is_partition, is_weakly_decreasing, lambda_of_sorted_set, pad,
    trim_zeros,
)

DEFAULT_T_BUDGET = 1 << 16

VARIANTS = ("one", "nonzero")


def check_variant(variant) -> None:
    """Refuse a variant other than "one" and "nonzero"."""
    if variant not in VARIANTS:
        raise InvalidInputError(f"variant must be one of {VARIANTS}, got {variant!r}")


class SubsetTuple(namedtuple("SubsetTuple", "subsets n")):
    """A subset tuple I = (I_1, ..., I_m) of {1..n} and the inequality it indexes:
    even side <= odd side.

    Each subset is stored sorted; two tuples are equal, and hash alike, when
    their subsets and n are.
    """

    __slots__ = ()

    def __new__(cls, subsets, n):
        check_flag_count(len(subsets))
        return super().__new__(cls, tuple(check_subset(s, n) for s in subsets), n)

    @property
    def m(self) -> int:
        return len(self.subsets)

    def coefficient_vector(self) -> tuple[int, ...]:
        """Coefficients of (even side - odd side) over coordinates l(i)_j.

        Coordinate order: flag-major, (i, j) = (1,1), (1,2), ..., (m,n).
        """
        coeffs = [0] * (self.m * self.n)
        for i, subset in enumerate(self.subsets, start=1):
            sgn = 1 if i % 2 == 0 else -1
            for j in subset:
                coeffs[(i - 1) * self.n + (j - 1)] = sgn
        return tuple(coeffs)

    def sides(self, lambdas_full):
        """(even side, odd side) at the padded tuple ``lambdas_full``, l(i)_j read at [i - 1][j - 1]."""
        sides = [0, 0]
        for i, subset in enumerate(self.subsets, start=1):
            sides[i % 2] += sum(lambdas_full[i - 1][j - 1] for j in subset)
        return sides[0], sides[1]

    def holds(self, lambdas_full) -> bool:
        even, odd = self.sides(lambdas_full)
        return even <= odd

    def slack(self, lambdas_full):
        even, odd = self.sides(lambdas_full)
        return odd - even

    def schema(self) -> str:
        """Human-readable rendering, |l(i)| for a full subset."""
        full = tuple(range(1, self.n + 1))

        def side(parity):
            terms = []
            for i, subset in enumerate(self.subsets, start=1):
                if i % 2 != parity or not subset:
                    continue
                if subset == full:
                    terms.append(f"|l({i})|")
                else:
                    terms.extend(f"l({i})_{j}" for j in subset)
            return " + ".join(terms) if terms else "0"

        return f"{side(0)} <= {side(1)}"


def _subset_tuple(subsets, n: int) -> SubsetTuple:
    """``subsets`` as it is if it is a SubsetTuple, else validated and sorted into one."""
    return subsets if isinstance(subsets, SubsetTuple) else SubsetTuple(subsets, n)


def _padded_conjugate(subset, n: int) -> IntSeq:
    """conj(lambda(I)) padded with zeros to n - |I| entries, for a sorted subset I."""
    conj = conjugate(lambda_of_sorted_set(subset))
    return conj + (0,) * (n - len(subset) - len(conj))


def underline_lambda(subsets, n: int) -> tuple[IntSeq, ...]:
    """The sequence tuple attached to a subset tuple (entries may go negative)."""
    st = _subset_tuple(subsets, n)
    m = st.m
    out = []
    for i in range(1, m + 1):
        I = st.subsets[i - 1]
        padded = _padded_conjugate(I, n)
        if i % 2 == 1:
            prev = st.subsets[(i - 2) % m]
            nxt = st.subsets[i % m]
            c = len(I) - len(prev) - len(nxt)
            padded = tuple(x - c for x in padded)
        out.append(padded)
    return tuple(out)


# (n, m, variant) -> the generate_T list; ("candidates", n, m) -> the
# classification both variants filter; ("sieve", n, m, variant) -> the
# two-term sums; ("rows", n, m, variant) -> in_cone's row getters;
# ("group", m) -> the symmetry group.  ``_FACET_CACHE`` below holds the
# minimal_facets lists; a cold start clears both.
_T_CACHE: dict[tuple, tuple | dict] = {}


def _candidates(n: int, m: int) -> tuple:
    """(subsets, f_sun value) of every candidate with a nonzero value, sorted.

    A candidate is a subset tuple with some |I_i| < n whose attached
    sequences are all partitions.  Even flags attach a padded conjugate,
    always a partition; odd flag i attaches it minus c_i, a partition iff
    its last entry is >= c_i, where c_i = |I_i| - |I_{i-1}| - |I_{i+1}|.
    So the size of each attached sequence depends only on I_i and on its
    neighbours' sizes.  The subsets are grouped by attached size, once:
    keyed by k = |I| for even flags and by (k, c) for odd flags.  For each
    choice of the sizes (|I_2|, |I_4|, ..., |I_m|) the even side's total
    sizes are tabulated, each odd flag's groups are read off its size and
    its two neighbours', and only the groups whose odd total equals an
    even total are expanded.  A skipped tuple is unbalanced, so
    ``cyclic_slot_boxes`` returns None and its chain sum is 0, which
    neither variant keeps: the sorted result is the one of the whole
    2^(nm) product.  The attached sequences are trimmed to canonical form
    once, per subset and per (subset, c_i).  The chain sums enter the memo
    of ``f_sun`` without its validation, as every sequence built here is a
    partition with fewer than n parts.  Both variants keep only nonzero
    values, so the zeros are not stored.
    """
    key = ("candidates", n, m)
    hit = _T_CACHE.get(key)
    if hit is not None:
        return hit
    # even[k] and odd[k, c]: {attached size: [(subset, canonical sequence)]}
    # over the subsets of size k; an odd-flag subset whose padded conjugate
    # less c is no partition is left out, and c lies in [k - 2n, k]
    even = [{} for _ in range(n + 1)]
    odd = {}
    for mask in range(2**n):
        s = tuple(j + 1 for j in range(n) if mask >> j & 1)
        k = len(s)
        seq = _padded_conjugate(s, n)
        size = sum(seq)
        even[k].setdefault(size, []).append((s, canonical(seq)))
        for c in range(k - 2 * n, k + 1):
            if not seq or seq[-1] >= c:
                odd.setdefault((k, c), {}).setdefault(size - c * (n - k), []).append(
                    (s, canonical(x - c for x in seq))
                )
    full = (tuple(range(1, n + 1)),) * m
    classified = []
    half = m // 2
    for eks in product(range(n + 1), repeat=half):  # |I_2|, |I_4|, ..., |I_m|
        # {even side's total size: [one group per even flag]}
        sides = {}
        for picks in product(*(even[k].items() for k in eks)):
            sides.setdefault(sum(w for w, _ in picks), []).append([group for _, group in picks])
        # odd flag 2j + 1 sits between even flags 2j and 2j + 2 (flag 0 is flag m)
        choices = [
            [pick for k in range(n + 1) for pick in odd.get((k, k - eks[j - 1] - eks[j]), {}).items()]
            for j in range(half)
        ]
        for odds in product(*choices):
            for evens in sides.get(sum(w for w, _ in odds), ()):
                flags = [group for pair in zip((group for _, group in odds), evens) for group in pair]
                for pairs in product(*flags):
                    subs, under = zip(*pairs)
                    if subs != full:
                        val = _f_sun_partitions(under)
                        if val:
                            classified.append((subs, val))
    classified.sort()
    _T_CACHE[key] = tuple(classified)
    return _T_CACHE[key]


def _check_budget(n: int, m: int, budget) -> None:
    """Refuse when the 2^(nm) subset tuples exceed the budget (default ``DEFAULT_T_BUDGET``)."""
    cap = DEFAULT_T_BUDGET if budget is None else budget
    # 2^(n*m) > cap, without building 2^(n*m)
    if cap < 1 or n * m >= cap.bit_length():
        raise BudgetExceededError(
            f"generate_T would enumerate 2^{n*m} subset tuples, budget is {cap}"
        )


def generate_T(n: int, m: int, variant: str = "one", budget=None) -> list[SubsetTuple]:
    """All subset tuples passing the partition and multiplicity filters.

    Both variants filter one classification of the candidates, made once
    per (n, m); it expands only balanced tuples, but the budget still
    counts the whole 2^(nm) product and is checked before it.  The tuples
    are built sorted from {1..n}, so the records skip ``check_subset``.
    The returned list is canonically sorted.
    """
    check_variant(variant)
    check_flag_count(m)
    check_rank(n)
    _check_budget(n, m, budget)
    key = (n, m, variant)
    if key in _T_CACHE:
        return list(_T_CACHE[key])
    one = variant == "one"
    kept = [SubsetTuple._make((subs, n)) for subs, val in _candidates(n, m) if (val == 1 if one else val != 0)]
    _T_CACHE[key] = tuple(kept)
    return kept


def _rational(x, lam, idx):
    """An int entry of ``lam`` = lambda(idx) as it is; a Fraction or "p/q" string as a Fraction."""
    if type(x) is int:
        return x
    check_exact(lam, f"lambda({idx})")
    from fractions import Fraction  # only a non-int entry needs it: no integer request loads it

    try:
        if isinstance(x, (Fraction, int, str)):
            return Fraction(x)
    except (ValueError, ZeroDivisionError):
        pass
    raise InvalidInputError(f"expected an exact rational, got {x!r}")


def _check_rational_tuple(lambdas, n: int, m: int):
    """Validate rational sequences, weakly decreasing once zero-padded to n.

    Returns them unpadded, and whether every entry is a plain ``int``.  As
    ``check_sequences`` does for integers, the length is read after the
    trailing zeros are trimmed, so each returned sequence has at most n
    entries.
    """
    if len(lambdas) != m:
        raise InvalidInputError(f"expected {m} sequences, got {len(lambdas)}")
    out = []
    plain = True
    for idx, lam in enumerate(lambdas, start=1):
        try:
            vals = list(lam)
        except TypeError:
            raise InvalidInputError(f"lambda({idx}) {lam!r} is not a sequence") from None
        if not all(type(x) is int for x in vals):
            plain = False
            vals = [_rational(x, lam, idx) for x in vals]
        # one zero stands for the padding; past the fast path, only trailing zeros beyond n pass
        if len(vals) > n or not is_weakly_decreasing(vals + [0] * (len(vals) < n)):
            check_decreasing(vals, f"lambda({idx})")
            vals = trim_zeros(vals)
            if len(vals) > n:
                raise InvalidInputError(f"lambda({idx}) has more than n={n} entries")
            check_negative_tail(vals, n, f"lambda({idx})")
        out.append(vals)
    return out, plain


def _two_term_sums(tuples, n: int, m: int, variant: str) -> dict:
    """{subsets: (J, K)} for the rows of ``tuples`` that two kept rows imply.

    A subset tuple is a bitmask over the coordinates l(i)_j, bit
    (i-1)*n + j-1, and its row is +-1 on those bits with the sign of the
    flag, so the rows add as masks do.  Walking ``tuples`` in order, row I
    is dropped when the rows still kept hold a J != I with either
    I = J + K (split: J a nonzero proper submask of I, K = I ^ J kept) or
    I = J + K - balance (cover: J a supermask of I, K = ~J | I kept and
    K != I), the balance row being the full mask.  Each dropped row is
    implied by rows kept when it was dropped, so, backwards along the walk,
    the rows kept at the end and the balance equality imply every row of
    ``tuples``.  Cached in ``_T_CACHE``.
    """
    key = ("sieve", n, m, variant)
    hit = _T_CACHE.get(key)
    if hit is not None:
        return hit
    full = (1 << n * m) - 1
    by_mask = {
        sum(1 << (i * n + j - 1) for i, s in enumerate(st.subsets) for j in s): st.subsets for st in tuples
    }
    kept = set(by_mask)
    sums = {}
    for I, subsets in by_mask.items():
        for J in kept:
            if J & I == J:
                K = I ^ J
                if J and K and K in kept:
                    break
            elif J & I == I:
                K = (full ^ J) | I
                if K != I and K in kept:
                    break
        else:
            continue
        kept.discard(I)
        sums[subsets] = (by_mask[J], by_mask[K])
    _T_CACHE[key] = sums
    return sums


def _index_rows(tuples, n: int, m: int, variant: str) -> tuple:
    """(even side, odd side) getters per inequality that ``_two_term_sums``
    keeps; with the balance equality they imply the rest.

    Each getter is an ``itemgetter`` over the flat tuple, l(i)_j at
    (i-1)*n + j-1, with one trailing 0 at n*m.  A side of fewer than two
    entries also reads that 0, once or twice, so every getter returns a
    tuple to sum.
    """
    key = ("rows", n, m, variant)
    rows = _T_CACHE.get(key)
    if rows is None:
        sieved = _two_term_sums(tuples, n, m, variant)
        zero = n * m

        def getter(flags):
            side = [*chain.from_iterable(flags)]
            return itemgetter(*side, *(zero,) * (2 - len(side)))

        rows = []
        for st in tuples:
            if st.subsets not in sieved:
                flat = [[k * n + j - 1 for j in subset] for k, subset in enumerate(st.subsets)]
                # the even flags I_2, I_4, ... (odd k) are the + side
                rows.append((getter(flat[1::2]), getter(flat[0::2])))
        rows = _T_CACHE[key] = tuple(rows)
    return rows


def in_cone(lambdas, n: int, m: int, variant: str = "one", budget=None) -> bool:
    """Membership in the rational cone cut out by the Horn-type inequalities.

    A tuple with a Fraction or "p/q" entry is scaled once by the lcm of
    its denominators, and one of plain ints is read as it is, so each
    inequality is a comparison of two sums of Python integers.  Only the
    rows ``_two_term_sums`` keeps are compared: with the balance equality,
    checked first, they imply the rest.  The budget is checked on every
    call, cached rows or not, and the tuple is padded to n only after it.
    The whole request is checked before the balance, so no invalid one
    reads as a non-member.
    """
    check_rank(n)
    check_variant(variant)
    check_flag_count(m)
    scaled, plain = _check_rational_tuple(lambdas, n, m)
    if not plain:
        scale = lcm(*(x.denominator for lam in scaled for x in lam))
        scaled = [[x.numerator * (scale // x.denominator) for x in lam] for lam in scaled]
    if sum(map(sum, scaled[0::2])) != sum(map(sum, scaled[1::2])):
        return False
    _check_budget(n, m, budget)
    rows = _T_CACHE.get(("rows", n, m, variant))
    if rows is None:
        rows = _index_rows(generate_T(n, m, variant, budget=budget), n, m, variant)
    flat = tuple(x for lam in scaled for x in lam + [0] * (n - len(lam))) + (0,)
    return all(sum(lo(flat)) <= sum(hi(flat)) for lo, hi in rows)


def restrict_to_subsets(full, subsets, complement=False) -> tuple[IntSeq, ...]:
    """Entries of each padded l(i) at the positions in I_i (or its complement)."""
    return tuple(
        tuple(x for p, x in enumerate(lam, start=1) if (p in subset) != complement)
        for lam, subset in zip(full, subsets)
    )


def factorization_check(lambdas, subsets, n: int, budget=None) -> dict:
    """On a wall, the multiplicity must factor through the subset split.

    Requires I to satisfy the minimal-candidate conditions (attached
    sequences are partitions with chain multiplicity exactly 1) and its
    inequality to hold with equality for this tuple; raises otherwise
    (reporting the slack when it is nonzero).
    """
    m = len(lambdas)
    st = _subset_tuple(subsets, n)
    if st.m != m:
        raise InvalidInputError(f"subset tuple has {st.m} flags but {m} sequences given")
    lams = check_sequences(lambdas, n, partitions=True)
    under = underline_lambda(st, n)
    if not all(is_partition(u) for u in under):
        raise InvalidInputError("subset tuple fails the partition conditions for a wall")
    if f_sun(under, n) != 1:
        # multiplicity one is what makes the wall pairing split the chain
        # sum; tuples that merely have nonzero attached multiplicity index
        # redundant inequalities and do not factor (e.g. all (1,1) with
        # I = ({1},{2},{1},{2}): value 3, would-be factors 2 and 2)
        raise InvalidInputError(
            "subset tuple is not a minimal wall candidate (attached multiplicity != 1)"
        )
    full = [pad(l, n) for l in lams]
    slack = st.slack(full)
    if slack != 0:
        raise WallPreconditionError(
            f"inequality is not tight for this tuple (slack {slack})", slack
        )
    star = restrict_to_subsets(full, st.subsets)
    sharp = restrict_to_subsets(full, st.subsets, complement=True)
    n_star = max((len(s) for s in star), default=0) or 1
    n_sharp = max((len(s) for s in sharp), default=0) or 1
    value = f_sun(lams, n, budget=budget)
    v_star = f_sun(star, n_star, budget=budget)
    v_sharp = f_sun(sharp, n_sharp, budget=budget)
    return {
        "value": value,
        "star": [list(s) for s in star],
        "sharp": [list(s) for s in sharp],
        "value_star": v_star,
        "value_sharp": v_sharp,
        "passed": value == v_star * v_sharp,
    }


def find_tight_tuples(lambdas, n: int, *, budget=None):
    """All nonempty minimal-candidate tuples whose inequality is tight for this integer tuple."""
    lams = check_sequences(lambdas, n, partitions=True)
    tuples = generate_T(n, len(lams), budget=budget)
    full = [pad(l, n) for l in lams]
    return [st for st in tuples if any(st.subsets) and st.slack(full) == 0]


# ---------------------------------------------------------------------------
# symmetry group and facet minimality


def symmetry_group(m: int):
    """Flag permutations preserving the polygon and the odd/even alternation.

    Each element is a tuple g with g[i-1] the image of flag i: rotations by
    an even shift plus the reflections i -> c - i (mod m) for even c.  Built
    once per m and cached in ``_T_CACHE``.
    """
    key = ("group", m)
    group = _T_CACHE.get(key)
    if group is None:
        perms = []
        for t in range(0, m, 2):
            perms.append(tuple((i - 1 + t) % m + 1 for i in range(1, m + 1)))
        for c in range(0, m, 2):
            perms.append(tuple((c - i) % m or m for i in range(1, m + 1)))
        group = _T_CACHE[key] = tuple(perms)
    return group


def apply_permutation(perm, subsets):
    out = [None] * len(subsets)
    for i, s in enumerate(subsets, start=1):
        out[perm[i - 1] - 1] = s
    return tuple(out)


def orbit(subsets, m: int):
    return {apply_permutation(g, subsets) for g in symmetry_group(m)}


def canonical_orbit_representative(subsets, m: int):
    return min(orbit(subsets, m))


def _chamber_rows(n: int, m: int):
    """l(i)_{j+1} - l(i)_j <= 0: the weakly decreasing conditions."""
    rows = []
    for i in range(m):
        for j in range(n - 1):
            row = [0] * (m * n)
            row[i * n + j] = -1
            row[i * n + j + 1] = 1
            rows.append(tuple(row))
    return rows


def _balance_row(n: int, m: int):
    """The row of the full subset tuple: total size of the even flags less that of the odd ones."""
    return SubsetTuple([range(1, n + 1)] * m, n).coefficient_vector()


_FACET_CACHE: dict[tuple, tuple] = {}


def minimal_facets(n: int, m: int) -> list[SubsetTuple]:
    """Irredundant subset of the candidate inequalities, by two-term sums and exact LP.

    A candidate is kept iff its row is not a nonnegative combination of the
    other candidate rows, the chamber rows, and the balance equality; for a
    full-dimensional cone this is exactly the facet list.  Redundancy is a
    symmetry-invariant, so only one representative per orbit is decided.

    The columns of these LPs are built once, and an orbit found redundant
    leaves every later LP.  That changes no answer: the cone the rows span
    is pointed modulo the balance row (the cone K(n, m) they cut out is
    full-dimensional in the balance hyperplane), and no two rows are
    parallel modulo it (each row has entries in {0, 1, -1}, of one sign
    per flag for a candidate and of both signs in one flag for a chamber
    row).  So each extreme ray holds exactly one row, which is never found
    redundant, and every other row is a nonnegative combination of those
    extreme rows.

    A representative that ``_two_term_sums`` drops from the "one" list
    needs no LP: its row is the sum of two candidate rows, less the balance
    row for a cover, and neither is parallel to it modulo the balance row
    (each is a nonzero mask other than its own, its complement and the
    full one), so it is not extreme and hence redundant.  Its orbit, and
    the zero row, leave the columns before the first LP, so each LP prices
    only rows the sieve keeps, besides the chamber and balance columns.
    """
    key = (n, m)
    if key in _FACET_CACHE:
        return list(_FACET_CACHE[key])
    tuples = generate_T(n, m, "one")
    sieved = _two_term_sums(tuples, n, m, "one")
    vectors = {st.subsets: st.coefficient_vector() for st in tuples}
    by_orbit: dict[tuple, list[SubsetTuple]] = {}
    for st in tuples:
        by_orbit.setdefault(canonical_orbit_representative(st.subsets, m), []).append(st)
    # the orbits an LP decides: a sieved or zero representative is redundant
    undecided = [
        members for members in by_orbit.values()
        if members[0].subsets not in sieved and any(vectors[members[0].subsets])
    ]
    live_keys = [st.subsets for members in undecided for st in members]
    live = dict(zip(live_keys, cone_columns([vectors[k] for k in live_keys], [])))
    fixed = cone_columns(_chamber_rows(n, m), [_balance_row(n, m)])
    kept = []
    for members in undecided:
        rep = members[0].subsets
        if cone_implied(vectors[rep], [col for key2, col in live.items() if key2 != rep] + fixed):
            for st in members:
                del live[st.subsets]
        else:
            kept.extend(members)
    kept.sort(key=lambda st: st.subsets)
    _FACET_CACHE[key] = tuple(kept)
    return list(kept)


def is_trivial_facet(st: SubsetTuple) -> bool:
    """Facets whose dimension vector or its complement is a simple root.

    These encode weak decrease and nonnegativity of the sequences (the
    chamber conditions plus l(i)_n >= 0) and are excluded from the regular
    facet list.
    """
    # beta_I summed over all vertices; beta itself sums to m n (n + 1) / 2
    total = sum(st.n - z + 1 for s in st.subsets for z in s)
    return total in (1, st.m * st.n * (st.n + 1) // 2 - 1)


def regular_facets(n: int, m: int) -> list[SubsetTuple]:
    """Facets other than the trivial (simple-root) ones."""
    return [st for st in minimal_facets(n, m) if not is_trivial_facet(st)]


# ---------------------------------------------------------------------------
# golden data for n = 2, m = 6


def facets_2_6_golden() -> dict:
    """The embedded facet list for n = 2, m = 6: 14 inequality schemas and
    the matching dimension vectors, up to the polygon symmetries."""
    from importlib import resources  # only this reads a file: no other request loads it

    return json.loads(resources.files("sunlr").joinpath("data/facets_2_6.json").read_text())


def facets_2_6_closure() -> list[SubsetTuple]:
    """The golden list expanded under the symmetry group (all 63 facets)."""
    out = set()
    for rec in facets_2_6_golden()["facets"]:
        subs = tuple(tuple(s) for s in rec["subsets"])
        out.update(orbit(subs, 6))
    return [SubsetTuple(subs, 2) for subs in sorted(out)]


def facet_record(st: SubsetTuple, ident: int) -> dict:
    """Canonical JSON record for one facet of the (2, 6) cone."""
    # the dimension vector along each flag, outer vertex first
    beta_flags = [[sum(1 for z in s if z <= j) for j in range(1, st.n + 1)] for s in st.subsets]
    order = (3, 2, 4, 1, 5, 6)  # the row order of the flags in the printed diagrams
    return {
        "id": ident,
        "subsets": [list(s) for s in st.subsets],
        "inequality": st.schema(),
        "beta1_flags": beta_flags,
        "beta1_outer_as_printed": [beta_flags[i - 1][0] for i in order],
        "beta1_central_as_printed": [beta_flags[i - 1][1] for i in order],
    }


def _by_orbit(records) -> dict:
    """Facet records keyed by the canonical representative of their orbit; a later record wins."""
    return {canonical_orbit_representative(tuple(map(tuple, rec["subsets"])), 6): rec for rec in records}


def computed_facets_2_6() -> dict:
    """Recompute the (2, 6) regular facet data from scratch, symmetry-reduced.

    Orbit representatives are chosen to match the golden list when the
    orbits agree; otherwise the canonical (minimal) representative is used.
    """
    facets = regular_facets(2, 6)
    golden = facets_2_6_golden()
    printed = {rep: tuple(map(tuple, rec["subsets"])) for rep, rec in _by_orbit(golden["facets"]).items()}
    reps = sorted({canonical_orbit_representative(st.subsets, 6) for st in facets})
    records = [facet_record(SubsetTuple(printed.get(rep, rep), 2), k) for k, rep in enumerate(reps, start=1)]
    return {"version": golden["version"], "n": 2, "m": 6, "facets": records}


def verify_facets_2_6() -> dict:
    """Bit-exact comparison of recomputed facet data against the golden file.

    Both record lists are keyed by orbit, so the comparison does not depend
    on which representative the publication printed, and ``id`` is ignored.
    """
    golden = _by_orbit(facets_2_6_golden()["facets"])
    computed = _by_orbit(computed_facets_2_6()["facets"])
    # compared as copies with the ids blanked: the printed numbering may differ
    passed = golden.keys() == computed.keys() and all(
        {**golden[r], "id": 0} == {**computed[r], "id": 0} for r in golden
    )
    return {
        "passed": passed,
        "golden_count": len(golden),
        "computed_count": len(computed),
        "missing": [list(map(list, rep)) for rep in sorted(golden.keys() - computed.keys())],
        "extra": [list(map(list, rep)) for rep in sorted(computed.keys() - golden.keys())],
    }
