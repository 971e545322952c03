"""Answer checks for the benchmark workloads.

Each ``check_<workload>`` takes the queries of a round and the answers the
program gave, and returns a list of problems (empty when every answer is
right).  The closed forms at the top are the benchmark's own code and import
nothing from ``sunlr``; the README states, for each check that does call back
into the package, which code it shares with the route it checks.
"""

from __future__ import annotations

import json
import random
from itertools import product
from math import comb

# one-row queries c^{(2N)}_{(N),(N)} = 1 that exceed the recursion limit of
# the tableau counter: the chain workload expects them to fail
RECURSION_FAULT_ROWS = (1200, 1600, 2000)

# ---------------------------------------------------------------------------
# independent closed forms


def dihedral_images(lams):
    """All rotations and reflections of a cyclic tuple, starting with itself."""
    m = len(lams)
    out = []
    for s in range(m):
        r = tuple(lams[s:]) + tuple(lams[:s])
        out.append(r)
        out.append(tuple(reversed(r)))
    return out


def parity_images(subsets):
    """The images under rotations by an even shift and the reflections that
    keep odd flags odd: rotation s maps position k to k + s, and reversing a
    rotation by s maps it to s - 1 - k, which keeps parity when s is odd."""
    imgs = dihedral_images(subsets)
    return [imgs[2 * s + s % 2] for s in range(len(subsets))]


def balanced(lams):
    """Odd-numbered and even-numbered sequences have the same total size."""
    return sum(map(sum, lams[0::2])) == sum(map(sum, lams[1::2]))


def n1_cycle_count(tops):
    """f_sun for n = 1: integer a(1..m) >= 0 with a(i) + a(i+1) = tops[i] cyclically."""
    m = len(tops)
    count = 0
    for a1 in range(tops[0] + 1):
        a = a1
        for t in tops:
            a = t - a
            if a < 0:
                break
        else:
            count += a == a1
    return count


def level1_value(jumps, N):
    """f_sun((N^{j_1}), ..., (N^{j_m})) = C(N + s, N), or 0 off the cone.

    s is the least of the jumps and of J_i = j_i - j_{i+1} + j_{i+2}; the
    value is 0 unless odd and even jump totals agree and every J_i >= 0.
    """
    m = len(jumps)
    if sum(jumps[0::2]) != sum(jumps[1::2]):
        return 0
    J = [jumps[i] - jumps[(i + 1) % m] + jumps[(i + 2) % m] for i in range(m)]
    if min(J) < 0:
        return 0
    return comb(N + min(min(jumps), min(J)), N)


def _padded(p, n):
    return tuple(p) + (0,) * (n - len(p))


def pieri_value(lam, mu, nu, n):
    """c^nu_{lam,mu} for one-row mu: 1 iff nu/lam is a horizontal strip of size |mu|."""
    if len(mu) > 1:
        raise ValueError("Pieri rule needs a one-row mu")
    if len(nu) > n or len(lam) > n:
        return 0
    lam, nu = _padded(lam, n), _padded(nu, n)
    if sum(nu) - sum(lam) != sum(mu):
        return 0
    for i in range(n):
        if not lam[i] <= nu[i] or (i and nu[i] > lam[i - 1]):
            return 0
    return 1


def rect_value(lam, mu, N, n):
    """c^{(N^n)}_{lam,mu}: 1 iff lam_i + mu_{n+1-i} = N for every i."""
    if len(lam) > n or len(mu) > n:
        return 0
    lam, mu = _padded(lam, n), _padded(mu, n)
    return int(all(lam[i] + mu[n - 1 - i] == N for i in range(n)))


def lr_closed_form(lam, mu, nu, n):
    """The closed form that covers a triple, or None."""
    if len(mu) <= 1:
        return pieri_value(lam, mu, nu, n)
    if len(lam) <= 1:
        return pieri_value(mu, lam, nu, n)
    if nu and len(set(nu)) == 1 and len(nu) == n:
        return rect_value(lam, mu, nu[0], n)
    return None


def horn_member(lams, n, facets):
    """Integer tuple in the cone cut out by the facet rows and the balance equality."""
    if not balanced(lams):
        return False
    full = [_padded(l, n) for l in lams]
    for subsets in facets:
        even = sum(full[i][j - 1] for i, s in enumerate(subsets) if i % 2 for j in s)
        odd = sum(full[i][j - 1] for i, s in enumerate(subsets) if not i % 2 for j in s)
        if even > odd:
            return False
    return True


def partitions_in_box(n, top):
    """Every partition with at most n parts and entries at most top."""
    return [tuple(x for x in p if x) for p in product(range(top, -1, -1), repeat=n)
            if all(p[i] >= p[i + 1] for i in range(n - 1))]


# ---------------------------------------------------------------------------
# per-workload checks


def check_chain(queries, answers, seed):
    """Checks for the chain workload; calls back into f_sun and count_sun_hives."""
    from sunlr import generalized, hive

    rng = random.Random(f"chain-check/{seed}")
    problems = []

    def bad(q, why):
        problems.append(f"{q.family} {q.func}{q.args[:2]}: {why}")

    hive_checked = 0
    for q, ans in zip(queries, answers):
        if isinstance(ans, BaseException):
            known = (
                isinstance(ans, RecursionError)
                and q.func == "lr_coefficient"
                and q.args[0] and q.args[0][0] in RECURSION_FAULT_ROWS
            )
            if not known:
                bad(q, f"raised {ans!r}")
            continue
        if q.family == "anchor":
            if ans != 13222872:
                bad(q, f"got {ans}, expected 13222872")
        elif q.family in ("f_sun", "n1"):
            lams, n = q.args
            if ans < 1:  # every tuple is built around a chain contributing 1
                bad(q, f"got {ans} for a tuple with a known chain")
            if q.family == "n1" and ans != n1_cycle_count([l[0] if l else 0 for l in lams]):
                bad(q, f"got {ans}, direct cycle count disagrees")
            images = dihedral_images(lams)[1:]
            for img in (rng.choice(images[1::2]), rng.choice(images[0::2])):
                if generalized.f_sun(img, n) != ans:
                    bad(q, f"image {img} has another value")
            if q.family == "f_sun" and n == 2 and hive_checked < 8:
                hive_checked += 1
                if hive.count_sun_hives(lams, n) != ans:
                    bad(q, "count_sun_hives disagrees")
        elif q.family == "stretch":
            if len({v > 0 for v in ans}) != 1:
                bad(q, f"zero/nonzero status changes along the table {ans}")
        elif q.family == "level1":
            problem, N_max = q.args
            jumps = [len(l) for l in problem.lambdas]
            want = [level1_value(jumps, N) for N in range(1, N_max + 1)]
            if ans != want:
                bad(q, f"got {ans}, expected {want}")
        elif q.family in ("f1", "f2"):
            if ans < 1:
                bad(q, f"got {ans} for a tuple with a known chain")
        elif q.family in ("pieri", "rect"):
            want = lr_closed_form(*q.args)
            if ans != want:
                bad(q, f"got {ans}, expected {want}")
        else:
            bad(q, "unknown family")
    return problems


def check_lp(queries, answers, seed):
    """Every positivity answer equals f_sun > 0 from the chain route."""
    from sunlr import generalized

    problems = []
    for q, ans in zip(queries, answers):
        lams, n, m = q.args
        if isinstance(ans, BaseException):
            problems.append(f"positivity{lams} raised {ans!r}")
        elif ans is not (generalized.f_sun(lams, n) > 0):
            problems.append(f"positivity{lams} = {ans}, chain route disagrees")
    return problems


# largest entry of the box of integer tuples on which each facet list is tried
HORN_BOX_TOP = {(1, 6): 2, (1, 8): 1, (2, 4): 2, (2, 6): 1}


def check_horn(queries, answers, seed):
    """Facet lists against f_sun on a box, golden (2, 6) data, variant agreement."""
    from sunlr import generalized, horn

    problems = []
    facets = {}
    for q, ans in zip(queries, answers):
        if isinstance(ans, BaseException):
            problems.append(f"{q.func}{q.args[:3]} raised {ans!r}")
        elif q.family == "facets":
            facets[q.args] = [st.subsets for st in ans]
        elif q.family == "verify26":
            if not (ans["passed"] and ans["golden_count"] == ans["computed_count"] == 14):
                problems.append(f"verify_facets_2_6 failed: {ans}")
            # the (2, 6) lists the round computed, read from the warm facet cache
            closure = {img for st in horn.regular_facets(2, 6) for img in parity_images(st.subsets)}
            if len(closure) != 63:
                problems.append(f"(2, 6) regular facets close to {len(closure)} facets, not 63")
            facets[(2, 6)] = [st.subsets for st in horn.minimal_facets(2, 6)]
    for (n, m), rows in sorted(facets.items()):
        parts = partitions_in_box(n, HORN_BOX_TOP[(n, m)])
        for lams in product(parts, repeat=m):
            if horn_member(lams, n, rows) != (generalized.f_sun(lams, n) != 0):
                problems.append(f"facets of ({n}, {m}) misjudge {lams}")
                break
    seen = set()
    for q, ans in zip(queries, answers):
        if q.family != "cone" or isinstance(ans, BaseException) or (q, ans) in seen:
            continue
        seen.add((q, ans))
        lams, n, m = q.args
        other = "nonzero" if dict(q.kwargs)["variant"] == "one" else "one"
        if horn.in_cone(lams, n, m, other) != ans:
            problems.append(f"in_cone{lams} differs between variants")
        if ans != (generalized.f_sun(lams, n) != 0):
            problems.append(f"in_cone{lams} = {ans}, f_sun disagrees")
    return problems


def check_cli(queries, answers, seed):
    """Exit codes, cross-check fields, and closed forms where a request has one."""
    problems = []
    for q, (code, out, err) in zip(queries, answers):
        argv, doc = q.args
        where = f"{' '.join(argv)} {doc}"
        if code != 0:
            problems.append(f"{where}: exit {code}: {err.strip()[-200:]}")
            continue
        try:
            rep = json.loads(out)
        except ValueError:
            problems.append(f"{where}: output is not JSON")
            continue
        problems += [f"{where}: {p}" for p in _check_report(argv, json.loads(doc), rep)]
    return problems


def _check_report(argv, doc, rep):
    kind, n, lams = doc["kind"], doc["n"], [tuple(l) for l in doc["lambdas"]]
    cc = rep.get("cross_check")
    if ("--cross-check" in argv) != (cc is not None):
        return ["cross_check field missing or unexpected"]
    if kind == "f_sun":
        v = rep["value"]
        if not (cc["chain"] == cc["sun_hive_count"] == cc["weight_space"] == v):
            return [f"counts disagree: {cc}"]
        if cc["lp_positivity"] is not (v > 0):
            return [f"LP positivity disagrees: {cc}"]
        if v and not balanced(lams):
            return [f"unbalanced tuple has value {v}"]
    elif kind == "lr":
        want = lr_closed_form(*lams, n)
        if cc["tableau"] != cc["hive"] or rep["value"] != cc["tableau"]:
            return [f"counts disagree: {cc}"]
        if want is not None and rep["value"] != want:
            return [f"value {rep['value']}, closed form {want}"]
    elif kind == "positivity":
        if cc["lp_positive"] is not (cc["chain_value"] > 0) or rep["positive"] is not cc["lp_positive"]:
            return [f"positivity disagrees: {cc}"]
        if rep["positive"] and not balanced(lams):
            return ["unbalanced tuple reported positive"]
    elif kind == "cone":
        if cc is not None and len(set(cc.values())) != 1:
            return [f"variants disagree: {cc}"]
        if n == 1 and rep["in_cone"] is not (n1_cycle_count([l[0] if l else 0 for l in lams]) > 0):
            return [f"in_cone {rep['in_cone']}, direct cycle count disagrees"]
    elif kind == "stretch":
        want = [level1_value([len(l) for l in lams], N) for N in range(1, doc["N_max"] + 1)]
        if rep["values"] != want:
            return [f"values {rep['values']}, closed form {want}"]
    return []


CHECKS = {"chain": check_chain, "lp": check_lp, "horn": check_horn, "cli": check_cli}
