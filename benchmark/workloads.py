"""Seeded inputs for the four benchmark workloads, and one timed round of each.

A workload is a fixed list of queries built from the seed.  Every round runs
the whole list once, after emptying every memo of the package, so each round
sees the cold caches of a fresh process.  The number of queries in a round
and the families they come from never depend on the seed; only the inputs
inside each family do.

A query names a public function as (module, attribute), looked up at call
time, so the tracer can rebind the attribute.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from itertools import permutations

from sunlr import generalized, hive, horn, lr

from checks import RECURSION_FAULT_ROWS, balanced, n1_cycle_count, partitions_in_box
from speed import ChildMeter, Meter, children_cpu


@dataclass(frozen=True)
class Query:
    family: str  # which checker family the answer belongs to
    module: str  # "generalized", "lr", "hive", "horn" or "cli"
    func: str
    args: tuple
    kwargs: tuple = ()  # sorted (key, value) pairs


@dataclass
class RoundResult:
    answers: list  # one per query; an exception instance if the call raised
    query_cpu: list  # CPU seconds per query (children's CPU for cli)
    query_slowdown: list  # how much slower than the reference machine (speed.py)
    cpu_s: float  # the round's CPU and wall time, ticks taken out
    wall_s: float
    cpu_slowdown: float  # the same over the whole round
    wall_slowdown: float


MODULES = {"generalized": generalized, "hive": hive, "horn": horn, "lr": lr}


def clear_memos():
    """Empty every memo of the package, as in a fresh process."""
    generalized._F_SUN_MEMO.clear()
    lr._lr_tableau_count.cache_clear()
    lr._lr_hive_count_cached.cache_clear()
    horn._T_CACHE.clear()
    horn._FACET_CACHE.clear()


# ---------------------------------------------------------------------------
# partition helpers for input construction


def rand_partition(rng, n, top, low=0):
    """A partition with at most n parts and entries at most top (n parts of
    at least low when low > 0)."""
    return tuple(sorted((p for p in (rng.randint(low, top) for _ in range(n)) if p), reverse=True))


def sized_partition(rng, n, top, s):
    """A partition of s with at most n parts and entries at most top."""
    return rng.choice([p for p in partitions_in_box(n, top) if sum(p) == s])


def part_sum(a, b):
    """Componentwise sum; c^{a+b}_{a,b} = 1, so it seeds a nonzero chain."""
    w = max(len(a), len(b))
    a = a + (0,) * (w - len(a))
    b = b + (0,) * (w - len(b))
    return tuple(x + y for x, y in zip(a, b) if x + y)


def halves(a):
    """Split a partition into two partitions summing to it (ceil, floor)."""
    return tuple(x - x // 2 for x in a if x - x // 2), tuple(x // 2 for x in a if x // 2)


def chain_tuple(alphas):
    """l(i) = a(i) + a(i+1): the chain a itself contributes 1 to f_sun."""
    m = len(alphas)
    return tuple(part_sum(alphas[i], alphas[(i + 1) % m]) for i in range(m))


# ---------------------------------------------------------------------------
# chain: the LR kernel and the chain engine


def chain_queries(seed):
    """650 queries in four cost bands, sized so that the median and the 95th
    percentile of per-query time each fall in the middle of one band of
    similar queries rather than on the edge between two.  Inputs within a
    family are distinct, so no query is a memo hit on an earlier one."""
    rng = random.Random(f"chain/{seed}")
    qs = [Query("anchor", "generalized", "f_sun", (((8, 6, 4, 2),) * 4, 4))]

    def f_sun_family(count, n, draw):
        for lams in _distinct(count, lambda: chain_tuple(draw())):
            qs.append(Query("f_sun", "generalized", "f_sun", (lams, n)))

    # top band (the 95th percentile): n = 2, m = 6 chains whose alphas are
    # the 90 arrangements of one fixed multiset of partitions of 4; their
    # costs run from 2 to 7 ms, so every seed takes all of them, and the
    # 95th percentile does not move with the seed's choice
    arrangements = sorted(set(permutations(((4,), (4,), (3, 1), (3, 1), (2, 2), (2, 2)))))
    for alphas in arrangements:
        qs.append(Query("f_sun", "generalized", "f_sun", (chain_tuple(alphas), 2)))

    # upper band: f_sun over a small pool of partitions per group (shared LR
    # factors) and over fresh column tuples (few shared factors), stretched
    # tables and level-1 tables (N^{j_i})
    for group in range(10):
        pool = [sized_partition(rng, 3, 3, s) for s in (1, 2, 3, 4)]
        f_sun_family(5, 3, lambda: [rng.choice(pool) for _ in range(4)])
    f_sun_family(34, 4, lambda: [(1,) * rng.randint(0, 4) for _ in range(4)])
    for k, lams in enumerate(_distinct(8, lambda: chain_tuple(
            [sized_partition(rng, 3, 1, rng.randint(1, 2)) for _ in range(4)]))):
        if k >= 6:  # balanced but not built around a chain: may vanish
            lams = _balanced_tuple(rng, 3, 2, 4)
        problem = generalized.ChainProblem("f_sun", 3, lams)
        qs.append(Query("stretch", "generalized", "stretched_table", (problem, 3)))
    for b in _distinct(8, lambda: tuple(rng.randint(0, 1) for _ in range(4 + 2 * rng.randint(0, 1)))):
        qs.append(Query("level1", "generalized", "stretched_table", (_level1_problem(b, 3), 2)))

    # middle band (the median): the open chains f1 and f2, and n = 1 cycles
    # (checked by the direct cycle counter)
    # (as many of each length m in every seed, so that the band's make-up,
    # and with it the median, does not move with the seed; m = 4 has only
    # 20 distinct f1 tuples and 27 f2 tuples)
    for m, count in ((4, 16), (5, 46), (6, 58)):
        for lams in _distinct(count, lambda: _f1_tuple(rng, m)):
            qs.append(Query("f1", "generalized", "f1", (lams, 3)))
    for m, count in ((4, 24), (5, 36), (6, 60)):
        for lams in _distinct(count, lambda: _f2_tuple(rng, m)):
            qs.append(Query("f2", "generalized", "f2", (lams, 3)))
    for lams in _distinct(58, lambda: chain_tuple(_n1_alphas(rng, 6, 12))):
        qs.append(Query("n1", "generalized", "f_sun", (lams, 1)))

    # lower band: single coefficients with closed forms (Pieri, rectangular
    # complement), f2 with m = 3, and the one-row queries past the
    # recursion limit
    for k in range(100):
        qs.append(Query("pieri", "lr", "lr_coefficient", _pieri_triple(rng, zero=k % 4 == 3)))
    for k in range(40):
        qs.append(Query("rect", "lr", "lr_coefficient", _rect_triple(rng, zero=k % 4 == 3)))
    for k in range(18):
        qs.append(Query("f2", "generalized", "f2", (_f2_tuple(rng, 3), 3)))
    for N in RECURSION_FAULT_ROWS:
        qs.append(Query("pieri", "lr", "lr_coefficient", ((N,), (N,), (2 * N,), 1)))
    # interleave the bands, so that a burst of load on the machine falls on
    # queries of every band alike; the anchor stays first, on cold caches
    rest = qs[1:]
    rng.shuffle(rest)
    return qs[:1] + rest


def _distinct(count, draw):
    """count distinct values of draw(), in the order drawn."""
    seen = {}
    while len(seen) < count:
        seen.setdefault(draw(), None)
    return list(seen)


def _level1_problem(b, n):
    """Column partitions (1^{j_i}) with j_i = b_i + b_{i+1}: balanced, J >= 0."""
    m = len(b)
    jumps = [b[i] + b[(i + 1) % m] for i in range(m)]
    return generalized.ChainProblem("f_sun", n, tuple((1,) * j for j in jumps))


def _n1_alphas(rng, m, total):
    """m one-row partitions with entries at most 4 and a fixed total."""
    while True:
        a = [rng.randint(0, 4) for _ in range(m)]
        if sum(a) == total:
            return [(x,) if x else () for x in a]


def _balanced_tuple(rng, n, top, m):
    while True:
        lams = tuple(rand_partition(rng, n, top) for _ in range(m))
        if balanced(lams):
            return lams


def _f1_tuple(rng, m):
    """(l1, ..., lm) with a nonzero open chain of f1 through a1 = l1 + l2."""
    l1, l2 = sized_partition(rng, 3, 2, 3), rand_partition(rng, 3, 2)
    a = part_sum(l1, l2)
    mids = []
    for _ in range(m - 4):
        nxt = rand_partition(rng, 3, 2)
        mids.append(part_sum(a, nxt))
        a = nxt
    return (l1, l2, *mids, *halves(a))


def _f2_tuple(rng, m):
    """(l1, ..., lm) with a nonzero open chain of f2 pinned at l1 and lm."""
    first = sized_partition(rng, 3, 3, 4)
    alphas = [sized_partition(rng, 3, 3, 4) for _ in range(m - 3)]
    last = sized_partition(rng, 3, 3, 4)
    path = [first, *alphas, last]
    middle = [part_sum(path[i], path[i + 1]) for i in range(len(path) - 1)]
    return (first, *middle, last)


def _pieri_triple(rng, zero):
    n = rng.randint(2, 4)
    lam = rand_partition(rng, n, 6)
    full = lam + (0,) * (n - len(lam))
    # add a horizontal strip: row i may grow up to the old row i - 1
    nu = list(full)
    for i in range(n):
        cap = full[i - 1] if i else full[0] + 4
        nu[i] = rng.randint(full[i], cap)
    if zero:  # a vertical domino breaks the strip condition
        nu[0] += 1
        nu[1] = max(nu[1], full[0] + 1)
    k = sum(nu) - sum(full)
    return lam, ((k,) if k else ()), tuple(x for x in nu if x), n


def _rect_triple(rng, zero):
    n = rng.randint(2, 4)
    N = rng.randint(2, 6)
    lam = rand_partition(rng, n, N)
    full = lam + (0,) * (n - len(lam))
    mu = [N - full[n - 1 - i] for i in range(n)]
    if zero and mu[0] > 0:  # move one box: same size, wrong complement
        mu[0] -= 1
        mu[-1] += 1
        mu.sort(reverse=True)
    return lam, tuple(x for x in mu if x), (N,) * n, n


# ---------------------------------------------------------------------------
# lp: hive systems and the exact LP

# The zero boundary is the cheapest feasible n = 3, m = 4 system: 13 live
# variables and 120 rows after equality elimination, decided by
# Fourier-Motzkin.
LP_N3 = ((), (), (), ())


def lp_queries(seed):
    """One feasible n = 3 system, then n = 2 systems in three cost bands:
    six balanced tuples decided by Fourier-Motzkin, and unbalanced m = 6 and
    m = 4 tuples decided by equality elimination alone.  The 95th percentile
    falls among the m = 6 ones and the median among the m = 4 ones.  The
    queries run in a seeded order."""
    rng = random.Random(f"lp/{seed}")
    qs = [Query("lp", "hive", "positivity", (LP_N3, 3, 4))]
    for k in range(6):
        m, top = ((4, 2), (6, 1))[k % 2]
        qs.append(Query("lp", "hive", "positivity", (_balanced_tuple(rng, 2, top, m), 2, m)))
    for m, count in ((6, 30), (4, 403)):
        for lams in _distinct(count, lambda: _unbalanced_tuple(rng, 2, 4, m, low=1)):
            qs.append(Query("lp", "hive", "positivity", (lams, 2, m)))
    # no memo is involved, so the order is free: interleave the bands, so
    # that a burst of load on the machine falls on every band alike
    rng.shuffle(qs)
    return qs


def _unbalanced_tuple(rng, n, top, m, low=0):
    while True:
        lams = tuple(rand_partition(rng, n, top, low) for _ in range(m))
        if not balanced(lams):
            return lams


# ---------------------------------------------------------------------------
# horn: candidate generation, facet minimality and membership

HORN_SHAPES = ((1, 6), (1, 8), (2, 4))


def horn_queries(seed):
    """minimal_facets, verify_facets_2_6 and in_cone on balanced tuples.

    Members of the cone make in_cone read every inequality, so their cost is
    set by (n, m): (1, 6) members and non-members are cheapest, then (2, 4)
    members (the band of the median), (1, 8) members, and (2, 6) members
    (the band of the 95th percentile).  Non-members are one-row tuples
    whose direct cycle count is 0.  The in_cone queries and the three
    minimal_facets run first, in a seeded order (whichever query first
    needs a candidate list pays for generate_T), and verify_facets_2_6
    last: after it the heap holds its memos, and in_cone times there are
    both longer and far more spread.
    """
    rng = random.Random(f"horn/{seed}")
    qs = []

    def cone(count, n, m, draw):
        for k, lams in enumerate(_distinct(count, draw)):
            variant = ("one", "nonzero")[k % 2]
            qs.append(Query("cone", "horn", "in_cone", (lams, n, m), (("variant", variant),)))

    cone(104, 2, 6, lambda: chain_tuple([rand_partition(rng, 2, 1) for _ in range(6)]))
    cone(240, 1, 8, lambda: chain_tuple([(rng.randint(0, 2),) for _ in range(8)]))
    cone(400, 2, 4, lambda: chain_tuple([rand_partition(rng, 2, 2) for _ in range(4)]))
    cone(168, 1, 6, lambda: chain_tuple(_n1_alphas(rng, 6, 6)))
    cone(120, 1, 6, lambda: _n1_nonmember(rng, 6))
    qs += [Query("facets", "horn", "minimal_facets", nm) for nm in HORN_SHAPES]
    rng.shuffle(qs)
    return qs + [Query("verify26", "horn", "verify_facets_2_6", ())]


def _n1_nonmember(rng, m):
    """A balanced one-row tuple outside the cone: its cycle count is 0."""
    while True:
        lams = _balanced_tuple(rng, 1, 3, m)
        if n1_cycle_count([l[0] if l else 0 for l in lams]) == 0:
            return lams


# ---------------------------------------------------------------------------
# cli: one closed-loop client, a fresh interpreter per request


def cli_queries(seed):
    """200 requests in a seeded order: four f --cross-check on balanced
    tuples (Fourier-Motzkin inside); twelve cross-checks on unbalanced m = 6
    tuples, whose cost sits just above start-up, around the 95th percentile;
    and 184 requests whose cost is mostly interpreter start-up and import."""
    rng = random.Random(f"cli/{seed}")
    reqs = []

    def add(argv, doc):
        doc["lambdas"] = [list(x) for x in doc["lambdas"]]
        reqs.append(Query("cli", "cli", argv[0], (tuple(argv), json.dumps(doc, sort_keys=True))))

    for k in range(4):
        lams = chain_tuple([rand_partition(rng, 2, 1) for _ in range(4)])
        add(["f", "--cross-check"], {"kind": "f_sun", "n": 2, "lambdas": lams})
    for k in range(12):
        lams = _unbalanced_tuple(rng, 2, 3, 6)
        if k < 6:
            add(["f", "--cross-check"], {"kind": "f_sun", "n": 2, "lambdas": lams})
        else:
            add(["positivity", "--cross-check"], {"kind": "positivity", "n": 2, "lambdas": lams})
    for k in range(184):
        r = k % 4
        if r == 0:
            lam, mu, nu, n = _pieri_triple(rng, zero=k % 12 == 4)
            add(["lr", "--cross-check"], {"kind": "lr", "n": n, "lambdas": [lam, mu, nu]})
        elif r == 1:
            lam, mu, nu, n = _rect_triple(rng, zero=k % 12 == 5)
            add(["lr", "--cross-check"], {"kind": "lr", "n": n, "lambdas": [lam, mu, nu]})
        elif r == 2:
            n, m = ((1, 6), (2, 4))[k % 8 // 4]
            lams = tuple(rand_partition(rng, n, 2) for _ in range(m))
            add(["cone", "--cross-check"] if k % 16 < 8 else ["cone"],
                {"kind": "cone", "n": n, "lambdas": lams})
        else:
            b = [rng.randint(0, 1) for _ in range(4)]
            add(["stretch"], {"kind": "stretch", "n": 2, "N_max": 3,
                              "lambdas": _level1_problem(b, 2).lambdas})
    rng.shuffle(reqs)
    return reqs


QUERY_BUILDERS = {"chain": chain_queries, "lp": lp_queries, "horn": horn_queries, "cli": cli_queries}


# ---------------------------------------------------------------------------
# one timed round


def call(q: Query):
    fn = getattr(MODULES[q.module], q.func)
    return fn(*q.args, **dict(q.kwargs))


def run_round(queries, timer=True) -> RoundResult:
    """Run every query once, in process, with every memo empty at the start.

    Ticks of ``speed.Meter`` come from its timer (without ``timer``, only one
    before and one after the queries, so that none falls inside a span of a
    traced round); their time is taken out of the query they fell in.
    """
    clear_memos()
    answers, starts, cpu = [], [], []
    clock = time.thread_time  # see speed.py: the process clock is coarse under the timer
    meter = Meter()
    w0, c0 = time.perf_counter(), clock()
    meter.tick()
    with meter if timer else contextlib.nullcontext():
        for q in queries:
            t0, ticked = clock(), meter.cpu_total
            try:
                ans = call(q)
            except Exception as exc:  # the checker decides which failures are known
                ans = exc
            cpu.append(clock() - t0 - (meter.cpu_total - ticked))
            starts.append(t0 - ticked)
            answers.append(ans)
    meter.tick()
    c1, w1 = clock(), time.perf_counter()
    return _result(answers, starts, cpu, c1 - c0, w1 - w0, meter)


def _result(answers, starts, cpu, cpu_s, wall_s, meter):
    return RoundResult(answers, cpu, meter.local_slowdowns(starts, cpu),
                       cpu_s - meter.cpu_total, wall_s - meter.wall_total,
                       meter.cpu_slowdown(), meter.wall_slowdown())


def cli_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli_round(queries, root, child=None) -> RoundResult:
    """One request at a time, each a fresh interpreter fed JSON on stdin.

    ``child`` replaces ``-m sunlr`` (the traced run passes its own wrapper).
    Each answer is (exit code, stdout, stderr).
    """
    env = cli_env(root)
    prefix = [sys.executable, "-m", "sunlr"] if child is None else [sys.executable, *child]
    answers, starts, cpu = [], [], []
    meter = ChildMeter()
    w0, own0, kids0 = time.perf_counter(), time.process_time(), children_cpu()
    meter.tick()
    for q in queries:
        argv, doc = q.args
        starts.append(meter.work_clock())
        t0 = children_cpu()
        proc = subprocess.run(
            [*prefix, *argv], input=doc, capture_output=True, text=True, env=env, cwd=root
        )
        cpu.append(children_cpu() - t0)
        answers.append((proc.returncode, proc.stdout, proc.stderr))
        meter.after(cpu[-1])
    meter.tick()
    own1, kids1, w1 = time.process_time(), children_cpu(), time.perf_counter()
    return _result(answers, starts, cpu, (own1 - own0) + (kids1 - kids0), w1 - w0, meter)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0
