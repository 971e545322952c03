#!/usr/bin/env python3
"""Exhaustive agreement sweep over all four evaluation routes.

For every tuple of partitions in the requested box, compares the chain
sum, the glued-hive count, the quiver weight-space dimension, and LP
positivity twice: from the per-shape reduced system (``positivity``) and
from the full system built for the one boundary (``lp_feasible``).  When
generate_T's 2^(nm) candidates fit its default budget, Horn cone
membership must equal f != 0 as well, decided five ways: ``in_cone`` with
either variant, which reads only the rows its two-term sieve keeps; every
row of either variant's ``generate_T`` list plus the balance equality (a
row wrongly sieved would let ``in_cone`` admit what its list refuses); and
the ``minimal_facets`` rows plus the balance equality alone (a facet
wrongly dropped as redundant would admit a non-member).  Every tuple
with f = 1 or f = 2 must also stretch like a single LR coefficient:
f(N * lambda) = 1, resp. N + 1, for N = 2 and 3 (Knutson-Tao-Woodward,
Ikenmeyer).  Any disagreement is a bug and aborts with the witness.

Usage: python scripts/oracle_sweep.py [n] [m] [max_entry]
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sunlr.generalized import f_sun  # noqa: E402
from sunlr.hive import build_linear_system, count_sun_hives, lp_feasible, positivity  # noqa: E402
from sunlr.horn import DEFAULT_T_BUDGET, VARIANTS, generate_T, in_cone, minimal_facets  # noqa: E402
from sunlr.partitions import iter_partition_tuples, pad, size, stretch  # noqa: E402
from sunlr.quiver import SunQuiver, dim_si_sun, weight_sigma1  # noqa: E402


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    m = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    max_entry = int(sys.argv[3]) if len(sys.argv) > 3 else 2
    Q = SunQuiver(n, m // 2)
    variants = VARIANTS if 2 ** (n * m) <= DEFAULT_T_BUDGET else ()
    facets = minimal_facets(n, m) if variants else None
    full_lists = [generate_T(n, m, v) for v in variants]
    started = time.time()
    checked = 0
    nonzero = 0
    small = {1: 0, 2: 0}  # tuples with f = 1 and f = 2, each checked stretched
    lp_cpu = [0.0, 0.0]  # CPU seconds in positivity and in the uncached reference
    for lams in iter_partition_tuples(n, max_entry, m):
        value = f_sun(lams, n)
        hives = count_sun_hives(lams, n)
        weight_space = dim_si_sun(Q, weight_sigma1(lams, n))
        t0 = time.process_time()
        lp = positivity(lams, n, m)
        t1 = time.process_time()
        lp_full = lp_feasible(build_linear_system(lams, n, m))
        lp_cpu[0] += t1 - t0
        lp_cpu[1] += time.process_time() - t1
        horn = [in_cone(lams, n, m, v) for v in variants]
        if facets is not None:
            full = [pad(l, n) for l in lams]
            balanced = sum(map(size, lams[0::2])) == sum(map(size, lams[1::2]))
            horn += [balanced and all(st.holds(full) for st in rows) for rows in (*full_lists, facets)]
        if not (value == hives == weight_space and lp == lp_full == (value > 0)
                and all(h == (value > 0) for h in horn)):
            print(f"DISAGREEMENT at {lams}: chain={value} hives={hives} "
                  f"weight={weight_space} lp={lp} lp_full={lp_full} "
                  f"in_cone={horn} (in_cone per variant, full lists per variant, then facets)")
            return 1
        if value in (1, 2):
            for N in (2, 3):
                stretched = f_sun([stretch(l, N) for l in lams], n)
                if stretched != (1 if value == 1 else N + 1):
                    print(f"STRETCH FAILURE at {lams}: f={value} but f({N} * lambda)={stretched}")
                    return 1
            small[value] += 1
        checked += 1
        nonzero += value > 0
    horn_note = (f"in_cone, full lists and {len(facets)} facets checked" if variants
                 else "in_cone skipped: 2^(nm) over its budget")
    print(f"n={n} m={m} entries<={max_entry}: {checked} tuples agree "
          f"({nonzero} nonzero; {horn_note}; f = 1, 2 stretched on {small[1]}/{small[2]}) "
          f"in {time.time()-started:.1f}s; LP CPU {lp_cpu[0]:.2f}s cached, {lp_cpu[1]:.2f}s uncached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
