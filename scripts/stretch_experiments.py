#!/usr/bin/env python3
"""Stretched multiplicity tables f(N*lambda) for a few weight families.

Level-1 families must print binomials C(N+s, N); the last examples go
beyond level 1, where no closed form is implemented and the chain engine
does the work.  A quick empirical check of the P(1)=1 and P(1)=2 patterns.
Exits 1 when a level-1 table differs from its closed form.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sunlr.generalized import ChainProblem, LevelOneSpec, level1_f, level1_lambdas, stretched_table  # noqa: E402

N_MAX = 6

FAMILIES = [
    ("level-1, j=(1,1,1,1)", ChainProblem("f_sun", 2, level1_lambdas(LevelOneSpec((1, 1, 1, 1)), 1))),
    ("level-1, j=(2,1,1,2,1,1)", ChainProblem("f_sun", 2, level1_lambdas(LevelOneSpec((2, 1, 1, 2, 1, 1)), 1))),
    ("level-1, j=(2,2,2,2)", ChainProblem("f_sun", 2, level1_lambdas(LevelOneSpec((2, 2, 2, 2)), 1))),
    ("hooks, m=4", ChainProblem("f_sun", 2, ((2, 1), (2, 1), (2, 1), (2, 1)))),
    ("mixed, m=6", ChainProblem("f_sun", 2, ((2, 1), (2, 1), (1, 1), (1, 1), (1, 0), (1, 0)))),
]


def main():
    mismatches = 0
    for label, problem in FAMILIES:
        values = stretched_table(problem, N_MAX)
        print(f"{label:28s} N=1..{N_MAX}: {values}")
        if label.startswith("level-1"):
            jumps = tuple(len(l) for l in problem.lambdas)
            spec = LevelOneSpec(jumps)
            closed = [level1_f(spec, N) for N in range(1, N_MAX + 1)]
            status = "ok" if closed == values else "MISMATCH"
            mismatches += closed != values
            print(f"{'':28s} closed form:   {closed}  [{status}]")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
