#!/usr/bin/env python3
"""Replay a fixed corpus of CLI requests and compare or rewrite their golden output.

Usage:
    python scripts/regen_cli_golden.py --check   # replay tests/data/cli_golden.json, exit 1 on a mismatch
    python scripts/regen_cli_golden.py           # rewrite it from the requests below

Each entry holds a request (argv and the document on standard input) with
its exact standard output and exit code.  The corpus is every valid
document of ``tests/test_cli.py`` (imported, so pytest and hypothesis must
be installed), run plain, with ``--plain`` and, where
the subcommand takes it, with ``--cross-check``; and refused documents, one
or more for each value check an input passes through: integer and rational
entries, weak decrease, the rank, the flag count of each kind, ``of`` and
the variant; and the argv forms of ``USAGE``, accepted and refused.  A
change in the diff of the data file is a changed report or error payload.
"""

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from sunlr import cli  # noqa: E402
from test_cli import VALID  # noqa: E402  (one valid document per subcommand)

GOLDEN = ROOT / "tests" / "data" / "cli_golden.json"

ONES = [[1]] * 4

# (argv, document) of requests a value check refuses, and one echo of rationals
REFUSED = [
    # integer entries and weak decrease
    (["f"], {"kind": "f_sun", "n": 2, "lambdas": [[1.5], [1], [1], [1]]}),
    (["f"], {"kind": "f_sun", "n": 2, "lambdas": [[True], [1], [1], [1]]}),
    (["f"], {"kind": "f_sun", "n": 2, "lambdas": [["1"], [1], [1], [1]]}),
    (["f"], {"kind": "f_sun", "n": 2, "lambdas": [[0, 1], [1], [1], [1]]}),
    (["lr"], {"kind": "lr", "n": 2, "lambdas": [[1.5], [1], [2]]}),
    (["lr"], {"kind": "lr", "n": 2, "lambdas": [[None], [1], [2]]}),
    (["lr", "--cross-check"], {"kind": "lr", "n": 2, "lambdas": [[1, 2], [1], [2]]}),
    (["f1"], {"kind": "f1", "n": 2, "lambdas": [[False], [1], [1], [1]]}),
    (["f2"], {"kind": "f2", "n": 2, "lambdas": [[1], [0, 1], [1]]}),
    (["positivity"], {"kind": "positivity", "n": 2, "lambdas": [[1], [1], [1], [0.5]]}),
    (["stretch"], {"kind": "stretch", "n": 2, "N_max": 2, "lambdas": [[1.5], [1], [1], [1]]}),
    (["stretch"], {"kind": "stretch", "n": 2, "N_max": 2, "lambdas": [[1, 2], [2, 1], [1], [1]]}),
    (["factorize"], {"kind": "factorize", "n": 2, "lambdas": [[1.0], [1], [1], [1]]}),
    (["factorize"], {"kind": "factorize", "n": 2, "lambdas": [[[1]], [1], [1], [1]], "subsets": [[1], [1], [1], [1]]}),
    # rational entries
    (["cone"], {"kind": "cone", "n": 1, "lambdas": [[0.5], [1], [1], [1]]}),
    (["cone"], {"kind": "cone", "n": 1, "lambdas": [[True], [1], [1], [1]]}),
    (["cone"], {"kind": "cone", "n": 1, "lambdas": [["x"], [1], [1], [1]]}),
    (["cone"], {"kind": "cone", "n": 1, "lambdas": [["1/0"], [1], [1], [1]]}),
    (["cone"], {"kind": "cone", "n": 1, "lambdas": [[None], [1], [1], [1]]}),
    (["cone", "--cross-check"], {"kind": "cone", "n": 1, "lambdas": [[[1]], [1], [1], [1]]}),
    (["cone"], {"kind": "cone", "n": 2, "lambdas": [["1/2", "1"], [1], [1], [1]]}),
    (["cone"], {"kind": "cone", "n": 2, "lambdas": [["2/4", 0], [" 1/2 "], ["3/3"], ["-1/2", "-1/2"]]}),
    # the rank
    (["f"], {"kind": "f_sun", "n": 0, "lambdas": ONES}),
    (["f1"], {"kind": "f1", "n": 0, "lambdas": [[]] * 4}),
    (["f2"], {"kind": "f2", "n": -1, "lambdas": [[]] * 3}),
    (["lr"], {"kind": "lr", "n": 0, "lambdas": [[], [], []]}),
    (["positivity"], {"kind": "positivity", "n": -1, "lambdas": ONES}),
    (["cone"], {"kind": "cone", "n": 0, "lambdas": [[]] * 4}),
    (["cone"], {"kind": "cone", "n": 0, "lambdas": [[1], [], [], []]}),
    (["horn-gen"], {"kind": "horn_gen", "n": 0, "m": 4}),
    (["stretch"], {"kind": "stretch", "n": 0, "N_max": 2, "lambdas": [[]] * 4}),
    (["factorize"], {"kind": "factorize", "n": 0, "lambdas": [[]] * 4, "subsets": [[]] * 4}),
    # the flag count of each kind
    (["f"], {"kind": "f_sun", "n": 1, "lambdas": [[1]] * 5}),
    (["f", "--cross-check"], {"kind": "f_sun", "n": 1, "m": 2, "lambdas": [[1]] * 2}),
    (["f1"], {"kind": "f1", "n": 1, "lambdas": [[1]] * 3}),
    (["f2"], {"kind": "f2", "n": 1, "lambdas": [[1]] * 2}),
    (["positivity"], {"kind": "positivity", "n": 1, "lambdas": [[1]] * 5}),
    (["cone"], {"kind": "cone", "n": 1, "m": 5, "lambdas": [[1]] * 5}),
    (["horn-gen"], {"kind": "horn_gen", "n": 1, "m": 5}),
    (["horn-gen"], {"kind": "horn_gen", "n": 1, "m": 2}),
    (["factorize"], {"kind": "factorize", "n": 1, "lambdas": [[1]] * 5}),
    (["factorize"], {"kind": "factorize", "n": 1, "lambdas": [[1]] * 3, "subsets": [[1]] * 3}),
    # of
    (["stretch"], {"kind": "stretch", "n": 1, "N_max": 2, "of": "bogus", "lambdas": ONES}),
    (["stretch"], {"kind": "stretch", "n": 1, "N_max": 2, "of": ["f1"], "lambdas": ONES}),
    # the variant, also where --variant overrides it
    (["cone"], {"kind": "cone", "n": 1, "variant": "bogus", "lambdas": [[1], [], [], []]}),
    (["cone"], {"kind": "cone", "n": 1, "variant": None, "lambdas": ONES}),
    (["cone", "--variant", "one"], {"kind": "cone", "n": 1, "variant": "bogus", "lambdas": ONES}),
    (["horn-gen"], {"kind": "horn_gen", "n": 1, "m": 4, "variant": "bogus"}),
    (["horn-gen", "--variant", "nonzero"], {"kind": "horn_gen", "n": 1, "m": 4, "variant": ["one"]}),
]


# argv forms the parser accepts or refuses, each with its subcommand's valid
# document (``f``'s where there is no subcommand): a missing or unknown
# subcommand, a flag value that is no int, missing or an option, ``=`` values,
# a negative budget, a repeated flag (the last one wins), unique prefixes, a
# bad choice, an explicit value for a switch, positionals and ``--``
USAGE = [
    [],
    ["nosuch"],
    ["f", "--budget", "x"],
    ["f", "--budget"],
    ["f", "--budget", "--plain"],
    ["f", "--budget", "-x"],
    ["f", "--budget=--plain"],
    ["f", "--file"],
    ["f", "--budget=5"],
    ["f", "--budget", "-1"],
    ["f", "--budget=-1"],
    ["f", "--budget", "3", "--budget", "1000"],
    ["f", "--cross"],
    ["f", "--pl"],
    ["f", "--b", "5"],
    ["f", "--=x"],
    ["cone", "--variant", "bogus"],
    ["cone", "--variant=nonzero"],
    ["f", "--plain=1"],
    ["f", "--cross-check=1"],
    ["f", "extra"],
    ["f", "-x", "5"],
    ["f", "--", "--plain"],
    ["--plain", "f"],
    ["facets26", "--b", "5"],
]


def requests():
    """(argv, stdin) of every request of the corpus, in order."""
    out = []
    for sub, document in VALID.items():
        text = json.dumps(document)
        out += [([sub], text), ([sub, "--plain"], text)]
        if "--cross-check" in cli.SUBCOMMANDS[sub][2]:
            out.append(([sub, "--cross-check"], text))
    out += [(argv, json.dumps(document)) for argv, document in REFUSED]
    return out + [(argv, json.dumps(VALID.get(argv[0] if argv else "f", VALID["f"]))) for argv in USAGE]


def replay(argv, stdin):
    """(exit code, standard output) of one request, run in this process."""
    out = io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)), contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--check", action="store_true", help="compare with the golden file, exit 1 on a mismatch")
    args = parser.parse_args()

    if not args.check:
        entries = []
        for argv, stdin in requests():
            code, stdout = replay(argv, stdin)
            entries.append({"argv": argv, "stdin": stdin, "exit": code, "stdout": stdout})
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(entries)} requests to {GOLDEN}")
        return 0

    entries = json.loads(GOLDEN.read_text())
    mismatches = [(e["argv"], e["stdin"]) for e in entries] != requests()
    if mismatches:
        print(f"the requests of {GOLDEN.name} are not the requests above; rewrite it")
    for entry in entries:
        code, stdout = replay(entry["argv"], entry["stdin"])
        if (code, stdout) != (entry["exit"], entry["stdout"]):
            mismatches += 1
            print(f"MISMATCH {' '.join(entry['argv'])} {entry['stdin']}")
            print(f"  expected exit {entry['exit']}: {entry['stdout'].strip()[:300]}")
            print(f"  got      exit {code}: {stdout.strip()[:300]}")
    print(f"{len(entries) - mismatches} of {len(entries)} requests match {GOLDEN.name}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
